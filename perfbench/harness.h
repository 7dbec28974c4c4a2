// Measurement plumbing for the wall-clock benchmark: clock, percentiles,
// process CPU counters, the self-checking message format and the JSON
// result line. Nothing here knows about a particular workload.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/base/types.h"

namespace perfbench {

using flipc::TimeNs;

// The one clock of the benchmark. Cluster stamps engine trace records with
// the same RealClock, so app stamps and trace stamps compare directly.
inline TimeNs NowNs() { return flipc::RealClock::Instance().NowNs(); }

// Nearest-rank percentile (q in [0, 1]); reorders `samples`. 0 when empty.
double Percentile(std::vector<std::int64_t>& samples, double q);

// A latency distribution in fixed memory: exact to the nanosecond below
// 4096 ns, then 256 buckets per power of two (0.4% resolution). Recording
// is one increment, so a timed window never allocates however many
// messages it sees.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kBuckets, 0) {}

  void Add(std::int64_t ns) {
    ++counts_[Bucket(ns)];
    ++count_;
  }
  void Merge(const LatencyHistogram& other);
  std::uint64_t count() const { return count_; }

  // Nearest-rank percentile (q in [0, 1]): the lower edge of the bucket
  // holding that rank, in ns. 0 when empty.
  double Percentile(double q) const;

 private:
  static constexpr int kExactBits = 12;
  static constexpr int kSubBits = 8;
  static constexpr int kMaxExponent = 40;  // the top bucket ends at 2^41 ns, ~37 min
  static constexpr std::size_t kBuckets =
      (std::size_t{1} << kExactBits) + (kMaxExponent - kExactBits + 1) * (1u << kSubBits);

  static std::size_t Bucket(std::int64_t ns);
  static std::int64_t LowerEdge(std::size_t bucket);

  std::vector<std::uint32_t> counts_;
  std::uint64_t count_ = 0;
};

// Reserves room for `n` samples and faults the pages in, so recording a
// sample inside a timed window never reallocates or page-faults.
template <typename T>
void Prefault(std::vector<T>& samples, std::size_t n) {
  samples.assign(n, T{});
  samples.clear();
}

// Process-wide CPU and context-switch counters (getrusage, all threads).
struct OsCounters {
  double user_s = 0;
  double sys_s = 0;
  double vcsw = 0;   // voluntary context switches
  double ivcsw = 0;  // involuntary context switches

  static OsCounters Now();
  OsCounters operator-(const OsCounters& earlier) const;
};

// Every benchmark message starts with this header. The checksum is FNV-1a
// (src/base/checksum.h) over the body, continued over source, seq and id.
// The stamp is written last, just before the send, and is left out so
// stamping costs no hash.
struct MessageHeader {
  std::uint32_t source = 0;  // sending endpoint, as an index into the run's sources
  std::uint32_t seq = 0;     // per-source sequence number
  std::uint64_t id = 0;      // run-wide message id, in send order
  std::int64_t stamp_ns = 0; // send time (closed loop) or due time (open loop)
  std::uint64_t checksum = 0;
};
static_assert(sizeof(MessageHeader) == 32);

// Seeded message bodies: a small pool of random patterns whose hashes are
// computed once, so the bytes differ from seed to seed while building a
// message costs one copy and a 16-byte hash. Checking compares the body
// with the pattern the id names; when they match, the precomputed hash is
// exactly FNV-1a of the received body, so the checksum check needs no
// per-byte hashing on the receive path.
class PayloadPool {
 public:
  PayloadPool(std::uint64_t seed, std::size_t body_size);

  // Writes message `header->id`'s body and sets `header->checksum`.
  void Fill(MessageHeader* header, std::byte* body) const;
  // True when `body` is message `header.id`'s body and the checksum holds.
  bool Verify(const MessageHeader& header, const std::byte* body) const;

 private:
  static constexpr std::size_t kPatterns = 64;
  static std::uint64_t Checksum(const MessageHeader& header, std::uint64_t body_hash);

  std::size_t body_size_;
  std::vector<std::byte> bytes_;
  std::vector<std::uint64_t> hashes_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// {"name": {"value": v, "unit": u}, ...} with every digit of each value.
std::string MetricsJson(const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
