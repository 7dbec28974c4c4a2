#include "perfbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/base/checksum.h"
#include "src/base/rng.h"

namespace perfbench {

double Percentile(std::vector<std::int64_t>& samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(samples.size())));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return static_cast<double>(*nth);
}

std::size_t LatencyHistogram::Bucket(std::int64_t ns) {
  if (ns < (std::int64_t{1} << kExactBits)) {
    return ns < 0 ? 0 : static_cast<std::size_t>(ns);
  }
  const int exponent =
      std::min(kMaxExponent, 63 - __builtin_clzll(static_cast<std::uint64_t>(ns)));
  const auto mantissa = static_cast<std::size_t>(
      (static_cast<std::uint64_t>(ns) >> (exponent - kSubBits)) & ((1u << kSubBits) - 1));
  return (std::size_t{1} << kExactBits) +
         static_cast<std::size_t>(exponent - kExactBits) * (1u << kSubBits) + mantissa;
}

std::int64_t LatencyHistogram::LowerEdge(std::size_t bucket) {
  if (bucket < (std::size_t{1} << kExactBits)) {
    return static_cast<std::int64_t>(bucket);
  }
  const std::size_t rest = bucket - (std::size_t{1} << kExactBits);
  const int exponent = kExactBits + static_cast<int>(rest >> kSubBits);
  const auto mantissa = static_cast<std::int64_t>(rest & ((1u << kSubBits) - 1));
  return ((std::int64_t{1} << kSubBits) + mantissa) << (exponent - kSubBits);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
}

double LatencyHistogram::Percentile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      return static_cast<double>(LowerEdge(i));
    }
  }
  return static_cast<double>(LowerEdge(kBuckets - 1));
}

OsCounters OsCounters::Now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  OsCounters out;
  out.user_s = static_cast<double>(usage.ru_utime.tv_sec) +
               static_cast<double>(usage.ru_utime.tv_usec) * 1e-6;
  out.sys_s = static_cast<double>(usage.ru_stime.tv_sec) +
              static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
  out.vcsw = static_cast<double>(usage.ru_nvcsw);
  out.ivcsw = static_cast<double>(usage.ru_nivcsw);
  return out;
}

OsCounters OsCounters::operator-(const OsCounters& earlier) const {
  return {user_s - earlier.user_s, sys_s - earlier.sys_s, vcsw - earlier.vcsw,
          ivcsw - earlier.ivcsw};
}

PayloadPool::PayloadPool(std::uint64_t seed, std::size_t body_size)
    : body_size_(body_size), bytes_(kPatterns * body_size) {
  flipc::Rng rng(seed);
  for (std::byte& b : bytes_) {
    b = static_cast<std::byte>(rng() >> 56);
  }
  for (std::size_t i = 0; i < kPatterns; ++i) {
    hashes_.push_back(flipc::Fnv1a(bytes_.data() + i * body_size_, body_size_));
  }
}

std::uint64_t PayloadPool::Checksum(const MessageHeader& header, std::uint64_t body_hash) {
  return flipc::Fnv1a(&header, offsetof(MessageHeader, stamp_ns), body_hash);
}

void PayloadPool::Fill(MessageHeader* header, std::byte* body) const {
  const std::size_t pattern = header->id % kPatterns;
  std::memcpy(body, bytes_.data() + pattern * body_size_, body_size_);
  header->checksum = Checksum(*header, hashes_[pattern]);
}

bool PayloadPool::Verify(const MessageHeader& header, const std::byte* body) const {
  const std::size_t pattern = header.id % kPatterns;
  return std::memcmp(body, bytes_.data() + pattern * body_size_, body_size_) == 0 &&
         header.checksum == Checksum(header, hashes_[pattern]);
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char number[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(number, sizeof(number), "%.17g", v);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + number +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace perfbench
