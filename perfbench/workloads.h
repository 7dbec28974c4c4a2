// The benchmark's three workloads over the real-thread assembly: Cluster,
// two nodes, one planner shard per node, each MessagingEngine on its own
// EngineRunner thread over ThreadFabric. One application thread (the
// caller's) drives every endpoint, so a run uses three threads.
//
//   pingpong  closed loop, one message outstanding, 64 B messages
//   stream    closed window: 16 senders x 4 in flight into one sink, 64 B
//   fanin     open loop at 100k msg/s over 64 senders into one sink, 1 KiB
//
// Every run checks its own output (FIFO order, duplicates, checksums,
// conservation, the comm-buffer telemetry identities) and fails when a
// check does.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/harness.h"

namespace perfbench {

// Deliberate faults that prove the output checks fire (selftest.py).
enum class Inject {
  kNone,
  kShortSink,  // sinks post 4 buffers: the engine must drop, conservation must hold
  kSwapSeq,    // one pair of sequence numbers is exchanged: the order check must trip
  kFlipByte,   // one body byte is flipped after checksumming: the checksum must trip
  kSkipRecord, // traced run: one kEngineSend record is left out of the join, so the
               // later messages of its buffer are joined one record off: the trace
               // check must trip
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  // false: the end-to-end run (no trace, no per-call clock reads).
  // true: an untraced half for counters, then a traced half for the
  // per-layer timings and the Figure 2 stage table.
  bool trace = false;
  Inject inject = Inject::kNone;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // refused + dropped + messages that failed a check
  std::vector<Check> checks;
  std::vector<Metric> metrics;  // the metrics of the requested mode
  std::vector<Metric> detail;   // sample counts and supporting figures

  bool correct() const {
    for (const Check& check : checks) {
      if (!check.ok) {
        return false;
      }
    }
    return true;
  }
};

bool KnownWorkload(const std::string& name);

// Runs one workload; a setup failure is reported as a failed check.
Report RunBenchmark(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
