// Real-concurrency engine driver: runs a MessagingEngine's event loop on a
// dedicated host thread, standing in for the Paragon MP3 node's message
// coprocessor. Used by the examples and the multi-threaded stress tests.
#ifndef SRC_ENGINE_ENGINE_RUNNER_H_
#define SRC_ENGINE_ENGINE_RUNNER_H_

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "src/base/hotpath.h"
#include "src/base/types.h"
#include "src/engine/messaging_engine.h"

namespace flipc::engine {

class EngineRunner {
 public:
  struct Options {
    // Pin the loop thread to this CPU (Linux only; -1 = unpinned). With the
    // sharded engine, pinning each shard's planner to its own core keeps a
    // shard's comm-buffer slice resident in that core's cache — the NUMA
    // placement half of DESIGN.md §12.
    int pin_cpu = -1;
    // Read-touch the engine's endpoint-range slice of the comm buffer from
    // the loop thread before entering the loop. On first-touch NUMA
    // systems this faults the shard's pages onto the planner's node; on
    // UMA hosts it is a cheap cache warm.
    bool warm_touch = false;
    // Longest the loop parks on its idle condvar before re-polling. The
    // park is capped further by the engine's next unthrottle deadline (see
    // IdleParkNs): a throttled endpoint whose gate lapses sooner than this
    // must not wait out the full interval — that was the fixed-200us bug
    // that added up to 200us of latency to every rate-limited release
    // arriving while the node was otherwise quiet.
    DurationNs max_idle_park_ns = 200'000;
  };

  // Takes a non-owning reference; the engine (and everything it references)
  // must outlive the runner.
  explicit EngineRunner(MessagingEngine& engine) : EngineRunner(engine, Options()) {}
  EngineRunner(MessagingEngine& engine, Options options);
  ~EngineRunner();
  EngineRunner(const EngineRunner&) = delete;
  EngineRunner& operator=(const EngineRunner&) = delete;

  void Start();
  void Stop();

  // Wakes the loop if it is sleeping in its idle backoff. The application
  // library calls this after releasing buffers; the fabric's delivery
  // callback should also be pointed here.
  void Kick();

  bool running() const { return running_.load(std::memory_order_acquire); }

  // Times the loop exhausted its spin budget and parked on the idle
  // condvar. With the doorbell scheduler this should grow only while the
  // node is genuinely quiet; parks during steady traffic mean lost kicks.
  std::uint64_t idle_parks() const { return idle_parks_.load(std::memory_order_relaxed); }

  // Total Kick() calls observed; with idle_parks() this is the kick-path
  // liveness picture the failure-scenario tests assert over.
  std::uint64_t kicks() const { return kicks_.load(std::memory_order_relaxed); }

  // How long an idle park may sleep, given the engine's earliest
  // unthrottle instant. Pure so the regression test can pin the edge
  // cases: no throttled work (kTimeNever) sleeps the configured maximum, a
  // lapsed gate does not sleep at all, and a pending gate caps the sleep
  // at exactly the remaining wait.
  static DurationNs IdleParkNs(TimeNs now, TimeNs next_unthrottle,
                               DurationNs max_park_ns) {
    if (next_unthrottle == kTimeNever) {
      return max_park_ns;
    }
    if (next_unthrottle <= now) {
      return 0;
    }
    const TimeNs remaining = next_unthrottle - now;
    return remaining < max_park_ns ? remaining : max_park_ns;
  }

 private:
  FLIPC_ROLE_ENGINE void Loop();

  // Placement steps run once at loop start, on the loop thread.
  void ApplyPlacement();

  MessagingEngine& engine_;
  Options options_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> idle_parks_{0};

  // Idle parking. The real coprocessor spins; on a shared host we spin
  // briefly and then park, to keep single-CPU test machines usable.
  // Kick() writes the mutex and kicks_ on every call while the loop reads
  // stop_ on every iteration, so the three groups are a cache line apart:
  // sharing lines made every kick pay several cross-core transfers, and
  // perfbench's stream rate fell by a quarter on a 4-vCPU x86-64 VM.
  // Padding rather than alignas keeps the runner an ordinary heap
  // allocation, which set-up time notices.
  char pad_stop_[kCacheLineSize] = {};
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  char pad_park_[kCacheLineSize] = {};
  std::atomic<std::uint64_t> kicks_{0};
  char pad_kicks_[kCacheLineSize] = {};
};

}  // namespace flipc::engine

#endif  // SRC_ENGINE_ENGINE_RUNNER_H_
