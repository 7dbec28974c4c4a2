#include "src/engine/engine_runner.h"

#include <chrono>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "src/base/hotpath.h"
#include "src/waitfree/boundary_check.h"

namespace flipc::engine {

EngineRunner::EngineRunner(MessagingEngine& engine, Options options)
    : engine_(engine), options_(options) {}

EngineRunner::~EngineRunner() { Stop(); }

void EngineRunner::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return;
  }
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
}

void EngineRunner::Stop() {
  if (!running_.load(std::memory_order_acquire)) {
    return;
  }
  stop_.store(true, std::memory_order_release);
  Kick();
  thread_.join();
  running_.store(false, std::memory_order_release);
}

void EngineRunner::Kick() {
  {
    // Bump under the park mutex (the standard condvar rule). The parking
    // loop evaluates its predicate and blocks atomically with respect to
    // idle_mutex_; a bump made without it could land between that check
    // and the block, and its notify would then wake nobody — the kick was
    // lost until max_idle_park_ns ran out.
    std::lock_guard<std::mutex> lock(idle_mutex_);
    kicks_.fetch_add(1, std::memory_order_release);
  }
  idle_cv_.notify_one();
}

void EngineRunner::ApplyPlacement() {
#if defined(__linux__)
  if (options_.pin_cpu >= 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<unsigned>(options_.pin_cpu), &set);
    // Best-effort: an out-of-range CPU (smaller machine than the assembly
    // assumed) leaves the thread unpinned rather than failing the node.
    (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  }
#endif
  if (options_.warm_touch) {
    // Touch this shard's endpoint-record and telemetry slice from the
    // (possibly just-pinned) loop thread. Reads suffice: the comm buffer
    // is already formatted, so this orders no writes — it only pulls the
    // slice local (first-touch already happened at format; on NUMA hosts
    // pinning + an eventual kernel migration or a hugepage-local format
    // policy do the rest).
    std::uint64_t acc = 0;
    shm::CommBuffer& comm = engine_.comm();
    for (std::uint32_t i = engine_.shard_first_endpoint();
         i < engine_.shard_end_endpoint(); ++i) {
      acc += comm.endpoint(i).queue_capacity.ReadRelaxed();
      acc += comm.telemetry(i).engine_transmits.ReadRelaxed();
    }
    volatile std::uint64_t sink = acc;
    (void)sink;
  }
}

void EngineRunner::Loop() {
  // This thread IS the messaging engine — one shard planner of it, when
  // sharded: register it with the ownership race detector (qualified by
  // the engine's shard) so any write it makes to an application-owned word
  // OR another shard's engine-owned word in the communication buffer
  // aborts with a diagnostic (no-op unless FLIPC_CHECK_SINGLE_WRITER).
  waitfree::BoundaryRole::BindCurrentThread(waitfree::Writer::kEngine,
                                            engine_.shard_id());
  ApplyPlacement();

  // Number of consecutive empty polls before parking.
  constexpr int kSpinBudget = 64;
  int idle_polls = 0;
  std::uint64_t kicks_before = 0;

  FLIPC_UNBOUNDED_WAIT("engine thread main loop: runs until Stop()");
  while (!stop_.load(std::memory_order_acquire)) {
    if (idle_polls == kSpinBudget - 1) {
      // Snapshot the kick count before the last look ahead of a park: a
      // kick that lands after this (empty) Step then cancels the park, and
      // one that landed before it published work this Step sees. Reading
      // it only here, not every iteration, keeps the spinning loop off the
      // line every kick writes.
      kicks_before = kicks_.load(std::memory_order_acquire);
    }
    if (engine_.Step()) {
      idle_polls = 0;
      continue;
    }
    if (++idle_polls < kSpinBudget) {
      std::this_thread::yield();
      continue;
    }
    // Parking the engine's host thread is a blocking call. The engine has
    // already reported no work, so no hot-path scope should be open here —
    // if one ever is, the guard makes the mistake loud.
    hotpath::OnBlockingCall("EngineRunner idle park");
    // Cap the park at the engine's earliest unthrottle instant: a doorbell
    // kick wakes the loop for NEW work, but work already queued behind a
    // rate gate generates no kick when the gate lapses — only the timeout
    // can discover it, so the timeout must not overshoot the gate.
    const Clock* clock = engine_.clock();
    const TimeNs now = clock != nullptr ? clock->NowNs() : 0;
    const DurationNs park_ns =
        IdleParkNs(now, engine_.NextUnthrottleTime(), options_.max_idle_park_ns);
    idle_parks_.fetch_add(1, std::memory_order_relaxed);
    if (park_ns > 0) {
      std::unique_lock<std::mutex> lock(idle_mutex_);
      idle_cv_.wait_for(lock, std::chrono::nanoseconds(park_ns), [&] {
        return stop_.load(std::memory_order_acquire) ||
               kicks_.load(std::memory_order_acquire) != kicks_before;
      });
    }
    idle_polls = 0;
  }

  waitfree::BoundaryRole::UnbindCurrentThread();
}

}  // namespace flipc::engine
