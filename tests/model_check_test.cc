// Bounded exhaustive model checking of the wait-free structures.
//
// Stress tests sample interleavings; these tests ENUMERATE them. Because
// the application/engine protocol is wait-free with single-writer cells,
// every concurrent execution is equivalent to some interleaving of the two
// sides' atomic operations — and each side's operations are short,
// deterministic sequences. We therefore explore every interleaving of
// bounded operation sequences (up to a few thousand schedules) and check
// the queue and drop-counter invariants against a reference model in every
// one of them. A violation prints the exact schedule that produced it.
//
// The operation mixes and expected schedule counts for the rings (buffer
// queue, doorbell, and the lap ring under both its stores) are GENERATED
// from the protocol IR the static certifier exports
// (tests/generated_model_schedules.h — see tools/flipc_static_audit
// --emit-schedules): when the wait-free protocol changes, the drift ctest
// regenerates the seeds rather than this file silently model-checking a
// stale operation mix. The drop-counter tests at the bottom are documented
// extras — the structure is a counter, not one of the generated rings.
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/waitfree/boundary_check.h"
#include "src/waitfree/buffer_queue.h"
#include "src/waitfree/doorbell_ring.h"
#include "src/waitfree/drop_counter.h"
#include "src/waitfree/handoff_ring.h"
#include "tests/generated_model_schedules.h"

namespace flipc::waitfree {
namespace {

namespace gen = flipc::generated_schedules;

// Explores all interleavings of two operation sequences. Each operation is
// a callback; `check` runs after every operation with the schedule string.
//
// Every operation executes under the boundary role of its side, so in a
// FLIPC_CHECK_SINGLE_WRITER build each enumerated schedule also runs with
// the ownership race detector armed: an app op that wrote an engine-owned
// cursor (or vice versa) in ANY interleaving would abort the test.
void ForAllInterleavings(const std::vector<std::function<void()>>& app_ops,
                         const std::vector<std::function<void()>>& engine_ops,
                         const std::function<void(const std::string&)>& check,
                         const std::function<void()>& reset) {
  // Schedules are bitstrings: at each step pick app (a) or engine (e).
  const std::size_t total = app_ops.size() + engine_ops.size();
  std::vector<bool> schedule(total);

  std::function<void(std::size_t, std::size_t, std::size_t)> recurse =
      [&](std::size_t step, std::size_t a_done, std::size_t e_done) {
        if (step == total) {
          // Replay this complete schedule from a fresh state.
          reset();
          std::string description;
          std::size_t ai = 0, ei = 0;
          for (std::size_t s = 0; s < total; ++s) {
            if (schedule[s]) {
              ScopedBoundaryRole role(Writer::kApplication);
              app_ops[ai++]();
              description += 'a';
            } else {
              ScopedBoundaryRole role(Writer::kEngine);
              engine_ops[ei++]();
              description += 'e';
            }
            check(description);
          }
          return;
        }
        if (a_done < app_ops.size()) {
          schedule[step] = true;
          recurse(step + 1, a_done + 1, e_done);
        }
        if (e_done < engine_ops.size()) {
          schedule[step] = false;
          recurse(step + 1, a_done, e_done + 1);
        }
      };
  recurse(0, 0, 0);
}

// ---- Queue: application releases/acquires vs engine peek/advance ----------

class QueueModel {
 public:
  static constexpr std::uint32_t kCapacity = gen::kModelCapacity;

  void Reset() {
    queue_ = std::make_unique<InlineBufferQueue<kCapacity>>();
    released_ = 0;
    processed_ = 0;
    acquired_ = 0;
  }

  // App op: release the next sequential value if the queue accepts it.
  void AppRelease() {
    if (queue_->view().Release(released_)) {
      ++released_;
    }
  }

  // App op: acquire, verifying FIFO against the model.
  void AppAcquire(const std::string& schedule) {
    const BufferIndex value = queue_->view().Acquire();
    if (value != kInvalidBuffer) {
      ASSERT_EQ(value, acquired_) << "out-of-order acquire in schedule " << schedule;
      ++acquired_;
    }
  }

  // Engine op: peek + advance one item if present, verifying FIFO.
  void EngineProcess(const std::string& schedule) {
    const BufferIndex value = queue_->view().PeekProcess();
    if (value != kInvalidBuffer) {
      ASSERT_EQ(value, processed_) << "out-of-order process in schedule " << schedule;
      queue_->view().AdvanceProcess();
      ++processed_;
    }
  }

  void CheckInvariants(const std::string& schedule) {
    // The model's cursor ordering must hold after every step.
    ASSERT_LE(acquired_, processed_) << schedule;
    ASSERT_LE(processed_, released_) << schedule;
    ASSERT_LE(released_ - acquired_, kCapacity) << schedule;
    ASSERT_EQ(queue_->view().Size(), released_ - acquired_) << schedule;
    ASSERT_EQ(queue_->view().ProcessableCount(), released_ - processed_) << schedule;
    ASSERT_EQ(queue_->view().AcquirableCount(), processed_ - acquired_) << schedule;
  }

 private:
  std::unique_ptr<InlineBufferQueue<kCapacity>> queue_;
  std::uint32_t released_ = 0;
  std::uint32_t processed_ = 0;
  std::uint32_t acquired_ = 0;
};

TEST(ModelCheck, QueueSteadyStateInterleavings) {
  QueueModel model;
  std::string current_schedule;

  // App side from the generated release/acquire mix ('R'/'A').
  std::vector<std::function<void()>> app_ops;
  for (const char* p = gen::kQueueSteadyAppOps; *p != '\0'; ++p) {
    if (*p == 'R') {
      app_ops.emplace_back([&] { model.AppRelease(); });
    } else {
      app_ops.emplace_back([&] { model.AppAcquire(current_schedule); });
    }
  }
  std::vector<std::function<void()>> engine_ops;
  for (unsigned i = 0; i < gen::kQueueSteadyEngineProcessOps; ++i) {
    engine_ops.emplace_back([&] { model.EngineProcess(current_schedule); });
  }

  int schedules = 0;
  ForAllInterleavings(
      app_ops, engine_ops,
      [&](const std::string& schedule) {
        current_schedule = schedule;
        model.CheckInvariants(schedule);
        if (schedule.size() == app_ops.size() + engine_ops.size()) {
          ++schedules;
        }
      },
      [&] { model.Reset(); });
  EXPECT_EQ(schedules, gen::kQueueSteadySchedules);
}

TEST(ModelCheck, QueueFullBoundaryInterleavings) {
  QueueModel model;
  std::string current_schedule;

  // Releases beyond capacity (some must be refused), then the acquires.
  std::vector<std::function<void()>> app_ops;
  for (unsigned i = 0; i < gen::kQueueFullReleaseOps; ++i) {
    app_ops.emplace_back([&] { model.AppRelease(); });
  }
  for (unsigned i = 0; i < gen::kQueueFullAcquireOps; ++i) {
    app_ops.emplace_back([&] { model.AppAcquire(current_schedule); });
  }

  std::vector<std::function<void()>> engine_ops;
  for (unsigned i = 0; i < gen::kQueueFullEngineProcessOps; ++i) {
    engine_ops.emplace_back([&] { model.EngineProcess(current_schedule); });
  }

  int schedules = 0;
  ForAllInterleavings(
      app_ops, engine_ops,
      [&](const std::string& schedule) {
        current_schedule = schedule;
        model.CheckInvariants(schedule);
        if (schedule.size() == app_ops.size() + engine_ops.size()) {
          ++schedules;
        }
      },
      [&] { model.Reset(); });
  EXPECT_EQ(schedules, gen::kQueueFullSchedules);
}

// ---- Doorbell ring: application rings vs engine pops -----------------------

// With whole operations as the interleaving grain the soft-full check in
// Ring() is exact (no producer overshoot), so every successful ring must be
// popped in FIFO order — no doorbell lost, none duplicated, none invented.
class DoorbellModel {
 public:
  static constexpr std::uint32_t kCapacity = gen::kModelCapacity;

  void Reset() {
    ring_ = std::make_unique<InlineDoorbellRing<kCapacity>>();
    rung_.clear();
    popped_ = 0;
    overflow_outstanding_ = false;
  }

  // App op: ring endpoint `value`; a refusal raises the overflow signal.
  void AppRing(std::uint32_t value) {
    if (ring_->view().Ring(value)) {
      rung_.push_back(value);
    } else {
      overflow_outstanding_ = true;
    }
  }

  // Engine op: pop one doorbell if published, verifying FIFO.
  void EnginePop(const std::string& schedule) {
    const std::uint32_t value = ring_->view().Pop();
    if (value != kInvalidDoorbell) {
      ASSERT_LT(popped_, rung_.size()) << "popped unrung doorbell in " << schedule;
      ASSERT_EQ(value, rung_[popped_]) << "out-of-order pop in schedule " << schedule;
      ++popped_;
    }
  }

  // Engine op: the overflow half of the backstop — acknowledge, then (in
  // the real engine) sweep. The sweep itself touches only engine-read
  // state, so acknowledging models the ring-side effect completely.
  void EngineAckOverflow() {
    if (ring_->view().OverflowPending()) {
      ring_->view().AckOverflow();
      overflow_outstanding_ = false;
    }
  }

  void CheckInvariants(const std::string& schedule) {
    ASSERT_LE(popped_, rung_.size()) << schedule;
    ASSERT_EQ(ring_->view().PendingCount(), rung_.size() - popped_) << schedule;
    ASSERT_LE(ring_->view().PendingCount(), kCapacity) << schedule;
    // The overflow signal is level-triggered: pending exactly when a ring
    // was refused after the last acknowledgement.
    ASSERT_EQ(ring_->view().OverflowPending(), overflow_outstanding_) << schedule;
  }

 private:
  std::unique_ptr<InlineDoorbellRing<kCapacity>> ring_;
  std::vector<std::uint32_t> rung_;
  std::size_t popped_ = 0;
  bool overflow_outstanding_ = false;
};

TEST(ModelCheck, DoorbellRingAllInterleavings) {
  DoorbellModel model;
  std::string current_schedule;

  // Rings one past capacity — schedules where the engine lags see a full
  // ring and must take the overflow path.
  std::vector<std::function<void()>> app_ops;
  for (std::uint32_t i = 0; i < gen::kDoorbellSteadyRingOps; ++i) {
    app_ops.emplace_back([&model, i] { model.AppRing(i); });
  }
  std::vector<std::function<void()>> engine_ops;
  for (unsigned i = 0; i < gen::kDoorbellSteadyPopOps; ++i) {
    engine_ops.emplace_back([&] { model.EnginePop(current_schedule); });
  }

  int schedules = 0;
  ForAllInterleavings(
      app_ops, engine_ops,
      [&](const std::string& schedule) {
        current_schedule = schedule;
        model.CheckInvariants(schedule);
        if (schedule.size() == app_ops.size() + engine_ops.size()) {
          ++schedules;
        }
      },
      [&] { model.Reset(); });
  EXPECT_EQ(schedules, gen::kDoorbellSteadySchedules);
}

TEST(ModelCheck, DoorbellOverflowAckInterleavings) {
  DoorbellModel model;
  std::string current_schedule;

  // Rings well past capacity guarantee refusals in every schedule ordering
  // the acks early; the engine runs the generated pop/ack mix ('P'/'A') —
  // every placement of the acknowledgement relative to refusals must keep
  // the signal level-exact (ack too early must leave a later refusal
  // pending).
  std::vector<std::function<void()>> app_ops;
  for (std::uint32_t i = 0; i < gen::kDoorbellOverflowRingOps; ++i) {
    app_ops.emplace_back([&model, i] { model.AppRing(i); });
  }
  std::vector<std::function<void()>> engine_ops;
  for (const char* p = gen::kDoorbellOverflowEngineOps; *p != '\0'; ++p) {
    if (*p == 'P') {
      engine_ops.emplace_back([&] { model.EnginePop(current_schedule); });
    } else {
      engine_ops.emplace_back([&] { model.EngineAckOverflow(); });
    }
  }

  int schedules = 0;
  ForAllInterleavings(
      app_ops, engine_ops,
      [&](const std::string& schedule) {
        current_schedule = schedule;
        model.CheckInvariants(schedule);
        if (schedule.size() == app_ops.size() + engine_ops.size()) {
          ++schedules;
        }
      },
      [&] { model.Reset(); });
  EXPECT_EQ(schedules, gen::kDoorbellOverflowSchedules);
}

// ---- Handoff ring: distributor shard pushes vs planner shard pops ----------

// Cross-SHARD boundary: both sides are engine roles with different shard
// ids. Each op rebinds the shard-qualified role inside its body
// (ScopedBoundaryRole nests), so in a FLIPC_CHECK_SINGLE_WRITER build every
// enumerated schedule also proves the shard ownership split: a push that
// wrote the consumer's head cursor — or vice versa — in ANY interleaving
// would abort.
//
// Unlike doorbells, handoff entries are not hints: a refusal must occur
// exactly at capacity (the engine parks the packet rather than dropping),
// and every accepted entry must come out once, in order. The push budget
// exceeds capacity so schedules wrap the ring: positions past capacity
// reuse slots under the next lap tag, and a stale-tag bug (lap not
// advanced, or a zero tag matching) would surface as a phantom or lost pop.
class HandoffModel {
 public:
  static constexpr std::uint32_t kCapacity = gen::kModelCapacity;

  void Reset() {
    ring_ = std::make_unique<SpscHandoffRing<std::uint32_t>>(
        kCapacity, /*producer_shard=*/0, /*consumer_shard=*/1);
    pushed_.clear();
    popped_ = 0;
  }

  // Producer op: distributor shard 0 pushes the next sequential value.
  void ProducerPush(std::uint32_t value, const std::string& schedule) {
    ScopedBoundaryRole producer(Writer::kEngine, /*shard=*/0);
    std::uint32_t v = value;
    if (ring_->Push(v)) {
      pushed_.push_back(value);
    } else {
      ASSERT_EQ(ring_->PendingCount(), kCapacity)
          << "push refused below capacity in schedule " << schedule;
    }
  }

  // Consumer op: planner shard 1 pops one entry if published, verifying FIFO.
  void ConsumerPop(const std::string& schedule) {
    ScopedBoundaryRole consumer(Writer::kEngine, /*shard=*/1);
    std::uint32_t value = 0;
    if (ring_->Pop(&value)) {
      ASSERT_LT(popped_, pushed_.size()) << "popped unpushed entry in " << schedule;
      ASSERT_EQ(value, pushed_[popped_]) << "out-of-order pop in schedule " << schedule;
      ++popped_;
    }
  }

  void CheckInvariants(const std::string& schedule) {
    // Conservation: everything pushed and not yet popped is pending —
    // nothing lost to a wrap, nothing duplicated, nothing invented.
    ASSERT_LE(popped_, pushed_.size()) << schedule;
    ASSERT_EQ(ring_->PendingCount(), pushed_.size() - popped_) << schedule;
    ASSERT_LE(ring_->PendingCount(), kCapacity) << schedule;
    ASSERT_EQ(ring_->HasPending(), popped_ < pushed_.size()) << schedule;
  }

 private:
  std::unique_ptr<SpscHandoffRing<std::uint32_t>> ring_;
  std::vector<std::uint32_t> pushed_;
  std::size_t popped_ = 0;
};

// ---- Byte-slot ring: the same lap protocol over caller-owned bytes ---------
//
// The thread fabric's wire ring (sending planner -> receiving distributor).
// A refused attempt keeps its frame and retries it, as the wire sender
// keeps a message at the head of its send queue, so the model also proves
// the back-pressure handshake: a refusal happens exactly at capacity, the
// next pop reports the ring was full (the un-stall wakeup), and the retry
// lands in the freed slot with every frame popped once, in order, intact.
class ByteRingModel {
 public:
  static constexpr std::uint32_t kCapacity = gen::kModelCapacity;
  static constexpr std::size_t kSlotBytes = 16;

  void Reset() {
    // Garbage-filled like an uninitialised mapping: validity must come
    // from the tags, never from the slot bytes.
    ring_.reset();  // before its tags go
    storage_.assign(kCapacity * kSlotBytes, std::byte{0xee});
    tags_ = std::make_unique<SingleWriterCell<std::uint32_t>[]>(kCapacity);
    ring_ = std::make_unique<SpscByteRing>(tags_.get(), storage_.data(), kCapacity, kSlotBytes,
                                           /*producer_shard=*/0, /*consumer_shard=*/1);
    next_ = 0;
    popped_ = 0;
    stalled_ = false;
  }

  // Producer op: sending planner (shard 0) attempts frame next_.
  void ProducerAttempt(const std::string& schedule) {
    ScopedBoundaryRole producer(Writer::kEngine, /*shard=*/0);
    const std::uint32_t free_slots = ring_->FreeSlots();
    std::byte* slot = ring_->Claim();
    ASSERT_EQ(slot == nullptr, free_slots == 0) << schedule;
    if (slot == nullptr) {
      ASSERT_EQ(next_ - popped_, kCapacity) << "refused below capacity in " << schedule;
      stalled_ = true;  // The frame stays with the producer for a retry.
      return;
    }
    // A lower bound (the producer re-reads the head only when its cached
    // view is full), and 0 only when the ring really is full.
    ASSERT_GT(free_slots, 0u) << schedule;
    ASSERT_LE(free_slots, kCapacity - (next_ - popped_)) << schedule;
    for (std::size_t i = 0; i < kSlotBytes; ++i) {
      slot[i] = FrameByte(next_, i);
    }
    ring_->Publish();
    ++next_;
  }

  // Consumer op: receiving distributor (shard 1) pops and verifies a frame.
  void ConsumerPop(const std::string& schedule) {
    ScopedBoundaryRole consumer(Writer::kEngine, /*shard=*/1);
    const std::byte* slot = ring_->Peek();
    if (slot == nullptr) {
      ASSERT_EQ(popped_, next_) << "published frame not visible in " << schedule;
      return;
    }
    for (std::size_t i = 0; i < kSlotBytes; ++i) {
      ASSERT_EQ(slot[i], FrameByte(popped_, i)) << "torn or misordered frame in " << schedule;
    }
    const bool full_before = next_ - popped_ == kCapacity;
    const bool was_full = ring_->Release();
    ASSERT_EQ(was_full, full_before) << "wrong un-stall signal in " << schedule;
    if (stalled_) {
      ASSERT_TRUE(was_full) << "stalled producer never woken in " << schedule;
      stalled_ = false;
    }
    ++popped_;
  }

  void CheckInvariants(const std::string& schedule) {
    ASSERT_LE(popped_, next_) << schedule;
    ASSERT_EQ(ring_->PendingCount(), next_ - popped_) << schedule;
    ASSERT_EQ(ring_->HasPending(), popped_ < next_) << schedule;
  }

 private:
  static std::byte FrameByte(std::uint32_t frame, std::size_t i) {
    return static_cast<std::byte>(frame * kSlotBytes + i);
  }

  std::vector<std::byte> storage_;
  std::unique_ptr<SingleWriterCell<std::uint32_t>[]> tags_;
  std::unique_ptr<SpscByteRing> ring_;
  std::uint32_t next_ = 0;    // frames published
  std::uint32_t popped_ = 0;  // frames popped
  bool stalled_ = false;      // a refusal not yet answered by a pop
};

TEST(ModelCheck, HandoffRingWrapInterleavings) {
  HandoffModel model;
  std::string current_schedule;

  // Pushes across two laps — schedules with early pops carry the positions
  // past capacity into the second lap (tag 2); schedules with late pops
  // exercise the full-refusal path.
  std::vector<std::function<void()>> producer_ops;
  for (std::uint32_t i = 0; i < gen::kHandoffWrapPushOps; ++i) {
    producer_ops.emplace_back([&model, i, &current_schedule] {
      model.ProducerPush(i, current_schedule);
    });
  }
  std::vector<std::function<void()>> consumer_ops;
  for (unsigned i = 0; i < gen::kHandoffWrapPopOps; ++i) {
    consumer_ops.emplace_back([&] { model.ConsumerPop(current_schedule); });
  }

  int schedules = 0;
  ForAllInterleavings(
      producer_ops, consumer_ops,
      [&](const std::string& schedule) {
        current_schedule = schedule;
        model.CheckInvariants(schedule);
        if (schedule.size() == producer_ops.size() + consumer_ops.size()) {
          ++schedules;
        }
      },
      [&] { model.Reset(); });
  EXPECT_EQ(schedules, gen::kHandoffWrapSchedules);

  // The byte-slot store over the same protocol: refusal, un-stall signal
  // and retry in every interleaving.
  ByteRingModel bytes;
  std::vector<std::function<void()>> attempt_ops;
  for (unsigned i = 0; i < gen::kByteRingPushAttempts; ++i) {
    attempt_ops.emplace_back([&] { bytes.ProducerAttempt(current_schedule); });
  }
  std::vector<std::function<void()>> pop_ops;
  for (unsigned i = 0; i < gen::kByteRingPopOps; ++i) {
    pop_ops.emplace_back([&] { bytes.ConsumerPop(current_schedule); });
  }
  int byte_schedules = 0;
  ForAllInterleavings(
      attempt_ops, pop_ops,
      [&](const std::string& schedule) {
        current_schedule = schedule;
        bytes.CheckInvariants(schedule);
        if (schedule.size() == attempt_ops.size() + pop_ops.size()) {
          ++byte_schedules;
        }
      },
      [&] { bytes.Reset(); });
  EXPECT_EQ(byte_schedules, gen::kByteRingSchedules);
}

// ---- Drop counter: engine drops vs application read-and-reset --------------
//
// Hand-written extra (not generated): the drop counter is a two-location
// counter, not one of the three protocol rings the IR export covers.

TEST(ModelCheck, DropCounterNeverLosesEvents) {
  std::unique_ptr<DropCounter> counter;
  std::uint64_t dropped = 0;
  std::uint64_t reclaimed = 0;

  std::vector<std::function<void()>> engine_ops;
  for (int i = 0; i < 5; ++i) {
    engine_ops.emplace_back([&] {
      counter->RecordDrop();
      ++dropped;
    });
  }
  std::vector<std::function<void()>> app_ops;
  for (int i = 0; i < 4; ++i) {
    app_ops.emplace_back([&] { reclaimed += counter->ReadAndReset(); });
  }

  int schedules = 0;
  ForAllInterleavings(
      app_ops, engine_ops,
      [&](const std::string& schedule) {
        // The defining invariant: nothing lost, nothing double counted.
        ASSERT_EQ(reclaimed + counter->Count(), dropped) << schedule;
        if (schedule.size() == app_ops.size() + engine_ops.size()) {
          ++schedules;
        }
      },
      [&] {
        counter = std::make_unique<DropCounter>();
        dropped = 0;
        reclaimed = 0;
      });
  // C(9,4) = 126 schedules.
  EXPECT_EQ(schedules, 126);
}

// The single-location counter the paper rejects WOULD lose events; the
// checker proves our structure does not even under reset storms.
TEST(ModelCheck, DropCounterResetStorm) {
  std::unique_ptr<DropCounter> counter;
  std::uint64_t dropped = 0;
  std::uint64_t reclaimed = 0;

  std::vector<std::function<void()>> engine_ops;
  for (int i = 0; i < 3; ++i) {
    engine_ops.emplace_back([&] {
      counter->RecordDrop();
      ++dropped;
    });
  }
  std::vector<std::function<void()>> app_ops;
  for (int i = 0; i < 6; ++i) {  // more resets than drops
    app_ops.emplace_back([&] { reclaimed += counter->ReadAndReset(); });
  }

  ForAllInterleavings(
      app_ops, engine_ops,
      [&](const std::string& schedule) {
        ASSERT_EQ(reclaimed + counter->Count(), dropped) << schedule;
      },
      [&] {
        counter = std::make_unique<DropCounter>();
        dropped = 0;
        reclaimed = 0;
      });
}

}  // namespace
}  // namespace flipc::waitfree
