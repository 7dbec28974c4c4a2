// Failure-injection scenarios (DESIGN.md §14): engine crash/restart
// recovery, endpoint churn under load, and stale-doorbell tolerance.
//
// The recovery invariant under test everywhere: the communication buffer's
// queue cursors are the truth, so killing a planner mid-traffic and
// rebuilding a fresh engine over the abandoned buffer
// (MessagingEngine::RecoverFromBuffer) must lose nothing beyond the
// documented legitimate losses — the dead engine's private heap (its stats
// and any single in-flight packet it held) — and the comm-buffer-resident
// telemetry counter identities must hold afterwards exactly as they do on
// an uninterrupted run.
//
// On failure each test dumps its engines' TraceRing flight recorders as
// Chrome trace-event JSON (failure_postmortem_<test>_<ring>.json) for
// postmortem inspection; CI uploads them as artifacts.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/trace.h"
#include "src/engine/messaging_engine.h"
#include "src/flipc/flipc.h"
#include "src/shm/comm_buffer.h"
#include "src/shm/telemetry_audit.h"
#include "src/simnet/des.h"
#include "src/simnet/fabric.h"
#include "src/simnet/link_model.h"

namespace flipc {
namespace {

// Polls until the result is ready or a generous deadline passes.
template <typename F>
auto PollUntilOk(F&& f) {
  for (int i = 0; i < 200000; ++i) {
    auto result = f();
    if (result.ok()) {
      return result;
    }
    std::this_thread::yield();
  }
  return f();
}

// Dumps the registered TraceRings as Chrome trace JSON when the enclosing
// test has failed by destruction time. One file per ring (rings are
// single-writer; engines must not share one), named
// failure_postmortem_<test>_<index>.json in the working directory — the CI
// failure-scenarios leg uploads build/tests/failure_postmortem_*.json.
class ScopedPostmortem {
 public:
  explicit ScopedPostmortem(std::string test_name) : test_name_(std::move(test_name)) {}

  void Attach(const TraceRing* ring) { rings_.push_back(ring); }

  ~ScopedPostmortem() {
    if (!::testing::Test::HasFailure()) {
      return;
    }
    for (std::size_t i = 0; i < rings_.size(); ++i) {
      const std::string path =
          "failure_postmortem_" + test_name_ + "_" + std::to_string(i) + ".json";
      const std::string json =
          ToChromeTraceJson(*rings_[i], static_cast<std::uint32_t>(i));
      std::FILE* f = std::fopen(path.c_str(), "w");
      if (f != nullptr) {
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::fprintf(stderr, "postmortem trace written: %s\n", path.c_str());
      }
    }
  }

 private:
  std::string test_name_;
  std::vector<const TraceRing*> rings_;
};

// Returns a STOPPED cluster so callers can attach TraceRings (a plain
// pointer store, legal only before the engine threads run) and then Start.
std::unique_ptr<Cluster> MakeShardedCluster(std::uint32_t shards) {
  Cluster::Options options;
  options.node_count = 2;
  options.comm.message_size = 128;
  options.comm.buffer_count = 256;
  options.comm.max_endpoints = 16;
  options.comm.shard_count = shards;
  options.pin_shard_threads = false;  // CI containers may expose one CPU.
  auto cluster = Cluster::Create(options);
  EXPECT_TRUE(cluster.ok());
  return std::move(cluster).value();
}

// Kills and restarts one planner shard of the receiving node mid-flood and
// proves the recovery invariant: every message is accounted for as a
// delivery or an optimistic discard (app-level conservation), and the
// comm-buffer telemetry identities audit clean afterwards.
void KillRestartMidFlood(std::uint32_t victim_shard, std::uint64_t loss_budget,
                         const char* test_name) {
  // TraceRings are single-writer: one flight recorder per planner shard,
  // never shared. A restarted engine is a new object, so its ring must be
  // re-attached after RestartShard. Declared before the postmortem, which
  // reads them in its destructor.
  TraceRing rx_trace[2] = {TraceRing(8192), TraceRing(8192)};
  ScopedPostmortem postmortem(test_name);

  auto cluster = MakeShardedCluster(2);
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);
  for (std::uint32_t s = 0; s < 2; ++s) {
    cluster->engine(1, s).SetTrace(&rx_trace[s]);
    postmortem.Attach(&rx_trace[s]);
  }
  cluster->Start();

  // One receive endpoint per shard of node 1; the flood alternates between
  // them so the surviving shard keeps delivering while the victim is dead.
  auto rx0 = b.CreateEndpoint(
      {.type = shm::EndpointType::kReceive, .queue_depth = 32, .shard = 0});
  auto rx1 = b.CreateEndpoint(
      {.type = shm::EndpointType::kReceive, .queue_depth = 32, .shard = 1});
  ASSERT_TRUE(rx0.ok() && rx1.ok());
  constexpr std::uint64_t kPostedPerEndpoint = 32;
  for (auto* rx : {&*rx0, &*rx1}) {
    for (std::uint64_t i = 0; i < kPostedPerEndpoint; ++i) {
      auto buffer = b.AllocateBuffer();
      ASSERT_TRUE(buffer.ok());
      ASSERT_TRUE(rx->PostBuffer(*buffer).ok());
    }
  }
  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend, .queue_depth = 8});
  ASSERT_TRUE(tx.ok());

  constexpr std::uint64_t kMessages = 600;
  constexpr std::uint64_t kKillAt = 150;
  constexpr std::uint64_t kRestartAt = 300;

  // Receiver thread: drain both endpoints, reposting every buffer, until
  // told the flood is fully accounted for.
  std::atomic<std::uint64_t> received{0};
  std::atomic<bool> stop_receiving{false};
  std::thread receiver([&] {
    while (!stop_receiving.load(std::memory_order_acquire)) {
      bool any = false;
      for (auto* rx : {&*rx0, &*rx1}) {
        auto message = rx->Receive();
        if (message.ok()) {
          ASSERT_TRUE(rx->PostBuffer(*message).ok());
          received.fetch_add(1, std::memory_order_relaxed);
          any = true;
        }
      }
      if (!any) {
        std::this_thread::yield();
      }
    }
  });

  // Every message ends as a delivery or a posted-buffer discard.
  const auto accounted = [&] {
    return received.load(std::memory_order_acquire) + rx0->DropCount() +
           rx1->DropCount();
  };

  auto msg = a.AllocateBuffer();
  ASSERT_TRUE(msg.ok());
  for (std::uint64_t i = 0; i < kMessages; ++i) {
    // While both shards are alive, pace the flood to fewer outstanding
    // messages than either endpoint has posted buffers, so a descheduled
    // receiver thread cannot turn into optimistic discards. Between kill
    // and restart the flood runs unpaced and piles up behind the victim.
    if (i < kKillAt || i >= kRestartAt) {
      for (int spin = 0; spin < 200000 && i - accounted() >= kPostedPerEndpoint; ++spin) {
        std::this_thread::yield();
      }
    }
    if (i == kKillAt) {
      ASSERT_TRUE(cluster->KillShard(1, victim_shard));
      ASSERT_FALSE(cluster->shard_alive(1, victim_shard));
      ASSERT_FALSE(cluster->KillShard(1, victim_shard));  // already dead
    }
    if (i == kRestartAt) {
      ASSERT_TRUE(cluster->RestartShard(1, victim_shard));
      ASSERT_TRUE(cluster->shard_alive(1, victim_shard));
      ASSERT_FALSE(cluster->RestartShard(1, victim_shard));  // already alive
      // The resurrected engine is deliberately NOT re-traced: its runner is
      // already live, and SetTrace is a plain store (pre-Start only). The
      // postmortem keeps the victim's pre-kill events plus the survivor's
      // full timeline, which is what a crash investigation has anyway.
    }
    Endpoint& dst = (i % 2 == 0) ? *rx0 : *rx1;
    ASSERT_TRUE(PollUntilOk([&] {
                  const Status s = tx->Send(*msg, dst.address());
                  return s.ok() ? Result<int>(0) : Result<int>(s);
                }).ok());
    msg = *PollUntilOk([&] { return tx->Reclaim(); });
  }

  // Quiesce: wait until every message is accounted for, within the
  // documented loss budget (a killed engine's in-flight packets die with
  // its heap).
  for (int i = 0; i < 200000 && accounted() + loss_budget < kMessages; ++i) {
    std::this_thread::yield();
  }
  stop_receiving.store(true, std::memory_order_release);
  receiver.join();
  EXPECT_LE(accounted(), kMessages);
  EXPECT_GE(accounted() + loss_budget, kMessages);

  // Delivery resumed on the victim shard after restart: the flood's paced
  // tail (post-restart messages to the victim's endpoint) landed.
  Endpoint& victim_rx = victim_shard == 0 ? *rx0 : *rx1;
  EXPECT_GT(victim_rx.ProcessedCount(), (kRestartAt + 1) / 2);

  cluster->Stop();  // Quiesce planner threads before auditing.

  // The recovery stats landed on the resurrected engine.
  const auto stats = cluster->aggregate_stats(1);
  EXPECT_EQ(stats.recoveries, 1u);
  // The sweep-cause identity survives the recovery sweep (it is not a
  // backstop sweep).
  EXPECT_EQ(stats.backstop_sweeps,
            stats.doorbell_overflows + stats.sweeps_periodic + stats.sweeps_no_candidate);

  // The telemetry counter identities are comm-buffer resident, so a planner
  // crash must not be able to break them. This is the same audit
  // flipc_inspect --metrics gates on.
  std::vector<shm::EndpointIdentityFailure> failures;
  EXPECT_EQ(shm::AuditTelemetryIdentities(a.comm(), &failures), 0);
  EXPECT_EQ(shm::AuditTelemetryIdentities(b.comm(), &failures), 0);
  for (const auto& failure : failures) {
    ADD_FAILURE() << "endpoint " << failure.endpoint << ": " << failure.identity
                  << " (" << failure.lhs << " != " << failure.rhs << ")";
  }
}

TEST(FailureScenarios, KillRestartShardMidFlood) {
  // A dead non-distributor loses nothing: its inbound packets wait in the
  // Node-owned handoff ring (at worst parking the distributor), and its
  // send work waits behind the authoritative queue cursors.
  KillRestartMidFlood(/*victim_shard=*/1, /*loss_budget=*/0,
                      "KillRestartShardMidFlood");
}

TEST(FailureScenarios, KillRestartDistributorMidFlood) {
  // A dead distributor may take down the only copy of up to two in-flight
  // packets: one planned inbound/route unit and one parked handoff packet.
  // Everything else (wire inbox, handoff rings, queue cursors) lives
  // outside the engine and survives.
  KillRestartMidFlood(/*victim_shard=*/0, /*loss_budget=*/2,
                      "KillRestartDistributorMidFlood");
}

// A killed distributor stops polling the wire. Its inbound packets wait in
// the fabric-owned wire ring until that ring refuses; the sending planner
// then leaves each further message at the head of its send queue, the queue
// fills, and Send reports kUnavailable — FLIPC's own queue-full signal —
// instead of anything growing without bound. Nothing is dropped: after
// RestartShard the new distributor drains the ring, the un-stall kick
// resumes the sender, and every message arrives in order.
TEST(FailureScenarios, KilledDistributorBackPressuresIntoSendQueue) {
  constexpr std::uint32_t kRingCapacity = 64;  // wire ring = doorbell capacity
  constexpr std::uint32_t kQueueDepth = 32;
  constexpr std::uint32_t kPosted = 256;
  Cluster::Options options;
  options.node_count = 2;
  options.comm.message_size = 64;
  options.comm.buffer_count = 512;
  options.comm.max_endpoints = 8;
  options.comm.doorbell_capacity = kRingCapacity;
  auto created = Cluster::Create(options);
  ASSERT_TRUE(created.ok());
  auto cluster = std::move(created).value();
  cluster->Start();
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);

  auto rx = b.CreateEndpoint({.type = shm::EndpointType::kReceive, .queue_depth = kPosted});
  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend, .queue_depth = kQueueDepth});
  ASSERT_TRUE(rx.ok() && tx.ok());
  for (std::uint32_t i = 0; i < kPosted; ++i) {
    auto buffer = b.AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(rx->PostBuffer(*buffer).ok());
  }
  std::vector<MessageBuffer> free_buffers;
  for (std::uint32_t i = 0; i < kRingCapacity + 2 * kQueueDepth; ++i) {
    auto buffer = a.AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    free_buffers.push_back(*buffer);
  }

  ASSERT_TRUE(cluster->KillShard(1, 0));

  std::uint64_t sent = 0;
  const auto try_send = [&]() -> Status {
    for (auto done = tx->Reclaim(); done.ok(); done = tx->Reclaim()) {
      free_buffers.push_back(*done);
    }
    if (free_buffers.empty()) {
      return UnavailableStatus();
    }
    MessageBuffer buffer = free_buffers.back();
    *buffer.As<std::uint64_t>() = sent;
    const Status status = tx->Send(buffer, rx->address());
    if (status.ok()) {
      free_buffers.pop_back();
      ++sent;
    }
    return status;
  };

  // Flood past ring capacity plus queue depth. Once the planner has filled
  // the ring and the queue holds kQueueDepth untransmitted messages, every
  // further Send must keep refusing.
  for (int refusals = 0; refusals < 20000;) {
    const Status status = try_send();
    if (status.ok()) {
      refusals = 0;
      continue;
    }
    ASSERT_EQ(status.code(), StatusCode::kUnavailable);
    ++refusals;
    std::this_thread::yield();
  }
  EXPECT_EQ(sent, kRingCapacity + kQueueDepth);
  EXPECT_EQ(tx->ProcessedCount(), kRingCapacity);  // the rest wait at the queue head
  EXPECT_EQ(rx->DropCount(), 0u);

  ASSERT_TRUE(cluster->RestartShard(1, 0));

  // Everything queued arrives, in order, then traffic flows again.
  constexpr std::uint64_t kTotal = 3 * (kRingCapacity + kQueueDepth);
  std::uint64_t received = 0;
  while (received < kTotal && !::testing::Test::HasFatalFailure()) {
    if (sent < kTotal && sent - received < kPosted) {
      const Status status = try_send();
      ASSERT_TRUE(status.ok() || status.code() == StatusCode::kUnavailable);
    }
    auto message = PollUntilOk([&] { return rx->Receive(); });
    ASSERT_TRUE(message.ok()) << "stalled after " << received << " of " << sent;
    ASSERT_EQ(*message->As<std::uint64_t>(), received);
    ASSERT_TRUE(rx->PostBuffer(*message).ok());
    ++received;
  }
  EXPECT_EQ(received, kTotal);
  EXPECT_EQ(rx->DropCount(), 0u);

  cluster->Stop();
  EXPECT_EQ(cluster->aggregate_stats(1).recoveries, 1u);
  std::vector<shm::EndpointIdentityFailure> failures;
  EXPECT_EQ(shm::AuditTelemetryIdentities(a.comm(), &failures), 0);
  EXPECT_EQ(shm::AuditTelemetryIdentities(b.comm(), &failures), 0);
  for (const auto& failure : failures) {
    ADD_FAILURE() << "endpoint " << failure.endpoint << ": " << failure.identity
                  << " (" << failure.lhs << " != " << failure.rhs << ")";
  }
}

// Satellite: churn regression — create/destroy/recreate the same endpoint
// slot 1000x while cross-traffic flows on neighboring endpoints. Asserts
// slot reuse, cursor + telemetry zeroing on each reincarnation, and that
// the survivors' traffic is unperturbed (no drops, full count).
TEST(FailureScenarios, ChurnSlotReuseUnderCrossTraffic) {
  ScopedPostmortem postmortem("ChurnSlotReuseUnderCrossTraffic");
  auto cluster = MakeShardedCluster(1);
  cluster->Start();
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);

  // Cross-traffic: a survivor pair that must be unperturbed by the churn.
  constexpr std::uint32_t kCrossPosted = 64;
  auto rx_cross = b.CreateEndpoint(
      {.type = shm::EndpointType::kReceive, .queue_depth = kCrossPosted});
  ASSERT_TRUE(rx_cross.ok());
  for (std::uint32_t i = 0; i < kCrossPosted; ++i) {
    auto buffer = b.AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(rx_cross->PostBuffer(*buffer).ok());
  }
  // The churn sink: deep queue, kept posted by the receiver thread.
  auto rx_sink = b.CreateEndpoint(
      {.type = shm::EndpointType::kReceive, .queue_depth = 64});
  ASSERT_TRUE(rx_sink.ok());
  for (int i = 0; i < 64; ++i) {
    auto buffer = b.AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(rx_sink->PostBuffer(*buffer).ok());
  }

  constexpr int kIterations = 1000;
  constexpr std::uint64_t kCrossMessages = 2000;

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> cross_received{0};
  std::thread receiver([&] {
    while (!stop.load(std::memory_order_acquire)) {
      bool any = false;
      for (auto* rx : {&*rx_cross, &*rx_sink}) {
        auto message = rx->Receive();
        if (message.ok()) {
          ASSERT_TRUE(rx->PostBuffer(*message).ok());
          if (rx == &*rx_cross) {
            cross_received.fetch_add(1, std::memory_order_release);
          }
          any = true;
        }
      }
      if (!any) {
        std::this_thread::yield();
      }
    }
  });
  // Created on the main thread BEFORE the churn loop so endpoint slot
  // allocation is deterministic: once the churned endpoint is created
  // (last), its slot is the only one ever freed, so first-fit must hand
  // the same slot back on every reincarnation.
  auto tx_cross = a.CreateEndpoint({.type = shm::EndpointType::kSend, .queue_depth = 8});
  ASSERT_TRUE(tx_cross.ok());
  std::thread cross_sender([&] {
    auto msg = a.AllocateBuffer();
    ASSERT_TRUE(msg.ok());
    for (std::uint64_t i = 0; i < kCrossMessages; ++i) {
      // Reclaim only means the engine transmitted; pace on the receiver's
      // progress too. With fewer than kCrossPosted messages outstanding
      // (each reposted before it is counted), every arrival finds a
      // posted buffer, so the zero-drop assertion below is a guarantee of
      // the optimistic protocol rather than scheduling luck.
      while (i - cross_received.load(std::memory_order_acquire) >= kCrossPosted) {
        std::this_thread::yield();
      }
      while (!tx_cross->Send(*msg, rx_cross->address()).ok()) {
        std::this_thread::yield();
      }
      msg = *PollUntilOk([&] { return tx_cross->Reclaim(); });
    }
  });

  // Churn loop: the churned endpoint is created LAST, so its slot is the
  // lowest-index inactive record with a sufficient cell reservation on
  // every later allocation — the allocator must hand the SAME slot back.
  std::uint32_t churn_slot = shm::kInvalidEndpoint;
  for (int iter = 0; iter < kIterations; ++iter) {
    auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend, .queue_depth = 4});
    ASSERT_TRUE(tx.ok());
    if (churn_slot == shm::kInvalidEndpoint) {
      churn_slot = tx->index();
    } else {
      ASSERT_EQ(tx->index(), churn_slot) << "iteration " << iter;
    }

    // Reincarnation zeroing: cursors and telemetry start from scratch.
    const shm::EndpointRecord& record = a.comm().endpoint(tx->index());
    const shm::TelemetryBlock& t = a.comm().telemetry(tx->index());
    ASSERT_EQ(record.release_count.Read(), 0u) << "iteration " << iter;
    ASSERT_EQ(record.acquire_count.Read(), 0u) << "iteration " << iter;
    ASSERT_EQ(record.processed_total.Read(), 0u) << "iteration " << iter;
    ASSERT_EQ(record.DropCount(), 0u) << "iteration " << iter;
    ASSERT_EQ(t.api_sends.Read(), 0u) << "iteration " << iter;
    ASSERT_EQ(t.engine_transmits.Read(), 0u) << "iteration " << iter;
    ASSERT_EQ(t.engine_rejects.Read(), 0u) << "iteration " << iter;
    ASSERT_EQ(t.doorbell_rings.Read(), 0u) << "iteration " << iter;

    // Drive one message through the reincarnated slot so every iteration
    // exercises ring + transmit + reclaim, then quiesce-destroy.
    auto msg = a.AllocateBuffer();
    ASSERT_TRUE(msg.ok());
    ASSERT_TRUE(tx->Send(*msg, rx_sink->address()).ok());
    Status destroyed = UnavailableStatus();
    for (int i = 0; i < 200000; ++i) {
      destroyed = a.QuiesceAndDestroyEndpoint(*tx);
      if (destroyed.ok()) {
        break;
      }
      std::this_thread::yield();
    }
    ASSERT_TRUE(destroyed.ok()) << "iteration " << iter;
  }

  cross_sender.join();
  for (int i = 0;
       i < 200000 && cross_received.load(std::memory_order_relaxed) < kCrossMessages;
       ++i) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  receiver.join();

  // Fairness of survivors: the cross stream lost nothing and finished.
  EXPECT_EQ(cross_received.load(), kCrossMessages);
  EXPECT_EQ(rx_cross->DropCount(), 0u);

  cluster->Stop();
  EXPECT_EQ(shm::AuditTelemetryIdentities(a.comm()), 0);
  EXPECT_EQ(shm::AuditTelemetryIdentities(b.comm()), 0);
}

// ---------------------------------------------------------------------------
// Doorbell-level scenarios: a hand-stepped engine over a raw comm buffer,
// so the exact interleaving (ring, destroy, step) is deterministic.
// Doorbells are hints — a stale or misdirected one must be skipped, never
// misattributed to whatever occupies the slot now.
class DoorbellScenarioTest : public ::testing::Test {
 protected:
  void Init(std::uint32_t shard_count) {
    shm::CommBufferConfig config;
    config.message_size = 128;
    config.buffer_count = 32;
    config.max_endpoints = 8;
    config.shard_count = shard_count;
    fabric_ = std::make_unique<simnet::SimFabric>(
        sim_, std::make_unique<simnet::MeshLinkModel>(), 2);
    auto comm = shm::CommBuffer::Create(config);
    ASSERT_TRUE(comm.ok());
    comm_ = std::move(comm).value();
    engine::EngineOptions options;
    options.shard_id = 0;
    engine_ = std::make_unique<engine::MessagingEngine>(*comm_, fabric_->wire(0),
                                                        options, &model_);
  }

  std::uint32_t MakeEndpoint(shm::EndpointType type, std::uint32_t shard) {
    shm::CommBuffer::EndpointParams params;
    params.type = type;
    params.queue_capacity = 8;
    params.shard = shard;
    auto index = comm_->AllocateEndpoint(params);
    EXPECT_TRUE(index.ok());
    return *index;
  }

  // Queues one ready-to-send buffer directly (engine-side idiom; the test
  // thread is unbound, so it may touch both sides while stepping manually).
  void QueueSend(std::uint32_t endpoint, Address dst) {
    auto buffer = comm_->AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    shm::MsgView view = comm_->msg(*buffer);
    std::memcpy(view.payload, "stale", 6);
    view.header->set_peer_address(dst);
    view.header->state.Store(waitfree::MsgState::kReady);
    ASSERT_TRUE(comm_->queue(endpoint).Release(*buffer));
  }

  void StepToQuiescence() {
    bool progress = true;
    while (progress) {
      progress = engine_->Step();
      if (sim_.pending_events() > 0) {
        sim_.Run();
        progress = true;
      }
    }
  }

  simnet::Simulator sim_;
  engine::PlatformModel model_;
  std::unique_ptr<simnet::SimFabric> fabric_;
  std::unique_ptr<shm::CommBuffer> comm_;
  std::unique_ptr<engine::MessagingEngine> engine_;
};

// Satellite regression: ring a send endpoint's doorbell, destroy the
// endpoint before the engine drains the ring, then step. The engine must
// consume the stale doorbell and do nothing with it — no transmit, no
// validity rejection, no crash.
TEST_F(DoorbellScenarioTest, StaleDoorbellForDestroyedEndpointSkipped) {
  Init(/*shard_count=*/1);
  const std::uint32_t tx = MakeEndpoint(shm::EndpointType::kSend, 0);

  ASSERT_TRUE(comm_->doorbell_ring(0).Ring(tx));
  ASSERT_TRUE(comm_->FreeEndpoint(tx).ok());  // destroyed before the drain

  StepToQuiescence();

  const engine::EngineStats& stats = engine_->stats();
  EXPECT_GE(stats.doorbells_consumed, 1u);
  EXPECT_EQ(stats.messages_sent, 0u);
  EXPECT_EQ(stats.validity_rejections, 0u);
  EXPECT_EQ(comm_->doorbell_ring(0).PendingCount(), 0u);
  EXPECT_EQ(shm::AuditTelemetryIdentities(*comm_), 0);
}

// Slot-reuse variant: the slot is reincarnated (as a RECEIVE endpoint)
// between the ring and the drain. The stale doorbell must not be
// misattributed to the new tenant: no spurious transmit, and the
// reincarnated slot's telemetry stays zeroed.
TEST_F(DoorbellScenarioTest, StaleDoorbellForReusedSlotNotMisattributed) {
  Init(/*shard_count=*/1);
  const std::uint32_t tx = MakeEndpoint(shm::EndpointType::kSend, 0);

  ASSERT_TRUE(comm_->doorbell_ring(0).Ring(tx));
  ASSERT_TRUE(comm_->FreeEndpoint(tx).ok());
  // First-fit reallocation hands the same slot back, now as a receiver.
  const std::uint32_t rx = MakeEndpoint(shm::EndpointType::kReceive, 0);
  ASSERT_EQ(rx, tx);

  StepToQuiescence();

  const engine::EngineStats& stats = engine_->stats();
  EXPECT_GE(stats.doorbells_consumed, 1u);
  EXPECT_EQ(stats.messages_sent, 0u);
  const shm::TelemetryBlock& t = comm_->telemetry(rx);
  EXPECT_EQ(t.engine_transmits.Read(), 0u);
  EXPECT_EQ(t.engine_rejects.Read(), 0u);
  EXPECT_EQ(comm_->endpoint(rx).processed_total.Read(), 0u);
  EXPECT_EQ(shm::AuditTelemetryIdentities(*comm_), 0);
}

// A doorbell naming another shard's endpoint lands in this shard's ring
// (corrupt or misdirected hint). The planner must ignore it even though
// the foreign endpoint HAS processable work — activating it would make
// this planner write another shard's engine-owned cells.
TEST_F(DoorbellScenarioTest, CrossShardDoorbellHintIgnored) {
  Init(/*shard_count=*/2);  // shard 0 owns slots [0,4), shard 1 owns [4,8)
  const std::uint32_t foreign = MakeEndpoint(shm::EndpointType::kSend, 1);
  ASSERT_GE(foreign, 4u);
  QueueSend(foreign, Address(1, 0));

  ASSERT_TRUE(comm_->doorbell_ring(0).Ring(foreign));
  StepToQuiescence();  // steps the shard-0 planner only

  const engine::EngineStats& stats = engine_->stats();
  EXPECT_GE(stats.doorbells_consumed, 1u);
  EXPECT_EQ(stats.messages_sent, 0u);
  // The foreign endpoint's work is untouched, waiting for its own planner.
  EXPECT_EQ(comm_->queue(foreign).ProcessableCount(), 1u);
  EXPECT_EQ(comm_->endpoint(foreign).processed_total.Read(), 0u);
}

// Satellite regression (the stale-throttle churn bug): a heavily throttled
// endpoint transmits once, is destroyed, and its slot is reallocated to a
// NEW send endpoint with no rate limit. The engine's private throttle
// deadline for the slot still holds the old tenant's far-future value;
// without the allocation-generation reset the new endpoint's first send
// would stall behind a rate limit it never configured.
TEST_F(DoorbellScenarioTest, SlotReuseDropsPreviousTenantsThrottleState) {
  Init(/*shard_count=*/1);
  ManualClock clock;
  clock.AdvanceTo(1'000'000);
  engine_->SetClock(&clock);

  shm::CommBuffer::EndpointParams limited;
  limited.type = shm::EndpointType::kSend;
  limited.queue_capacity = 8;
  limited.bucket_capacity = 1;  // one send per 1 s: poisons the slot after one send
  limited.bucket_refill_ns = 1'000'000'000;
  auto first = comm_->AllocateEndpoint(limited);
  ASSERT_TRUE(first.ok());

  QueueSend(*first, Address(1, 0));
  StepToQuiescence();
  EXPECT_EQ(comm_->telemetry(*first).engine_transmits.Read(), 1u);

  // Drain and destroy; first-fit reallocation hands the same slot to a
  // fresh, UNLIMITED send endpoint.
  EXPECT_NE(comm_->queue(*first).Acquire(), waitfree::kInvalidBuffer);
  ASSERT_TRUE(comm_->FreeEndpoint(*first).ok());
  shm::CommBuffer::EndpointParams unlimited;
  unlimited.type = shm::EndpointType::kSend;
  unlimited.queue_capacity = 8;
  auto second = comm_->AllocateEndpoint(unlimited);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(*second, *first);  // same slot recycled

  // WITHOUT advancing the clock: the new tenant transmits immediately
  // instead of inheriting the dead tenant's 1-second gate.
  QueueSend(*second, Address(1, 0));
  StepToQuiescence();
  EXPECT_EQ(comm_->telemetry(*second).engine_transmits.Read(), 1u);
  EXPECT_EQ(comm_->telemetry(*second).throttle_deferrals.Read(), 0u);
  // (No AuditTelemetryIdentities here: QueueSend releases raw queue slots
  // without the API-side telemetry helpers, which the audit — correctly —
  // reports as an api_sends/release_count mismatch.)
}

}  // namespace
}  // namespace flipc
