// Real-concurrency tests: engines on their own threads (the "message
// coprocessor"), applications on the main/test threads, blocking receives
// through the real-time semaphore. These exercise the same wait-free
// structures under genuine parallel execution.
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/flipc/flipc.h"
#include "src/rma/rma_node.h"

namespace flipc {
namespace {

std::unique_ptr<Cluster> MakeCluster(std::uint32_t nodes = 2) {
  Cluster::Options options;
  options.node_count = nodes;
  options.comm.message_size = 128;
  options.comm.buffer_count = 256;
  options.comm.max_endpoints = 16;
  auto cluster = Cluster::Create(options);
  EXPECT_TRUE(cluster.ok());
  (*cluster)->Start();
  return std::move(cluster).value();
}

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

TEST(Cluster, PollingPingPong) {
  auto cluster = MakeCluster();
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);

  auto a_rx = a.CreateEndpoint({.type = shm::EndpointType::kReceive});
  auto a_tx = a.CreateEndpoint({.type = shm::EndpointType::kSend});
  auto b_rx = b.CreateEndpoint({.type = shm::EndpointType::kReceive});
  auto b_tx = b.CreateEndpoint({.type = shm::EndpointType::kSend});
  ASSERT_TRUE(a_rx.ok() && a_tx.ok() && b_rx.ok() && b_tx.ok());

  for (Domain* d : {&a, &b}) {
    Endpoint& rx = d == &a ? *a_rx : *b_rx;
    auto buffer = d->AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(rx.PostBuffer(*buffer).ok());
  }

  constexpr int kExchanges = 200;
  std::thread responder([&] {
    for (int i = 0; i < kExchanges; ++i) {
      auto message = PollUntilOk([&] { return b_rx->Receive(); });
      ASSERT_TRUE(message.ok());
      const std::uint32_t value = *message->As<std::uint32_t>();
      ASSERT_TRUE(b_rx->PostBuffer(*message).ok());

      auto reply = i == 0 ? b.AllocateBuffer() : PollUntilOk([&] { return b_tx->Reclaim(); });
      ASSERT_TRUE(reply.ok());
      *reply->As<std::uint32_t>() = value + 1;
      ASSERT_TRUE(b_tx->Send(*reply, a_rx->address()).ok());
    }
  });

  for (std::uint32_t i = 0; i < kExchanges; ++i) {
    auto msg = i == 0 ? a.AllocateBuffer() : PollUntilOk([&] { return a_tx->Reclaim(); });
    ASSERT_TRUE(msg.ok());
    *msg->As<std::uint32_t>() = i * 2;
    ASSERT_TRUE(a_tx->Send(*msg, b_rx->address()).ok());

    auto reply = PollUntilOk([&] { return a_rx->Receive(); });
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(*reply->As<std::uint32_t>(), i * 2 + 1);
    ASSERT_TRUE(a_rx->PostBuffer(*reply).ok());
  }
  responder.join();
  EXPECT_EQ(a_rx->DropCount(), 0u);
  EXPECT_EQ(b_rx->DropCount(), 0u);
}

TEST(Cluster, BlockingReceiveWakesOnArrival) {
  auto cluster = MakeCluster();
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);

  auto rx = b.CreateEndpoint(
      {.type = shm::EndpointType::kReceive, .enable_semaphore = true});
  ASSERT_TRUE(rx.ok());
  auto rx_buf = b.AllocateBuffer();
  ASSERT_TRUE(rx_buf.ok());
  ASSERT_TRUE(rx->PostBuffer(*rx_buf).ok());

  std::atomic<bool> got{false};
  std::thread receiver([&] {
    auto message = rx->ReceiveBlocking(simos::kMinPriority, 5'000'000'000);
    ASSERT_TRUE(message.ok());
    EXPECT_STREQ(reinterpret_cast<const char*>(message->data()), "wake-up");
    got.store(true);
  });

  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend});
  ASSERT_TRUE(tx.ok());
  auto msg = a.AllocateBuffer();
  ASSERT_TRUE(msg.ok());
  msg->Write("wake-up", 8);
  ASSERT_TRUE(tx->Send(*msg, rx->address()).ok());

  receiver.join();
  EXPECT_TRUE(got.load());
}

TEST(Cluster, BlockingReceiveTimesOut) {
  auto cluster = MakeCluster();
  auto rx = cluster->domain(0).CreateEndpoint(
      {.type = shm::EndpointType::kReceive, .enable_semaphore = true});
  ASSERT_TRUE(rx.ok());
  const auto result = rx->ReceiveBlocking(simos::kMinPriority, 50'000'000);  // 50 ms
  EXPECT_EQ(result.status().code(), StatusCode::kTimedOut);
}

TEST(Cluster, BlockingReceiveRequiresSemaphore) {
  auto cluster = MakeCluster();
  auto rx = cluster->domain(0).CreateEndpoint({.type = shm::EndpointType::kReceive});
  ASSERT_TRUE(rx.ok());
  EXPECT_EQ(rx->ReceiveBlocking(0, 1000).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(Cluster, GroupBlockingReceiveAcrossEndpoints) {
  auto cluster = MakeCluster();
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);

  auto group = EndpointGroup::Create(b);
  ASSERT_TRUE(group.ok());
  Domain::EndpointOptions member;
  member.type = shm::EndpointType::kReceive;
  member.group = group->get();
  auto rx1 = b.CreateEndpoint(member);
  auto rx2 = b.CreateEndpoint(member);
  ASSERT_TRUE(rx1.ok() && rx2.ok());
  for (auto* rx : {&*rx1, &*rx2}) {
    auto buffer = b.AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(rx->PostBuffer(*buffer).ok());
  }

  std::thread receiver([&] {
    auto first = (*group)->ReceiveBlocking(simos::kMinPriority, 5'000'000'000);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first->endpoint.index(), rx2->index());
  });

  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend});
  ASSERT_TRUE(tx.ok());
  auto msg = a.AllocateBuffer();
  ASSERT_TRUE(msg.ok());
  ASSERT_TRUE(tx->Send(*msg, rx2->address()).ok());
  receiver.join();
}

TEST(Cluster, ManyToOneTrafficNoLoss) {
  auto cluster = MakeCluster(4);
  Domain& sink_domain = cluster->domain(3);
  auto sink = sink_domain.CreateEndpoint(
      {.type = shm::EndpointType::kReceive, .queue_depth = 64});
  ASSERT_TRUE(sink.ok());
  for (int i = 0; i < 64; ++i) {
    auto buffer = sink_domain.AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(sink->PostBuffer(*buffer).ok());
  }

  constexpr int kPerSender = 40;
  // Reclaim only means the sending engine transmitted, so each sender also
  // paces on the sink's progress: with fewer than kWindow of its messages
  // unconsumed (3 * kWindow <= 64 posted buffers, each reposted before it
  // is counted), every arrival finds a posted buffer and zero drops is a
  // guarantee of the optimistic protocol rather than scheduling luck.
  constexpr std::uint32_t kWindow = 21;
  std::atomic<std::uint32_t> consumed[3] = {0, 0, 0};
  std::vector<std::thread> senders;
  for (NodeId n = 0; n < 3; ++n) {
    senders.emplace_back([&, n] {
      Domain& d = cluster->domain(n);
      auto tx = d.CreateEndpoint({.type = shm::EndpointType::kSend, .queue_depth = 4});
      ASSERT_TRUE(tx.ok());
      auto msg = d.AllocateBuffer();
      ASSERT_TRUE(msg.ok());
      for (std::uint32_t i = 0; i < kPerSender; ++i) {
        while (i - consumed[n].load(std::memory_order_acquire) >= kWindow) {
          std::this_thread::yield();
        }
        *msg->As<std::uint32_t>() = (n << 16) | i;
        ASSERT_TRUE(tx->Send(*msg, sink->address()).ok());
        msg = *PollUntilOk([&] { return tx->Reclaim(); });
      }
    });
  }

  int received = 0;
  std::uint32_t last_seq[3] = {0, 0, 0};
  bool seen[3] = {false, false, false};
  while (received < 3 * kPerSender) {
    auto message = PollUntilOk([&] { return sink->Receive(); });
    ASSERT_TRUE(message.ok());
    const std::uint32_t value = *message->As<std::uint32_t>();
    const std::uint32_t sender = value >> 16;
    const std::uint32_t seq = value & 0xffff;
    ASSERT_LT(sender, 3u);
    if (seen[sender]) {
      EXPECT_EQ(seq, last_seq[sender] + 1);  // per-pair FIFO
    } else {
      EXPECT_EQ(seq, 0u);
      seen[sender] = true;
    }
    last_seq[sender] = seq;
    ASSERT_TRUE(sink->PostBuffer(*message).ok());
    consumed[sender].fetch_add(1, std::memory_order_release);
    ++received;
  }
  for (auto& t : senders) {
    t.join();
  }
  EXPECT_EQ(sink->DropCount(), 0u);
}

// A work unit that transmits several packets to one node notifies that
// node once, when the unit ends, not once per packet. Eight senders queue
// their messages before the engines start, so node 0's first plan batches
// one message from each and the batches are multi-packet by construction.
// Node 1 only receives, so every kick its runner counts is a delivery
// notification from node 0.
TEST(Cluster, BatchNotifiesEachDestinationOncePerWorkUnit) {
  constexpr int kSenders = 8;
  constexpr int kPerSender = 4;
  Cluster::Options options;
  options.node_count = 2;
  options.comm.message_size = 64;
  options.comm.buffer_count = 256;
  options.comm.max_endpoints = 16;
  auto created = Cluster::Create(options);
  ASSERT_TRUE(created.ok());
  auto cluster = std::move(created).value();

  Domain& sink_domain = cluster->domain(1);
  auto sink = sink_domain.CreateEndpoint(
      {.type = shm::EndpointType::kReceive, .queue_depth = 64});
  ASSERT_TRUE(sink.ok());
  for (int i = 0; i < kSenders * kPerSender; ++i) {
    auto buffer = sink_domain.AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(sink->PostBuffer(*buffer).ok());
  }
  Domain& source = cluster->domain(0);
  std::vector<Endpoint> senders;
  for (int s = 0; s < kSenders; ++s) {
    auto tx = source.CreateEndpoint(
        {.type = shm::EndpointType::kSend, .queue_depth = kPerSender});
    ASSERT_TRUE(tx.ok());
    for (int i = 0; i < kPerSender; ++i) {
      auto msg = source.AllocateBuffer();
      ASSERT_TRUE(msg.ok());
      *msg->As<std::uint32_t>() = static_cast<std::uint32_t>((s << 16) | i);
      ASSERT_TRUE(tx->Send(*msg, sink->address()).ok());
    }
    senders.push_back(*tx);
  }
  cluster->Start();

  std::uint32_t next_seq[kSenders] = {};
  for (int received = 0; received < kSenders * kPerSender; ++received) {
    auto message = PollUntilOk([&] { return sink->Receive(); });
    ASSERT_TRUE(message.ok());
    const std::uint32_t value = *message->As<std::uint32_t>();
    const std::uint32_t sender = value >> 16;
    ASSERT_LT(sender, static_cast<std::uint32_t>(kSenders));
    EXPECT_EQ(value & 0xffff, next_seq[sender]++);  // per-pair FIFO
  }
  EXPECT_EQ(sink->DropCount(), 0u);

  // Read the kick count before Stop, which kicks every runner once more;
  // read the engine's stats after it, once its thread is gone.
  const std::uint64_t delivery_kicks = cluster->runner(1).kicks();
  cluster->Stop();
  const engine::EngineStats stats = cluster->aggregate_stats(0);
  EXPECT_EQ(stats.messages_sent, static_cast<std::uint64_t>(kSenders * kPerSender));
  ASSERT_GT(stats.batched_messages, stats.transmit_batches);  // multi-packet units ran
  EXPECT_LE(delivery_kicks, stats.transmit_batches);
}

TEST(Cluster, ShardedNodeDeliversAcrossHandoff) {
  // Two planner shards per node over the shared transmit backend. Endpoints
  // on shard 1 of the receiving node are reachable only through the
  // distributor's handoff ring, so this exercises the full threaded path:
  // app send -> wire -> distributor poll -> SPSC handoff -> shard-1 planner
  // -> delivery. Pinning is off: CI containers may expose a single CPU and
  // placement is best-effort anyway.
  Cluster::Options options;
  options.node_count = 2;
  options.comm.message_size = 128;
  options.comm.buffer_count = 256;
  options.comm.max_endpoints = 16;
  options.comm.shard_count = 2;
  options.pin_shard_threads = false;
  auto cluster_or = Cluster::Create(options);
  ASSERT_TRUE(cluster_or.ok());
  auto cluster = std::move(cluster_or).value();
  ASSERT_EQ(cluster->shard_count(), 2u);
  cluster->Start();

  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);

  // One receive endpoint in each shard of node 1: rx0 is delivered directly
  // by the distributor, rx1 only via the handoff ring.
  auto rx0 = b.CreateEndpoint(
      {.type = shm::EndpointType::kReceive, .queue_depth = 16, .shard = 0});
  auto rx1 = b.CreateEndpoint(
      {.type = shm::EndpointType::kReceive, .queue_depth = 16, .shard = 1});
  ASSERT_TRUE(rx0.ok() && rx1.ok());
  EXPECT_LT(rx0->index(), 8u);   // shard 0 owns slots [0, 8)
  EXPECT_GE(rx1->index(), 8u);   // shard 1 owns slots [8, 16)
  for (auto* rx : {&*rx0, &*rx1}) {
    for (int i = 0; i < 16; ++i) {
      auto buffer = b.AllocateBuffer();
      ASSERT_TRUE(buffer.ok());
      ASSERT_TRUE(rx->PostBuffer(*buffer).ok());
    }
  }

  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend, .queue_depth = 8});
  ASSERT_TRUE(tx.ok());

  // Alternate destinations so the distributor interleaves direct delivery
  // with handoff pushes; per-endpoint FIFO must survive the split.
  constexpr std::uint32_t kPerEndpoint = 64;
  constexpr std::uint32_t kPosted = 16;
  std::uint32_t expect[2] = {0, 0};
  std::uint32_t got[2] = {0, 0};
  Endpoint* rx[2] = {&*rx0, &*rx1};
  const auto receive_one = [&](int e) {
    auto message = PollUntilOk([&] { return rx[e]->Receive(); });
    ASSERT_TRUE(message.ok());
    EXPECT_EQ(*message->As<std::uint32_t>(), expect[e]++);
    ASSERT_TRUE(rx[e]->PostBuffer(*message).ok());
    ++got[e];
  };
  auto msg = a.AllocateBuffer();
  ASSERT_TRUE(msg.ok());
  for (std::uint32_t i = 0; i < 2 * kPerEndpoint; ++i) {
    const int e = static_cast<int>(i % 2);
    // Reclaim only means the sending engine transmitted; also pace on
    // consumption, keeping fewer than kPosted of this endpoint's messages
    // outstanding so every arrival finds a posted buffer.
    if (i / 2 - got[e] >= kPosted) {
      receive_one(e);
    }
    *msg->As<std::uint32_t>() = i / 2;
    ASSERT_TRUE(tx->Send(*msg, rx[e]->address()).ok());
    msg = *PollUntilOk([&] { return tx->Reclaim(); });
  }
  for (int e = 0; e < 2; ++e) {
    while (got[e] < kPerEndpoint && !::testing::Test::HasFatalFailure()) {
      receive_one(e);
    }
  }
  EXPECT_EQ(rx0->DropCount(), 0u);
  EXPECT_EQ(rx1->DropCount(), 0u);

  cluster->Stop();  // Quiesce the planner threads before reading stats.

  // Every rx1 message crossed the handoff ring; none of rx0's did. The
  // conservation law: everything the distributor pushed, shard 1 popped.
  const auto& dist = cluster->engine(1, 0).stats();
  const auto& shard1 = cluster->engine(1, 1).stats();
  EXPECT_EQ(dist.handoff_pushed, kPerEndpoint);
  EXPECT_EQ(shard1.handoff_popped, kPerEndpoint);
  EXPECT_EQ(shard1.handoff_pushed, 0u);
  EXPECT_GE(dist.messages_delivered, kPerEndpoint);   // rx0 traffic
  EXPECT_GE(shard1.messages_delivered, kPerEndpoint); // rx1 traffic

  // Aggregate view: sums of the per-shard counters, identities intact.
  const auto total = cluster->aggregate_stats(1);
  EXPECT_EQ(total.messages_delivered,
            dist.messages_delivered + shard1.messages_delivered);
  EXPECT_EQ(total.handoff_pushed, total.handoff_popped);
  EXPECT_EQ(total.backstop_sweeps, total.doorbell_overflows +
                                       total.sweeps_periodic +
                                       total.sweeps_no_candidate);
}

TEST(Cluster, TwoShardsFloodOneDestinationConcurrently) {
  // Both planners of node 0 transmit to node 1 at once. Each planner is the
  // only producer of its own wire lane, so the two floods never share an
  // SPSC ring; if they did, TSan would report the race on the ring's
  // producer state and per-source order could break. The rings are small
  // (the doorbell capacity), so both lanes also fill and refuse, and each
  // planner resumes on its receiver's un-stall kick.
  Cluster::Options options;
  options.node_count = 2;
  options.comm.message_size = 64;
  options.comm.buffer_count = 512;
  options.comm.max_endpoints = 16;
  options.comm.shard_count = 2;
  options.comm.doorbell_capacity = 64;
  options.pin_shard_threads = false;
  auto cluster_or = Cluster::Create(options);
  ASSERT_TRUE(cluster_or.ok());
  auto cluster = std::move(cluster_or).value();
  cluster->Start();
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);

  constexpr std::uint32_t kPosted = 128;
  constexpr std::uint64_t kPerSender = 4000;
  Endpoint tx[2];
  Endpoint rx[2];
  for (std::uint32_t s = 0; s < 2; ++s) {
    auto t = a.CreateEndpoint({.type = shm::EndpointType::kSend, .queue_depth = 16, .shard = s});
    auto r = b.CreateEndpoint({.type = shm::EndpointType::kReceive, .queue_depth = kPosted});
    ASSERT_TRUE(t.ok() && r.ok());
    tx[s] = *t;
    rx[s] = *r;
    for (std::uint32_t i = 0; i < kPosted; ++i) {
      auto buffer = b.AllocateBuffer();
      ASSERT_TRUE(buffer.ok());
      ASSERT_TRUE(rx[s].PostBuffer(*buffer).ok());
    }
  }

  std::atomic<std::uint64_t> received[2] = {0, 0};
  std::atomic<bool> stop{false};  // set if the receiver gives up
  const auto sender = [&](std::uint32_t s) {
    std::vector<MessageBuffer> free_buffers;
    for (int i = 0; i < 16; ++i) {
      auto buffer = a.AllocateBuffer();
      ASSERT_TRUE(buffer.ok());
      free_buffers.push_back(*buffer);
    }
    for (std::uint64_t seq = 0; seq < kPerSender && !stop.load();) {
      for (auto done = tx[s].Reclaim(); done.ok(); done = tx[s].Reclaim()) {
        free_buffers.push_back(*done);
      }
      // Pace on consumption so every arrival finds a posted buffer.
      if (free_buffers.empty() ||
          seq - received[s].load(std::memory_order_acquire) >= kPosted) {
        std::this_thread::yield();
        continue;
      }
      *free_buffers.back().As<std::uint64_t>() = seq;
      const Status status = tx[s].Send(free_buffers.back(), rx[s].address());
      if (status.ok()) {
        free_buffers.pop_back();
        ++seq;
      } else {
        ASSERT_EQ(status.code(), StatusCode::kUnavailable);
        std::this_thread::yield();
      }
    }
  };
  std::thread senders[2] = {std::thread(sender, 0), std::thread(sender, 1)};

  // One receiver drains both endpoints, checking per-(src,dst) order.
  std::uint64_t idle = 0;
  while ((received[0].load() < kPerSender || received[1].load() < kPerSender) &&
         idle < 2'000'000 && !::testing::Test::HasFatalFailure()) {
    bool any = false;
    for (std::uint32_t s = 0; s < 2; ++s) {
      auto message = rx[s].Receive();
      if (!message.ok()) {
        continue;
      }
      ASSERT_EQ(*message->As<std::uint64_t>(), received[s].load());
      ASSERT_TRUE(rx[s].PostBuffer(*message).ok());
      received[s].fetch_add(1, std::memory_order_release);
      any = true;
    }
    idle = any ? 0 : idle + 1;
    if (!any) {
      std::this_thread::yield();
    }
  }
  stop.store(true);
  for (auto& t : senders) {
    t.join();
  }
  EXPECT_EQ(received[0].load(), kPerSender);
  EXPECT_EQ(received[1].load(), kPerSender);
  EXPECT_EQ(rx[0].DropCount(), 0u);
  EXPECT_EQ(rx[1].DropCount(), 0u);

  cluster->Stop();
  // Both planners transmitted (one lane each).
  EXPECT_EQ(cluster->engine(0, 0).stats().messages_sent, kPerSender);
  EXPECT_EQ(cluster->engine(0, 1).stats().messages_sent, kPerSender);
}

TEST(Cluster, WireStallDoesNotBlockAnotherQosClass) {
  // Node 0 sends class-0 traffic to node 1 and class-1 traffic to node 2.
  // Node 1's distributor is killed, so the wire ring to node 1 fills and
  // its sender's queue backs up. Classes have equal weights, and class 0
  // would win every class selection if a stalled endpoint still counted
  // as ready; class 1 must keep flowing to the healthy node instead.
  constexpr std::uint32_t kRingCapacity = 64;
  constexpr std::uint32_t kQueueDepth = 16;
  constexpr std::uint32_t kPosted = 64;
  constexpr std::uint64_t kHealthy = 1000;
  Cluster::Options options;
  options.node_count = 3;
  options.comm.message_size = 64;
  options.comm.buffer_count = 512;
  options.comm.max_endpoints = 8;
  options.comm.doorbell_capacity = kRingCapacity;
  auto created = Cluster::Create(options);
  ASSERT_TRUE(created.ok());
  auto cluster = std::move(created).value();
  cluster->Start();
  Domain& a = cluster->domain(0);

  auto stalled_tx = a.CreateEndpoint(
      {.type = shm::EndpointType::kSend, .queue_depth = kQueueDepth, .qos_class = 0});
  auto healthy_tx = a.CreateEndpoint(
      {.type = shm::EndpointType::kSend, .queue_depth = kQueueDepth, .qos_class = 1});
  auto stalled_rx = cluster->domain(1).CreateEndpoint(
      {.type = shm::EndpointType::kReceive, .queue_depth = 2 * kRingCapacity});
  auto healthy_rx =
      cluster->domain(2).CreateEndpoint({.type = shm::EndpointType::kReceive, .queue_depth = kPosted});
  ASSERT_TRUE(stalled_tx.ok() && healthy_tx.ok() && stalled_rx.ok() && healthy_rx.ok());
  for (std::uint32_t i = 0; i < kRingCapacity + kQueueDepth; ++i) {
    auto buffer = cluster->domain(1).AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(stalled_rx->PostBuffer(*buffer).ok());
  }
  for (std::uint32_t i = 0; i < kPosted; ++i) {
    auto buffer = cluster->domain(2).AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(healthy_rx->PostBuffer(*buffer).ok());
  }

  ASSERT_TRUE(cluster->KillShard(1, 0));
  // Fill the ring to node 1 and then the class-0 send queue behind it.
  std::uint64_t stalled_sent = 0;
  for (int refusals = 0; refusals < 20000;) {
    for (auto done = stalled_tx->Reclaim(); done.ok(); done = stalled_tx->Reclaim()) {
      ASSERT_TRUE(a.FreeBuffer(*done).ok());
    }
    auto buffer = a.AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    *buffer->As<std::uint64_t>() = stalled_sent;
    const Status status = stalled_tx->Send(*buffer, stalled_rx->address());
    if (status.ok()) {
      ++stalled_sent;
      refusals = 0;
      continue;
    }
    ASSERT_EQ(status.code(), StatusCode::kUnavailable);
    ASSERT_TRUE(a.FreeBuffer(*buffer).ok());
    ++refusals;
    std::this_thread::yield();
  }
  ASSERT_EQ(stalled_sent, kRingCapacity + kQueueDepth);

  // Class 1 flows while class 0 stays stalled.
  std::vector<MessageBuffer> free_buffers;
  for (std::uint32_t i = 0; i < kQueueDepth; ++i) {
    auto buffer = a.AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    free_buffers.push_back(*buffer);
  }
  std::uint64_t sent = 0;
  for (std::uint64_t received = 0; received < kHealthy && !HasFatalFailure();) {
    for (auto done = healthy_tx->Reclaim(); done.ok(); done = healthy_tx->Reclaim()) {
      free_buffers.push_back(*done);
    }
    if (sent < kHealthy && sent - received < kPosted && !free_buffers.empty()) {
      *free_buffers.back().As<std::uint64_t>() = sent;
      const Status status = healthy_tx->Send(free_buffers.back(), healthy_rx->address());
      if (status.ok()) {
        free_buffers.pop_back();
        ++sent;
      }
    }
    auto message = PollUntilOk([&] { return healthy_rx->Receive(); });
    ASSERT_TRUE(message.ok()) << "healthy class stalled after " << received;
    ASSERT_EQ(*message->As<std::uint64_t>(), received);
    ASSERT_TRUE(healthy_rx->PostBuffer(*message).ok());
    ++received;
  }
  EXPECT_EQ(stalled_tx->ProcessedCount(), kRingCapacity);

  // The stalled class drains in order once its receiver is back.
  ASSERT_TRUE(cluster->RestartShard(1, 0));
  for (std::uint64_t received = 0; received < stalled_sent; ++received) {
    auto message = PollUntilOk([&] { return stalled_rx->Receive(); });
    ASSERT_TRUE(message.ok()) << "stalled class lost after " << received;
    ASSERT_EQ(*message->As<std::uint64_t>(), received);
  }
  EXPECT_EQ(stalled_rx->DropCount(), 0u);
  EXPECT_EQ(healthy_rx->DropCount(), 0u);
  cluster->Stop();
}

// Stops the cluster's engine threads on scope exit. Declared after the
// protocol handlers, it stops every engine loop before they are destroyed,
// also when an assertion returns early.
struct StopOnExit {
  Cluster& cluster;
  ~StopOnExit() { cluster.Stop(); }
};

// Registered protocols share the bounded wire. An RMA operation travels in
// one packet, so one larger than a ring slot is refused up front rather
// than lost on the wire, and handlers live on the distributor only.
TEST(Cluster, RmaRejectsOperationsLargerThanAWireSlot) {
  constexpr std::uint32_t kMessageSize = 256;
  Cluster::Options options;
  options.node_count = 2;
  options.comm.message_size = kMessageSize;
  options.comm.buffer_count = 64;
  options.comm.max_endpoints = 8;
  options.comm.shard_count = 2;
  options.pin_shard_threads = false;
  auto created = Cluster::Create(options);
  ASSERT_TRUE(created.ok());
  auto cluster = std::move(created).value();
  rma::RmaNode client(cluster->engine(0));
  rma::RmaNode owner(cluster->engine(1));
  EXPECT_EQ(cluster->engine(0, 1).RegisterProtocol(simnet::kProtocolRma, &client).code(),
            StatusCode::kFailedPrecondition);
  StopOnExit stop_on_exit{*cluster};
  cluster->Start();

  std::vector<std::byte> region(4 * kMessageSize);
  for (std::size_t i = 0; i < region.size(); ++i) {
    region[i] = static_cast<std::byte>(i * 7);
  }
  auto window = owner.ExportWindow(region.data(), region.size());
  ASSERT_TRUE(window.ok());

  std::vector<std::byte> big(4 * kMessageSize);
  EXPECT_EQ(client.Read(1, *window, 0, big.data(), big.size()).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client.Read(1, *window, 0, big.data(), kMessageSize + 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client.Write(1, *window, 0, big.data(), kMessageSize).status().code(),
            StatusCode::kInvalidArgument);

  // The largest operations that fit complete.
  const std::size_t write_size = kMessageSize - rma::kRmaHeaderSize;
  std::vector<std::byte> payload(write_size, std::byte{0x5a});
  auto write = client.Write(1, *window, kMessageSize, payload.data(), payload.size());
  ASSERT_TRUE(write.ok());
  std::vector<std::byte> readback(kMessageSize);
  auto read = client.Read(1, *window, kMessageSize, readback.data(), readback.size());
  ASSERT_TRUE(read.ok());
  const auto done = [&](std::uint64_t token) {
    return PollUntilOk([&] { return client.Poll(token); });
  };
  EXPECT_TRUE(done(*write).ok());
  EXPECT_TRUE(done(*read).ok());
  cluster->Stop();
  EXPECT_EQ(std::memcmp(readback.data(), payload.data(), write_size), 0);
  EXPECT_EQ(readback[write_size], region[kMessageSize + write_size]);
  EXPECT_EQ(client.stats().operations_failed, 0u);
}

// A read reply the owner cannot send because its wire ring back to the
// client is full waits in the owner's queue; it is neither dropped (which
// would leave the reader polling kUnavailable forever) nor spun on. The
// engines are stepped by hand so the ring state at each point is exact.
TEST(Cluster, RmaReplyRefusedByFullWireRingIsRetried) {
  constexpr std::uint32_t kRing = 16;
  constexpr std::uint32_t kReads = kRing + 8;
  constexpr std::size_t kSize = 200;
  Cluster::Options options;
  options.node_count = 2;
  options.comm.message_size = 256;
  options.comm.buffer_count = 64;
  options.comm.max_endpoints = 8;
  options.comm.doorbell_capacity = kRing;
  auto created = Cluster::Create(options);  // never started
  ASSERT_TRUE(created.ok());
  auto cluster = std::move(created).value();
  engine::MessagingEngine& client_engine = cluster->engine(0);
  engine::MessagingEngine& owner_engine = cluster->engine(1);
  rma::RmaNode client(client_engine);
  rma::RmaNode owner(owner_engine);
  const auto run_until_idle = [](engine::MessagingEngine& engine) {
    int steps = 0;
    while (engine.Step() && steps < 100000) {
      ++steps;
    }
  };

  std::vector<std::byte> region(kReads * kSize);
  for (std::size_t i = 0; i < region.size(); ++i) {
    region[i] = static_cast<std::byte>(i * 13 + 1);
  }
  auto window = owner.ExportWindow(region.data(), region.size());
  ASSERT_TRUE(window.ok());
  std::vector<std::vector<std::byte>> dst(kReads, std::vector<std::byte>(kSize));
  std::vector<std::uint64_t> tokens;
  for (std::uint32_t i = 0; i < kReads; ++i) {
    auto token = client.Read(1, *window, i * kSize, dst[i].data(), kSize);
    ASSERT_TRUE(token.ok());
    tokens.push_back(*token);
  }

  // The client fills its ring to the owner; the rest wait in its queue.
  run_until_idle(client_engine);
  EXPECT_EQ(owner_engine.wire_for_protocols().PendingCount(), kRing);
  // This thread plays the owner's distributor and fills the owner's ring
  // back to the client with packets of a protocol nobody registered.
  std::uint32_t filler = 0;
  for (;; ++filler) {
    simnet::Packet packet;
    packet.dst_node = 0;
    packet.protocol = simnet::kProtocolKernelIpc;
    const Status status = owner_engine.wire_for_protocols().Send(std::move(packet));
    if (!status.ok()) {
      ASSERT_EQ(status.code(), StatusCode::kUnavailable);
      break;
    }
  }
  EXPECT_EQ(filler, kRing);

  // The owner serves every request it has, but no reply fits.
  run_until_idle(owner_engine);
  EXPECT_EQ(owner.stats().reads_served, kRing);
  EXPECT_FALSE(owner_engine.HasWork());  // parked on the full ring, not spinning
  for (std::uint64_t token : tokens) {
    EXPECT_EQ(client.Poll(token).code(), StatusCode::kUnavailable);
  }

  // Once the client drains its inbound ring, everything completes.
  for (int round = 0; round < 100; ++round) {
    run_until_idle(client_engine);
    run_until_idle(owner_engine);
  }
  for (std::uint32_t i = 0; i < kReads; ++i) {
    ASSERT_TRUE(client.Poll(tokens[i]).ok()) << "read " << i;
    EXPECT_EQ(std::memcmp(dst[i].data(), region.data() + i * kSize, kSize), 0) << "read " << i;
  }
  EXPECT_EQ(owner.stats().reads_served, kReads);
  EXPECT_EQ(client.stats().operations_failed, 0u);
  EXPECT_EQ(client_engine.stats().unknown_protocol_packets, filler);
}

// Both directions saturate their wire rings with RMA traffic from running
// engines: every operation completes, none is rejected or lost.
TEST(Cluster, RmaCompletesUnderWireBackPressure) {
  constexpr std::uint32_t kOps = 300;
  constexpr std::size_t kSize = 96;
  Cluster::Options options;
  options.node_count = 2;
  options.comm.message_size = 128;
  options.comm.buffer_count = 64;
  options.comm.max_endpoints = 8;
  options.comm.doorbell_capacity = 16;
  auto created = Cluster::Create(options);
  ASSERT_TRUE(created.ok());
  auto cluster = std::move(created).value();
  rma::RmaNode node0(cluster->engine(0));
  rma::RmaNode node1(cluster->engine(1));
  StopOnExit stop_on_exit{*cluster};
  cluster->Start();

  rma::RmaNode* nodes[2] = {&node0, &node1};
  std::vector<std::byte> regions[2];
  std::uint32_t windows[2];
  for (int n = 0; n < 2; ++n) {
    regions[n].assign(kOps * kSize, std::byte{0});
    auto window = nodes[n]->ExportWindow(regions[n].data(), regions[n].size());
    ASSERT_TRUE(window.ok());
    windows[n] = *window;
  }
  // Each node writes every chunk of its peer's window, then reads it back.
  std::vector<std::byte> sources[2];
  std::vector<std::byte> readback[2];
  std::vector<std::uint64_t> writes[2];
  std::vector<std::uint64_t> reads[2];
  for (int n = 0; n < 2; ++n) {
    sources[n].resize(kOps * kSize);
    for (std::size_t i = 0; i < sources[n].size(); ++i) {
      sources[n][i] = static_cast<std::byte>(i * (n + 3) + n);
    }
    readback[n].resize(kOps * kSize);
  }
  for (std::uint32_t i = 0; i < kOps; ++i) {
    for (int n = 0; n < 2; ++n) {
      const NodeId peer = static_cast<NodeId>(1 - n);
      auto token = nodes[n]->Write(peer, windows[peer], i * kSize,
                                   sources[n].data() + i * kSize, kSize);
      ASSERT_TRUE(token.ok());
      writes[n].push_back(*token);
    }
  }
  const auto wait = [&](rma::RmaNode& node, std::uint64_t token) {
    Status status = node.Poll(token);
    for (int i = 0; i < 2'000'000 && status.code() == StatusCode::kUnavailable; ++i) {
      std::this_thread::yield();
      status = node.Poll(token);
    }
    return status;
  };
  for (int n = 0; n < 2; ++n) {
    for (std::uint64_t token : writes[n]) {
      ASSERT_TRUE(wait(*nodes[n], token).ok());
    }
  }
  for (std::uint32_t i = 0; i < kOps; ++i) {
    for (int n = 0; n < 2; ++n) {
      const NodeId peer = static_cast<NodeId>(1 - n);
      auto token = nodes[n]->Read(peer, windows[peer], i * kSize,
                                  readback[n].data() + i * kSize, kSize);
      ASSERT_TRUE(token.ok());
      reads[n].push_back(*token);
    }
  }
  for (int n = 0; n < 2; ++n) {
    for (std::uint64_t token : reads[n]) {
      ASSERT_TRUE(wait(*nodes[n], token).ok());
    }
  }
  cluster->Stop();
  for (int n = 0; n < 2; ++n) {
    EXPECT_EQ(readback[n], sources[n]) << "node " << n;
    EXPECT_EQ(nodes[n]->stats().operations_failed, 0u);
    EXPECT_EQ(nodes[n]->stats().operations_completed, 2 * kOps);
  }
}

TEST(Cluster, LockedVariantsSafeWithConcurrentSenders) {
  auto cluster = MakeCluster();
  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);

  auto rx = b.CreateEndpoint({.type = shm::EndpointType::kReceive, .queue_depth = 64});
  ASSERT_TRUE(rx.ok());
  for (int i = 0; i < 64; ++i) {
    auto buffer = b.AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(rx->PostBuffer(*buffer).ok());
  }

  // Two application threads share ONE send endpoint using the locked
  // variants — the configuration the paper's default interface supports.
  auto tx = a.CreateEndpoint({.type = shm::EndpointType::kSend, .queue_depth = 32});
  ASSERT_TRUE(tx.ok());
  constexpr int kPerThread = 50;
  // Reclaim only means the sending engine transmitted, so the senders also
  // pace on the receiver: each passes the check below with at most
  // kWindow - 1 messages unconsumed, so at most kWindow + 1 are ever
  // outstanding — fewer than the 64 posted buffers, each reposted before it
  // is counted — and zero drops is a guarantee of the optimistic protocol
  // rather than scheduling luck.
  constexpr int kWindow = 32;
  std::atomic<int> sent{0};
  std::atomic<int> received{0};
  auto sender = [&] {
    auto msg = a.AllocateBuffer();
    ASSERT_TRUE(msg.ok());
    for (int i = 0; i < kPerThread; ++i) {
      while (sent.load() - received.load() >= kWindow) {
        std::this_thread::yield();
      }
      while (!tx->Send(*msg, rx->address()).ok()) {
        std::this_thread::yield();
      }
      ++sent;
      msg = *PollUntilOk([&] { return tx->Reclaim(); });
    }
  };
  std::thread t1(sender), t2(sender);

  while (received.load() < 2 * kPerThread) {
    auto message = PollUntilOk([&] { return rx->Receive(); });
    ASSERT_TRUE(message.ok());
    ASSERT_TRUE(rx->PostBuffer(*message).ok());
    ++received;
  }
  t1.join();
  t2.join();
  EXPECT_EQ(sent.load(), 2 * kPerThread);
  EXPECT_EQ(rx->DropCount(), 0u);
}

// The idle-park budget is pure arithmetic; pin its edge cases directly.
TEST(EngineRunner, IdleParkCapsAtUnthrottleDeadline) {
  using engine::EngineRunner;
  constexpr DurationNs kMax = 200'000;
  // No throttled work pending: sleep the configured maximum.
  EXPECT_EQ(EngineRunner::IdleParkNs(1'000, kTimeNever, kMax), kMax);
  // Gate already lapsed: do not sleep at all.
  EXPECT_EQ(EngineRunner::IdleParkNs(5'000, 4'000, kMax), 0);
  EXPECT_EQ(EngineRunner::IdleParkNs(5'000, 5'000, kMax), 0);
  // Pending gate: sleep exactly the remaining wait, never more.
  EXPECT_EQ(EngineRunner::IdleParkNs(5'000, 55'000, kMax), 50'000);
  EXPECT_EQ(EngineRunner::IdleParkNs(0, 10'000'000, kMax), kMax);
}

// Satellite regression (the fixed-200us idle-park bug): a message already
// queued behind a rate gate generates no kick when the gate lapses — only
// the park timeout rediscovers it, so the park must be capped at the
// engine's earliest unthrottle instant. The maximum park is set absurdly
// long here so the stale behavior (sleeping the full maximum, ignoring
// NextUnthrottleTime) shows up as a half-second stall, far outside the
// asserted bound, while the capped wait delivers within a few ms.
TEST(Cluster, IdleParkWakesAtUnthrottleDeadline) {
  Cluster::Options options;
  options.node_count = 2;
  options.comm.message_size = 128;
  options.comm.buffer_count = 64;
  options.comm.max_endpoints = 16;
  options.max_idle_park_ns = 500'000'000;
  auto cluster_or = Cluster::Create(options);
  ASSERT_TRUE(cluster_or.ok());
  auto cluster = std::move(cluster_or).value();
  cluster->Start();

  Domain& a = cluster->domain(0);
  Domain& b = cluster->domain(1);
  auto rx = b.CreateEndpoint({.type = shm::EndpointType::kReceive, .queue_depth = 8});
  ASSERT_TRUE(rx.ok());
  for (int i = 0; i < 2; ++i) {
    auto buffer = b.AllocateBuffer();
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(rx->PostBuffer(*buffer).ok());
  }
  Domain::EndpointOptions tx_options;
  tx_options.type = shm::EndpointType::kSend;
  tx_options.queue_depth = 8;
  tx_options.bucket_capacity = 1;  // second send due at +2 ms
  tx_options.bucket_refill_ns = 2'000'000;
  auto tx = a.CreateEndpoint(tx_options);
  ASSERT_TRUE(tx.ok());

  const TimeNs start = RealClock::Instance().NowNs();
  auto m1 = a.AllocateBuffer();
  auto m2 = a.AllocateBuffer();
  ASSERT_TRUE(m1.ok() && m2.ok());
  ASSERT_TRUE(tx->Send(*m1, rx->address()).ok());
  ASSERT_TRUE(tx->Send(*m2, rx->address()).ok());

  ASSERT_TRUE(PollUntilOk([&] { return rx->Receive(); }).ok());
  ASSERT_TRUE(PollUntilOk([&] { return rx->Receive(); }).ok());
  const TimeNs elapsed = RealClock::Instance().NowNs() - start;
  // Due at +2 ms; 100 ms absorbs scheduler noise while staying far under
  // the 500 ms an uncapped park would sleep.
  EXPECT_LT(elapsed, 100'000'000);
  cluster->Stop();
}

}  // namespace
}  // namespace flipc
