// Tests for the discrete-event simulator and the fabric/link models.
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/simnet/des.h"
#include "src/simnet/fabric.h"
#include "src/simnet/link_model.h"
#include "src/simnet/packet.h"

namespace flipc::simnet {
namespace {

// ----------------------------------- DES ------------------------------------

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(30, [&] { order.push_back(3); });
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
  EXPECT_EQ(sim.executed_events(), 3u);
}

TEST(Simulator, EqualTimesFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(Simulator, HandlersMayScheduleMore) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) {
      sim.ScheduleAfter(10, chain);
    }
  };
  sim.ScheduleAt(0, chain);
  sim.Run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.Now(), 40);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(10, [&] { ++fired; });
  sim.ScheduleAt(100, [&] { ++fired; });
  sim.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 50);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  sim.ScheduleAt(100, [] {});
  sim.Run();
  TimeNs fired_at = -1;
  sim.ScheduleAt(5, [&] { fired_at = sim.Now(); });  // in the past
  sim.Run();
  EXPECT_EQ(fired_at, 100);
}

TEST(Simulator, RunWhileReportsStall) {
  Simulator sim;
  bool flag = false;
  sim.ScheduleAt(10, [&] { flag = false; });  // never satisfies
  EXPECT_FALSE(sim.RunWhile([&] { return !flag; }));
}

TEST(CostAccumulator, ChargesAndTakes) {
  CostAccumulator cost;
  cost.Charge(100);
  cost.Charge(50);
  EXPECT_EQ(cost.total(), 150);
  EXPECT_EQ(cost.Take(), 150);
  EXPECT_EQ(cost.total(), 0);
}

// -------------------------------- Link models --------------------------------

TEST(MeshLinkModel, XyHopCount) {
  MeshLinkModel::Params params;
  params.width = 4;
  MeshLinkModel mesh(params);
  EXPECT_EQ(mesh.Hops(0, 0), 0u);
  EXPECT_EQ(mesh.Hops(0, 3), 3u);   // same row
  EXPECT_EQ(mesh.Hops(0, 12), 3u);  // same column (12 = (0,3))
  EXPECT_EQ(mesh.Hops(0, 15), 6u);  // corner to corner
  EXPECT_EQ(mesh.Hops(5, 10), 2u);  // (1,1) -> (2,2)
}

TEST(MeshLinkModel, SerializationAtHardwareRate) {
  MeshLinkModel mesh;  // 5 ns/byte default = 200 MB/s
  EXPECT_EQ(mesh.SerializationNs(0, 1, 200), 1000);
  EXPECT_EQ(mesh.SerializationNs(0, 1, 0), 0);
}

TEST(EthernetAndScsi, HaveExpectedShape) {
  EthernetLinkModel ether;
  ScsiLinkModel scsi;
  // Ethernet: cheap-ish fixed cost but very slow per byte vs SCSI.
  EXPECT_GT(ether.SerializationNs(0, 1, 1000), scsi.SerializationNs(0, 1, 1000));
  // SCSI arbitration makes small transfers expensive.
  EXPECT_GT(scsi.SerializationNs(0, 1, 16), 10'000);
}

// --------------------------------- SimFabric ---------------------------------

Packet MakePacket(NodeId dst, std::size_t bytes, std::uint64_t seq = 0) {
  Packet p;
  p.dst_node = dst;
  p.protocol = kProtocolFlipc;
  p.seq = seq;
  p.payload.resize(bytes);
  return p;
}

TEST(SimFabric, DeliversWithModeledLatency) {
  Simulator sim;
  SimFabric fabric(sim, std::make_unique<MeshLinkModel>(), 4);
  ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 100)).ok());

  Packet received;
  EXPECT_FALSE(fabric.wire(1).Poll(&received));
  sim.Run();
  ASSERT_TRUE(fabric.wire(1).Poll(&received));
  EXPECT_EQ(received.src_node, 0u);
  EXPECT_EQ(received.payload.size(), 100u);
  // serialization (116 B * 5) + fixed 100 + 1 hop * 40 = 720.
  EXPECT_EQ(sim.Now(), 720);
}

TEST(SimFabric, PerPairFifoEvenWhenSizesDiffer) {
  Simulator sim;
  SimFabric fabric(sim, std::make_unique<MeshLinkModel>(), 2);
  // A large packet then a tiny one: the tiny one must not overtake.
  ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 4096, 1)).ok());
  ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 8, 2)).ok());
  sim.Run();
  Packet first, second;
  ASSERT_TRUE(fabric.wire(1).Poll(&first));
  ASSERT_TRUE(fabric.wire(1).Poll(&second));
  EXPECT_EQ(first.seq, 1u);
  EXPECT_EQ(second.seq, 2u);
}

TEST(SimFabric, SendsSerializeAtSource) {
  Simulator sim;
  SimFabric fabric(sim, std::make_unique<MeshLinkModel>(), 2);
  std::vector<TimeNs> deliveries;
  fabric.SetDeliveryCallback(1, [&] { deliveries.push_back(sim.Now()); });
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 984)).ok());  // 1000 B wire
  }
  sim.Run();
  ASSERT_EQ(deliveries.size(), 3u);
  // Each packet needs 5000 ns of wire time; arrivals pace at that interval.
  EXPECT_EQ(deliveries[1] - deliveries[0], 5000);
  EXPECT_EQ(deliveries[2] - deliveries[1], 5000);
}

TEST(SimFabric, UnknownDestinationRejected) {
  Simulator sim;
  SimFabric fabric(sim, std::make_unique<MeshLinkModel>(), 2);
  EXPECT_EQ(fabric.wire(0).Send(MakePacket(9, 10)).code(), StatusCode::kNotFound);
}

TEST(SimFabric, FaultInjectionDropsSome) {
  Simulator sim;
  SimFabric::Options options;
  options.drop_probability = 0.5;
  options.fault_seed = 42;
  SimFabric fabric(sim, std::make_unique<MeshLinkModel>(), 2, options);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 16)).ok());
  }
  sim.Run();
  std::size_t delivered = 0;
  Packet p;
  while (fabric.wire(1).Poll(&p)) {
    ++delivered;
  }
  EXPECT_EQ(delivered + fabric.packets_dropped_by_fabric(), 200u);
  EXPECT_GT(fabric.packets_dropped_by_fabric(), 50u);
  EXPECT_LT(fabric.packets_dropped_by_fabric(), 150u);
}

TEST(SimFabric, CountsTraffic) {
  Simulator sim;
  SimFabric fabric(sim, std::make_unique<MeshLinkModel>(), 2);
  ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 100)).ok());
  ASSERT_TRUE(fabric.wire(1).Send(MakePacket(0, 50)).ok());
  sim.Run();
  EXPECT_EQ(fabric.packets_sent(), 2u);
  EXPECT_EQ(fabric.bytes_sent(), 100u + 50u + 2 * kPacketWireHeaderBytes);
}

// --------------------------------- FaultPlan ---------------------------------

TEST(FaultPlan, LinkDownWindowDropsOnlyInWindow) {
  Simulator sim;
  SimFabric::Options options;
  FaultPlan::LinkFault fault;
  fault.src = 0;
  fault.dst = 1;
  fault.start = 1000;
  fault.end = 2000;
  fault.down = true;
  options.fault_plan.links.push_back(fault);
  SimFabric fabric(sim, std::make_unique<MeshLinkModel>(), 2, options);

  // Before, inside, at end (half-open: end is OUT of the window), and the
  // unmatched reverse direction during the window.
  sim.ScheduleAt(0, [&] { ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 16, 1)).ok()); });
  sim.ScheduleAt(1500, [&] { ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 16, 2)).ok()); });
  sim.ScheduleAt(2000, [&] { ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 16, 3)).ok()); });
  sim.ScheduleAt(1500, [&] { ASSERT_TRUE(fabric.wire(1).Send(MakePacket(0, 16, 4)).ok()); });
  sim.Run();

  std::vector<std::uint64_t> arrived;
  Packet p;
  while (fabric.wire(1).Poll(&p)) {
    arrived.push_back(p.seq);
  }
  EXPECT_EQ(arrived, (std::vector<std::uint64_t>{1, 3}));
  ASSERT_TRUE(fabric.wire(0).Poll(&p));
  EXPECT_EQ(p.seq, 4u);  // reverse direction unaffected

  ASSERT_EQ(fabric.fault_events().size(), 1u);
  EXPECT_EQ(fabric.fault_events()[0].kind, FaultEvent::Kind::kLinkDown);
  EXPECT_EQ(fabric.fault_events()[0].time, 1500);
  EXPECT_EQ(fabric.packets_dropped_by_fabric(), 1u);
}

TEST(FaultPlan, NodeOutageSilencesBothDirections) {
  Simulator sim;
  SimFabric::Options options;
  FaultPlan::NodeFault outage;
  outage.node = 1;
  outage.start = 0;
  outage.end = 1000;
  options.fault_plan.nodes.push_back(outage);
  SimFabric fabric(sim, std::make_unique<MeshLinkModel>(), 3, options);

  sim.ScheduleAt(0, [&] {
    ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 16, 1)).ok());  // into dead node
    ASSERT_TRUE(fabric.wire(1).Send(MakePacket(2, 16, 2)).ok());  // out of dead node
    ASSERT_TRUE(fabric.wire(0).Send(MakePacket(2, 16, 3)).ok());  // bystanders talk
  });
  sim.ScheduleAt(1000, [&] {  // window over: node back on the fabric
    ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 16, 4)).ok());
  });
  sim.Run();

  Packet p;
  ASSERT_TRUE(fabric.wire(1).Poll(&p));
  EXPECT_EQ(p.seq, 4u);
  std::vector<std::uint64_t> at_node2;
  while (fabric.wire(2).Poll(&p)) {
    at_node2.push_back(p.seq);
  }
  EXPECT_EQ(at_node2, (std::vector<std::uint64_t>{3}));
  ASSERT_EQ(fabric.fault_events().size(), 2u);
  EXPECT_EQ(fabric.fault_events()[0].kind, FaultEvent::Kind::kNodeDown);
  EXPECT_EQ(fabric.fault_events()[1].kind, FaultEvent::Kind::kNodeDown);
}

TEST(FaultPlan, PartitionDropsOnlyBoundaryCrossings) {
  Simulator sim;
  SimFabric::Options options;
  FaultPlan::Partition partition;
  partition.island = {0};
  partition.start = 0;
  partition.end = kTimeNever;
  options.fault_plan.partitions.push_back(partition);
  SimFabric fabric(sim, std::make_unique<MeshLinkModel>(), 3, options);

  sim.ScheduleAt(0, [&] {
    ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 16, 1)).ok());  // crosses out
    ASSERT_TRUE(fabric.wire(2).Send(MakePacket(0, 16, 2)).ok());  // crosses in
    ASSERT_TRUE(fabric.wire(1).Send(MakePacket(2, 16, 3)).ok());  // mainland only
  });
  sim.Run();

  Packet p;
  EXPECT_FALSE(fabric.wire(1).Poll(&p));
  EXPECT_FALSE(fabric.wire(0).Poll(&p));
  ASSERT_TRUE(fabric.wire(2).Poll(&p));
  EXPECT_EQ(p.seq, 3u);
  ASSERT_EQ(fabric.fault_events().size(), 2u);
  EXPECT_EQ(fabric.fault_events()[0].kind, FaultEvent::Kind::kPartition);
  EXPECT_EQ(fabric.fault_events()[1].kind, FaultEvent::Kind::kPartition);
}

TEST(FaultPlan, DelayShiftsArrivalAndLogsOneEvent) {
  Simulator baseline_sim;
  SimFabric baseline(baseline_sim, std::make_unique<MeshLinkModel>(), 2);
  ASSERT_TRUE(baseline.wire(0).Send(MakePacket(1, 100)).ok());
  TimeNs baseline_arrival = 0;
  baseline.SetDeliveryCallback(1, [&] { baseline_arrival = baseline_sim.Now(); });
  baseline_sim.Run();

  Simulator sim;
  SimFabric::Options options;
  FaultPlan::LinkFault slow;
  slow.extra_delay_ns = 5000;  // any->any, always active
  options.fault_plan.links.push_back(slow);
  SimFabric fabric(sim, std::make_unique<MeshLinkModel>(), 2, options);
  ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 100)).ok());
  TimeNs delayed_arrival = 0;
  fabric.SetDeliveryCallback(1, [&] { delayed_arrival = sim.Now(); });
  sim.Run();

  EXPECT_EQ(delayed_arrival, baseline_arrival + 5000);
  ASSERT_EQ(fabric.fault_events().size(), 1u);
  EXPECT_EQ(fabric.fault_events()[0].kind, FaultEvent::Kind::kDelay);
  EXPECT_EQ(fabric.fault_events()[0].delay_ns, 5000);
  EXPECT_EQ(fabric.packets_dropped_by_fabric(), 0u);  // delayed, not lost
}

// Satellite: the seeding contract. The same seeded plan over the same
// DES-ordered workload must produce a byte-identical fault log; a
// different seed must diverge.
std::string RunSeededFaultWorkload(std::uint64_t seed) {
  Simulator sim;
  SimFabric::Options options;
  FaultPlan::LinkFault flaky;          // any->any, p = 0.4, always active
  flaky.drop_probability = 0.4;
  options.fault_plan.links.push_back(flaky);
  options.fault_plan.seed = seed;
  SimFabric fabric(sim, std::make_unique<MeshLinkModel>(), 3, options);
  for (int i = 0; i < 200; ++i) {
    sim.ScheduleAt(i * 100, [&fabric, i] {
      ASSERT_TRUE(fabric.wire(i % 3).Send(MakePacket((i + 1) % 3, 16, i)).ok());
    });
  }
  sim.Run();
  return FormatFaultLog(fabric.fault_events());
}

TEST(FaultPlan, SeededReplayIsByteIdentical) {
  const std::string first = RunSeededFaultWorkload(7);
  const std::string second = RunSeededFaultWorkload(7);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);

  const std::string other_seed = RunSeededFaultWorkload(8);
  EXPECT_NE(first, other_seed);
}

// -------------------------------- ThreadFabric -------------------------------

// Small rings so a handful of packets wraps them.
ThreadFabric::Options SmallRings(std::uint32_t lanes) {
  return {.lanes = lanes, .ring_capacity = 8, .max_payload = 64};
}

TEST(ThreadFabric, ImmediateInOrderDelivery) {
  ThreadFabric fabric(2, {.lanes = 1, .ring_capacity = 16, .max_payload = 64});
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 8, i)).ok());
  }
  EXPECT_EQ(fabric.wire(1).PendingCount(), 10u);
  Packet p;
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(fabric.wire(1).Poll(&p));
    EXPECT_EQ(p.seq, i);
    EXPECT_EQ(p.src_node, 0u);
  }
  EXPECT_FALSE(fabric.wire(1).Poll(&p));
}

TEST(ThreadFabric, DeliveryCallbackFires) {
  ThreadFabric fabric(2, SmallRings(/*lanes=*/1));
  int calls = 0;
  fabric.SetDeliveryCallback(1, [&] { ++calls; });
  ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 8)).ok());
  ASSERT_TRUE(fabric.wire(0).Send(MakePacket(1, 8)).ok());
  EXPECT_EQ(calls, 2);
}

// Fills `n` payload bytes with a pattern derived from `seq`.
std::vector<std::byte> PatternPayload(std::uint64_t seq, std::size_t n) {
  std::vector<std::byte> bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<std::byte>((seq * 31 + i) & 0xff);
  }
  return bytes;
}

Status TransmitPattern(Wire& wire, std::uint32_t lane, NodeId dst, std::uint64_t seq,
                       std::size_t bytes) {
  PacketHeader header;
  header.dst_node = dst;
  header.protocol = kProtocolFlipc;
  header.src_addr = lane;
  header.seq = seq;
  const std::vector<std::byte> payload = PatternPayload(seq, bytes);
  return wire.Transmit(lane, header, payload.data(), payload.size());
}

TEST(ThreadFabric, PerLaneFifoAcrossWraps) {
  ThreadFabric fabric(2, SmallRings(/*lanes=*/2));
  constexpr std::uint64_t kPerLane = 5 * 8 + 3;  // several laps of an 8-slot ring
  std::uint64_t sent[2] = {0, 0};
  std::uint64_t received[2] = {0, 0};
  Packet p;
  while (received[0] < kPerLane || received[1] < kPerLane) {
    // Each lane sends until its ring refuses, then the receiver drains a
    // few, so the two lanes' packets interleave at the receiver and every
    // ring wraps several times.
    for (std::uint32_t lane = 0; lane < 2; ++lane) {
      while (sent[lane] < kPerLane) {
        const Status status =
            TransmitPattern(fabric.wire(0), lane, 1, sent[lane], 1 + sent[lane] % 64);
        if (status.code() == StatusCode::kUnavailable) {
          break;
        }
        ASSERT_TRUE(status.ok());
        ++sent[lane];
      }
    }
    for (int k = 0; k < 5 && fabric.wire(1).Poll(&p); ++k) {
      ASSERT_EQ(p.src_node, 0u);
      ASSERT_EQ(p.dst_node, 1u);
      const std::uint32_t lane = p.src_addr;
      ASSERT_LT(lane, 2u);
      ASSERT_EQ(p.seq, received[lane]) << "lane " << lane << " out of order";
      EXPECT_EQ(p.payload, PatternPayload(p.seq, 1 + p.seq % 64));
      ++received[lane];
    }
  }
  EXPECT_FALSE(fabric.wire(1).Poll(&p));
  EXPECT_EQ(fabric.wire(1).PendingCount(), 0u);
}

TEST(ThreadFabric, FullRingRefusesAndLeavesPacketsUntouched) {
  ThreadFabric fabric(2, SmallRings(/*lanes=*/1));
  int unstalls = 0;
  fabric.SetUnstallCallback(0, 0, [&] { ++unstalls; });
  Wire& tx = fabric.wire(0);
  for (std::uint64_t seq = 0; seq < 8; ++seq) {
    ASSERT_EQ(tx.FreeSlots(0, 1), 8 - seq);
    ASSERT_TRUE(TransmitPattern(tx, 0, 1, seq, 16).ok());
  }
  EXPECT_EQ(tx.FreeSlots(0, 1), 0u);
  EXPECT_EQ(TransmitPattern(tx, 0, 1, 8, 16).code(), StatusCode::kUnavailable);
  EXPECT_EQ(fabric.wire(1).PendingCount(), 8u);
  // The loopback ring (0 -> 0) is independent of the full one.
  EXPECT_EQ(tx.FreeSlots(0, 0), 8u);

  // The refused packet overwrote nothing: the eight accepted ones come out
  // intact, and the first pop from the full ring wakes the sender.
  Packet p;
  for (std::uint64_t seq = 0; seq < 8; ++seq) {
    ASSERT_TRUE(fabric.wire(1).Poll(&p));
    EXPECT_EQ(p.seq, seq);
    EXPECT_EQ(p.payload, PatternPayload(seq, 16));
    EXPECT_EQ(unstalls, 1);
  }
  EXPECT_FALSE(fabric.wire(1).Poll(&p));

  // The retry goes through and arrives after everything sent before it.
  ASSERT_TRUE(TransmitPattern(tx, 0, 1, 8, 16).ok());
  ASSERT_TRUE(fabric.wire(1).Poll(&p));
  EXPECT_EQ(p.seq, 8u);
  EXPECT_EQ(unstalls, 1);
}

TEST(ThreadFabric, OversizedPayloadRejectedNotTruncated) {
  ThreadFabric fabric(2, SmallRings(/*lanes=*/1));
  EXPECT_EQ(TransmitPattern(fabric.wire(0), 0, 1, 1, 65).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fabric.wire(0).Send(MakePacket(1, 65)).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fabric.wire(1).PendingCount(), 0u);

  // Exactly one slot's worth is carried whole.
  ASSERT_TRUE(TransmitPattern(fabric.wire(0), 0, 1, 2, 64).ok());
  Packet p;
  ASSERT_TRUE(fabric.wire(1).Poll(&p));
  EXPECT_EQ(p.seq, 2u);
  EXPECT_EQ(p.payload, PatternPayload(2, 64));
  EXPECT_FALSE(fabric.wire(1).Poll(&p));

  // Unknown lanes and nodes are errors too.
  EXPECT_EQ(fabric.wire(0).MaxPayload(), 64u);
  EXPECT_EQ(TransmitPattern(fabric.wire(0), 1, 1, 3, 8).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(TransmitPattern(fabric.wire(0), 0, 2, 3, 8).code(), StatusCode::kNotFound);
}

TEST(ThreadFabric, PendingCountSafeFromAnotherThread) {
  ThreadFabric fabric(2, SmallRings(/*lanes=*/1));
  constexpr std::uint64_t kPackets = 20000;
  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (std::uint64_t seq = 0; seq < kPackets;) {
      const Status status = TransmitPattern(fabric.wire(0), 0, 1, seq, 8);
      if (status.ok()) {
        ++seq;
      } else {
        ASSERT_EQ(status.code(), StatusCode::kUnavailable);
        std::this_thread::yield();
      }
    }
  });
  std::thread consumer([&] {
    Packet p;
    for (std::uint64_t seq = 0; seq < kPackets;) {
      if (fabric.wire(1).Poll(&p)) {
        ASSERT_EQ(p.seq, seq);
        ++seq;
      } else {
        std::this_thread::yield();
      }
    }
    done.store(true);
  });
  // A third thread samples the depth throughout: it must never see more
  // than one ring's worth (or a wrapped count).
  std::size_t samples = 0;
  while (!done.load()) {
    EXPECT_LE(fabric.wire(1).PendingCount(), 8u);
    ++samples;
  }
  producer.join();
  consumer.join();
  EXPECT_GT(samples, 0u);
  EXPECT_EQ(fabric.wire(1).PendingCount(), 0u);
}

}  // namespace
}  // namespace flipc::simnet
