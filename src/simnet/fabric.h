// Fabrics: the interconnect a messaging engine sends packets through.
//
// A Fabric owns one Wire per node. Wires are reliable and preserve order
// per sending lane — the property FLIPC's optimistic transport depends on
// ("a reliable transport that preserves order for messages sent from the
// same source endpoint to the same destination endpoint"). Two
// implementations:
//
//   * SimFabric    — discrete-event simulated; delivery times come from a
//     LinkModel, sends serialize at the source interface, and an optional
//     fault injector can drop packets (used only by tests probing how the
//     layers above would misbehave on an unreliable interconnect). Order
//     holds per (source, destination) node pair; lanes are ignored and the
//     wire never refuses.
//   * ThreadFabric — real concurrency; one wait-free SPSC ring of
//     fixed-size byte slots per (sending lane, destination node), where a
//     lane is one sending planner. Order holds per (lane, destination),
//     which covers every (source endpoint, destination endpoint) pair
//     because an endpoint belongs to one planner. A full ring refuses, so
//     a stalled receiver back-pressures into the sender's send queue.
#ifndef SRC_SIMNET_FABRIC_H_
#define SRC_SIMNET_FABRIC_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/base/types.h"
#include "src/simnet/des.h"
#include "src/simnet/link_model.h"
#include "src/simnet/packet.h"
#include "src/waitfree/handoff_ring.h"

namespace flipc::simnet {

class Wire {
 public:
  // FreeSlots of a wire that never refuses.
  static constexpr std::uint32_t kUnboundedSlots = 0xffffffffu;
  // MaxPayload of a wire without a slot-size limit.
  static constexpr std::size_t kUnboundedPayload = ~std::size_t{0};

  virtual ~Wire() = default;

  // Queues a packet for transmission. src_node is filled in by the wire.
  // On a laned wire this sends on lane 0, the node distributor's lane, so
  // only the distributor's thread may call it there; it fails like
  // Transmit.
  virtual Status Send(Packet packet) = 0;

  // Largest payload Send and Transmit accept.
  virtual std::size_t MaxPayload() const { return kUnboundedPayload; }

  // Transmits one packet made of `header` and `size` payload bytes on
  // `lane`, the sending planner's own producer lane (its shard id). The
  // wire copies the payload before returning. Errors: kNotFound for an
  // unknown destination node, kInvalidArgument for a payload larger than
  // the wire's slot or an unknown lane, kUnavailable when the lane's ring
  // to that destination is full (nothing was sent). The default builds an
  // owning Packet and calls Send.
  virtual Status Transmit(std::uint32_t lane, const PacketHeader& header,
                          const std::byte* payload, std::size_t size);

  // Packets `lane` can certainly transmit to `dst` before Transmit
  // refuses. Meaningful to the lane's producer: a lower bound (only the
  // receiver frees slots) that is 0 only when the ring really is full.
  // kUnboundedSlots for a wire that never refuses (and for an unknown lane
  // or node, which Transmit rejects on its own).
  virtual std::uint32_t FreeSlots(std::uint32_t /*lane*/, NodeId /*dst*/) {
    return kUnboundedSlots;
  }

  // Retrieves the next delivered packet, if any.
  virtual bool Poll(Packet* out) = 0;

  // Number of packets delivered and waiting.
  virtual std::size_t PendingCount() const = 0;

  virtual NodeId node() const = 0;
};

class Fabric {
 public:
  virtual ~Fabric() = default;

  virtual std::uint32_t node_count() const = 0;
  virtual Wire& wire(NodeId node) = 0;

  // Registers a callback fired when a packet is delivered to `node`
  // (used by engine drivers to wake an idle engine).
  virtual void SetDeliveryCallback(NodeId node, std::function<void()> callback) = 0;
};

// ----------------------------------------------------------------------------

// A seeded, DES-scheduled failure-injection plan for SimFabric.
//
// FLIPC assumes a reliable interconnect; the fault plan exists so tests can
// probe how the layers above misbehave when that assumption is violated —
// and prove that runs replay bit-identically.
//
// Seeding contract (the determinism tests depend on every clause):
//   * All plan randomness comes from ONE xoshiro generator seeded with
//     `seed` at fabric construction (separate from the legacy
//     drop_probability stream, which keeps its own draws for backward
//     compatibility).
//   * The generator advances exactly once per probabilistic decision: one
//     draw per matching LinkFault whose drop_probability is in (0, 1),
//     evaluated in rule-list order, per SendFrom call. Deterministic rules
//     — down links, node-down windows, partitions, probabilities of
//     exactly 0 or 1, and delays — consume NO randomness.
//   * SendFrom calls occur in discrete-event order, which the simulator
//     makes deterministic, so the same plan driving the same workload
//     yields a byte-identical fault-event log (FormatFaultLog).
// Corollary: editing the rule list (even reordering entries) legitimately
// changes the draw sequence and therefore the log.
struct FaultPlan {
  static constexpr NodeId kAnyNode = kInvalidNode;  // wildcard endpoint match

  // Per-link fault, active while start <= Now() < end at send time.
  struct LinkFault {
    NodeId src = kAnyNode;
    NodeId dst = kAnyNode;
    TimeNs start = 0;
    TimeNs end = kTimeNever;
    bool down = false;              // drop every matching packet
    double drop_probability = 0.0;  // else drop with this probability
    DurationNs extra_delay_ns = 0;  // surviving packets arrive this much later
  };

  // Node off the fabric (both directions) during the window.
  struct NodeFault {
    NodeId node = 0;
    TimeNs start = 0;
    TimeNs end = kTimeNever;
  };

  // Network partition: packets crossing the island boundary (in either
  // direction) are dropped during the window; traffic wholly inside or
  // wholly outside the island is untouched.
  struct Partition {
    std::vector<NodeId> island;
    TimeNs start = 0;
    TimeNs end = kTimeNever;
  };

  std::uint64_t seed = 1;
  std::vector<LinkFault> links;
  std::vector<NodeFault> nodes;
  std::vector<Partition> partitions;

  bool Empty() const { return links.empty() && nodes.empty() && partitions.empty(); }
};

// One entry in the fabric's fault-event log (kept only while the plan is
// non-empty; test machinery, not a product path).
struct FaultEvent {
  enum class Kind : std::uint8_t {
    kLinkDown = 0,   // dropped by a down LinkFault
    kNodeDown = 1,   // dropped by a NodeFault window
    kPartition = 2,  // dropped crossing a partition island boundary
    kRandomDrop = 3, // dropped by a probabilistic LinkFault draw
    kDelay = 4,      // delivered, but delayed by extra_delay_ns
  };
  TimeNs time = 0;          // virtual send time
  NodeId src = 0;
  NodeId dst = 0;
  std::uint64_t seq = 0;    // fabric-wide send ordinal
  Kind kind = Kind::kRandomDrop;
  DurationNs delay_ns = 0;  // kDelay: total extra delay applied
};

std::string_view FaultEventKindName(FaultEvent::Kind kind);

// Canonical one-line-per-event serialization. Two runs of the same seeded
// plan over the same workload produce byte-identical strings — the
// determinism tests compare exactly this.
std::string FormatFaultLog(const std::vector<FaultEvent>& events);

class SimFabric final : public Fabric {
 public:
  struct Options {
    // Probability of silently dropping a packet (tests only; FLIPC assumes
    // a reliable interconnect, and the default models that). Draws from its
    // own fault_seed-seeded stream, independent of the fault plan's.
    double drop_probability = 0.0;
    std::uint64_t fault_seed = 1;
    // Scheduled fault injection (drops, delays, outages, partitions); an
    // empty plan (the default) leaves the fabric perfectly reliable and
    // keeps the fault log empty.
    FaultPlan fault_plan;
  };

  SimFabric(Simulator& sim, std::unique_ptr<LinkModel> link_model, std::uint32_t node_count)
      : SimFabric(sim, std::move(link_model), node_count, Options()) {}
  SimFabric(Simulator& sim, std::unique_ptr<LinkModel> link_model, std::uint32_t node_count,
            Options options);
  ~SimFabric() override;

  std::uint32_t node_count() const override { return static_cast<std::uint32_t>(wires_.size()); }
  Wire& wire(NodeId node) override;
  void SetDeliveryCallback(NodeId node, std::function<void()> callback) override;

  const LinkModel& link_model() const { return *link_model_; }

  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t packets_dropped_by_fabric() const { return packets_dropped_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

  // The fault-event log (empty unless the fault plan is non-empty).
  const std::vector<FaultEvent>& fault_events() const { return fault_events_; }
  void ClearFaultEvents() { fault_events_.clear(); }

 private:
  class SimWire;

  Status SendFrom(NodeId src, Packet packet);

  // Evaluates the fault plan for a packet sent now. Returns true when the
  // packet is dropped (the event has been logged); otherwise adds any
  // matching delays to *extra_delay and logs one kDelay event if non-zero.
  bool ApplyFaultPlan(NodeId src, NodeId dst, std::uint64_t seq,
                      DurationNs* extra_delay);

  Simulator& sim_;
  std::unique_ptr<LinkModel> link_model_;
  Options options_;
  Rng fault_rng_;
  Rng plan_rng_;
  std::vector<FaultEvent> fault_events_;

  std::vector<std::unique_ptr<SimWire>> wires_;
  // Time each source interface becomes free (sends serialize).
  std::vector<TimeNs> link_free_at_;
  // Last delivery time per (src, dst) to enforce FIFO even if a later,
  // smaller packet would otherwise overtake.
  std::vector<TimeNs> last_arrival_;

  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_dropped_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

// ----------------------------------------------------------------------------

class ThreadFabric final : public Fabric {
 public:
  // No defaults: Cluster derives all three from its CommBufferConfig.
  struct Options {
    // Sending lanes per node: one per planner shard that transmits.
    std::uint32_t lanes;
    // Slots per (lane, destination) ring; rounded up to a power of two.
    std::uint32_t ring_capacity;
    // Largest payload one slot carries.
    std::uint32_t max_payload;
  };

  ThreadFabric(std::uint32_t node_count, Options options);
  ~ThreadFabric() override;

  ThreadFabric(const ThreadFabric&) = delete;
  ThreadFabric& operator=(const ThreadFabric&) = delete;

  std::uint32_t node_count() const override { return static_cast<std::uint32_t>(wires_.size()); }
  Wire& wire(NodeId node) override;

  // Callbacks are read without a lock by the sending and receiving engine
  // threads, so install them before traffic flows (Cluster does so at
  // assembly, before any runner starts).
  void SetDeliveryCallback(NodeId node, std::function<void()> callback) override;
  // Fired by a destination's receiving engine when it frees a slot of a
  // full ring that `lane` of `node` sends on, so the planner that stalled
  // on the full ring resumes (the wire's mirror of the handoff ring's
  // un-stall path).
  void SetUnstallCallback(NodeId node, std::uint32_t lane, std::function<void()> callback);

 private:
  class ThreadWire;

  // The ring `lane` of `src` sends to `dst` on.
  waitfree::SpscByteRing& ring(NodeId src, std::uint32_t lane, NodeId dst) {
    return *rings_[(static_cast<std::size_t>(src) * options_.lanes + lane) * wires_.size() + dst];
  }

  Options options_;
  // Every ring's tags and slots in one block, from the heap or an
  // anonymous mapping by size (kHeapStorageLimit in fabric.cc): the tags
  // are zeroed, the slots never initialised.
  void* storage_ = nullptr;
  std::size_t storage_bytes_ = 0;
  std::vector<std::unique_ptr<waitfree::SpscByteRing>> rings_;
  std::vector<std::function<void()>> delivery_;  // by destination node
  std::vector<std::function<void()>> unstall_;   // by src * lanes + lane
  std::vector<std::unique_ptr<ThreadWire>> wires_;
};

}  // namespace flipc::simnet

#endif  // SRC_SIMNET_FABRIC_H_
