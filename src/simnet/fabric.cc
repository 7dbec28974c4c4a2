#include "src/simnet/fabric.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <new>
#include <utility>

namespace flipc::simnet {

// ================================= Wire ======================================

Status Wire::Transmit(std::uint32_t /*lane*/, const PacketHeader& header,
                      const std::byte* payload, std::size_t size) {
  Packet packet;
  static_cast<PacketHeader&>(packet) = header;
  packet.payload.assign(payload, payload + size);
  return Send(std::move(packet));
}

// ============================== Fault plan ===================================

std::string_view FaultEventKindName(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kLinkDown:
      return "link-down";
    case FaultEvent::Kind::kNodeDown:
      return "node-down";
    case FaultEvent::Kind::kPartition:
      return "partition";
    case FaultEvent::Kind::kRandomDrop:
      return "random-drop";
    case FaultEvent::Kind::kDelay:
      return "delay";
  }
  return "unknown";
}

std::string FormatFaultLog(const std::vector<FaultEvent>& events) {
  std::string out;
  out.reserve(events.size() * 64);
  char line[128];
  for (const FaultEvent& e : events) {
    std::snprintf(line, sizeof(line),
                  "t=%lld src=%u dst=%u seq=%llu kind=%s delay=%lld\n",
                  static_cast<long long>(e.time), e.src, e.dst,
                  static_cast<unsigned long long>(e.seq),
                  std::string(FaultEventKindName(e.kind)).c_str(),
                  static_cast<long long>(e.delay_ns));
    out += line;
  }
  return out;
}

// ============================== SimFabric ====================================

class SimFabric::SimWire final : public Wire {
 public:
  SimWire(SimFabric& fabric, NodeId node) : fabric_(fabric), node_(node) {}

  Status Send(Packet packet) override {
    packet.src_node = node_;
    return fabric_.SendFrom(node_, std::move(packet));
  }

  bool Poll(Packet* out) override {
    if (inbox_.empty()) {
      return false;
    }
    *out = std::move(inbox_.front());
    inbox_.pop_front();
    return true;
  }

  std::size_t PendingCount() const override { return inbox_.size(); }
  NodeId node() const override { return node_; }

  void Deliver(Packet packet) {
    inbox_.push_back(std::move(packet));
    if (delivery_callback_) {
      delivery_callback_();
    }
  }

  void SetDeliveryCallback(std::function<void()> callback) {
    delivery_callback_ = std::move(callback);
  }

 private:
  SimFabric& fabric_;
  NodeId node_;
  std::deque<Packet> inbox_;
  std::function<void()> delivery_callback_;
};

SimFabric::SimFabric(Simulator& sim, std::unique_ptr<LinkModel> link_model,
                     std::uint32_t node_count, Options options)
    : sim_(sim),
      link_model_(std::move(link_model)),
      options_(std::move(options)),
      fault_rng_(options_.fault_seed),
      plan_rng_(options_.fault_plan.seed),
      link_free_at_(node_count, 0),
      last_arrival_(static_cast<std::size_t>(node_count) * node_count, 0) {
  wires_.reserve(node_count);
  for (NodeId n = 0; n < node_count; ++n) {
    wires_.push_back(std::make_unique<SimWire>(*this, n));
  }
}

SimFabric::~SimFabric() = default;

Wire& SimFabric::wire(NodeId node) { return *wires_[node]; }

void SimFabric::SetDeliveryCallback(NodeId node, std::function<void()> callback) {
  wires_[node]->SetDeliveryCallback(std::move(callback));
}

bool SimFabric::ApplyFaultPlan(NodeId src, NodeId dst, std::uint64_t seq,
                               DurationNs* extra_delay) {
  const FaultPlan& plan = options_.fault_plan;
  const TimeNs now = sim_.Now();
  const auto in_window = [now](TimeNs start, TimeNs end) {
    return start <= now && now < end;
  };
  const auto log = [&](FaultEvent::Kind kind, DurationNs delay = 0) {
    fault_events_.push_back({now, src, dst, seq, kind, delay});
  };

  // Deterministic rules first (they consume no randomness): node outages,
  // then partitions, then link rules in list order.
  for (const FaultPlan::NodeFault& fault : plan.nodes) {
    if ((fault.node == src || fault.node == dst) && in_window(fault.start, fault.end)) {
      log(FaultEvent::Kind::kNodeDown);
      return true;
    }
  }
  for (const FaultPlan::Partition& partition : plan.partitions) {
    if (!in_window(partition.start, partition.end)) {
      continue;
    }
    const auto inside = [&partition](NodeId node) {
      return std::find(partition.island.begin(), partition.island.end(), node) !=
             partition.island.end();
    };
    if (inside(src) != inside(dst)) {
      log(FaultEvent::Kind::kPartition);
      return true;
    }
  }
  DurationNs delay = 0;
  for (const FaultPlan::LinkFault& fault : plan.links) {
    const bool src_match = fault.src == FaultPlan::kAnyNode || fault.src == src;
    const bool dst_match = fault.dst == FaultPlan::kAnyNode || fault.dst == dst;
    if (!src_match || !dst_match || !in_window(fault.start, fault.end)) {
      continue;
    }
    if (fault.down || fault.drop_probability >= 1.0) {
      log(FaultEvent::Kind::kLinkDown);
      return true;
    }
    // The seeding contract: exactly one draw per matching probabilistic
    // rule, in rule order — probabilities of exactly 0 draw nothing.
    if (fault.drop_probability > 0.0 && plan_rng_.Chance(fault.drop_probability)) {
      log(FaultEvent::Kind::kRandomDrop);
      return true;
    }
    delay += fault.extra_delay_ns;
  }
  if (delay > 0) {
    log(FaultEvent::Kind::kDelay, delay);
    *extra_delay += delay;
  }
  return false;
}

Status SimFabric::SendFrom(NodeId src, Packet packet) {
  if (packet.dst_node >= node_count()) {
    return NotFoundStatus();
  }
  const std::uint64_t seq = packets_sent_;
  ++packets_sent_;
  bytes_sent_ += packet.wire_size();

  if (options_.drop_probability > 0.0 && fault_rng_.Chance(options_.drop_probability)) {
    ++packets_dropped_;
    return OkStatus();  // Silent loss, as a faulty interconnect would be.
  }

  DurationNs fault_delay = 0;
  if (!options_.fault_plan.Empty() &&
      ApplyFaultPlan(src, packet.dst_node, seq, &fault_delay)) {
    ++packets_dropped_;
    return OkStatus();  // Same silent loss as above — the plan just decides when.
  }

  const std::size_t wire_bytes = packet.wire_size();
  const TimeNs depart = std::max(sim_.Now(), link_free_at_[src]);
  const DurationNs serialization = link_model_->SerializationNs(src, packet.dst_node, wire_bytes);
  link_free_at_[src] = depart + serialization;

  TimeNs arrive = depart + serialization +
                  link_model_->TransitNs(src, packet.dst_node, wire_bytes) + fault_delay;
  TimeNs& last = last_arrival_[static_cast<std::size_t>(src) * node_count() + packet.dst_node];
  if (arrive <= last) {
    arrive = last + 1;  // Preserve per-(src,dst) FIFO delivery order.
  }
  last = arrive;

  SimWire* dst_wire = wires_[packet.dst_node].get();
  sim_.ScheduleAt(arrive, [dst_wire, p = std::move(packet)]() mutable {
    dst_wire->Deliver(std::move(p));
  });
  return OkStatus();
}

// ============================= ThreadFabric ==================================

namespace {

// The fixed part of a ring slot; the payload follows it. Source and
// destination nodes are implied by the ring.
struct FrameHeader {
  std::uint32_t protocol;
  std::uint32_t src_addr;
  std::uint32_t dst_addr;
  std::uint32_t kind;
  std::uint64_t seq;
  std::uint32_t payload_size;
  std::uint32_t reserved;
};
static_assert(sizeof(FrameHeader) == 32);

std::size_t SlotBytes(std::uint32_t max_payload) {
  const std::size_t raw = sizeof(FrameHeader) + max_payload;
  return (raw + kCacheLineSize - 1) / kCacheLineSize * kCacheLineSize;
}

// Ring storage up to this size comes from the heap; larger storage gets an
// anonymous mapping of its own. Measured with perfbench's set-up metric, 10
// alternating runs per workload on a 4-vCPU x86-64 VM, against the old
// mutex-and-deque wire: a fresh mapping per fabric raised the median set-up
// of pingpong (66 KiB of rings) 33% and of stream (264 KiB) 25%; the heap
// raised them 2% and 6%. Below glibc's initial 128 KiB mmap threshold,
// malloc serves the block from warm arena pages. Stream's block is mapped
// by malloc the first time, and freeing it raises glibc's threshold to the
// block's size, so later fabrics of that size come from the arena too.
// fanin's 17 MiB block must not take that path: lifting the threshold past
// the comm buffers' size stopped glibc reusing their warm pages, and fanin
// set-up went from 11 to 30 ms. The limit sits between the largest size
// measured to gain from the heap and the smallest measured to lose; sizes
// in between are unmeasured.
constexpr std::size_t kHeapStorageLimit = std::size_t{1} << 20;

}  // namespace

// One node's wire. Sending: the calling planner is the only producer of
// its lane's rings. Receiving: the node's one wire poller (the
// distributor) is the only consumer of every ring into the node, and
// polls them round-robin. No lock and no allocation on either side: a
// frame is copied into its slot and out of it, and Poll reuses the
// capacity of the caller's payload vector. A held lane collects the
// destinations it transmitted to and calls each one's delivery callback
// once at the flush: a kick costs locked read-modify-writes on the
// receiver's runner, so a batch pays for one, not one per packet.
class ThreadFabric::ThreadWire final : public Wire {
 public:
  // `node_count` is the fabric's: its wires are still being built.
  ThreadWire(ThreadFabric& fabric, NodeId node, std::uint32_t node_count)
      : fabric_(fabric), node_(node), held_(fabric.options_.lanes) {
    for (HeldDeliveries& held : held_) {
      held.destinations.reserve(node_count);
    }
  }

  // Collects the rings into this node, once every ring exists.
  void BindInbound() {
    inbound_.reserve(static_cast<std::size_t>(fabric_.node_count()) * fabric_.options_.lanes);
    for (NodeId src = 0; src < fabric_.node_count(); ++src) {
      for (std::uint32_t lane = 0; lane < fabric_.options_.lanes; ++lane) {
        inbound_.push_back(&fabric_.ring(src, lane, node_));
      }
    }
  }

  Status Send(Packet packet) override {
    return Transmit(0, packet, packet.payload.data(), packet.payload.size());
  }

  Status Transmit(std::uint32_t lane, const PacketHeader& header, const std::byte* payload,
                  std::size_t size) override {
    if (header.dst_node >= fabric_.node_count()) {
      return NotFoundStatus();
    }
    if (lane >= fabric_.options_.lanes || size > fabric_.options_.max_payload) {
      return InvalidArgumentStatus();  // Never truncate: the message is fixed-size.
    }
    waitfree::SpscByteRing& ring = fabric_.ring(node_, lane, header.dst_node);
    std::byte* slot = ring.Claim();
    if (slot == nullptr) {
      return UnavailableStatus();  // Full: the caller keeps the message.
    }
    const FrameHeader frame{header.protocol, header.src_addr, header.dst_addr, header.kind,
                            header.seq, static_cast<std::uint32_t>(size), 0};
    std::memcpy(slot, &frame, sizeof(frame));
    if (size != 0) {
      std::memcpy(slot + sizeof(frame), payload, size);
    }
    ring.Publish();
    HeldDeliveries& held = held_[lane];
    if (!held.holding) {
      Notify(header.dst_node);
      return OkStatus();
    }
    for (const NodeId dst : held.destinations) {
      if (dst == header.dst_node) {
        return OkStatus();  // Already due a notification at the flush.
      }
    }
    held.destinations.push_back(header.dst_node);  // Reserved: node_count entries.
    return OkStatus();
  }

  void HoldDeliveries(std::uint32_t lane) override {
    if (lane < held_.size()) {
      held_[lane].holding = true;
    }
  }

  void FlushDeliveries(std::uint32_t lane) override {
    if (lane >= held_.size()) {
      return;
    }
    HeldDeliveries& held = held_[lane];
    held.holding = false;
    for (const NodeId dst : held.destinations) {
      Notify(dst);
    }
    held.destinations.clear();
  }

  std::size_t MaxPayload() const override { return fabric_.options_.max_payload; }

  std::uint32_t FreeSlots(std::uint32_t lane, NodeId dst) override {
    if (dst >= fabric_.node_count() || lane >= fabric_.options_.lanes) {
      return kUnboundedSlots;  // Transmit rejects these on its own.
    }
    return fabric_.ring(node_, lane, dst).FreeSlots();
  }

  bool Poll(Packet* out) override {
    const std::size_t count = inbound_.size();
    for (std::size_t k = 0; k < count; ++k) {
      std::size_t index = next_ + k;
      if (index >= count) {
        index -= count;
      }
      waitfree::SpscByteRing& ring = *inbound_[index];
      const std::byte* slot = ring.Peek();
      if (slot == nullptr) {
        continue;
      }
      FrameHeader frame;
      std::memcpy(&frame, slot, sizeof(frame));
      out->src_node = static_cast<NodeId>(index / fabric_.options_.lanes);
      out->dst_node = node_;
      out->protocol = frame.protocol;
      out->src_addr = frame.src_addr;
      out->dst_addr = frame.dst_addr;
      out->seq = frame.seq;
      out->kind = frame.kind;
      out->payload.assign(slot + sizeof(frame), slot + sizeof(frame) + frame.payload_size);
      const bool was_full = ring.Release();
      next_ = index + 1 == count ? 0 : index + 1;
      if (was_full) {
        // inbound_ is ordered src * lanes + lane, the unstall_ index.
        const std::function<void()>& unstall = fabric_.unstall_[index];
        if (unstall) {
          unstall();
        }
      }
      return true;
    }
    return false;
  }

  std::size_t PendingCount() const override {
    std::size_t pending = 0;
    for (const waitfree::SpscByteRing* ring : inbound_) {
      pending += ring->PendingCount();
    }
    return pending;
  }

  NodeId node() const override { return node_; }

 private:
  // One sending lane's held notifications; written only by that lane's
  // planner, and a cache line of its own so the node's planners do not
  // share one.
  struct alignas(kCacheLineSize) HeldDeliveries {
    bool holding = false;
    std::vector<NodeId> destinations;  // distinct, in first-transmit order
  };

  void Notify(NodeId dst) {
    const std::function<void()>& delivered = fabric_.delivery_[dst];
    if (delivered) {
      delivered();
    }
  }

  ThreadFabric& fabric_;
  NodeId node_;
  std::vector<waitfree::SpscByteRing*> inbound_;  // by src * lanes + lane
  std::size_t next_ = 0;                          // consumer-private rotation
  std::vector<HeldDeliveries> held_;              // by lane
};

ThreadFabric::ThreadFabric(std::uint32_t node_count, Options options) : options_(options) {
  if (options_.lanes == 0) {
    options_.lanes = 1;
  }
  using TagCell = waitfree::SingleWriterCell<std::uint32_t>;
  const std::uint32_t capacity = waitfree::SpscLapRing::RoundedCapacity(options_.ring_capacity);
  const std::size_t slot_bytes = SlotBytes(options_.max_payload);
  const std::size_t ring_count =
      static_cast<std::size_t>(node_count) * options_.lanes * node_count;
  const std::size_t ring_bytes = capacity * slot_bytes;
  // One block: every ring's tags, then every ring's slots.
  const std::size_t tag_count = ring_count * capacity;
  const std::size_t tag_bytes =
      (tag_count * sizeof(TagCell) + kCacheLineSize - 1) / kCacheLineSize * kCacheLineSize;
  storage_bytes_ = tag_bytes + ring_count * ring_bytes;
  if (storage_bytes_ <= kHeapStorageLimit) {
    storage_ = ::operator new(storage_bytes_, std::align_val_t{kCacheLineSize});
  } else {
    storage_ = mmap(nullptr, storage_bytes_, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (storage_ == MAP_FAILED) {
      storage_ = nullptr;
      throw std::bad_alloc();
    }
  }
  // The tags begin their lifetime zeroed; the slots stay uninitialised.
  auto* tags = static_cast<TagCell*>(storage_);
  std::uninitialized_value_construct_n(tags, tag_count);
  std::byte* slots = static_cast<std::byte*>(storage_) + tag_bytes;
  rings_.reserve(ring_count);
  for (std::size_t r = 0; r < ring_count; ++r) {
    // Producer: planner `lane` of the source node; consumer: the
    // destination's distributor, shard 0.
    const auto lane = static_cast<std::uint32_t>((r / node_count) % options_.lanes);
    rings_.push_back(std::make_unique<waitfree::SpscByteRing>(
        tags + r * capacity, slots + r * ring_bytes, capacity, slot_bytes,
        /*producer_shard=*/lane, /*consumer_shard=*/0));
  }
  delivery_.resize(node_count);
  unstall_.resize(static_cast<std::size_t>(node_count) * options_.lanes);
  wires_.reserve(node_count);
  for (NodeId n = 0; n < node_count; ++n) {
    wires_.push_back(std::make_unique<ThreadWire>(*this, n, node_count));
  }
  for (auto& wire : wires_) {
    wire->BindInbound();
  }
}

ThreadFabric::~ThreadFabric() {
  wires_.clear();
  rings_.clear();
  if (storage_bytes_ <= kHeapStorageLimit) {
    ::operator delete(storage_, std::align_val_t{kCacheLineSize});
  } else if (storage_ != nullptr) {
    munmap(storage_, storage_bytes_);
  }
}

Wire& ThreadFabric::wire(NodeId node) { return *wires_[node]; }

void ThreadFabric::SetDeliveryCallback(NodeId node, std::function<void()> callback) {
  delivery_[node] = std::move(callback);
}

void ThreadFabric::SetUnstallCallback(NodeId node, std::uint32_t lane,
                                      std::function<void()> callback) {
  unstall_[static_cast<std::size_t>(node) * options_.lanes + lane] = std::move(callback);
}

}  // namespace flipc::simnet
