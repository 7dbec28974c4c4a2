#include "src/engine/messaging_engine.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/base/hotpath.h"
#include "src/base/log.h"
#include "src/waitfree/msg_state.h"

namespace flipc::engine {

using shm::EndpointRecord;
using shm::EndpointType;
using waitfree::BufferIndex;
using waitfree::MsgState;

MessagingEngine::MessagingEngine(shm::CommBuffer& comm, simnet::Wire& wire,
                                 EngineOptions options, const PlatformModel* model,
                                 simos::SemaphoreTable* semaphores)
    : comm_(comm),
      wire_(wire),
      options_(options),
      model_(model),
      semaphores_(semaphores),
      handoff_outboxes_(comm.shard_count(), nullptr),
      seen_generation_(comm.max_endpoints(), 0),
      bucket_tokens_(comm.max_endpoints(), 0),
      bucket_refill_at_(comm.max_endpoints(), 0),
      head_seen_count_(comm.max_endpoints(), kNoHeadSeen),
      head_seen_at_(comm.max_endpoints(), 0),
      scratch_taken_(comm.max_endpoints(), 0),
      active_(comm.max_endpoints()),
      in_active_(comm.max_endpoints(), 0) {
  // Batch + selection storage is sized here, once: the plan path must
  // never allocate.
  planned_batch_.reserve(options_.transmit_batch < 1 ? 1 : options_.transmit_batch);
  scratch_ready_.reserve(comm.max_endpoints());
  if (options_.shard_id >= comm.shard_count()) {
    FLIPC_LOG(kError) << "engine shard id " << options_.shard_id << " out of range for a "
                      << comm.shard_count() << "-shard comm buffer; using shard 0";
    options_.shard_id = 0;
  }
  shard_id_ = options_.shard_id;
  shard_first_ = comm.shard_first_endpoint(shard_id_);
  shard_end_ = comm.shard_end_endpoint(shard_id_);
}

Status MessagingEngine::RegisterProtocol(std::uint32_t protocol_id, ProtocolHandler* handler) {
  if (protocol_id == simnet::kProtocolFlipc || protocol_id >= kMaxProtocols) {
    return InvalidArgumentStatus();
  }
  if (!is_distributor()) {
    // Inbound protocol packets are dispatched on the distributor only
    // (RouteShardFor), and a handler sends on the wire's lane 0, which
    // belongs to the distributor's thread.
    return FailedPreconditionStatus();
  }
  if (handlers_[protocol_id] != nullptr && handler != nullptr) {
    return FailedPreconditionStatus();
  }
  handlers_[protocol_id] = handler;
  return OkStatus();
}

bool MessagingEngine::EndpointBlocked(std::uint32_t) const { return false; }

bool MessagingEngine::WireStalled(std::uint32_t endpoint) {
  const BufferIndex buffer = comm_.queue(endpoint).PeekProcess();
  if (buffer == waitfree::kInvalidBuffer || !comm_.IsValidBufferIndex(buffer)) {
    return false;  // No destination: the commit path rejects it.
  }
  return wire_.FreeSlots(shard_id_, comm_.msg(buffer).header->peer_address().node()) == 0;
}

bool MessagingEngine::SendReady(std::uint32_t endpoint, TimeNs now) const {
  const EndpointRecord& record = comm_.endpoint(endpoint);
  if (record.Type() != EndpointType::kSend || EndpointBlocked(endpoint)) {
    return false;
  }
  if (const_cast<shm::CommBuffer&>(comm_).queue(endpoint).ProcessableCount() == 0) {
    return false;
  }
  return !Throttled(endpoint, record, now);
}

bool MessagingEngine::Throttled(std::uint32_t endpoint, const EndpointRecord& record,
                                TimeNs now) const {
  if (clock_ == nullptr) {
    return false;  // No clock: every capacity-control configuration is inert.
  }
  if (record.alloc_generation.ReadRelaxed() != seen_generation_[endpoint]) {
    // Slot reused since the throttle state was written: it belongs to the
    // previous tenant and must not gate the new one. The mutating paths
    // call SyncSlotState to reset it; this read-only guard covers the
    // const paths (HasWork, NextUnthrottleTime) in between.
    return false;
  }
  return record.bucket_capacity.ReadRelaxed() != 0 &&
         BucketTokensAt(endpoint, record, now) == 0;
}

std::uint32_t MessagingEngine::BucketTokensAt(std::uint32_t endpoint,
                                              const EndpointRecord& record,
                                              TimeNs now) const {
  const std::uint32_t capacity = record.bucket_capacity.ReadRelaxed();
  const std::uint32_t refill = record.bucket_refill_ns.ReadRelaxed();
  std::uint64_t tokens = bucket_tokens_[endpoint];
  if (refill != 0 && now > bucket_refill_at_[endpoint]) {
    tokens += static_cast<std::uint64_t>(now - bucket_refill_at_[endpoint]) / refill;
  }
  return tokens > capacity ? capacity : static_cast<std::uint32_t>(tokens);
}

void MessagingEngine::SpendBucketToken(std::uint32_t endpoint, const EndpointRecord& record,
                                       TimeNs now) {
  const std::uint32_t tokens = BucketTokensAt(endpoint, record, now);
  if (tokens == record.bucket_capacity.ReadRelaxed()) {
    // Full: time spent full earns nothing, so accrual restarts at this
    // spend and the next token lands one whole refill interval from now.
    bucket_refill_at_[endpoint] = now;
  } else {
    // Keep the fractional remainder: the next token lands refill ns after
    // the last WHOLE token accrued, not after this observation. (tokens
    // only exceeds the stored level when refill != 0.)
    bucket_refill_at_[endpoint] += static_cast<TimeNs>(tokens - bucket_tokens_[endpoint]) *
                                   record.bucket_refill_ns.ReadRelaxed();
  }
  bucket_tokens_[endpoint] = tokens > 0 ? tokens - 1 : 0;
}

void MessagingEngine::SyncSlotState(std::uint32_t endpoint) {
  const EndpointRecord& record = comm_.endpoint(endpoint);
  const std::uint32_t generation = record.alloc_generation.ReadRelaxed();
  if (generation == seen_generation_[endpoint]) {
    return;
  }
  // Slot (re)allocated since last seen: the previous tenant's bucket
  // level and head-observation stamp must not leak into the new endpoint
  // (the stale-throttle churn bug).
  seen_generation_[endpoint] = generation;
  bucket_tokens_[endpoint] = record.bucket_capacity.ReadRelaxed();  // Fresh bucket: full burst.
  bucket_refill_at_[endpoint] = NowForThrottle();
  head_seen_count_[endpoint] = kNoHeadSeen;
  head_seen_at_[endpoint] = 0;
}

void MessagingEngine::NoteHeadObserved(std::uint32_t endpoint, TimeNs now) {
  const std::uint32_t processed = comm_.endpoint(endpoint).process_count.ReadRelaxed();
  if (head_seen_count_[endpoint] != processed) {
    head_seen_count_[endpoint] = processed;
    head_seen_at_[endpoint] = now;
  }
}

TimeNs MessagingEngine::NextUnthrottleTime() const {
  if (clock_ == nullptr) {
    return kTimeNever;
  }
  const TimeNs now = clock_->NowNs();
  TimeNs earliest = kTimeNever;
  for (std::uint32_t i = shard_first_; i < shard_end_; ++i) {
    const EndpointRecord& record = comm_.endpoint(i);
    if (record.Type() != EndpointType::kSend || EndpointBlocked(i)) {
      continue;
    }
    if (const_cast<shm::CommBuffer&>(comm_).queue(i).ProcessableCount() == 0) {
      continue;
    }
    if (!Throttled(i, record, now)) {
      continue;
    }
    const std::uint32_t refill = record.bucket_refill_ns.ReadRelaxed();
    if (refill == 0) {
      continue;  // Tokens never refill: no future instant unthrottles it.
    }
    const TimeNs next_token = bucket_refill_at_[i] + refill;
    if (next_token < earliest) {
      earliest = next_token;
    }
  }
  return earliest;
}

void MessagingEngine::ActivateEndpoint(std::uint32_t endpoint) {
  SyncSlotState(endpoint);
  if (in_active_[endpoint] != 0) {
    return;  // Already in active_ or in the planned batch.
  }
  in_active_[endpoint] = 1;
  active_.push_back(endpoint);
}

void MessagingEngine::DrainDoorbells() {
  waitfree::DoorbellRingView ring = comm_.doorbell_ring(shard_id_);
  const std::uint32_t batch = options_.transmit_batch < 1 ? 1 : options_.transmit_batch;
  // Bounded drain keeps the plan a bounded work unit; leftover doorbells
  // stay published for the next plan.
  std::uint32_t budget = 4 * batch > 16 ? 4 * batch : 16;
  while (budget-- > 0) {
    const std::uint32_t endpoint = ring.Pop();
    if (endpoint == waitfree::kInvalidDoorbell) {
      break;
    }
    ++stats_.doorbells_consumed;
    if (!comm_.IsValidEndpointIndex(endpoint) || endpoint < shard_first_ ||
        endpoint >= shard_end_) {
      // Corrupt or out-of-shard hint from the application side; ignore.
      // The range check matters: activating a foreign endpoint would later
      // make THIS planner write another shard's engine-owned cells through
      // CommitOutboundOne.
      continue;
    }
    if (in_active_[endpoint] != 0) {
      ++stats_.doorbell_dups;
      continue;
    }
    ActivateEndpoint(endpoint);
  }
}

void MessagingEngine::SweepAllEndpoints() {
  ++stats_.backstop_sweeps;
  stats_.endpoints_visited += shard_end_ - shard_first_;
  FLIPC_BOUNDED_BY(shard_end_ - shard_first_);
  for (std::uint32_t i = shard_first_; i < shard_end_; ++i) {
    if (comm_.endpoint(i).Type() != EndpointType::kSend) {
      continue;
    }
    // Processable (not SendReady): throttled and blocked endpoints belong
    // in the active list too, so the rotation — and NextUnthrottleTime —
    // keeps tracking them.
    if (comm_.queue(i).ProcessableCount() == 0) {
      continue;
    }
    ActivateEndpoint(i);
  }
}

bool MessagingEngine::SelectBatchFromActive() {
  const TimeNs now = NowForThrottle();
  std::uint32_t batch_limit = options_.transmit_batch < 1 ? 1 : options_.transmit_batch;

  // ---- Pass 1: one rotation over the active list classifies every entry.
  // Drained entries are forgotten, blocked and throttled ones rotate to
  // the back, ready ones land in scratch_ready_ in rotation order. Each
  // endpoint that was in the list at entry is examined at most once;
  // rotated entries land behind the sentinel count.
  scratch_ready_.clear();
  bool class_ready[shm::kQosClassCount] = {};
  std::uint32_t ready_classes = 0;
  std::size_t rotations = active_.size();
  while (rotations-- > 0) {
    const std::uint32_t endpoint = active_.front();
    active_.pop_front();
    ++stats_.endpoints_visited;
    SyncSlotState(endpoint);

    const EndpointRecord& record = comm_.endpoint(endpoint);
    if (record.Type() != EndpointType::kSend ||
        comm_.queue(endpoint).ProcessableCount() == 0) {
      in_active_[endpoint] = 0;  // Drained or freed: forget the hint.
      continue;
    }
    // Stamp when this head message was first seen backlogged; EDF ordering
    // and the service-gap / deadline-miss telemetry measure from here.
    NoteHeadObserved(endpoint, now);
    if (EndpointBlocked(endpoint)) {
      active_.push_back(endpoint);  // Blocked: rotate to the back.
      continue;
    }
    if (Throttled(endpoint, record, now)) {
      // Ready work deferred by capacity control; NextUnthrottleTime keeps
      // tracking it through the rotation.
      comm_.telemetry(endpoint).RecordThrottleDeferral();
      active_.push_back(endpoint);
      continue;
    }
    if (WireStalled(endpoint)) {
      // Its destination's wire ring is full. Not ready: it must neither
      // win class selection nor earn credit, or a class whose traffic
      // waits on a stalled receiver would block the classes that can
      // send. The receiver's un-stall kick wakes this planner.
      active_.push_back(endpoint);
      continue;
    }
    scratch_taken_[endpoint] = 0;
    scratch_ready_.push_back(endpoint);  // Capacity reserved at construction.
    const std::uint32_t cls = QosClassOf(record);
    if (!class_ready[cls]) {
      class_ready[cls] = true;
      ++ready_classes;
    }
  }
  if (scratch_ready_.empty()) {
    return false;
  }

  // ---- Class selection: deficit-weighted. Credits move only when classes
  // actually compete (>= 2 ready). The plan serves the class holding the
  // most credit; then, per selected message, EVERY ready class earns its
  // weight while the served class pays the total ready weight — earnings
  // and payments balance per message, so over a contended interval each
  // class's share of transmissions converges to its weight fraction. A
  // single ready class is served as-is with credits untouched, which keeps
  // all-default configurations (every endpoint in class 0) exactly on the
  // plain round-robin rotation.
  std::uint32_t serve_class = 0;
  const bool competing = ready_classes >= 2;
  std::int64_t ready_weight = 0;
  {
    std::int64_t best_credit = 0;
    bool have_class = false;
    FLIPC_BOUNDED_BY(shm::kQosClassCount);
    for (std::uint32_t cls = 0; cls < shm::kQosClassCount; ++cls) {
      if (!class_ready[cls]) {
        continue;
      }
      ready_weight += options_.qos_weights[cls];
      if (!have_class || class_credit_[cls] > best_credit) {
        best_credit = class_credit_[cls];
        serve_class = cls;
        have_class = true;
      }
    }
  }

  // ---- Pass 2: fill the batch from the serving class. Real-time
  // endpoints (deadline_ns != 0) preempt non-RT ones, earliest head
  // deadline first (EDF); non-RT candidates keep rotation order.
  // Same-destination coalescing filters candidates: a head buffer the
  // commit path will reject (sentinel or out-of-range index) has no
  // determinate destination and joins any batch as a rejection. The
  // destination's free wire slots (at least one, pass 1 saw to that) cap
  // the batch.
  const std::size_t ready_count = scratch_ready_.size();
  std::uint16_t batch_node = 0;
  bool have_node = false;
  FLIPC_BOUNDED_BY(options_.transmit_batch);
  while (planned_batch_.size() < batch_limit) {
    std::size_t best = ready_count;
    bool best_rt = false;
    TimeNs best_deadline = 0;
    FLIPC_BOUNDED_BY(scratch_ready_.size());
    for (std::size_t idx = 0; idx < ready_count; ++idx) {
      const std::uint32_t endpoint = scratch_ready_[idx];
      if (scratch_taken_[endpoint] != 0) {
        continue;
      }
      const EndpointRecord& record = comm_.endpoint(endpoint);
      if (QosClassOf(record) != serve_class) {
        continue;
      }
      const BufferIndex buffer = comm_.queue(endpoint).PeekProcess();
      if (have_node && buffer != waitfree::kInvalidBuffer &&
          comm_.IsValidBufferIndex(buffer) &&
          comm_.msg(buffer).header->peer_address().node() != batch_node) {
        continue;  // Different destination: next transmit unit's problem.
      }
      const bool rt = record.deadline_ns.ReadRelaxed() != 0;
      const TimeNs deadline = rt ? HeadDeadline(endpoint, record) : 0;
      if (best == ready_count || (rt && !best_rt) ||
          (rt && best_rt && deadline < best_deadline)) {
        best = idx;
        best_rt = rt;
        best_deadline = deadline;
      }
    }
    if (best == ready_count) {
      break;  // Serving class exhausted (or blocked on destination mix).
    }
    const std::uint32_t endpoint = scratch_ready_[best];
    scratch_taken_[endpoint] = 1;
    if (!have_node) {
      const BufferIndex buffer = comm_.queue(endpoint).PeekProcess();
      if (buffer != waitfree::kInvalidBuffer && comm_.IsValidBufferIndex(buffer)) {
        batch_node = comm_.msg(buffer).header->peer_address().node();
        have_node = true;
        const std::uint32_t free_slots = wire_.FreeSlots(shard_id_, batch_node);
        if (free_slots < batch_limit) {
          batch_limit = free_slots;
        }
      }
    }
    planned_batch_.push_back(endpoint);
    if (competing) {
      FLIPC_BOUNDED_BY(shm::kQosClassCount);
      for (std::uint32_t cls = 0; cls < shm::kQosClassCount; ++cls) {
        if (class_ready[cls]) {
          class_credit_[cls] += options_.qos_weights[cls];
          if (class_credit_[cls] > kQosCreditClamp) {
            class_credit_[cls] = kQosCreditClamp;  // Bound credit drift.
          }
        }
      }
      class_credit_[serve_class] -= ready_weight;
      if (class_credit_[serve_class] < -kQosCreditClamp) {
        class_credit_[serve_class] = -kQosCreditClamp;
      }
    }
  }

  // Ready endpoints that did not make this batch stay scheduled: rotate
  // them to the back of the active list (their in_active_ bit never
  // dropped, so doorbells rung meanwhile were deduplicated correctly).
  FLIPC_BOUNDED_BY(scratch_ready_.size());
  for (std::size_t idx = 0; idx < ready_count; ++idx) {
    const std::uint32_t endpoint = scratch_ready_[idx];
    if (scratch_taken_[endpoint] == 0) {
      active_.push_back(endpoint);
    }
  }
  return !planned_batch_.empty();
}

void MessagingEngine::PlanOutboundBatch() {
  // Draining the ring publishes ring_head, an engine-owned cell, and
  // PlanStep is otherwise role-free — bind the engine role (qualified with
  // this planner's shard: the ring's consumer cursor belongs to it) here.
  waitfree::ScopedBoundaryRole boundary_role(waitfree::Writer::kEngine, shard_id_);
  // The whole plan — ring drain, sweeps, rotation — is the engine's
  // scheduling work unit: bounded and allocation-free (active_ and
  // planned_batch_ are fixed-capacity, sized at construction).
  FLIPC_HOT_PATH("MessagingEngine::PlanOutboundBatch");
  planned_batch_.clear();

  waitfree::DoorbellRingView ring = comm_.doorbell_ring(shard_id_);
  if (ring.OverflowPending()) {
    // Ack BEFORE sweeping, so a ring that overflows again mid-sweep raises
    // a fresh signal rather than being absorbed into this one.
    ring.AckOverflow();
    ++stats_.doorbell_overflows;
    SweepAllEndpoints();
  }
  DrainDoorbells();

  ++outbound_plans_;
  ++stats_.outbound_plans;
  if (options_.backstop_interval != 0 && outbound_plans_ % options_.backstop_interval == 0) {
    ++stats_.sweeps_periodic;
    SweepAllEndpoints();  // Low-frequency lost-doorbell backstop.
  }

  if (!SelectBatchFromActive()) {
    // No candidate on the hint path. Work queued without a doorbell (an
    // engine-side test writing queues directly, or a doorbell lost to a
    // ring lap) must still be discovered before the engine reports idle,
    // or the DES would sleep over real work.
    ++stats_.sweeps_no_candidate;
    SweepAllEndpoints();
    SelectBatchFromActive();
  }
}

std::uint32_t MessagingEngine::RouteShardFor(const simnet::Packet& packet) const {
  if (comm_.shard_count() <= 1 || packet.protocol != simnet::kProtocolFlipc) {
    return shard_id_;  // Registered protocols run on the distributor's loop.
  }
  const Address dst = Address::FromPacked(packet.dst_addr);
  if (!dst.valid() || dst.node() != wire_.node() ||
      !comm_.IsValidEndpointIndex(dst.endpoint())) {
    // Undeterminable destination: deliver locally so DeliverLocal counts
    // the bad-address drop on the distributor.
    return shard_id_;
  }
  return comm_.shard_of(dst.endpoint());
}

DurationNs MessagingEngine::PlanStep() {
  if (planned_ != WorkKind::kNone) {
    return planned_cost_;
  }
  const PlatformModel* m = model_;
  const auto charge = [m](DurationNs ns) { return m != nullptr ? ns : 0; };
  const auto price_inbound = [&](const simnet::Packet& pkt) {
    DurationNs cost = charge(m != nullptr ? m->engine_dispatch_ns : 0);
    if (m != nullptr && pkt.protocol != simnet::kProtocolFlipc &&
        pkt.protocol < kMaxProtocols && handlers_[pkt.protocol] != nullptr) {
      cost += handlers_[pkt.protocol]->PlanCost(pkt);
    }
    if (pkt.protocol == simnet::kProtocolFlipc && m != nullptr) {
      cost += m->recv_overhead_ns + m->RecvCopyNs(pkt.payload.size());
      if (pkt.payload.size() + shm::kMsgHeaderSize < m->small_msg_threshold_bytes) {
        cost -= m->small_msg_discount_ns;
      }
      if (options_.validity_checks) {
        cost += m->validity_check_ns;
      }
      if (options_.model_unpadded_layout) {
        cost += m->engine_false_sharing_ns;
      }
    }
    return cost;
  };

  // Inbound first: the receiving node must always be ready to accept from
  // the interconnect (the optimistic protocol's no-deadlock guarantee).

  // Cross-shard inbound handed off by the distributor. Like wire_.Poll
  // below, the pop consumes at plan time and the packet rides
  // planned_packet_ into the commit.
  if (handoff_inbox_ != nullptr) {
    // Pop into an empty packet: moving over planned_packet_ inside the
    // pop's hot scope would free its old payload there.
    simnet::Packet packet;
    bool popped;
    {
      // The pop publishes handoff_head, this consumer shard's cursor.
      waitfree::ScopedBoundaryRole boundary_role(waitfree::Writer::kEngine, shard_id_);
      popped = handoff_inbox_->Pop(&packet);
    }
    if (popped) {
      ++stats_.handoff_popped;
      if (shard_kick_ &&
          handoff_inbox_->PendingCount() + 1 >= handoff_inbox_->capacity()) {
        // The inbox was full before this pop, so the distributor may be
        // parked with a routed packet waiting for this very slot.
        FLIPC_HOT_PATH_EXEMPT("distributor un-stall wakeup");
        shard_kick_(0);
      }
      planned_ = WorkKind::kInbound;
      planned_packet_ = std::move(packet);
      planned_cost_ = price_inbound(planned_packet_);
      return planned_cost_;
    }
  }

  if (is_distributor()) {
    if (parked_packet_.has_value()) {
      // Retry the parked handoff BEFORE polling the wire again: the parked
      // packet is the only copy of its message, and polling past it would
      // break the fabric's per-(src,dst) FIFO order.
      planned_ = WorkKind::kRoute;
      planned_route_shard_ = parked_shard_;
      planned_packet_ = std::move(*parked_packet_);
      parked_packet_.reset();
      planned_cost_ = charge(m != nullptr ? m->engine_dispatch_ns : 0);
      return planned_cost_;
    }
    bool polled;
    {
      // On the thread fabric the poll publishes the head cursors of the
      // node's inbound wire rings, which this distributor owns.
      waitfree::ScopedBoundaryRole boundary_role(waitfree::Writer::kEngine, shard_id_);
      polled = wire_.Poll(&planned_packet_);
    }
    if (polled) {
      const std::uint32_t dst_shard = RouteShardFor(planned_packet_);
      if (dst_shard != shard_id_) {
        planned_ = WorkKind::kRoute;
        planned_route_shard_ = dst_shard;
        planned_cost_ = charge(m != nullptr ? m->engine_dispatch_ns : 0);
        return planned_cost_;
      }
      planned_ = WorkKind::kInbound;
      planned_cost_ = price_inbound(planned_packet_);
      return planned_cost_;
    }
  }

  PlanOutboundBatch();
  if (!planned_batch_.empty()) {
    planned_ = WorkKind::kOutbound;
    DurationNs cost = 0;
    if (m != nullptr) {
      // The first message carries the full dispatch + send path; each
      // coalesced message adds only the per-message transmit share.
      const DurationNs per_message_checks =
          (options_.validity_checks ? m->validity_check_ns : 0) +
          (options_.model_unpadded_layout ? m->engine_false_sharing_ns : 0);
      cost = m->engine_dispatch_ns + m->send_overhead_ns + TransmitPlanCost() +
             per_message_checks;
      cost += static_cast<DurationNs>(planned_batch_.size() - 1) *
              (m->send_batch_extra_ns + TransmitPlanCost() + per_message_checks);
    }
    planned_cost_ = cost;
    return planned_cost_;
  }

  for (std::uint32_t id = 0; id < kMaxProtocols; ++id) {
    if (handlers_[id] != nullptr && handlers_[id]->HasWork()) {
      planned_ = WorkKind::kHandler;
      planned_handler_ = id;
      planned_cost_ = charge(m != nullptr ? m->engine_dispatch_ns : 0);
      return planned_cost_;
    }
  }

  planned_cost_ = 0;
  return 0;
}

bool MessagingEngine::CommitStep() {
  // Every comm-buffer mutation the engine makes happens under this commit,
  // so bind the engine role — qualified with this planner's shard, so a
  // write to another shard's endpoint or cursor aborts — for its duration.
  // Scoped (not per-thread): the simulation drivers and the model checker
  // step the engine from the same thread that plays the application.
  waitfree::ScopedBoundaryRole boundary_role(waitfree::Writer::kEngine, shard_id_);
  if (planned_ == WorkKind::kNone) {
    PlanStep();
  }
  simnet::CostAccumulator cost;  // Already accounted by the driver via PlanStep.
  const WorkKind kind = planned_;
  const DurationNs committed_cost = planned_cost_;
  planned_ = WorkKind::kNone;
  planned_cost_ = 0;
  if (telemetry_ != nullptr && kind != WorkKind::kNone) {
    telemetry_->plan_cost_ns.Add(static_cast<double>(committed_cost));
  }

  switch (kind) {
    case WorkKind::kNone:
      return false;
    case WorkKind::kInbound: {
      ++stats_.work_units;
      const std::uint32_t protocol = planned_packet_.protocol;
      if (protocol == simnet::kProtocolFlipc) {
        DeliverLocal(planned_packet_, cost);
      } else if (protocol < kMaxProtocols && handlers_[protocol] != nullptr) {
        handlers_[protocol]->HandlePacket(std::move(planned_packet_), cost);
      } else {
        ++stats_.unknown_protocol_packets;
      }
      deferred_cost_ += cost.Take();
      return true;
    }
    case WorkKind::kOutbound: {
      ++stats_.work_units;
      CommitOutbound(cost);
      deferred_cost_ += cost.Take();
      return true;
    }
    case WorkKind::kHandler: {
      ++stats_.work_units;
      handlers_[planned_handler_]->PollWork(cost);
      deferred_cost_ += cost.Take();
      return true;
    }
    case WorkKind::kRoute: {
      HandoffRing* ring = handoff_outboxes_[planned_route_shard_];
      if (ring == nullptr) {
        // Miswired assembly: that shard has no inbox. Count the discard
        // like any undeliverable destination; dropping beats wedging the
        // distributor's wire forever.
        ++stats_.work_units;
        ++stats_.drops_bad_address;
        return true;
      }
      if (!ring->Push(planned_packet_)) {
        // Inbox full. The packet is the only copy of its message, so park
        // it; the next plan retries before any further wire polling. This
        // is NOT progress — returning false lets the host runner back off
        // instead of spinning on the full ring (the consumer's drain path
        // kicks the distributor when it frees a slot of a full inbox).
        ++stats_.handoff_full_retries;
        parked_packet_ = std::move(planned_packet_);
        parked_shard_ = planned_route_shard_;
        return false;
      }
      ++stats_.work_units;
      ++stats_.handoff_pushed;
      if (shard_kick_) {
        // Consumer wakeup: arbitrary runner code, off the product path.
        FLIPC_HOT_PATH_EXEMPT("cross-shard wakeup");
        shard_kick_(planned_route_shard_);
      }
      return true;
    }
  }
  return false;
}

bool MessagingEngine::Step() {
  PlanStep();
  return CommitStep();
}

void MessagingEngine::RecoverFromBuffer() {
  // Recovery is a quiescent-role closure (DESIGN.md §14): the dead
  // engine's writer role died with it and no runner steps this shard yet,
  // so relaxed stores into engine-owned cells are unraced — the same
  // exemption window CommBuffer::AllocateEndpoint's slot reset uses.
  waitfree::ScopedBoundaryExemption quiescent_recovery;

  // Doorbells are hints; the cursor sweep below rediscovers their work
  // from the authoritative queue cursors, so fast-forward past anything
  // rung at the dead engine.
  comm_.doorbell_ring(shard_id_).ResetConsumerQuiescent();

  // Discard any half-planned unit inherited through this object (a fresh
  // engine has none; an in-place recovery might). planned_packet_ and
  // parked_packet_ held the ONLY copy of an inbound wire packet on the
  // dead engine — that copy died with its heap, a legitimate loss the
  // optimistic contract already covers (same as a packet lost mid-wire).
  // planned_ = kNone invalidates planned_packet_.
  planned_ = WorkKind::kNone;
  planned_cost_ = 0;
  planned_batch_.clear();
  parked_packet_.reset();
  while (!active_.empty()) {
    active_.pop_front();
  }
  std::fill(in_active_.begin(), in_active_.end(), 0);

  // Engine-private QoS state dies with the engine: throttle deadlines,
  // bucket levels and head stamps were measured on the dead engine's
  // timeline. Zeroing seen_generation_ forces SyncSlotState to re-seed
  // each slot on first touch (alloc_generation never takes the value 0).
  std::fill(seen_generation_.begin(), seen_generation_.end(), 0);
  std::fill(bucket_tokens_.begin(), bucket_tokens_.end(), 0);
  std::fill(bucket_refill_at_.begin(), bucket_refill_at_.end(), 0);
  std::fill(head_seen_count_.begin(), head_seen_count_.end(), kNoHeadSeen);
  std::fill(head_seen_at_.begin(), head_seen_at_.end(), 0);
  class_credit_.fill(0);

  // Rebuild the active list from the cursors. Deliberately NOT
  // SweepAllEndpoints(): that counts toward backstop_sweeps, whose
  // cause identity (overflow + periodic + no-candidate) must survive
  // recovery; this sweep is accounted under stats_.recovered_active.
  std::uint64_t activated = 0;
  stats_.endpoints_visited += shard_end_ - shard_first_;
  for (std::uint32_t i = shard_first_; i < shard_end_; ++i) {
    if (comm_.endpoint(i).Type() != EndpointType::kSend) {
      continue;
    }
    if (comm_.queue(i).ProcessableCount() == 0) {
      continue;
    }
    ActivateEndpoint(i);
    ++activated;
  }
  ++stats_.recoveries;
  stats_.recovered_active += activated;
}

bool MessagingEngine::HasWork() const {
  if (planned_ != WorkKind::kNone) {
    return true;
  }
  if (parked_packet_.has_value()) {
    return true;  // A routed packet is waiting for inbox space.
  }
  if (handoff_inbox_ != nullptr && handoff_inbox_->HasPending()) {
    return true;
  }
  // The wire is the distributor's work; other shards never poll it.
  if (is_distributor() && wire_.PendingCount() > 0) {
    return true;
  }
  // O(active) early-true checks. A pending doorbell or overflow signal
  // reports work even when stale — the next plan drains the ring (head
  // always advances), so the DES cannot spin on a stale hint.
  waitfree::DoorbellRingView ring =
      const_cast<shm::CommBuffer&>(comm_).doorbell_ring(shard_id_);
  if (ring.HasPending() || ring.OverflowPending()) {
    return true;
  }
  const TimeNs now = NowForThrottle();
  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (SendReady(active_.at(i), now)) {
      return true;
    }
  }
  // Full scan (of this shard's range) stays as the authoritative fallback:
  // work queued without a doorbell (engine-side test writes, lost
  // doorbells) must be reported — the plan's no-candidate sweep will find
  // anything reported here.
  for (std::uint32_t i = shard_first_; i < shard_end_; ++i) {
    if (SendReady(i, now)) {
      return true;
    }
  }
  for (const ProtocolHandler* handler : handlers_) {
    if (handler != nullptr && handler->HasWork()) {
      return true;
    }
  }
  return false;
}

bool MessagingEngine::ValidateSendBuffer(std::uint32_t endpoint_index, BufferIndex buffer) {
  if (!comm_.IsValidBufferIndex(buffer)) {
    ++stats_.validity_rejections;
    // Diagnostic on the already-failed path; the logger buffers and may
    // allocate, which is acceptable once the message is being rejected.
    FLIPC_HOT_PATH_EXEMPT("rejection diagnostics");
    FLIPC_LOG(kWarning) << "engine " << wire_.node() << ": endpoint " << endpoint_index
                        << " released invalid buffer index " << buffer;
    return false;
  }
  return true;
}

void MessagingEngine::CommitOutbound(simnet::CostAccumulator& cost) {
  FLIPC_HOT_PATH("MessagingEngine::CommitOutbound");
  ++stats_.transmit_batches;
  stats_.batched_messages += planned_batch_.size();
  if (telemetry_ != nullptr) {
    telemetry_->batch_size.Add(static_cast<double>(planned_batch_.size()));
  }
  for (const std::uint32_t endpoint_index : planned_batch_) {
    CommitOutboundOne(endpoint_index, cost);
    // Re-schedule the endpoint while it still holds processable work;
    // otherwise clear its membership so the next doorbell re-activates
    // it. (in_active_ covered the endpoint during the batch, deduping
    // doorbells rung between plan and commit.)
    if (comm_.endpoint(endpoint_index).Type() == EndpointType::kSend &&
        comm_.queue(endpoint_index).ProcessableCount() > 0) {
      active_.push_back(endpoint_index);
    } else {
      in_active_[endpoint_index] = 0;
    }
  }
  planned_batch_.clear();
}

void MessagingEngine::CommitOutboundOne(std::uint32_t endpoint_index,
                                        simnet::CostAccumulator& cost) {
  SyncSlotState(endpoint_index);  // Slot may have churned between plan and commit.
  EndpointRecord& record = comm_.endpoint(endpoint_index);
  if (record.Type() != EndpointType::kSend) {
    return;  // Endpoint freed between plan and commit.
  }
  waitfree::BufferQueueView queue = comm_.queue(endpoint_index);
  if (queue.ProcessableCount() == 0) {
    return;  // Drained between plan and commit.
  }
  shm::TelemetryBlock& telemetry = comm_.telemetry(endpoint_index);
  telemetry.NoteQueueDepth(queue.ProcessableCount());
  const BufferIndex buffer = queue.PeekProcess();
  if (buffer == waitfree::kInvalidBuffer) {
    // The queue claims processable work but the cell holds the sentinel —
    // an application corrupted its release cursor. The engine must still
    // make progress (a non-advancing return here would spin the event
    // loop forever), so consume the slot as a rejection.
    ++stats_.validity_rejections;
    telemetry.RecordEngineReject();
    CompleteSend(endpoint_index);
    return;
  }

  // Validity checks (configurable; the paper measures +2 us for them).
  // An always-on check on the buffer index itself is kept even when checks
  // are off, because an out-of-range index would crash the engine rather
  // than merely corrupt the offending application's own data.
  if (!ValidateSendBuffer(endpoint_index, buffer)) {
    telemetry.RecordEngineReject();
    CompleteSend(endpoint_index);
    return;
  }

  shm::MsgView view = comm_.msg(buffer);
  const Address dst = view.header->peer_address();
  const Address src(static_cast<std::uint16_t>(wire_.node()),
                    static_cast<std::uint16_t>(endpoint_index));

  if (options_.validity_checks && !dst.valid()) {
    ++stats_.validity_rejections;
    telemetry.RecordEngineReject();
    CompleteSend(endpoint_index);
    return;
  }

  // Protection extension: a restricted endpoint may only address its
  // configured peer. Enforced unconditionally — this protects OTHER
  // applications, so it cannot be traded away for speed like the
  // self-protection validity checks above.
  const Address allowed = Address::FromPacked(record.allowed_peer.ReadRelaxed());
  if (allowed.valid() && dst != allowed) {
    ++stats_.protection_rejections;
    telemetry.RecordEngineReject();
    Trace(TraceEvent::kEngineReject, endpoint_index);
    CompleteSend(endpoint_index);
    return;
  }

  // Back-pressure: with the destination's wire ring full the message stays
  // at the head of its queue — no cursor advance, no counter, no bucket
  // token. The plan capped the batch at the free slots and this planner is
  // its lane's only producer, so this holds by construction; the check
  // keeps a refusal from reaching TransmitMessage, which would count the
  // message as a bad-address drop.
  if (wire_.FreeSlots(shard_id_, dst.node()) == 0) {
    return;
  }

  // Capacity control (token bucket): pay one token for this transmission
  // (no rejection path remains below this point).
  if (clock_ != nullptr && record.bucket_capacity.ReadRelaxed() != 0) {
    SpendBucketToken(endpoint_index, record, clock_->NowNs());
  }

  // QoS telemetry: how long this head message waited since the planner
  // first saw it backlogged, and whether a real-time deadline lapsed. The
  // stamp is only meaningful while it matches the current head
  // (process_count); a mismatched stamp belongs to an earlier message.
  if (clock_ != nullptr &&
      head_seen_count_[endpoint_index] == record.process_count.ReadRelaxed()) {
    const TimeNs now = clock_->NowNs();
    const std::uint64_t waited =
        now > head_seen_at_[endpoint_index]
            ? static_cast<std::uint64_t>(now - head_seen_at_[endpoint_index])
            : 0;
    telemetry.NoteServiceGap(waited);
    const std::uint32_t deadline = record.deadline_ns.ReadRelaxed();
    if (deadline != 0 && waited > deadline) {
      telemetry.RecordDeadlineMiss();
    }
  }

  // Counted here (not inside the strategy) so subclasses that defer
  // completion still account the attempt; at quiescence
  // processed_total == engine_transmits + engine_rejects.
  telemetry.RecordEngineTransmit();
  TransmitMessage(endpoint_index, buffer, src, dst, cost);

  // The next message (if already queued) became head at this instant;
  // stamp it now so its wait is measured from here, not from the next
  // plan rotation. Deferred-completion strategies leave process_count
  // unchanged, which makes this a no-op — the stamp stays on the
  // still-unfinished head.
  if (clock_ != nullptr && queue.ProcessableCount() > 0) {
    NoteHeadObserved(endpoint_index, clock_->NowNs());
  }
}

void MessagingEngine::TransmitMessage(std::uint32_t endpoint_index, BufferIndex buffer,
                                      Address src, Address dst, simnet::CostAccumulator& cost) {
  shm::MsgView view = comm_.msg(buffer);

  {
    // The transmit stands in for the interconnect DMA: on the Paragon the
    // payload moves over the mesh, not through the heap. The thread
    // fabric copies it from the comm buffer straight into this planner's
    // ring slot (no allocation, no lock); the simulated wire copies it into
    // an owning Packet on the fabric's event queue — simulation machinery.
    // Either fabric then fires its delivery callback, which kicks the
    // receiving engine's host thread. Exempt from the hot-path guards for
    // the simulated wire and the kick.
    FLIPC_HOT_PATH_EXEMPT("simulated-wire DMA and fabric enqueue");
    simnet::PacketHeader header;
    header.dst_node = dst.node();
    header.protocol = simnet::kProtocolFlipc;
    header.src_addr = src.packed();
    header.dst_addr = dst.packed();
    header.seq = send_seq_++;

    const Status status = wire_.Transmit(shard_id_, header, view.payload, view.payload_size);
    if (!status.ok()) {
      // Unknown destination node: the optimistic protocol has no error path
      // back to the sender; the message is charged as a bad-address discard.
      ++stats_.drops_bad_address;
    } else {
      ++stats_.messages_sent;
      stats_.bytes_sent += view.payload_size;
      Trace(TraceEvent::kEngineSend, endpoint_index, buffer);
    }
  }
  ChargeModel(cost, 0);  // Native transmit costs were charged at plan time.
  CompleteSend(endpoint_index);
}

void MessagingEngine::CompleteSend(std::uint32_t endpoint_index) {
  EndpointRecord& record = comm_.endpoint(endpoint_index);
  waitfree::BufferQueueView queue = comm_.queue(endpoint_index);
  const BufferIndex buffer = queue.PeekProcess();
  if (buffer != waitfree::kInvalidBuffer && comm_.IsValidBufferIndex(buffer)) {
    comm_.msg(buffer).header->state.Store(MsgState::kCompleted);
  }
  // Count before the cursor advance hands the buffer back: once the
  // application can reclaim it, it may quiesce and destroy the endpoint,
  // and a later write would land on the slot's next tenant.
  record.processed_total.Publish(record.processed_total.ReadRelaxed() + 1);
  queue.AdvanceProcess();

  if ((record.options.ReadRelaxed() & shm::kEndpointOptSemaphore) != 0 && semaphores_ != nullptr) {
    // The real-time semaphore handoff is the kernel's documented role in
    // the paper's split (blocking waits live in the OS, not the engine);
    // signaling takes the semaphore's internal mutex by design.
    FLIPC_HOT_PATH_EXEMPT("real-time semaphore handoff");
    semaphores_->Signal(record.semaphore_id.ReadRelaxed());
    ++stats_.semaphore_signals;
  }
  if (send_complete_hook_) {
    // Test/driver observation hook: arbitrary user code, off the product path.
    FLIPC_HOT_PATH_EXEMPT("observation hook");
    send_complete_hook_(endpoint_index);
  }
}

void MessagingEngine::DeliverLocal(const simnet::Packet& packet, simnet::CostAccumulator&) {
  FLIPC_HOT_PATH("MessagingEngine::DeliverLocal");
  const Address dst = Address::FromPacked(packet.dst_addr);

  // Destination validation is not optional: a bad remote address must not
  // crash this node's engine. (The sender-side configurable checks would
  // have caught it earlier and cheaper.)
  if (!dst.valid() || dst.node() != wire_.node() || !comm_.IsValidEndpointIndex(dst.endpoint())) {
    ++stats_.drops_bad_address;
    return;
  }
  EndpointRecord& record = comm_.endpoint(dst.endpoint());
  if (record.Type() != EndpointType::kReceive) {
    ++stats_.drops_bad_address;
    return;
  }

  waitfree::BufferQueueView queue = comm_.queue(dst.endpoint());
  shm::TelemetryBlock& telemetry = comm_.telemetry(dst.endpoint());
  telemetry.NoteQueueDepth(queue.ProcessableCount());
  const BufferIndex buffer = queue.PeekProcess();
  if (buffer == waitfree::kInvalidBuffer) {
    // The optimistic protocol's rule: no posted receive buffer => discard,
    // count it in the endpoint's wait-free drop counter.
    record.RecordDrop();
    ++stats_.drops_no_buffer;
    Trace(TraceEvent::kEngineDrop, dst.endpoint());
    if (receive_hook_) {
      FLIPC_HOT_PATH_EXEMPT("observation hook");
      receive_hook_(dst.endpoint(), /*delivered=*/false);
    }
    return;
  }
  if (!comm_.IsValidBufferIndex(buffer)) {
    ++stats_.validity_rejections;
    telemetry.RecordEngineReject();
    queue.AdvanceProcess();
    return;
  }

  shm::MsgView view = comm_.msg(buffer);
  const std::size_t n = packet.payload.size() < view.payload_size ? packet.payload.size()
                                                                  : view.payload_size;
  std::memcpy(view.payload, packet.payload.data(), n);
  view.header->peer.Publish(packet.src_addr);  // Receiver learns the sender.
  view.header->state.Store(MsgState::kCompleted);
  // Counters before the cursor advance, as in CompleteSend.
  record.processed_total.Publish(record.processed_total.ReadRelaxed() + 1);
  telemetry.RecordEngineDelivery();
  queue.AdvanceProcess();
  ++stats_.messages_delivered;
  Trace(TraceEvent::kEngineDeliver, dst.endpoint(), buffer);

  if ((record.options.ReadRelaxed() & shm::kEndpointOptSemaphore) != 0 && semaphores_ != nullptr) {
    // Kernel-side blocking support, same exemption as CompleteSend.
    FLIPC_HOT_PATH_EXEMPT("real-time semaphore handoff");
    semaphores_->Signal(record.semaphore_id.ReadRelaxed());
    ++stats_.semaphore_signals;
  }
  if (receive_hook_) {
    FLIPC_HOT_PATH_EXEMPT("observation hook");
    receive_hook_(dst.endpoint(), /*delivered=*/true);
  }
}

}  // namespace flipc::engine
