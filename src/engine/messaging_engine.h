// The FLIPC messaging engine.
//
// "The messaging engine is an independently executing component of the
// system. It is intended to execute on the programmable controller in the
// communication interface when one is present, but can also be implemented
// as part of the operating system kernel for debugging purposes or on
// systems lacking the required hardware."
//
// This class is that component. It touches exactly two things: the
// communication buffer (through the wait-free queue views — the engine-side
// operations are PeekProcess/AdvanceProcess and the engine-written counter
// cells) and a Wire into the fabric. It never blocks on the application; an
// ill-behaved application can at worst make its own endpoints useless.
//
// Execution model: the engine body is a non-preemptible event loop
// (matching the paper's controller "execution restrictions"), decomposed
// into bounded work units. Each unit is either delivering one inbound
// packet or transmitting one released send buffer:
//
//   * real-concurrency mode — a host thread calls Step() in a loop;
//   * simulation mode       — a driver calls PlanStep() to learn the unit's
//     modeled cost, advances virtual time, then CommitStep() to perform it,
//     so packets enter the fabric at the correct virtual instant.
//
// The engine hosts a protocol framework: FLIPC's optimistic protocol is
// built in, and further protocols (KKT, a kernel-IPC stand-in for the
// OSF/1 AD traffic the paper's engine coexisted with) register by id.
#ifndef SRC_ENGINE_MESSAGING_ENGINE_H_
#define SRC_ENGINE_MESSAGING_ENGINE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <optional>

#include <vector>

#include "src/base/clock.h"
#include "src/base/hotpath.h"
#include "src/base/stats.h"
#include "src/base/trace.h"
#include "src/base/status.h"
#include "src/base/types.h"
#include "src/engine/platform_model.h"
#include "src/shm/address.h"
#include "src/shm/comm_buffer.h"
#include "src/simnet/fabric.h"
#include "src/simnet/packet.h"
#include "src/simos/semaphore_table.h"
#include "src/waitfree/handoff_ring.h"

namespace flipc::engine {

struct EngineOptions {
  // Validity checks "that protect the messaging engine against corruption
  // of the communication buffer by an errant or malicious application".
  // The paper measures them at +2 us per one-way message.
  bool validity_checks = false;

  // Experiment E4: model the pre-tuning communication-buffer layout where
  // application-written and engine-written words shared cache lines. The
  // real data structures stay padded (and correct); this charges the
  // modeled invalidation cost.
  bool model_unpadded_layout = false;

  // ---- Send scheduling (DESIGN.md §7) ----
  // O(active): the engine consumes the communication buffer's doorbell
  // ring instead of sweeping every endpoint slot per step. A low-frequency
  // backstop sweep (below) recovers lost doorbells, and a sweep also runs
  // whenever the doorbell path yields no candidate, so correctness never
  // depends on a doorbell arriving.
  //
  // Maximum sends coalesced into one work unit; messages after the first
  // must share the first's destination node and come from distinct
  // endpoints (one message per endpoint per unit keeps round-robin
  // fairness). 1 disables batching.
  std::uint32_t transmit_batch = 8;

  // Run the lost-doorbell backstop sweep every this many outbound plans;
  // 0 disables the periodic sweep (the no-candidate sweep still runs).
  std::uint32_t backstop_interval = 64;

  // ---- Sharded engine (DESIGN.md §12) ----
  // This planner's shard id. Each shard plans only the endpoint range the
  // comm buffer's geometry assigns to it (its own doorbell ring and active
  // list). Shard 0 is the DISTRIBUTOR: the one shard that polls the node's
  // wire, delivering own-range packets directly and handing other shards'
  // packets through their SPSC handoff rings. With
  // an unsharded comm buffer (shard_count == 1, the default) the engine
  // behaves exactly as a single planner.
  std::uint32_t shard_id = 0;

  // ---- QoS planner (DESIGN.md §15) ----
  // Per-class service weights for the deficit-weighted class selection
  // over the active list. When several classes stay backlogged, each
  // class's long-run share of transmissions is proportional to its weight;
  // when only one class has ready work the credits are untouched, so
  // all-default assemblies (every endpoint in class 0) keep the exact
  // round-robin rotation. A zero weight still earns selection eventually
  // (credits never decrease below the clamp), so no class can starve.
  std::array<std::uint32_t, shm::kQosClassCount> qos_weights{1, 1, 1, 1};
};

struct EngineStats {
  std::uint64_t work_units = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t drops_no_buffer = 0;    // optimistic-protocol discards
  std::uint64_t drops_bad_address = 0;  // invalid/inactive/mistyped destination
  std::uint64_t validity_rejections = 0;
  // Future-work protection mechanism: sends rejected because the endpoint
  // is restricted to a different destination. Always enforced (protection
  // of other applications cannot be an optional check).
  std::uint64_t protection_rejections = 0;
  std::uint64_t unknown_protocol_packets = 0;
  std::uint64_t semaphore_signals = 0;
  // ---- Doorbell-scheduling observability ----
  std::uint64_t doorbells_consumed = 0;   // ring entries popped
  std::uint64_t doorbell_dups = 0;        // popped for an already-active endpoint
  std::uint64_t doorbell_overflows = 0;   // overflow signals answered with a sweep
  std::uint64_t backstop_sweeps = 0;      // full sweeps (periodic / no-candidate / overflow)
  std::uint64_t endpoints_visited = 0;    // endpoints examined while planning sends;
                                          // the deterministic scan-effort metric
  std::uint64_t transmit_batches = 0;     // outbound work units committed
  std::uint64_t batched_messages = 0;     // messages carried by those units
  // ---- Engine-loop flight-recorder counters ----
  std::uint64_t outbound_plans = 0;       // PlanOutboundBatch invocations
  std::uint64_t sweeps_periodic = 0;      // backstop sweeps from the plan-count interval
  std::uint64_t sweeps_no_candidate = 0;  // sweeps because the hint path came up empty
                                          // (overflow-caused sweeps == doorbell_overflows;
                                          //  the three causes sum to backstop_sweeps)
  // ---- Cross-shard handoff (sharded engine) ----
  std::uint64_t handoff_pushed = 0;       // packets routed into another shard's inbox
  std::uint64_t handoff_popped = 0;       // packets consumed from this shard's inbox
  std::uint64_t handoff_full_retries = 0; // route commits that found the inbox full
                                          // (packet parked, wire polling stalled)
  // ---- Crash recovery ----
  std::uint64_t recoveries = 0;           // RecoverFromBuffer invocations
  std::uint64_t recovered_active = 0;     // endpoints re-activated by recovery sweeps

  // Sums `other` into this (per-shard stats -> node aggregate). The
  // counter identities (backstop_sweeps == doorbell_overflows +
  // sweeps_periodic + sweeps_no_candidate; batched_messages vs
  // transmit_batches) are linear, so they hold for the aggregate exactly
  // when they hold per shard.
  void Add(const EngineStats& other) {
    work_units += other.work_units;
    messages_sent += other.messages_sent;
    bytes_sent += other.bytes_sent;
    messages_delivered += other.messages_delivered;
    drops_no_buffer += other.drops_no_buffer;
    drops_bad_address += other.drops_bad_address;
    validity_rejections += other.validity_rejections;
    protection_rejections += other.protection_rejections;
    unknown_protocol_packets += other.unknown_protocol_packets;
    semaphore_signals += other.semaphore_signals;
    doorbells_consumed += other.doorbells_consumed;
    doorbell_dups += other.doorbell_dups;
    doorbell_overflows += other.doorbell_overflows;
    backstop_sweeps += other.backstop_sweeps;
    endpoints_visited += other.endpoints_visited;
    transmit_batches += other.transmit_batches;
    batched_messages += other.batched_messages;
    outbound_plans += other.outbound_plans;
    sweeps_periodic += other.sweeps_periodic;
    sweeps_no_candidate += other.sweeps_no_candidate;
    handoff_pushed += other.handoff_pushed;
    handoff_popped += other.handoff_popped;
    handoff_full_retries += other.handoff_full_retries;
    recoveries += other.recoveries;
    recovered_active += other.recovered_active;
  }
};

// Engine-loop latency telemetry. Host-memory (the histograms are
// heap-backed), so it lives beside the engine, not in the comm buffer;
// attach via SetTelemetry. Recording is pure stores into preallocated
// buckets, so it is hot-path legal once constructed.
struct EngineTelemetry {
  // Modeled cost of each committed work unit (plan-time price), ns.
  Histogram plan_cost_ns{0.0, 100000.0, 128};
  // Messages coalesced into each outbound work unit.
  Histogram batch_size{0.0, 65.0, 65};

  // Sums `other`'s buckets into this (per-shard telemetry -> node
  // aggregate); both sides use the fixed bucket configs above.
  void Merge(const EngineTelemetry& other) {
    plan_cost_ns.Merge(other.plan_cost_ns);
    batch_size.Merge(other.batch_size);
  }
};

// A protocol sharing the engine's event loop (the Paragon message
// coprocessor ran FLIPC alongside the OSF/1 AD protocols in one framework).
class ProtocolHandler {
 public:
  virtual ~ProtocolHandler() = default;

  // An inbound packet with this handler's protocol id.
  virtual void HandlePacket(simnet::Packet packet, simnet::CostAccumulator& cost) = 0;

  // Performs at most one unit of outbound work; returns whether any was done.
  virtual bool PollWork(simnet::CostAccumulator& cost) = 0;

  virtual bool HasWork() const { return false; }

  // Modeled cost of handling `packet`, priced at plan time so the work
  // unit's effects land at the right virtual instant.
  virtual DurationNs PlanCost(const simnet::Packet& packet) const {
    (void)packet;
    return 0;
  }
};

class MessagingEngine {
 public:
  // `model` may be null (real-concurrency mode: no cost accounting).
  // `semaphores` may be null if no endpoint uses the semaphore option.
  MessagingEngine(shm::CommBuffer& comm, simnet::Wire& wire, EngineOptions options,
                  const PlatformModel* model = nullptr,
                  simos::SemaphoreTable* semaphores = nullptr);
  virtual ~MessagingEngine() = default;
  MessagingEngine(const MessagingEngine&) = delete;
  MessagingEngine& operator=(const MessagingEngine&) = delete;

  // ---- Protocol framework ----
  // Installs (or, with nullptr, removes) the handler for a non-FLIPC
  // protocol id. Only a node's distributor (shard 0) takes handlers:
  // kFailedPrecondition on any other shard.
  Status RegisterProtocol(std::uint32_t protocol_id, ProtocolHandler* handler);

  // ---- Event loop ----

  // Examines state and selects the next work unit; returns its modeled cost
  // (0 when there is nothing to do). Idempotent until CommitStep().
  FLIPC_ROLE_ENGINE DurationNs PlanStep();

  // Executes the planned work unit (plans one first if none is pending).
  // Returns whether any work was performed.
  FLIPC_ROLE_ENGINE bool CommitStep();

  // Plan + commit in one call; used by the real-concurrency runner.
  FLIPC_ROLE_ENGINE bool Step();

  // ---- Crash recovery (DESIGN.md §14) ----

  // Rebuilds this shard's scheduling state purely from the authoritative
  // queue cursors of a communication buffer abandoned by a dead engine:
  // fast-forwards the doorbell ring's consume cursor (doorbells are hints;
  // the sweep below rediscovers their work), clears any half-planned work
  // unit, and re-activates every send endpoint in the shard's range with
  // processable work. Must run while NO other engine-side actor touches
  // this shard's range (the quiescent role) — typically on a freshly
  // constructed engine before its runner starts. The sweep here is not a
  // backstop sweep (it does not count toward backstop_sweeps, preserving
  // the sweep-cause identity); it increments stats_.recoveries instead.
  FLIPC_ROLE_QUIESCENT void RecoverFromBuffer();

  bool HasWork() const;

  // Optional flight recorder; events are stamped with the engine's clock
  // (virtual under the DES, zero without a clock). Single-writer: only the
  // engine's own loop records here.
  void SetTrace(TraceRing* trace) { trace_ = trace; }

  // Optional latency histograms, caller-owned; null (the default) keeps the
  // commit path free of even the branch-plus-stores cost.
  void SetTelemetry(EngineTelemetry* telemetry) { telemetry_ = telemetry; }

  // Clock used by the capacity-control (rate-limit) extension; without a
  // clock, token-bucket and deadline configurations are ignored. The SimCluster wires the simulator's virtual clock,
  // Cluster wires the real one.
  void SetClock(const Clock* clock) { clock_ = clock; }
  const Clock* clock() const { return clock_; }

  // ---- Sharded engine wiring (DESIGN.md §12) ----

  using HandoffRing = waitfree::SpscHandoffRing<simnet::Packet>;

  // The SPSC ring this shard CONSUMES cross-shard inbound packets from
  // (producer: the distributor). Unset on the distributor itself.
  void SetHandoffInbox(HandoffRing* ring) { handoff_inbox_ = ring; }

  // The ring the distributor PRODUCES into for `shard`'s packets. Only
  // meaningful on the distributor; rings for all non-distributor shards
  // must be wired before traffic flows.
  void SetHandoffOutbox(std::uint32_t shard, HandoffRing* ring) {
    handoff_outboxes_[shard] = ring;
  }

  // Wakes `shard`'s runner after a handoff push (the consumer may be
  // parked in its idle backoff, exactly like the app->engine kick).
  void SetShardKick(std::function<void(std::uint32_t shard)> kick) {
    shard_kick_ = std::move(kick);
  }

  std::uint32_t shard_id() const { return shard_id_; }
  // This shard's endpoint range [first, end).
  std::uint32_t shard_first_endpoint() const { return shard_first_; }
  std::uint32_t shard_end_endpoint() const { return shard_end_; }
  // The distributor is the one shard that polls the node's wire (preserving
  // the fabric's per-(src,dst) FIFO order through one consumer).
  bool is_distributor() const { return shard_id_ == 0; }

  // Earliest virtual/real time at which a currently throttled send
  // endpoint becomes eligible again; kTimeNever when nothing is throttled.
  // Simulation drivers use this to schedule their next wake-up.
  TimeNs NextUnthrottleTime() const;

  // Modeled cost accumulated by protocol handlers during CommitStep()
  // (their costs are only known as they run, unlike the built-in FLIPC
  // paths which are priced at plan time). The simulation driver drains this
  // after each commit and extends the coprocessor's busy window.
  DurationNs TakeDeferredCost() {
    const DurationNs cost = deferred_cost_;
    deferred_cost_ = 0;
    return cost;
  }

  // ---- Observation hooks (simulation drivers / tests) ----

  // Fired after the engine finishes a receive attempt on an endpoint
  // (delivered == false means the optimistic protocol discarded the
  // message for lack of a posted buffer).
  void SetReceiveHook(std::function<void(std::uint32_t endpoint, bool delivered)> hook) {
    receive_hook_ = std::move(hook);
  }

  // Fired after a send buffer completes (is re-acquirable by the app).
  void SetSendCompleteHook(std::function<void(std::uint32_t endpoint)> hook) {
    send_complete_hook_ = std::move(hook);
  }

  const EngineStats& stats() const { return stats_; }
  NodeId node() const { return wire_.node(); }

  // Resources shared with registered protocol handlers: the coprocessor's
  // wire and (in simulation) the cost model. Handlers transmit their own
  // packets through the same interface FLIPC traffic uses. On a wire that
  // refuses (a full ring, a payload over MaxPayload) the handler keeps the
  // packet; the un-stall kick wakes the engine when a slot frees.
  simnet::Wire& wire_for_protocols() { return wire_; }
  const PlatformModel* model_for_protocols() const { return model_; }

  shm::CommBuffer& comm() { return comm_; }
  const EngineOptions& options() const { return options_; }

 protected:
  // Transmission strategy; the native engine sends one optimistic packet
  // and completes immediately. The KKT engine overrides this (RPC per
  // message, deferred completion).
  virtual void TransmitMessage(std::uint32_t endpoint_index, waitfree::BufferIndex buffer,
                               Address src, Address dst, simnet::CostAccumulator& cost);

  // True when the endpoint must not transmit now (KKT: RPC in flight).
  virtual bool EndpointBlocked(std::uint32_t endpoint_index) const;

  // Extra plan-time cost of this engine's transmission strategy (KKT: the
  // RPC marshal + kernel send path).
  virtual DurationNs TransmitPlanCost() const { return 0; }

  // Marks the head send buffer of `endpoint_index` complete and advances
  // the process cursor; signals the endpoint semaphore if configured.
  void CompleteSend(std::uint32_t endpoint_index);

  // Delivers a FLIPC message payload to a local receive endpoint, applying
  // the optimistic protocol's discard rule. Used by the native inbound path
  // and by the KKT request handler.
  void DeliverLocal(const simnet::Packet& packet, simnet::CostAccumulator& cost);

  simnet::Wire& wire() { return wire_; }
  const PlatformModel* model() const { return model_; }

  void ChargeModel(simnet::CostAccumulator& cost, DurationNs ns) {
    if (model_ != nullptr) {
      cost.Charge(ns);
    }
  }

  EngineStats stats_;

 private:
  enum class WorkKind { kNone, kInbound, kOutbound, kHandler, kRoute };

  // ---- Doorbell scheduling (engine-private hint state) ----

  // Fills planned_batch_ with up to transmit_batch ready same-destination
  // endpoints: drains the ring, runs the periodic/overflow/no-candidate
  // backstop sweeps, and rotates the active list.
  void PlanOutboundBatch();

  // Pops published doorbells into the active list (overflow answered with
  // a covering sweep first).
  void DrainDoorbells();

  // Adds `endpoint` to the active list unless already a member.
  void ActivateEndpoint(std::uint32_t endpoint);

  // The lost-doorbell backstop: activates every send endpoint with
  // processable work. O(configured endpoints); runs at low frequency.
  void SweepAllEndpoints();

  // One rotation over the active list selecting the batch; returns whether
  // anything was selected. Drained endpoints leave the list; blocked,
  // throttled and wire-stalled ones rotate to the back.
  bool SelectBatchFromActive();

  // True when the endpoint's head message is bound for a node whose wire
  // ring on this planner's lane is full (never on a wire that does not
  // refuse).
  bool WireStalled(std::uint32_t endpoint);

  // True when `endpoint` is a send endpoint with processable work that is
  // not blocked (KKT in-flight) or throttled (rate limit).
  bool SendReady(std::uint32_t endpoint, TimeNs now) const;

  TimeNs NowForThrottle() const {
    return clock_ != nullptr ? clock_->NowNs() : 0;
  }

  // ---- QoS planner helpers (engine-private state; DESIGN.md §15) ----

  // True when the endpoint's token bucket forbids transmitting at `now`. Pure read: a slot whose
  // alloc_generation differs from the engine's copy is never throttled
  // (its recorded state belongs to the previous tenant).
  bool Throttled(std::uint32_t endpoint, const shm::EndpointRecord& record,
                 TimeNs now) const;

  // Tokens the endpoint's bucket would hold at `now`, counting accrued
  // refills without mutating the bucket state.
  std::uint32_t BucketTokensAt(std::uint32_t endpoint, const shm::EndpointRecord& record,
                               TimeNs now) const;

  // Folds accrued refills into the bucket state and pays one token (the
  // commit path's half of capacity control).
  void SpendBucketToken(std::uint32_t endpoint, const shm::EndpointRecord& record,
                        TimeNs now);

  // Detects slot reuse via EndpointRecord.alloc_generation and resets the
  // engine-private throttle/bucket/head-tracking state for the new tenant.
  // The churn bugfix: without this, a fresh endpoint inherited the previous
  // tenant's empty bucket.
  void SyncSlotState(std::uint32_t endpoint);

  // Stamps when the endpoint's current head message was first observed
  // (process_count changed); the base for EDF deadlines, deadline-miss
  // accounting and the service-gap telemetry.
  void NoteHeadObserved(std::uint32_t endpoint, TimeNs now);

  // The endpoint's class, clamped to [0, kQosClassCount).
  static std::uint32_t QosClassOf(const shm::EndpointRecord& record) {
    const std::uint32_t cls = record.qos_class.ReadRelaxed();
    return cls < shm::kQosClassCount ? cls : shm::kQosClassCount - 1;
  }

  // Absolute deadline of the endpoint's head message (head-observed stamp
  // plus the configured relative deadline).
  TimeNs HeadDeadline(std::uint32_t endpoint, const shm::EndpointRecord& record) const {
    return head_seen_at_[endpoint] +
           static_cast<TimeNs>(record.deadline_ns.ReadRelaxed());
  }

  // Validity checks on an application-released send buffer. Returns true
  // if the message may be transmitted.
  bool ValidateSendBuffer(std::uint32_t endpoint_index, waitfree::BufferIndex buffer);

  void CommitInbound(simnet::CostAccumulator& cost);
  void CommitOutbound(simnet::CostAccumulator& cost);

  // Transmits the head message of one endpoint of the planned batch
  // (validity, protection and rate-limit checks included).
  void CommitOutboundOne(std::uint32_t endpoint_index, simnet::CostAccumulator& cost);

  // Shard of the packet's destination endpoint, for inbound routing; an
  // invalid destination stays on the distributor (DeliverLocal counts it).
  std::uint32_t RouteShardFor(const simnet::Packet& packet) const;

  shm::CommBuffer& comm_;
  simnet::Wire& wire_;
  EngineOptions options_;
  const PlatformModel* model_;
  simos::SemaphoreTable* semaphores_;
  const Clock* clock_ = nullptr;
  TraceRing* trace_ = nullptr;
  EngineTelemetry* telemetry_ = nullptr;

  // ---- Sharded-engine state ----
  std::uint32_t shard_id_ = 0;
  std::uint32_t shard_first_ = 0;  // this shard's endpoint range [first, end)
  std::uint32_t shard_end_ = 0;
  HandoffRing* handoff_inbox_ = nullptr;
  std::vector<HandoffRing*> handoff_outboxes_;  // by consumer shard; distributor only
  std::function<void(std::uint32_t)> shard_kick_;
  // A routed packet whose inbox was full: the ONLY copy of that message.
  // The distributor retries it before polling the wire again (bounded
  // memory, per-(src,dst) order preserved, liveness restored by the
  // consumer's progress).
  std::optional<simnet::Packet> parked_packet_;
  std::uint32_t parked_shard_ = 0;
  std::uint32_t planned_route_shard_ = 0;

  void Trace(TraceEvent event, std::uint32_t a = 0, std::uint64_t b = 0) {
    if (trace_ != nullptr) {
      trace_->Record(clock_ != nullptr ? clock_->NowNs() : 0, event, a, b);
    }
  }

  // ---- QoS planner state (engine-private; DESIGN.md §15) ----
  // Last EndpointRecord.alloc_generation observed per slot; 0 = never seen
  // (AllocateEndpoint skips generation 0). A mismatch marks slot reuse.
  std::vector<std::uint32_t> seen_generation_;
  // Token-bucket state: current tokens and the accrual origin of the next
  // refill. Sized at construction, one entry per endpoint slot.
  std::vector<std::uint32_t> bucket_tokens_;
  std::vector<TimeNs> bucket_refill_at_;
  // Head-message observation: the process_count value the stamp below was
  // taken at (kNoHeadSeen = stamp invalid) and when it was taken.
  static constexpr std::uint32_t kNoHeadSeen = 0xffffffffu;
  std::vector<std::uint32_t> head_seen_count_;
  std::vector<TimeNs> head_seen_at_;
  // Deficit-weighted class selection: per-class credit. Backlogged classes
  // earn their weight per plan, the serving class pays one unit per
  // selected message; clamped so a long monopoly cannot bank unbounded
  // credit (or debt).
  static constexpr std::int64_t kQosCreditClamp = 1 << 20;
  std::array<std::int64_t, shm::kQosClassCount> class_credit_{};
  // Selection scratch (capacity reserved at construction; the plan path
  // must never allocate): pass-1 ready candidates in rotation order and
  // the taken flag per scratch position.
  std::vector<std::uint32_t> scratch_ready_;
  std::vector<char> scratch_taken_;

  static constexpr std::uint32_t kMaxProtocols = 8;
  std::array<ProtocolHandler*, kMaxProtocols> handlers_{};

  // Planned work unit.
  WorkKind planned_ = WorkKind::kNone;
  // Valid while planned_ is kInbound or kRoute. Inbound packets are polled
  // straight into it, so its payload capacity carries over from packet to
  // packet and the receive path allocates nothing in steady state.
  simnet::Packet planned_packet_;
  std::uint32_t planned_handler_ = 0;
  DurationNs planned_cost_ = 0;

  std::uint64_t send_seq_ = 0;

  // Fixed-capacity FIFO of endpoint indices. Replaces std::deque so the
  // engine's plan path never allocates (a deque grows on push_back — a
  // hot-path guard violation and a latency hazard). Membership is deduped
  // by in_active_, so at most max_endpoints entries ever coexist; storage
  // is sized once at construction and never reallocated. A push beyond
  // capacity (impossible under the dedup invariant) drops the entry —
  // doorbell hints are recoverable by the backstop sweep, so losing one is
  // safe where resizing would not be.
  class ActiveList {
   public:
    explicit ActiveList(std::uint32_t max_entries) : slots_(max_entries + 1) {}

    bool empty() const { return head_ == tail_; }
    std::size_t size() const {
      const std::size_t n = slots_.size();
      return (tail_ + n - head_) % n;
    }
    std::uint32_t front() const { return slots_[head_]; }
    void pop_front() { head_ = Next(head_); }
    void push_back(std::uint32_t endpoint) {
      const std::size_t next = Next(tail_);
      if (next == head_) {
        return;  // Full: shed the hint rather than grow.
      }
      slots_[tail_] = endpoint;
      tail_ = next;
    }
    // i-th entry from the front (0 <= i < size()); for HasWork's scan.
    std::uint32_t at(std::size_t i) const {
      return slots_[(head_ + i) % slots_.size()];
    }

   private:
    std::size_t Next(std::size_t pos) const { return (pos + 1) % slots_.size(); }

    std::vector<std::uint32_t> slots_;
    std::size_t head_ = 0;
    std::size_t tail_ = 0;
  };

  // Doorbell-scheduling state (engine-private; the shared ring lives in
  // the communication buffer). active_ holds endpoints believed to have
  // send work, FIFO for round-robin fairness; in_active_ is its membership
  // flag per endpoint (covers active_ AND planned_batch_).
  ActiveList active_;
  std::vector<char> in_active_;
  std::vector<std::uint32_t> planned_batch_;
  std::uint64_t outbound_plans_ = 0;

  std::function<void(std::uint32_t, bool)> receive_hook_;
  std::function<void(std::uint32_t)> send_complete_hook_;
  DurationNs deferred_cost_ = 0;
};

}  // namespace flipc::engine

#endif  // SRC_ENGINE_MESSAGING_ENGINE_H_
