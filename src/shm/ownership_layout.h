// Ownership tables and the compile-time layout lint for the communication
// buffer's shared structures.
//
// Two of the paper's rules are enforced here, mechanically, for every field
// the application and messaging engine share:
//
//  1. Single writer — each word is written by exactly one side of the
//     protection boundary. The tables below declare that side per field and
//     are the single source of truth: the ownership race detector
//     (boundary_check.h) registers cells from them at region format/attach
//     time, and tests compare against them.
//
//  2. No mixed cache lines — "ensure that concurrent writes from the
//     application and messaging engine can never occur in the same cache
//     line" (the paper's false-sharing fix, worth ~2x latency on the
//     Paragon). The constexpr predicates below walk the declared offsets
//     and static_assert that no cache line holds words with two distinct
//     writers, and that every cross-boundary field is naturally aligned and
//     does not straddle a line. Breaking the layout breaks the build.
//
// tools/flipc_layout_lint.cc re-runs the same predicates at runtime and
// prints the per-line writer map, so the audit is also available as a ctest
// and inspectable by humans.
#ifndef SRC_SHM_OWNERSHIP_LAYOUT_H_
#define SRC_SHM_OWNERSHIP_LAYOUT_H_

#include <cstddef>

#include "src/base/types.h"
#include "src/shm/comm_buffer.h"
#include "src/shm/endpoint_record.h"
#include "src/waitfree/boundary_check.h"
#include "src/waitfree/buffer_queue.h"
#include "src/waitfree/doorbell_ring.h"
#include "src/waitfree/drop_counter.h"
#include "src/waitfree/handoff_ring.h"

namespace flipc::shm {

// One shared field: where it lives, how big it is, who writes it.
struct FieldOwnership {
  const char* name;
  std::size_t offset;
  std::size_t size;
  waitfree::Writer writer;
  // True for SingleWriterCells registered with the ownership race detector.
  // False for fields outside its scope: plain header words written only
  // under the allocation lock, and the application-thread TasLocks.
  bool checked_cell;
  // True for configuration written only while the structure is quiescent
  // (endpoint being (de)allocated, region being formatted).
  bool quiescent;
};

namespace ownership_internal {
constexpr waitfree::Writer kApp = waitfree::Writer::kApplication;
constexpr waitfree::Writer kEng = waitfree::Writer::kEngine;
}  // namespace ownership_internal

#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
#endif

// ---- EndpointRecord (src/shm/endpoint_record.h): four lines by writer ----
inline constexpr FieldOwnership kEndpointRecordOwnership[] = {
    // Line 0: configuration — application-written, quiescent.
    {"EndpointRecord.type", offsetof(EndpointRecord, type),
     sizeof(EndpointRecord::type), ownership_internal::kApp, true, true},
    {"EndpointRecord.cells_offset", offsetof(EndpointRecord, cells_offset),
     sizeof(EndpointRecord::cells_offset), ownership_internal::kApp, true, true},
    {"EndpointRecord.queue_capacity", offsetof(EndpointRecord, queue_capacity),
     sizeof(EndpointRecord::queue_capacity), ownership_internal::kApp, true, true},
    {"EndpointRecord.cells_reserved", offsetof(EndpointRecord, cells_reserved),
     sizeof(EndpointRecord::cells_reserved), ownership_internal::kApp, true, true},
    {"EndpointRecord.semaphore_id", offsetof(EndpointRecord, semaphore_id),
     sizeof(EndpointRecord::semaphore_id), ownership_internal::kApp, true, true},
    {"EndpointRecord.options", offsetof(EndpointRecord, options),
     sizeof(EndpointRecord::options), ownership_internal::kApp, true, true},
    {"EndpointRecord.allowed_peer", offsetof(EndpointRecord, allowed_peer),
     sizeof(EndpointRecord::allowed_peer), ownership_internal::kApp, true, true},
    {"EndpointRecord.shard", offsetof(EndpointRecord, shard),
     sizeof(EndpointRecord::shard), ownership_internal::kApp, true, true},
    {"EndpointRecord.qos_class", offsetof(EndpointRecord, qos_class),
     sizeof(EndpointRecord::qos_class), ownership_internal::kApp, true, true},
    {"EndpointRecord.deadline_ns", offsetof(EndpointRecord, deadline_ns),
     sizeof(EndpointRecord::deadline_ns), ownership_internal::kApp, true, true},
    {"EndpointRecord.bucket_capacity", offsetof(EndpointRecord, bucket_capacity),
     sizeof(EndpointRecord::bucket_capacity), ownership_internal::kApp, true, true},
    {"EndpointRecord.bucket_refill_ns", offsetof(EndpointRecord, bucket_refill_ns),
     sizeof(EndpointRecord::bucket_refill_ns), ownership_internal::kApp, true, true},
    {"EndpointRecord.alloc_generation", offsetof(EndpointRecord, alloc_generation),
     sizeof(EndpointRecord::alloc_generation), ownership_internal::kApp, true, true},
    // Line 1: application-written hot state.
    {"EndpointRecord.release_count", offsetof(EndpointRecord, release_count),
     sizeof(EndpointRecord::release_count), ownership_internal::kApp, true, false},
    {"EndpointRecord.acquire_count", offsetof(EndpointRecord, acquire_count),
     sizeof(EndpointRecord::acquire_count), ownership_internal::kApp, true, false},
    {"EndpointRecord.drops_reclaimed", offsetof(EndpointRecord, drops_reclaimed),
     sizeof(EndpointRecord::drops_reclaimed), ownership_internal::kApp, true, false},
    // Line 2: engine-written hot state.
    {"EndpointRecord.process_count", offsetof(EndpointRecord, process_count),
     sizeof(EndpointRecord::process_count), ownership_internal::kEng, true, false},
    {"EndpointRecord.drops_total", offsetof(EndpointRecord, drops_total),
     sizeof(EndpointRecord::drops_total), ownership_internal::kEng, true, false},
    {"EndpointRecord.processed_total", offsetof(EndpointRecord, processed_total),
     sizeof(EndpointRecord::processed_total), ownership_internal::kEng, true, false},
    // Line 3: mutual exclusion among application threads; the engine never
    // touches it. Not a single-writer cell (it is an RMW lock by design).
    {"EndpointRecord.lock", offsetof(EndpointRecord, lock),
     sizeof(EndpointRecord::lock), ownership_internal::kApp, false, false},
};

// ---- TelemetryBlock (src/shm/telemetry_block.h): two lines by writer ----
// All cells are monotonic counters; the consistency contract (how they
// must agree with the queue cursors) lives in telemetry_block.h and is
// audited by flipc_inspect --metrics.
inline constexpr FieldOwnership kTelemetryBlockOwnership[] = {
    // Line 0: application-written counters.
    {"TelemetryBlock.api_sends", offsetof(TelemetryBlock, api_sends),
     sizeof(TelemetryBlock::api_sends), ownership_internal::kApp, true, false},
    {"TelemetryBlock.api_receives", offsetof(TelemetryBlock, api_receives),
     sizeof(TelemetryBlock::api_receives), ownership_internal::kApp, true, false},
    {"TelemetryBlock.api_posts", offsetof(TelemetryBlock, api_posts),
     sizeof(TelemetryBlock::api_posts), ownership_internal::kApp, true, false},
    {"TelemetryBlock.api_reclaims", offsetof(TelemetryBlock, api_reclaims),
     sizeof(TelemetryBlock::api_reclaims), ownership_internal::kApp, true, false},
    {"TelemetryBlock.releases_rejected", offsetof(TelemetryBlock, releases_rejected),
     sizeof(TelemetryBlock::releases_rejected), ownership_internal::kApp, true, false},
    {"TelemetryBlock.doorbell_rings", offsetof(TelemetryBlock, doorbell_rings),
     sizeof(TelemetryBlock::doorbell_rings), ownership_internal::kApp, true, false},
    {"TelemetryBlock.doorbell_full", offsetof(TelemetryBlock, doorbell_full),
     sizeof(TelemetryBlock::doorbell_full), ownership_internal::kApp, true, false},
    // Line 1: engine-written counters.
    {"TelemetryBlock.engine_transmits", offsetof(TelemetryBlock, engine_transmits),
     sizeof(TelemetryBlock::engine_transmits), ownership_internal::kEng, true, false},
    {"TelemetryBlock.engine_deliveries", offsetof(TelemetryBlock, engine_deliveries),
     sizeof(TelemetryBlock::engine_deliveries), ownership_internal::kEng, true, false},
    {"TelemetryBlock.engine_rejects", offsetof(TelemetryBlock, engine_rejects),
     sizeof(TelemetryBlock::engine_rejects), ownership_internal::kEng, true, false},
    {"TelemetryBlock.queue_depth_high_water",
     offsetof(TelemetryBlock, queue_depth_high_water),
     sizeof(TelemetryBlock::queue_depth_high_water), ownership_internal::kEng, true, false},
    {"TelemetryBlock.deadline_misses", offsetof(TelemetryBlock, deadline_misses),
     sizeof(TelemetryBlock::deadline_misses), ownership_internal::kEng, true, false},
    {"TelemetryBlock.max_service_gap_ns", offsetof(TelemetryBlock, max_service_gap_ns),
     sizeof(TelemetryBlock::max_service_gap_ns), ownership_internal::kEng, true, false},
    {"TelemetryBlock.throttle_deferrals", offsetof(TelemetryBlock, throttle_deferrals),
     sizeof(TelemetryBlock::throttle_deferrals), ownership_internal::kEng, true, false},
};

// ---- QueueCursors (src/waitfree/buffer_queue.h) ----
inline constexpr FieldOwnership kQueueCursorsOwnership[] = {
    {"QueueCursors.release_count", offsetof(waitfree::QueueCursors, release_count),
     sizeof(waitfree::QueueCursors::release_count), ownership_internal::kApp, true, false},
    {"QueueCursors.acquire_count", offsetof(waitfree::QueueCursors, acquire_count),
     sizeof(waitfree::QueueCursors::acquire_count), ownership_internal::kApp, true, false},
    {"QueueCursors.process_count", offsetof(waitfree::QueueCursors, process_count),
     sizeof(waitfree::QueueCursors::process_count), ownership_internal::kEng, true, false},
};

// ---- DoorbellCursors (src/waitfree/doorbell_ring.h) ----
// The send-doorbell ring's cursor block: one application line (producer
// position + overflow signal), one engine line (consumer position +
// overflow acknowledgement). ring_tail is the one application-side RMW
// word (slot claim among app threads, like the endpoint TasLock), so it is
// not a checked cell; the engine only reads it. The ring's CELLS are
// app-written SingleWriterCells declared per-region by CommBuffer, like
// the queue-cell arena.
inline constexpr FieldOwnership kDoorbellCursorsOwnership[] = {
    {"DoorbellCursors.ring_tail", offsetof(waitfree::DoorbellCursors, ring_tail),
     sizeof(waitfree::DoorbellCursors::ring_tail), ownership_internal::kApp, false, false},
    {"DoorbellCursors.overflow_rung", offsetof(waitfree::DoorbellCursors, overflow_rung),
     sizeof(waitfree::DoorbellCursors::overflow_rung), ownership_internal::kApp, true,
     false},
    {"DoorbellCursors.ring_head", offsetof(waitfree::DoorbellCursors, ring_head),
     sizeof(waitfree::DoorbellCursors::ring_head), ownership_internal::kEng, true, false},
    {"DoorbellCursors.overflow_seen", offsetof(waitfree::DoorbellCursors, overflow_seen),
     sizeof(waitfree::DoorbellCursors::overflow_seen), ownership_internal::kEng, true,
     false},
};

// ---- PaddedDropCounterParts (src/waitfree/drop_counter.h) ----
inline constexpr FieldOwnership kPaddedDropCounterOwnership[] = {
    {"PaddedDropCounterParts.dropped", offsetof(waitfree::PaddedDropCounterParts, dropped),
     sizeof(waitfree::PaddedDropCounterParts::dropped), ownership_internal::kEng, true,
     false},
    {"PaddedDropCounterParts.reclaimed",
     offsetof(waitfree::PaddedDropCounterParts, reclaimed),
     sizeof(waitfree::PaddedDropCounterParts::reclaimed), ownership_internal::kApp, true,
     false},
};

// ---- HandoffCursors (src/waitfree/handoff_ring.h) ----
// The engine-side SPSC lap ring's cursor block (the handoff ring between
// shards, and each thread-fabric wire ring between a sending planner and a
// receiving distributor). Both cursors are engine-side — the single-writer
// split here is BETWEEN ENGINE THREADS, not across the app/engine boundary:
// the producer writes handoff_tail (and the slot tags), the consumer
// writes handoff_head, each on its own cache line. The per-shard confinement is enforced at run time by the checker's
// shard-qualified declarations (HandoffCursors::DeclareOwners); the lint
// below still proves the two lines never mix writers' words.
inline constexpr FieldOwnership kHandoffCursorsOwnership[] = {
    {"HandoffCursors.handoff_tail", offsetof(waitfree::HandoffCursors, handoff_tail),
     sizeof(waitfree::HandoffCursors::handoff_tail), ownership_internal::kEng, true, false},
    {"HandoffCursors.handoff_head", offsetof(waitfree::HandoffCursors, handoff_head),
     sizeof(waitfree::HandoffCursors::handoff_head), ownership_internal::kEng, true, false},
};

// ---- CommBufferHeader (src/shm/comm_buffer.h) ----
// Entirely application-written: identity once at format time, allocation
// state under alloc_lock. Listed so the audit covers every shared struct;
// the engine only reads it.
inline constexpr FieldOwnership kCommBufferHeaderOwnership[] = {
    {"CommBufferHeader.magic", offsetof(CommBufferHeader, magic),
     sizeof(CommBufferHeader::magic), ownership_internal::kApp, false, true},
    {"CommBufferHeader.version", offsetof(CommBufferHeader, version),
     sizeof(CommBufferHeader::version), ownership_internal::kApp, false, true},
    {"CommBufferHeader.message_size", offsetof(CommBufferHeader, message_size),
     sizeof(CommBufferHeader::message_size), ownership_internal::kApp, false, true},
    {"CommBufferHeader.buffer_count", offsetof(CommBufferHeader, buffer_count),
     sizeof(CommBufferHeader::buffer_count), ownership_internal::kApp, false, true},
    {"CommBufferHeader.max_endpoints", offsetof(CommBufferHeader, max_endpoints),
     sizeof(CommBufferHeader::max_endpoints), ownership_internal::kApp, false, true},
    {"CommBufferHeader.cell_arena_size", offsetof(CommBufferHeader, cell_arena_size),
     sizeof(CommBufferHeader::cell_arena_size), ownership_internal::kApp, false, true},
    {"CommBufferHeader.doorbell_capacity", offsetof(CommBufferHeader, doorbell_capacity),
     sizeof(CommBufferHeader::doorbell_capacity), ownership_internal::kApp, false, true},
    {"CommBufferHeader.shard_count", offsetof(CommBufferHeader, shard_count),
     sizeof(CommBufferHeader::shard_count), ownership_internal::kApp, false, true},
    {"CommBufferHeader.endpoints_per_shard",
     offsetof(CommBufferHeader, endpoints_per_shard),
     sizeof(CommBufferHeader::endpoints_per_shard), ownership_internal::kApp, false, true},
    {"CommBufferHeader.endpoint_table_offset",
     offsetof(CommBufferHeader, endpoint_table_offset),
     sizeof(CommBufferHeader::endpoint_table_offset), ownership_internal::kApp, false, true},
    {"CommBufferHeader.telemetry_offset", offsetof(CommBufferHeader, telemetry_offset),
     sizeof(CommBufferHeader::telemetry_offset), ownership_internal::kApp, false, true},
    {"CommBufferHeader.cell_arena_offset", offsetof(CommBufferHeader, cell_arena_offset),
     sizeof(CommBufferHeader::cell_arena_offset), ownership_internal::kApp, false, true},
    {"CommBufferHeader.freelist_offset", offsetof(CommBufferHeader, freelist_offset),
     sizeof(CommBufferHeader::freelist_offset), ownership_internal::kApp, false, true},
    {"CommBufferHeader.doorbell_offset", offsetof(CommBufferHeader, doorbell_offset),
     sizeof(CommBufferHeader::doorbell_offset), ownership_internal::kApp, false, true},
    {"CommBufferHeader.buffers_offset", offsetof(CommBufferHeader, buffers_offset),
     sizeof(CommBufferHeader::buffers_offset), ownership_internal::kApp, false, true},
    {"CommBufferHeader.total_size", offsetof(CommBufferHeader, total_size),
     sizeof(CommBufferHeader::total_size), ownership_internal::kApp, false, true},
    {"CommBufferHeader.alloc_lock", offsetof(CommBufferHeader, alloc_lock),
     sizeof(CommBufferHeader::alloc_lock), ownership_internal::kApp, false, false},
    {"CommBufferHeader.free_head", offsetof(CommBufferHeader, free_head),
     sizeof(CommBufferHeader::free_head), ownership_internal::kApp, false, false},
    {"CommBufferHeader.free_count", offsetof(CommBufferHeader, free_count),
     sizeof(CommBufferHeader::free_count), ownership_internal::kApp, false, false},
    {"CommBufferHeader.cells_used", offsetof(CommBufferHeader, cells_used),
     sizeof(CommBufferHeader::cells_used), ownership_internal::kApp, false, false},
    {"CommBufferHeader.endpoints_active", offsetof(CommBufferHeader, endpoints_active),
     sizeof(CommBufferHeader::endpoints_active), ownership_internal::kApp, false, false},
};

#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif

// ---- Memory-order policy (tools/flipc_static_audit) ------------------------
//
// Each shared field carries an ordering discipline derived from its protocol
// role. The static auditor enforces these per access site; the table is
// exported (with the ownership tables) to tools/ownership_policy.json so the
// C++ layout and the Python auditor cannot drift.
enum class FieldOrderKind {
  // Published position counter: writes must be Publish (release store) so
  // the data they expose is ordered; cross-role reads must be Read
  // (acquire); the owner may read its own cursor relaxed.
  kCursor,
  // A cursor consumed as a scheduling HINT: staleness is tolerated by
  // design, so cross-role relaxed reads are additionally legal (ring_head:
  // the producer's full-check may run on a stale head; the overflow signal
  // and backstop sweep cover the error).
  kHintCursor,
  // Level-triggered signal word: same profile as kCursor (Publish writes,
  // acquire cross-reads).
  kFlag,
  // Monotonic counter: writes must be Publish; reads may use any order on
  // either side (readers tolerate staleness; the release store still orders
  // the count against the work it describes).
  kCounter,
  // Configuration written only while the endpoint slot is quiescent; writes
  // may be StoreRelaxed (the type publication below orders them); reads any.
  kConfig,
  // The endpoint-type word: written LAST at (de)allocation with Publish so
  // it release-orders every other config write; reads as kConfig.
  kConfigPublish,
  // Owner-written data cells whose publication rides the owning cursor:
  // writes may be StoreRelaxed or Publish; reads any (the cursor's
  // acquire/release pairing provides the ordering).
  kDataCell,
  // Mutual-exclusion / RMW words (TasLock, ring_tail): outside the
  // single-writer cell discipline; every access must still name an explicit
  // memory_order.
  kRmw,
  // Plain non-atomic words written only under the allocation lock (or at
  // format time); no atomic accesses expected at all.
  kPlain,
};

// Field name -> ordering kind. Kept separate from FieldOwnership so the
// layout rows stay positional; the JSON exporter joins the two tables and
// fails if any field is missing a kind (single source of truth, enforced).
struct FieldOrderPolicy {
  const char* name;
  FieldOrderKind kind;
};

inline constexpr FieldOrderPolicy kFieldOrderKinds[] = {
    // EndpointRecord
    {"EndpointRecord.type", FieldOrderKind::kConfigPublish},
    {"EndpointRecord.cells_offset", FieldOrderKind::kConfig},
    {"EndpointRecord.queue_capacity", FieldOrderKind::kConfig},
    {"EndpointRecord.cells_reserved", FieldOrderKind::kConfig},
    {"EndpointRecord.semaphore_id", FieldOrderKind::kConfig},
    {"EndpointRecord.options", FieldOrderKind::kConfig},
    {"EndpointRecord.allowed_peer", FieldOrderKind::kConfig},
    {"EndpointRecord.shard", FieldOrderKind::kConfig},
    {"EndpointRecord.qos_class", FieldOrderKind::kConfig},
    {"EndpointRecord.deadline_ns", FieldOrderKind::kConfig},
    {"EndpointRecord.bucket_capacity", FieldOrderKind::kConfig},
    {"EndpointRecord.bucket_refill_ns", FieldOrderKind::kConfig},
    {"EndpointRecord.alloc_generation", FieldOrderKind::kConfig},
    {"EndpointRecord.release_count", FieldOrderKind::kCursor},
    {"EndpointRecord.acquire_count", FieldOrderKind::kCursor},
    {"EndpointRecord.drops_reclaimed", FieldOrderKind::kCounter},
    {"EndpointRecord.process_count", FieldOrderKind::kCursor},
    {"EndpointRecord.drops_total", FieldOrderKind::kCounter},
    {"EndpointRecord.processed_total", FieldOrderKind::kCounter},
    {"EndpointRecord.lock", FieldOrderKind::kRmw},
    // TelemetryBlock
    {"TelemetryBlock.api_sends", FieldOrderKind::kCounter},
    {"TelemetryBlock.api_receives", FieldOrderKind::kCounter},
    {"TelemetryBlock.api_posts", FieldOrderKind::kCounter},
    {"TelemetryBlock.api_reclaims", FieldOrderKind::kCounter},
    {"TelemetryBlock.releases_rejected", FieldOrderKind::kCounter},
    {"TelemetryBlock.doorbell_rings", FieldOrderKind::kCounter},
    {"TelemetryBlock.doorbell_full", FieldOrderKind::kCounter},
    {"TelemetryBlock.engine_transmits", FieldOrderKind::kCounter},
    {"TelemetryBlock.engine_deliveries", FieldOrderKind::kCounter},
    {"TelemetryBlock.engine_rejects", FieldOrderKind::kCounter},
    {"TelemetryBlock.queue_depth_high_water", FieldOrderKind::kCounter},
    {"TelemetryBlock.deadline_misses", FieldOrderKind::kCounter},
    {"TelemetryBlock.max_service_gap_ns", FieldOrderKind::kCounter},
    {"TelemetryBlock.throttle_deferrals", FieldOrderKind::kCounter},
    // QueueCursors
    {"QueueCursors.release_count", FieldOrderKind::kCursor},
    {"QueueCursors.acquire_count", FieldOrderKind::kCursor},
    {"QueueCursors.process_count", FieldOrderKind::kCursor},
    // DoorbellCursors
    {"DoorbellCursors.ring_tail", FieldOrderKind::kRmw},
    {"DoorbellCursors.overflow_rung", FieldOrderKind::kFlag},
    {"DoorbellCursors.ring_head", FieldOrderKind::kHintCursor},
    {"DoorbellCursors.overflow_seen", FieldOrderKind::kFlag},
    // HandoffCursors
    {"HandoffCursors.handoff_tail", FieldOrderKind::kCursor},
    {"HandoffCursors.handoff_head", FieldOrderKind::kCursor},
    // PaddedDropCounterParts
    {"PaddedDropCounterParts.dropped", FieldOrderKind::kCounter},
    {"PaddedDropCounterParts.reclaimed", FieldOrderKind::kCounter},
    // CommBufferHeader (identity + allocation state)
    {"CommBufferHeader.magic", FieldOrderKind::kPlain},
    {"CommBufferHeader.version", FieldOrderKind::kPlain},
    {"CommBufferHeader.message_size", FieldOrderKind::kPlain},
    {"CommBufferHeader.buffer_count", FieldOrderKind::kPlain},
    {"CommBufferHeader.max_endpoints", FieldOrderKind::kPlain},
    {"CommBufferHeader.cell_arena_size", FieldOrderKind::kPlain},
    {"CommBufferHeader.doorbell_capacity", FieldOrderKind::kPlain},
    {"CommBufferHeader.shard_count", FieldOrderKind::kPlain},
    {"CommBufferHeader.endpoints_per_shard", FieldOrderKind::kPlain},
    {"CommBufferHeader.endpoint_table_offset", FieldOrderKind::kPlain},
    {"CommBufferHeader.telemetry_offset", FieldOrderKind::kPlain},
    {"CommBufferHeader.cell_arena_offset", FieldOrderKind::kPlain},
    {"CommBufferHeader.freelist_offset", FieldOrderKind::kPlain},
    {"CommBufferHeader.doorbell_offset", FieldOrderKind::kPlain},
    {"CommBufferHeader.buffers_offset", FieldOrderKind::kPlain},
    {"CommBufferHeader.total_size", FieldOrderKind::kPlain},
    {"CommBufferHeader.alloc_lock", FieldOrderKind::kRmw},
    {"CommBufferHeader.free_head", FieldOrderKind::kPlain},
    {"CommBufferHeader.free_count", FieldOrderKind::kPlain},
    {"CommBufferHeader.cells_used", FieldOrderKind::kPlain},
    {"CommBufferHeader.endpoints_active", FieldOrderKind::kPlain},
    // Arena cell arrays (below)
    {"BufferQueue.cells", FieldOrderKind::kDataCell},
    {"DoorbellRing.cells", FieldOrderKind::kCursor},
    {"HandoffRing.slot_tags", FieldOrderKind::kCursor},
};

// Cell ARENAS have no fixed offset (they are sized per region by the
// layout), so they cannot appear in the offset tables above — but they are
// shared single-writer state all the same: queue cells and doorbell cells
// are written only by the application. Doorbell cells are kCursor (the
// consumer's acquire Read of the lap tag pairs with the producer's
// Publish); queue cells are kDataCell (publication rides release_count).
struct ArenaOwnership {
  const char* name;
  waitfree::Writer writer;
};

inline constexpr ArenaOwnership kArenaCellOwnership[] = {
    {"BufferQueue.cells", ownership_internal::kApp},
    {"DoorbellRing.cells", ownership_internal::kApp},
    // Lap-ring slot tags (handoff and wire rings): engine-side, written
    // only by the PRODUCER shard (lap-tag publication, kCursor: the consumer's acquire Read pairs
    // with the producer's Publish). Shard-confined at run time.
    {"HandoffRing.slot_tags", ownership_internal::kEng},
};

// Handoff words: shared cells whose OWNERSHIP ALTERNATES with the buffer's
// queue position (paper Figure 3's per-buffer state field and the peer
// address beside it). They cannot carry a static writer; the transition
// direction is checked at runtime instead (boundary_check.h,
// CheckHandoffStore). The static auditor exempts accesses to these members
// from the single-writer role rule — every other unresolved cell write is
// an error, so new shared cells must be declared here or in the tables.
inline constexpr const char* kHandoffMembers[] = {
    "peer",  // MsgHeader.peer: app writes dst before send, engine writes src
             // on delivery
};

// Member aliases: code writes table fields through view/member pointers
// whose names differ from the canonical field name. The static auditor
// resolves an access `<class>::<member>` to the canonical field before
// applying the ownership and ordering rules. `klass` is the class whose
// member functions perform the access ("*" = any scope).
struct AuditAlias {
  const char* klass;
  const char* member;
  const char* field;
};

inline constexpr AuditAlias kAuditAliases[] = {
    // CommBuffer writes the plain header words through its header_ pointer;
    // a struct-level alias (field name without a member part) maps
    // `header_->X` to `CommBufferHeader.X`.
    {"CommBuffer", "header_", "CommBufferHeader"},
    // BufferQueueView holds raw cell pointers (the endpoint record
    // interleaves the cursors with other same-writer fields).
    {"BufferQueueView", "release_", "QueueCursors.release_count"},
    {"BufferQueueView", "acquire_", "QueueCursors.acquire_count"},
    {"BufferQueueView", "process_", "QueueCursors.process_count"},
    {"BufferQueueView", "cells_", "BufferQueue.cells"},
    // DoorbellRingView reaches its cursors through the cursor block.
    {"DoorbellRingView", "cells_", "DoorbellRing.cells"},
    // DropCounter's private members carry the trailing underscore; the
    // padded in-region variant's fields match the table names directly.
    {"DropCounter", "dropped_", "PaddedDropCounterParts.dropped"},
    {"DropCounter", "reclaimed_", "PaddedDropCounterParts.reclaimed"},
    // The lap ring's slot-tag array (shared by the handoff and byte rings).
    {"SpscLapRing", "tags_", "HandoffRing.slot_tags"},
};

// ---- Lint predicates -------------------------------------------------------

// True when no cache line holds fields with two distinct declared writers.
template <std::size_t N>
constexpr bool CacheLinesHaveSingleWriter(const FieldOwnership (&fields)[N]) {
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t j = i + 1; j < N; ++j) {
      if (fields[i].writer == fields[j].writer) {
        continue;
      }
      const std::size_t i_first = fields[i].offset / kCacheLineSize;
      const std::size_t i_last = (fields[i].offset + fields[i].size - 1) / kCacheLineSize;
      const std::size_t j_first = fields[j].offset / kCacheLineSize;
      const std::size_t j_last = (fields[j].offset + fields[j].size - 1) / kCacheLineSize;
      if (i_first <= j_last && j_first <= i_last) {
        return false;  // Lines overlap with different writers: false sharing.
      }
    }
  }
  return true;
}

// True when every field is naturally aligned and no field straddles a cache
// line boundary (a straddling cross-boundary word would put bytes of one
// writer's field on the other writer's line, and a misaligned atomic is not
// guaranteed lock-free).
template <std::size_t N>
constexpr bool FieldsAlignedWithinLines(const FieldOwnership (&fields)[N]) {
  for (std::size_t i = 0; i < N; ++i) {
    const std::size_t size = fields[i].size;
    const std::size_t natural = size >= kCacheLineSize ? kCacheLineSize : size;
    if (natural != 0 && fields[i].offset % natural != 0) {
      return false;
    }
    if (fields[i].offset / kCacheLineSize !=
        (fields[i].offset + size - 1) / kCacheLineSize) {
      return false;
    }
  }
  return true;
}

// The build-breaking audit. If one of these fires, a comm-buffer cache line
// mixes application- and engine-written words (or a field came unaligned):
// restore the layout grouping before doing anything else — this is the
// paper's 2x false-sharing fix.
static_assert(CacheLinesHaveSingleWriter(kEndpointRecordOwnership),
              "EndpointRecord: a cache line mixes application- and engine-written words");
static_assert(FieldsAlignedWithinLines(kEndpointRecordOwnership),
              "EndpointRecord: a shared field is misaligned or straddles a cache line");
static_assert(CacheLinesHaveSingleWriter(kTelemetryBlockOwnership),
              "TelemetryBlock: a cache line mixes application- and engine-written words");
static_assert(FieldsAlignedWithinLines(kTelemetryBlockOwnership),
              "TelemetryBlock: a shared field is misaligned or straddles a cache line");
static_assert(CacheLinesHaveSingleWriter(kQueueCursorsOwnership),
              "QueueCursors: a cache line mixes application- and engine-written words");
static_assert(FieldsAlignedWithinLines(kQueueCursorsOwnership),
              "QueueCursors: a shared field is misaligned or straddles a cache line");
static_assert(CacheLinesHaveSingleWriter(kDoorbellCursorsOwnership),
              "DoorbellCursors: a cache line mixes application- and engine-written words");
static_assert(FieldsAlignedWithinLines(kDoorbellCursorsOwnership),
              "DoorbellCursors: a shared field is misaligned or straddles a cache line");
static_assert(CacheLinesHaveSingleWriter(kPaddedDropCounterOwnership),
              "PaddedDropCounterParts: a cache line mixes application- and engine-written "
              "words");
static_assert(FieldsAlignedWithinLines(kPaddedDropCounterOwnership),
              "PaddedDropCounterParts: a shared field is misaligned or straddles a line");
static_assert(CacheLinesHaveSingleWriter(kCommBufferHeaderOwnership),
              "CommBufferHeader: a cache line mixes words with distinct writers");
static_assert(FieldsAlignedWithinLines(kCommBufferHeaderOwnership),
              "CommBufferHeader: a shared field is misaligned or straddles a cache line");
static_assert(CacheLinesHaveSingleWriter(kHandoffCursorsOwnership),
              "HandoffCursors: a cache line mixes producer- and consumer-shard words");
static_assert(FieldsAlignedWithinLines(kHandoffCursorsOwnership),
              "HandoffCursors: a shared field is misaligned or straddles a cache line");

// Registers every checked cell of a table with the ownership race detector,
// at `base` + field offset. No-op unless FLIPC_CHECK_SINGLE_WRITER.
template <std::size_t N>
inline void DeclareOwnersFromTable(void* base, const FieldOwnership (&fields)[N]) {
  if constexpr (waitfree::kBoundaryCheckEnabled) {
    for (std::size_t i = 0; i < N; ++i) {
      if (fields[i].checked_cell) {
        waitfree::DeclareCellOwner(static_cast<std::byte*>(base) + fields[i].offset,
                                   fields[i].writer, fields[i].name);
      }
    }
  } else {
    (void)base;
  }
}

// Shard-qualified variant for structures owned by one shard planner: the
// table's ENGINE-written cells are declared with `engine_shard` so a write
// from a planner bound to a different shard aborts; application-written
// cells stay unqualified (every app thread may write them regardless of
// which shard serves the endpoint).
template <std::size_t N>
inline void DeclareOwnersFromTable(void* base, const FieldOwnership (&fields)[N],
                                   std::uint32_t engine_shard) {
  if constexpr (waitfree::kBoundaryCheckEnabled) {
    for (std::size_t i = 0; i < N; ++i) {
      if (!fields[i].checked_cell) {
        continue;
      }
      auto* cell = static_cast<std::byte*>(base) + fields[i].offset;
      if (fields[i].writer == waitfree::Writer::kEngine) {
        waitfree::DeclareCellOwner(cell, fields[i].writer, engine_shard, fields[i].name);
      } else {
        waitfree::DeclareCellOwner(cell, fields[i].writer, fields[i].name);
      }
    }
  } else {
    (void)base;
    (void)engine_shard;
  }
}

}  // namespace flipc::shm

#endif  // SRC_SHM_OWNERSHIP_LAYOUT_H_
