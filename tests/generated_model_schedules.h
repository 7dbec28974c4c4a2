// Model-check schedule seeds, generated from the wait-free protocol IR.
//
// Generated by: tools/flipc_static_audit --emit-schedules
//           from tools/protocol_ir.json (the certifier's IR export).
// DO NOT EDIT — regenerate via scripts/check.sh (static-audit leg) or:
//   python3 tools/flipc_static_audit/flipc_static_audit.py
//     --policy tools/ownership_policy.json --source-root .
//     --emit-schedules tests/generated_model_schedules.h
//   (one command; wrapped here to keep the line short)
//
// The protocol entry points each seed exercises, with their
// shared-field access sequences as certified by the static audit:
//
//   buffer_queue:
//     [app] BufferQueueView::Release:
//       read QueueCursors.release_count [ReadRelaxed/relaxed]; read QueueCursors.acquire_count [ReadRelaxed/relaxed]; write BufferQueue.cells [StoreRelaxed/relaxed]; write QueueCursors.release_count [Publish/release]
//     [app] BufferQueueView::Acquire:
//       read QueueCursors.acquire_count [ReadRelaxed/relaxed]; read QueueCursors.process_count [Read/acquire]; read BufferQueue.cells [ReadRelaxed/relaxed]; write QueueCursors.acquire_count [Publish/release]
//     [engine] BufferQueueView::PeekProcess:
//       read QueueCursors.process_count [ReadRelaxed/relaxed]; read QueueCursors.release_count [Read/acquire]; read BufferQueue.cells [ReadRelaxed/relaxed]
//     [engine] BufferQueueView::AdvanceProcess:
//       read QueueCursors.process_count [ReadRelaxed/relaxed]; read QueueCursors.release_count [Read/acquire]; read QueueCursors.release_count [Read/acquire]; write QueueCursors.process_count [Publish/release]
//
//   doorbell_ring:
//     [app] DoorbellRingView::Ring:
//       read DoorbellCursors.ring_head [ReadRelaxed/relaxed]; read DoorbellCursors.ring_tail [load/relaxed]; write DoorbellCursors.overflow_rung [Publish/release]; read DoorbellCursors.overflow_rung [ReadRelaxed/relaxed]; write DoorbellCursors.ring_tail [fetch_add/relaxed]; write DoorbellRing.cells [Publish/release]
//     [engine] DoorbellRingView::Pop:
//       read DoorbellCursors.ring_head [ReadRelaxed/relaxed]; read DoorbellRing.cells [Read/acquire]; write DoorbellCursors.ring_head [Publish/release]; write DoorbellCursors.ring_head [Publish/release]
//     [engine] DoorbellRingView::OverflowPending:
//       read DoorbellCursors.overflow_rung [Read/acquire]; read DoorbellCursors.overflow_seen [ReadRelaxed/relaxed]
//     [engine] DoorbellRingView::AckOverflow:
//       write DoorbellCursors.overflow_seen [Publish/release]; read DoorbellCursors.overflow_rung [Read/acquire]
//
//   lap_ring (handoff ring and byte-slot wire ring):
//     [engine producer] SpscLapRing::FreeSlots:
//       read HandoffCursors.handoff_head [Read/acquire]
//     [engine producer] SpscLapRing::ClaimSlot:
//       (no shared-field accesses)
//     [engine producer] SpscLapRing::PublishSlot:
//       write HandoffRing.slot_tags [Publish/release]; write HandoffCursors.handoff_tail [Publish/release]
//     [engine consumer] SpscLapRing::PeekSlot:
//       read HandoffCursors.handoff_head [ReadRelaxed/relaxed]; read HandoffRing.slot_tags [Read/acquire]
//     [engine consumer] SpscLapRing::ReleaseSlot:
//       read HandoffCursors.handoff_head [ReadRelaxed/relaxed]; read HandoffRing.slot_tags [Read/acquire]; write HandoffCursors.handoff_head [Publish/release]
#ifndef TESTS_GENERATED_MODEL_SCHEDULES_H_
#define TESTS_GENERATED_MODEL_SCHEDULES_H_

namespace flipc::generated_schedules {

// Ring capacity shared by the queue, doorbell and lap-ring models.
inline constexpr unsigned kModelCapacity = 4;

// Buffer queue, steady-state: release/acquire mix ('R'/'A') vs engine
// processes.
inline constexpr char kQueueSteadyAppOps[] = "RRARA";
inline constexpr unsigned kQueueSteadyEngineProcessOps = 4;
inline constexpr int kQueueSteadySchedules = 126;

// Buffer queue, full boundary: releases beyond capacity (refusals
// guaranteed), then acquires, vs engine processes.
inline constexpr unsigned kQueueFullReleaseOps = 6;
inline constexpr unsigned kQueueFullAcquireOps = 2;
inline constexpr unsigned kQueueFullEngineProcessOps = 3;
inline constexpr int kQueueFullSchedules = 165;

// Doorbell ring, steady-state: rings one past capacity vs engine pops.
inline constexpr unsigned kDoorbellSteadyRingOps = 5;
inline constexpr unsigned kDoorbellSteadyPopOps = 4;
inline constexpr int kDoorbellSteadySchedules = 126;

// Doorbell overflow acknowledgement: rings well past capacity vs an
// engine pop/ack mix ('P'/'A').
inline constexpr unsigned kDoorbellOverflowRingOps = 7;
inline constexpr char kDoorbellOverflowEngineOps[] = "PAPA";
inline constexpr int kDoorbellOverflowSchedules = 330;

// Handoff ring, second-lap wrap: pushes across two laps vs pops one
// past capacity.
inline constexpr unsigned kHandoffWrapPushOps = 8;
inline constexpr unsigned kHandoffWrapPopOps = 5;
inline constexpr int kHandoffWrapSchedules = 1287;

// Byte-slot ring, refusal and retry: push attempts (a refused attempt
// retries the same frame) vs pops one past capacity.
inline constexpr unsigned kByteRingPushAttempts = 9;
inline constexpr unsigned kByteRingPopOps = 5;
inline constexpr int kByteRingSchedules = 2002;

}  // namespace flipc::generated_schedules

#endif  // TESTS_GENERATED_MODEL_SCHEDULES_H_
