"""Model-check schedule generation from the protocol IR.

tests/model_check_test.cc enumerates every interleaving of bounded
app/engine operation sequences over the three wait-free rings. The
operation mixes used to be hand-written constants; this module derives
them from the PROTOCOL: the auditor's IR export names the entry points of
each structure and their shared-field access sequences, and the generator
turns that into the armed schedule seeds (operation counts scaled from the
model capacity so every interesting boundary — full ring, overflow ack
placement, second-lap wrap — is inside the enumerated space) plus the
expected C(n, k) schedule counts.

The generated header also embeds each entry point's access fingerprint as
comments, and the generator HARD-FAILS when an expected entry point is
missing from the IR — renaming or restructuring a ring op therefore breaks
the protocol-drift ctest with an actionable message instead of silently
model-checking a stale protocol.
"""

from __future__ import annotations

from math import comb

# The model capacity shared by the three ring models. Chosen so full
# enumeration stays in the low thousands of schedules per test while every
# capacity boundary (full refusal, overflow, wrap to the second lap) is
# reachable; the operation-count formulas below scale with it.
MODEL_CAPACITY = 4


class ScheduleGenError(Exception):
    pass


# The protocol entry points each model exercises, by (class, simple name).
# side: which interleaving side of ForAllInterleavings drives the op.
_STRUCTURES = [
    (
        "buffer_queue",
        "BufferQueueView",
        [
            ("Release", "app"),
            ("Acquire", "app"),
            ("PeekProcess", "engine"),
            ("AdvanceProcess", "engine"),
        ],
    ),
    (
        "doorbell_ring",
        "DoorbellRingView",
        [
            ("Ring", "app"),
            ("Pop", "engine"),
            ("OverflowPending", "engine"),
            ("AckOverflow", "engine"),
        ],
    ),
    (
        "lap_ring (handoff ring and byte-slot wire ring)",
        "SpscLapRing",
        [
            ("FreeSlots", "engine producer"),
            ("ClaimSlot", "engine producer"),
            ("PublishSlot", "engine producer"),
            ("PeekSlot", "engine consumer"),
            ("ReleaseSlot", "engine consumer"),
        ],
    ),
]


def _index_functions(ir_doc: dict) -> dict[tuple[str, str], dict]:
    out: dict[tuple[str, str], dict] = {}
    for fn in ir_doc["functions"]:
        simple = fn["function"].rsplit("::", 1)[-1]
        out.setdefault((fn["class"], simple), fn)
    return out


def _fingerprint(fn: dict) -> str:
    parts = []
    for acc in fn["accesses"]:
        target = acc["field"] if acc["field"] else acc["member"]
        parts.append(f"{acc['access']} {target} [{acc['op']}/{acc['order']}]")
    return "; ".join(parts) if parts else "(no shared-field accesses)"


def generate_header(ir_doc: dict) -> str:
    fns = _index_functions(ir_doc)
    missing = []
    for _name, klass, ops in _STRUCTURES:
        for op, _side in ops:
            if (klass, op) not in fns:
                missing.append(f"{klass}::{op}")
    if missing:
        raise ScheduleGenError(
            "protocol IR is missing expected entry point(s): "
            + ", ".join(missing)
            + " — the wait-free protocol changed; update "
            "tools/flipc_static_audit/schedule_gen.py and regenerate"
        )

    c = MODEL_CAPACITY
    # Operation mixes, scaled from the capacity so the enumerated space
    # crosses every protocol boundary:
    #   queue steady:   C-1 releases interleaved with C-2 acquires ("RR" then
    #                   alternating "ARA..."), C engine processes — exercises
    #                   acquire-before-process and empty-queue refusals
    #                   without ever filling the ring.
    #   queue full:     C+2 releases (refusals guaranteed), 2 acquires,
    #                   C-1 processes — the full-boundary path.
    #   doorbell:       C+1 rings vs C pops — schedules where the engine lags
    #                   see a full ring and must take the overflow path.
    #   doorbell ack:   C+3 rings vs pop,ack,pop,ack — every placement of the
    #                   acknowledgement relative to refusals.
    #   handoff wrap:   2C pushes vs C+1 pops — early-pop schedules carry
    #                   positions C..2C-1 into the second lap (stale-tag
    #                   coverage), late-pop schedules hit the full refusal.
    #   byte ring:      2C+1 push attempts vs C+1 pops over the same lap
    #                   protocol with byte slots; a refused attempt retries
    #                   the same frame (the wire sender keeps the message at
    #                   the head of its queue), so late-pop schedules refuse,
    #                   pop with the un-stall signal, then retry into the
    #                   freed slot.
    queue_steady_app = "RR" + "AR" * (c - 3) + "A"
    queue_steady_engine = c
    queue_full_releases = c + 2
    queue_full_acquires = 2
    queue_full_engine = c - 1
    doorbell_rings = c + 1
    doorbell_pops = c
    overflow_rings = c + 3
    overflow_engine = "PA" * 2
    handoff_pushes = 2 * c
    handoff_pops = c + 1
    byte_push_attempts = 2 * c + 1
    byte_pops = c + 1

    def schedules(a: int, b: int) -> int:
        return comb(a + b, b)

    lines: list[str] = []
    w = lines.append
    w("// Model-check schedule seeds, generated from the wait-free protocol IR.")
    w("//")
    w("// Generated by: tools/flipc_static_audit --emit-schedules")
    w("//           from tools/protocol_ir.json (the certifier's IR export).")
    w("// DO NOT EDIT — regenerate via scripts/check.sh (static-audit leg) or:")
    w("//   python3 tools/flipc_static_audit/flipc_static_audit.py")
    w("//     --policy tools/ownership_policy.json --source-root .")
    w("//     --emit-schedules tests/generated_model_schedules.h")
    w("//   (one command; wrapped here to keep the line short)")
    w("//")
    w("// The protocol entry points each seed exercises, with their")
    w("// shared-field access sequences as certified by the static audit:")
    for name, klass, ops in _STRUCTURES:
        w("//")
        w(f"//   {name}:")
        for op, side in ops:
            fn = fns[(klass, op)]
            w(f"//     [{side}] {klass}::{op}:")
            w(f"//       {_fingerprint(fn)}")
    w("#ifndef TESTS_GENERATED_MODEL_SCHEDULES_H_")
    w("#define TESTS_GENERATED_MODEL_SCHEDULES_H_")
    w("")
    w("namespace flipc::generated_schedules {")
    w("")
    w("// Ring capacity shared by the queue, doorbell and lap-ring models.")
    w(f"inline constexpr unsigned kModelCapacity = {c};")
    w("")
    w("// Buffer queue, steady-state: release/acquire mix ('R'/'A') vs engine")
    w("// processes.")
    w(f'inline constexpr char kQueueSteadyAppOps[] = "{queue_steady_app}";')
    w(f"inline constexpr unsigned kQueueSteadyEngineProcessOps = {queue_steady_engine};")
    w(
        f"inline constexpr int kQueueSteadySchedules = "
        f"{schedules(len(queue_steady_app), queue_steady_engine)};"
    )
    w("")
    w("// Buffer queue, full boundary: releases beyond capacity (refusals")
    w("// guaranteed), then acquires, vs engine processes.")
    w(f"inline constexpr unsigned kQueueFullReleaseOps = {queue_full_releases};")
    w(f"inline constexpr unsigned kQueueFullAcquireOps = {queue_full_acquires};")
    w(f"inline constexpr unsigned kQueueFullEngineProcessOps = {queue_full_engine};")
    w(
        f"inline constexpr int kQueueFullSchedules = "
        f"{schedules(queue_full_releases + queue_full_acquires, queue_full_engine)};"
    )
    w("")
    w("// Doorbell ring, steady-state: rings one past capacity vs engine pops.")
    w(f"inline constexpr unsigned kDoorbellSteadyRingOps = {doorbell_rings};")
    w(f"inline constexpr unsigned kDoorbellSteadyPopOps = {doorbell_pops};")
    w(
        f"inline constexpr int kDoorbellSteadySchedules = "
        f"{schedules(doorbell_rings, doorbell_pops)};"
    )
    w("")
    w("// Doorbell overflow acknowledgement: rings well past capacity vs an")
    w("// engine pop/ack mix ('P'/'A').")
    w(f"inline constexpr unsigned kDoorbellOverflowRingOps = {overflow_rings};")
    w(f'inline constexpr char kDoorbellOverflowEngineOps[] = "{overflow_engine}";')
    w(
        f"inline constexpr int kDoorbellOverflowSchedules = "
        f"{schedules(overflow_rings, len(overflow_engine))};"
    )
    w("")
    w("// Handoff ring, second-lap wrap: pushes across two laps vs pops one")
    w("// past capacity.")
    w(f"inline constexpr unsigned kHandoffWrapPushOps = {handoff_pushes};")
    w(f"inline constexpr unsigned kHandoffWrapPopOps = {handoff_pops};")
    w(
        f"inline constexpr int kHandoffWrapSchedules = "
        f"{schedules(handoff_pushes, handoff_pops)};"
    )
    w("")
    w("// Byte-slot ring, refusal and retry: push attempts (a refused attempt")
    w("// retries the same frame) vs pops one past capacity.")
    w(f"inline constexpr unsigned kByteRingPushAttempts = {byte_push_attempts};")
    w(f"inline constexpr unsigned kByteRingPopOps = {byte_pops};")
    w(
        f"inline constexpr int kByteRingSchedules = "
        f"{schedules(byte_push_attempts, byte_pops)};"
    )
    w("")
    w("}  // namespace flipc::generated_schedules")
    w("")
    w("#endif  // TESTS_GENERATED_MODEL_SCHEDULES_H_")
    return "\n".join(lines) + "\n"
