"""Differential validation of the client analyses against executions.

Both client verdicts are universally quantified claims, so both are
falsifiable against the interpreter's trace:

* a ``safe`` bounds verdict says *no* execution of that load/store leaves
  its object's extent — one observed out-of-extent access refutes it
  (``definitely-oob`` is refuted symmetrically by one in-extent access);
* a ``parallel`` loop verdict says *no* two different iterations of one
  loop execution touch overlapping bytes with a write involved — the
  validator segments each frame's block trace into loop executions and
  iterations and sweeps the access events for exactly such a pair.

Every violation carries a replayable ``(program, seed, access)`` triple.
The sweep is byte-granular: per ``(execution, object, byte)`` it tracks
the min/max iteration touching the byte plus a store flag — a conflict
exists iff a store touched the byte and more than one iteration did.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..interp.trace import ExecutionTrace, memory_access_table
from ..ir.module import Module

__all__ = ["ClientViolation", "validate_bounds", "validate_loops"]

from .bounds import DEFINITELY_OOB, SAFE

#: Per claimed loop and frame, cap on (event × width) bytes swept before
#: the frame is skipped (and counted as skipped, never silently dropped).
MAX_SWEEP_BYTES = 1 << 20


@dataclass
class ClientViolation:
    """One falsified client verdict, with everything needed to replay it."""

    kind: str                 # "oob" | "parallel"
    program: str
    function: str
    query: str
    detail: str
    replay: Dict[str, Any] = field(default_factory=dict)


def _verdict_index(report: Dict) -> Dict[Tuple[str, int], str]:
    verdicts: Dict[Tuple[str, int], str] = {}
    for function_report in report["functions"]:
        name = function_report["function"]
        for access in function_report["accesses"]:
            verdicts[(name, access["index"])] = access["classification"]
    return verdicts


def validate_bounds(program_name: str, trace: ExecutionTrace, report: Dict,
                    replay: Dict[str, Any]) -> Tuple[int, List[ClientViolation]]:
    """Replay observed accesses against the detector's verdicts.

    Returns ``(events_checked, violations)``.  At most one violation is
    emitted per (function, access, direction) — one refutation is enough.
    """
    verdicts = _verdict_index(report)
    violations: List[ClientViolation] = []
    reported: set = set()
    checked = 0
    for event in trace.accesses:
        key = (event.function, event.access_index)
        classification = verdicts.get(key)
        if classification is None:
            continue
        checked += 1
        broken = None
        if not event.in_extent and classification == SAFE:
            broken = ("observed out-of-extent access classified safe", "safe")
        elif event.in_extent and classification == DEFINITELY_OOB:
            broken = ("observed in-extent access classified definitely-oob",
                      "definitely-oob")
        if broken is None or (key, broken[1]) in reported:
            continue
        reported.add((key, broken[1]))
        violations.append(ClientViolation(
            kind="oob",
            program=program_name,
            function=event.function,
            query=f"access#{event.access_index}",
            detail=(f"{broken[0]}: {event.opcode} of {event.width} byte(s) at "
                    f"offset {event.offset} of object {event.object_label!r} "
                    f"(step {event.step})"),
            replay={**replay, "access": {
                "function": event.function,
                "access_index": event.access_index,
                "step": event.step,
                "offset": event.offset,
                "width": event.width,
                "object": event.object_label,
            }},
        ))
    return checked, violations


def validate_loops(program_name: str, module: Module, trace: ExecutionTrace,
                   report: Dict, replay: Dict[str, Any]
                   ) -> Tuple[int, int, int, List[ClientViolation]]:
    """Replay iteration-segmented accesses against ``parallel`` verdicts.

    Returns ``(loop_frames_checked, loop_frames_skipped, stale_claims,
    violations)``.  ``stale_claims`` counts claimed loop headers missing
    from the module's loop forest — a report/module mismatch detected
    once per claim, independent of how many frames the function ran.
    """
    events_by_frame: Dict[int, List] = {}
    for event in trace.accesses:
        if event.access_index >= 0:
            events_by_frame.setdefault(event.frame_id, []).append(event)

    checked = skipped = stale_claims = 0
    violations: List[ClientViolation] = []
    for function_report in report["functions"]:
        claimed = [loop for loop in function_report["loops"]
                   if loop["parallel"]]
        if not claimed:
            continue
        function = module.get_function(function_report["function"])
        if function is None or function.is_declaration():
            continue
        loops_by_header = {loop.header.label(): loop for loop in function.cfg().loops}
        stale_claims += sum(1 for claim in claimed
                            if claim["header"] not in loops_by_header)
        claimed = [claim for claim in claimed
                   if claim["header"] in loops_by_header]
        if not claimed:
            continue
        table = memory_access_table(function)
        for frame in trace.frames_of(function):
            if frame.block_events_truncated:
                skipped += 1
                continue
            events = events_by_frame.get(frame.frame_id, [])
            for claim in claimed:
                loop = loops_by_header[claim["header"]]
                members = {block.label() for block in loop.blocks}
                loop_indices = {
                    index for index, inst in enumerate(table)
                    if inst.parent is not None and inst.parent in loop.blocks}
                loop_events = [event for event in events
                               if event.access_index in loop_indices]
                if not loop_events:
                    checked += 1
                    continue
                if sum(e.width for e in loop_events) > MAX_SWEEP_BYTES:
                    skipped += 1
                    continue
                violation = _sweep_loop_frame(
                    claim["header"], members, frame, loop_events)
                checked += 1
                if violation is not None:
                    overlap_detail, access_detail = violation
                    violations.append(ClientViolation(
                        kind="parallel",
                        program=program_name,
                        function=function.name,
                        query=f"loop@{claim['header']}",
                        detail=("loop reported parallelizable but iterations "
                                f"overlap: {overlap_detail}"),
                        replay={**replay, "access": access_detail},
                    ))
    return checked, skipped, stale_claims, violations


def _sweep_loop_frame(header: str, members: set, frame, loop_events
                      ) -> Optional[Tuple[str, Dict[str, Any]]]:
    """Find one cross-iteration overlapping pair (≥1 store) in one frame.

    Segments the frame's block trace: entering the header from outside the
    loop starts a new *execution* (iterations of different executions are
    never compared — parallelizing the loop keeps executions ordered);
    entering it from a loop block starts the next *iteration*.
    """
    boundary_steps: List[int] = []
    boundary_marks: List[Tuple[int, int]] = []  # (execution, iteration)
    execution = -1
    iteration = 0
    previous: Optional[str] = None
    for step, label in frame.block_events:
        if label == header:
            if previous is not None and previous in members:
                iteration += 1
            else:
                execution += 1
                iteration = 0
            boundary_steps.append(step)
            boundary_marks.append((execution, iteration))
        previous = label

    # (object uid, byte) -> [min iteration, max iteration, stored, event]
    per_execution: Dict[int, Dict[Tuple[int, int], List]] = {}
    for event in loop_events:
        slot = bisect_left(boundary_steps, event.step) - 1
        if slot < 0:
            continue  # pre-header access attributed to no iteration
        execution, iteration = boundary_marks[slot]
        bytes_seen = per_execution.setdefault(execution, {})
        for byte in range(event.offset, event.offset + event.width):
            cell = bytes_seen.get((event.object_uid, byte))
            if cell is None:
                bytes_seen[(event.object_uid, byte)] = \
                    [iteration, iteration, event.opcode == "store", event]
                continue
            cell[0] = min(cell[0], iteration)
            cell[1] = max(cell[1], iteration)
            cell[2] = cell[2] or event.opcode == "store"
            if cell[2] and cell[0] != cell[1]:
                first = cell[3]
                return (
                    f"object {event.object_label!r} byte {byte} touched in "
                    f"iterations {cell[0]} and {cell[1]} of execution "
                    f"{execution} (store involved)",
                    {
                        "frame_id": frame.frame_id,
                        "header": header,
                        "object": event.object_label,
                        "byte": byte,
                        "iterations": [cell[0], cell[1]],
                        "steps": [first.step, event.step],
                        "access_indices": [first.access_index,
                                           event.access_index],
                    },
                )
    return None
