"""Execution traces: everything the soundness oracle needs to replay a run.

The interpreter logs, per function *invocation* (frame), every SSA
assignment — pointer values (as provenance-carrying
:class:`~repro.interp.memory.Pointer` objects) and integer values alike —
timestamped with the global step counter, plus the address and width of
every executed load and store.

Timestamps give each observed value a *hold window*: from its assignment
to the value's next assignment in the same frame (or the frame's end).
The oracle uses windows to ask "did pointers ``a`` and ``b``
simultaneously reference overlapping memory?" — the statement a no-alias
verdict denies — and to pair values with the dynamic instance of the
base / kernel symbol a claim is relative to.

Traces record values per invocation because alias and range claims are
scoped to one activation of the enclosing function: the same SSA name may
legitimately hold unrelated values in two different calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..ir.function import Function
from ..ir.instructions import Instruction, LoadInst, StoreInst
from ..ir.values import Value

__all__ = [
    "AccessEvent",
    "FrameTrace",
    "ExecutionTrace",
    "memory_access_table",
    "access_width",
]

#: Safety valve: events recorded per SSA value per frame before truncation.
MAX_EVENTS_PER_VALUE = 4096

#: Safety valve: block-entry events recorded per frame before truncation.
MAX_BLOCK_EVENTS = 1 << 16

#: Sentinel end step for a window still open when the trace stopped.
OPEN_END = 1 << 62


def memory_access_table(function: Function) -> List[Instruction]:
    """The function's loads and stores in block/instruction order.

    The list index is the access's stable *access index* — the contract
    shared between the interpreter (which stamps it on every
    :class:`AccessEvent`) and the static bounds/parallelization clients
    (which report verdicts per access index).  Both sides must enumerate
    identically, so they both call this.
    """
    return [inst for inst in function.instructions()
            if isinstance(inst, (LoadInst, StoreInst))]


def access_width(inst: Instruction) -> int:
    """Byte width of a load/store, matching the interpreter's semantics."""
    if isinstance(inst, StoreInst):
        return max(1, inst.value.type.size_in_bytes())
    return max(1, inst.type.size_in_bytes())


@dataclass(frozen=True)
class AccessEvent:
    """One executed load or store, with its bounds observation.

    ``in_extent`` is the ground truth the out-of-bounds validator replays:
    whether the accessed byte range ``[offset, offset + width)`` fell
    inside the object's nominal extent.  The interpreter executes
    in-guard-gap accesses either way (provenance pointers make overlap
    questions exact regardless), but it no longer tolerates them
    *silently* — every access carries the flag.
    """

    step: int
    function: str
    opcode: str               # "load" | "store"
    object_uid: int
    object_label: str
    offset: int
    width: int
    #: Index of the frame (in ``ExecutionTrace.frames``) that executed this.
    frame_id: int = -1
    #: Stable index of the load/store in :func:`memory_access_table`.
    access_index: int = -1
    #: ``[offset, offset + width)`` within the object's nominal size.
    in_extent: bool = True


@dataclass
class FrameTrace:
    """Observations from one invocation of one function."""

    function: Function
    frame_id: int
    start_step: int
    end_step: int = -1
    #: Concrete arguments of the invocation (ints / floats / Pointers).
    arguments: Tuple = ()
    #: SSA value -> [(assignment step, concrete value)] in step order.
    events: Dict[Value, List[Tuple[int, object]]] = field(default_factory=dict)
    truncated: bool = False
    #: ``(step, block label)`` per basic-block entry, in execution order.
    #: This is the frame's control path — the loop validator segments it
    #: into loop executions and iterations.
    block_events: List[Tuple[int, str]] = field(default_factory=list)
    block_events_truncated: bool = False

    def record(self, value: Value, step: int, concrete: object) -> None:
        events = self.events.setdefault(value, [])
        if len(events) >= MAX_EVENTS_PER_VALUE:
            self.truncated = True
            return
        events.append((step, concrete))

    def record_block(self, step: int, label: str) -> None:
        if len(self.block_events) >= MAX_BLOCK_EVENTS:
            self.block_events_truncated = True
            return
        self.block_events.append((step, label))

    def observed(self, value: Value) -> List[object]:
        """All concrete values ``value`` held during this invocation."""
        return [concrete for _, concrete in self.events.get(value, [])]

    def distinct_count(self, value: Value) -> int:
        """Number of distinct concrete values ``value`` held (0 = never set)."""
        seen = set()
        for _, concrete in self.events.get(value, []):
            seen.add(concrete if not isinstance(concrete, float) else ("f", concrete))
        return len(seen)

    def windows(self, value: Value) -> List[Tuple[int, int, object]]:
        """``(start, end, concrete)`` hold-intervals of ``value``, half-open.

        The last window closes at the frame's end step; a frame cut short
        by a resource limit leaves it open (:data:`OPEN_END`).
        """
        events = self.events.get(value, [])
        close = self.end_step if self.end_step >= 0 else OPEN_END
        out: List[Tuple[int, int, object]] = []
        for index, (start, concrete) in enumerate(events):
            end = events[index + 1][0] if index + 1 < len(events) else close
            out.append((start, end, concrete))
        return out

    def window_index_at(self, value: Value, step: int) -> int:
        """Index of the instance of ``value`` current at ``step`` (-1: none).

        Used to pair claim operands with the dynamic instance of an anchor
        value: two events belong to the same anchor instance when this
        index agrees.
        """
        events = self.events.get(value, [])
        current = -1
        for index, (start, _) in enumerate(events):
            if start <= step:
                current = index
            else:
                break
        return current


@dataclass
class ExecutionTrace:
    """The full observable behaviour of one interpreted program run."""

    module_name: str
    frames: List[FrameTrace] = field(default_factory=list)
    accesses: List[AccessEvent] = field(default_factory=list)
    steps: int = 0
    completed: bool = False
    #: Why the run stopped early (step budget, runtime error), if it did.
    stop_reason: Optional[str] = None

    def frames_of(self, function: Function) -> Iterator[FrameTrace]:
        for frame in self.frames:
            if frame.function is function:
                yield frame

    def record_access(self, event: AccessEvent) -> None:
        if len(self.accesses) < (1 << 20):
            self.accesses.append(event)
