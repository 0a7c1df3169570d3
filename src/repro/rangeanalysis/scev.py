"""Scalar evolution: closed forms for loop induction variables.

LLVM's ``scev-aa`` (one of the two baselines in Figure 13) disambiguates
pointers whose addresses have closed forms ``Base + iter × Step`` within a
loop.  This module computes exactly those *add recurrences* for φ-functions
at loop headers and for values derived from them by constant-step arithmetic
(integer adds/subs and pointer arithmetic).

A value's evolution is either:

* :class:`AddRecurrence` — ``{base, +, step}`` w.r.t. an enclosing loop,
  where ``base`` is an IR value (loop-invariant) plus a constant byte/int
  offset and ``step`` is a constant per-iteration increment; or
* ``None`` — the value has no affine closed form this simple engine can see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..analysis.loops import Loop
from ..ir.function import Function
from ..ir.instructions import BinaryInst, CastInst, Instruction, PhiInst, PtrAddInst, SigmaInst
from ..ir.module import Module
from ..ir.values import Argument, ConstantInt, Value

__all__ = ["AddRecurrence", "ScalarEvolution"]

#: Sentinel distinguishing "never computed" from a cached ``None`` (not
#: affine) without probing the cache dictionary twice per hit.
_UNCOMPUTED = object()


@dataclass(frozen=True)
class AddRecurrence:
    """An affine evolution ``base + offset + iteration * step`` inside ``loop``."""

    loop: Loop
    base: Value
    offset: int
    step: int

    def with_offset(self, delta: int) -> "AddRecurrence":
        return AddRecurrence(self.loop, self.base, self.offset + delta, self.step)

    def constant_distance_from(self, other: "AddRecurrence") -> Optional[int]:
        """Distance ``self - other`` when it is a compile-time constant.

        The distance is constant when both recurrences advance in lock-step
        over the same loop from the same base value.
        """
        if self.loop is not other.loop or self.base is not other.base:
            return None
        if self.step != other.step:
            return None
        return self.offset - other.offset

    def __repr__(self) -> str:
        base_name = getattr(self.base, "name", "?") or "?"
        return f"{{{base_name}+{self.offset}, +, {self.step}}}"


class ScalarEvolution:
    """Per-function add-recurrence computation."""

    def __init__(self, function: Function):
        self.function = function
        self._cache: Dict[Value, Optional[AddRecurrence]] = {}

    @classmethod
    def for_module(cls, module: Module) -> Dict[Function, "ScalarEvolution"]:
        """Build a :class:`ScalarEvolution` for every defined function."""
        return {function: cls(function) for function in module.defined_functions()}

    # -- public API -------------------------------------------------------------
    def evolution_of(self, value: Value) -> Optional[AddRecurrence]:
        """The add recurrence of ``value`` or ``None`` when not affine."""
        cached = self._cache.get(value, _UNCOMPUTED)
        if cached is not _UNCOMPUTED:
            return cached
        # Seed with None to cut cycles through φs while we recurse.
        self._cache[value] = None
        result = self._compute(value)
        self._cache[value] = result
        return result

    # -- helpers -------------------------------------------------------------------
    def _loop_invariant(self, value: Value, loop: Loop) -> bool:
        """A value is invariant in ``loop`` when it is not defined inside it."""
        if isinstance(value, (ConstantInt, Argument)):
            return True
        if isinstance(value, Instruction):
            return value.parent is None or value.parent not in loop.blocks
        return True

    def _compute(self, value: Value) -> Optional[AddRecurrence]:
        if isinstance(value, SigmaInst):
            return self.evolution_of(value.source)
        if isinstance(value, CastInst) and value.kind in ("sext", "zext", "trunc", "bitcast"):
            return self.evolution_of(value.value)
        if isinstance(value, PhiInst):
            return self._compute_phi(value)
        if isinstance(value, BinaryInst) and value.opcode in ("add", "sub"):
            return self._compute_int_step(value)
        if isinstance(value, PtrAddInst):
            return self._compute_ptradd(value)
        return None

    def _compute_phi(self, phi: PhiInst) -> Optional[AddRecurrence]:
        if phi.parent is None:
            return None
        loop = self.function.cfg().loops.loop_for_block(phi.parent)
        if loop is None or loop.header is not phi.parent:
            return None
        incoming = phi.incoming()
        if len(incoming) != 2:
            return None
        start_value: Optional[Value] = None
        latch_value: Optional[Value] = None
        for value, block in incoming:
            if block in loop.blocks:
                latch_value = value
            else:
                start_value = value
        if start_value is None or latch_value is None:
            return None
        step = self._constant_step(latch_value, phi, loop)
        if step is None:
            return None
        return AddRecurrence(loop, start_value, 0, step)

    def _constant_step(self, value: Value, phi: PhiInst, loop: Loop) -> Optional[int]:
        """Total constant increment along the chain from ``phi`` back to ``value``."""
        total = 0
        current = value
        for _ in range(64):  # defensive bound on chain length
            if current is phi:
                return total
            if isinstance(current, SigmaInst):
                current = current.source
                continue
            if isinstance(current, CastInst) \
                    and current.kind in ("sext", "zext", "trunc", "bitcast"):
                current = current.value
                continue
            if isinstance(current, BinaryInst) and current.opcode in ("add", "sub"):
                if isinstance(current.rhs, ConstantInt):
                    delta = current.rhs.value
                    total += delta if current.opcode == "add" else -delta
                    current = current.lhs
                    continue
                if current.opcode == "add" and isinstance(current.lhs, ConstantInt):
                    total += current.lhs.value
                    current = current.rhs
                    continue
                return None
            if isinstance(current, PtrAddInst):
                constant = current.constant_byte_offset()
                if constant is None:
                    return None
                total += constant
                current = current.base
                continue
            return None
        return None

    def _compute_int_step(self, inst: BinaryInst) -> Optional[AddRecurrence]:
        if isinstance(inst.rhs, ConstantInt):
            inner = self.evolution_of(inst.lhs)
            if inner is None:
                return None
            delta = inst.rhs.value if inst.opcode == "add" else -inst.rhs.value
            return inner.with_offset(delta)
        if inst.opcode == "add" and isinstance(inst.lhs, ConstantInt):
            inner = self.evolution_of(inst.rhs)
            if inner is None:
                return None
            return inner.with_offset(inst.lhs.value)
        return None

    def _compute_ptradd(self, inst: PtrAddInst) -> Optional[AddRecurrence]:
        constant = inst.constant_byte_offset()
        if constant is not None:
            inner = self.evolution_of(inst.base)
            if inner is not None:
                return inner.with_offset(constant)
            # A pointer stepping by a constant from a loop-invariant base is
            # itself a (degenerate, step-0) recurrence only inside a loop —
            # without a loop there is nothing to say.
            return None
        # Varying index: base must be loop-invariant and the index an affine
        # recurrence; the result advances by index.step * scale.
        index = inst.index
        assert index is not None
        index_rec = self.evolution_of(index)
        if index_rec is None:
            return None
        if not self._loop_invariant(inst.base, index_rec.loop):
            return None
        if not isinstance(index_rec.base, ConstantInt):
            # A symbolic loop start cannot be folded into the pointer base;
            # treating it as zero would let unrelated induction variables
            # compare as constant distances, which would be unsound.
            return None
        start_offset = index_rec.base.value * inst.scale
        return AddRecurrence(
            index_rec.loop,
            inst.base,
            start_offset + index_rec.offset * inst.scale + inst.offset,
            index_rec.step * inst.scale,
        )
