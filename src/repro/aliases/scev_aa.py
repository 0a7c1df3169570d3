"""Scalar-evolution-based alias analysis (the ``scev`` baseline of Figure 13).

LLVM's ``scev-aa`` disambiguates two pointers when their scalar evolutions
differ by a non-zero compile-time constant at every point of the iteration
space: if ``p = {B + o1, +, s}`` and ``q = {B + o2, +, s}`` over the same
loop, then at any given iteration the distance ``p - q`` is the constant
``o1 - o2``; when that distance is at least the access size, the accesses
never overlap *at the same moment*.

Like the LLVM pass, this analysis is only effective for pointers indexed by
affine induction variables of the same loop — exactly the limitation the
paper points out when motivating the range-based approach.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..ir.function import Function
from ..ir.instructions import Instruction
from ..ir.module import Module
from ..ir.values import Value
from ..rangeanalysis.scev import AddRecurrence, ScalarEvolution
from .base import AliasAnalysis
from .results import AliasResult, MemoryAccess

__all__ = ["SCEVAliasAnalysis"]


class SCEVAliasAnalysis(AliasAnalysis):
    """Constant-distance disambiguation over add recurrences."""

    name = "scev"

    def __init__(self, module: Module):
        super().__init__(module)
        self._engines: Dict[Function, ScalarEvolution] = {}
        #: pointer value -> its add recurrence (or None); saves the
        #: engine-resolution walk on the quadratic pair enumeration, which
        #: asks about every pointer O(pointers) times.
        self._evolutions: Dict[Value, Optional[AddRecurrence]] = {}

    def refresh_function(self, old_function, new_function, edit) -> None:
        """Function-granular incremental refresh (manager edit hook):
        scalar-evolution engines are built lazily per function, so the edit
        only needs to retire the old body's engine (and the per-pointer and
        pair memos, whose keys are pointer identities)."""
        self._engines.pop(old_function, None)
        self._evolutions.clear()
        self.pair_memo.clear()

    def _engine_for(self, value: Value) -> Optional[ScalarEvolution]:
        function: Optional[Function] = None
        if isinstance(value, Instruction):
            function = value.function
        elif getattr(value, "parent", None) is not None and isinstance(value.parent, Function):
            function = value.parent
        if function is None or function.is_declaration():
            return None
        engine = self._engines.get(function)
        if engine is None:
            engine = ScalarEvolution(function)
            self._engines[function] = engine
        return engine

    def evolution_of(self, pointer: Value) -> Optional[AddRecurrence]:
        """The add recurrence of a pointer value, if the engine can see one
        (memoized per pointer across queries)."""
        if pointer in self._evolutions:
            return self._evolutions[pointer]
        engine = self._engine_for(pointer)
        recurrence = None if engine is None else engine.evolution_of(pointer)
        self._evolutions[pointer] = recurrence
        return recurrence

    def alias(self, a: MemoryAccess, b: MemoryAccess) -> AliasResult:
        if a.pointer is b.pointer:
            return AliasResult.MUST_ALIAS
        return self.remembered(a, b, self._alias_uncached)

    def _alias_uncached(self, a: MemoryAccess, b: MemoryAccess) -> AliasResult:
        recurrence_a = self.evolution_of(a.pointer)
        recurrence_b = self.evolution_of(b.pointer)
        if recurrence_a is None or recurrence_b is None:
            return AliasResult.MAY_ALIAS
        distance = recurrence_a.constant_distance_from(recurrence_b)
        if distance is None:
            return AliasResult.MAY_ALIAS
        if distance == 0:
            return AliasResult.MUST_ALIAS
        size_a = a.size
        size_b = b.size
        # ``a`` is ``distance`` bytes above ``b`` (or below when negative);
        # the accesses are disjoint when the gap covers the access size.  An
        # unknown size (None) may span any gap, so nothing is provable.
        if size_a is None or size_b is None:
            return AliasResult.MAY_ALIAS
        if distance > 0 and distance >= size_b:
            return AliasResult.NO_ALIAS
        if distance < 0 and -distance >= size_a:
            return AliasResult.NO_ALIAS
        return AliasResult.PARTIAL_ALIAS
