"""The local range analysis of pointers (``LR``, Section 3.6).

The global analysis is not path-sensitive, so it cannot separate ``p[i]``
from ``p[i + 1]`` inside a loop even though the two addresses never coincide
*at the same moment*.  The local analysis fixes this by giving pointers new
base locations at the program points where their runtime value becomes a
single unknown-but-fixed quantity: φ-functions, loads, ``malloc``s — the
``NewLocs()`` of Figure 11 — and, equivalently to the renaming of Figure 4,
one shared base per ``(base pointer, varying index, scale)`` triple of
pointer arithmetic.

Because every abstract value is ``location + interval`` with a *single*
location, the analysis converges in one sweep (the lattice is finite; no
widening is needed), exactly as described in the paper.  The sweep is
scheduled by the shared sparse solver in dominance preorder; fresh base
locations are memoized per instruction so the transfer function is
idempotent under re-evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..analysis.callgraph import RETURNS_FIRST_ARGUMENT
from ..engine.solver import SparseProblem, SparseSolver
from ..ir.instructions import (
    AllocaInst,
    CallInst,
    CastInst,
    FreeInst,
    Instruction,
    LoadInst,
    MallocInst,
    PhiInst,
    PtrAddInst,
    SelectInst,
    SigmaInst,
)
from ..ir.module import Module
from ..ir.values import Argument, GlobalVariable, NullPointer, UndefValue, Value
from ..rangeanalysis.symbolic_ra import SymbolicRangeAnalysis
from ..symbolic import SymbolicInterval
from .locations import LocationKind, LocationTable, MemoryLocation

__all__ = ["LocalAbstractValue", "LocalRangeAnalysis"]


@dataclass(frozen=True)
class LocalAbstractValue:
    """``LR(p) = loc + [l, u]`` — one base location plus a symbolic interval."""

    location: MemoryLocation
    interval: SymbolicInterval

    def shifted(self, delta: SymbolicInterval) -> "LocalAbstractValue":
        return LocalAbstractValue(self.location, self.interval.add(delta))

    def __repr__(self) -> str:
        return f"{self.location!r} + {self.interval!r}"


class _LocalRangeProblem(SparseProblem):
    """Adapter presenting the LR analysis to the sparse solver.

    Only the transfer functions that forward an operand's state (σ, bitcast,
    ``strcpy``-style calls, pointer arithmetic) declare dependencies; the
    location-defining instructions of Figure 11 (φ, loads, allocations) are
    sources.  The dependence graph is therefore acyclic — every SSA cycle
    passes through a φ — and one topological sweep reaches the fixed point.
    """

    name = "local-ranges"

    def __init__(self, analysis: "LocalRangeAnalysis", nodes: List[Instruction]):
        self._analysis = analysis
        self._nodes = nodes

    def nodes(self) -> List[Instruction]:
        return self._nodes

    def dependencies(self, inst: Instruction):
        if isinstance(inst, SigmaInst):
            return (inst.source,)
        if isinstance(inst, CastInst) and inst.kind == "bitcast":
            return (inst.value,)
        if isinstance(inst, CallInst):
            if inst.callee_name() in RETURNS_FIRST_ARGUMENT and inst.args:
                return (inst.args[0],)
            return ()
        if isinstance(inst, PtrAddInst):
            return (inst.base,)
        return ()

    def transfer(self, inst: Instruction) -> LocalAbstractValue:
        return self._analysis._evaluate(inst)

    def read(self, inst: Instruction) -> Optional[LocalAbstractValue]:
        return self._analysis._lr.get(inst)

    def write(self, inst: Instruction, value: LocalAbstractValue) -> None:
        self._analysis._lr[inst] = value


class LocalRangeAnalysis:
    """Whole-module LR analysis (one dominance-order sweep)."""

    def __init__(self, module: Module,
                 ranges: Optional[SymbolicRangeAnalysis] = None,
                 locations: Optional[LocationTable] = None):
        self.module = module
        self.ranges = ranges if ranges is not None else SymbolicRangeAnalysis(module)
        self.locations = locations if locations is not None else LocationTable(module)
        self._lr: Dict[Value, LocalAbstractValue] = {}
        # Shared fresh bases for pointer arithmetic with a varying index
        # (the renaming of Figure 4): keyed by (base, index, scale).
        self._arithmetic_bases: Dict[Tuple[Value, Value, int], MemoryLocation] = {}
        # Fresh states memoized per instruction so re-evaluation by the
        # solver is idempotent (NewLocs() must mint one location per site).
        self._fresh_by_site: Dict[Value, LocalAbstractValue] = {}
        self._location_anchor_cache: Optional[Dict[int, FrozenSet[Value]]] = None
        self.solver_statistics = None
        self._run()

    # -- public API -----------------------------------------------------------
    def value_of(self, value: Value) -> Optional[LocalAbstractValue]:
        """``LR(value)``, or ``None`` for values the analysis has no state for."""
        cached = self._lr.get(value)
        if cached is not None:
            return cached
        if isinstance(value, GlobalVariable):
            return self._remember(value, self._fresh(f"@{value.name}"))
        if isinstance(value, Argument) and value.type.is_pointer():
            owner = value.parent.name if value.parent is not None else "?"
            return self._remember(value, self._fresh(f"{owner}.{value.name}"))
        return None

    def location_anchors(self) -> Dict[int, FrozenSet[Value]]:
        """Location index → IR values a synthetic base is *relative to*.

        A synthetic location minted by ``NewLocs()`` stands for "wherever
        its defining site pointed when it executed": the φ/load/select/call
        instruction for fresh bases, the root ``(base, index)`` values for
        shared pointer-arithmetic bases, the argument/global for seeded
        bases.  The soundness oracle uses these anchors to restrict a
        local-test claim to executions of a single dynamic instance of the
        base (query extraction hook; see ``NoAliasClaim``).

        The analysis is immutable once built, so the map is computed once
        and memoized.
        """
        if self._location_anchor_cache is not None:
            return self._location_anchor_cache
        anchors: Dict[int, Set[Value]] = {}
        for site, state in self._fresh_by_site.items():
            anchors.setdefault(state.location.index, set()).add(site)
        for (base, index, _scale), location in self._arithmetic_bases.items():
            bucket = anchors.setdefault(location.index, set())
            bucket.add(base)
            if isinstance(index, Value):
                bucket.add(index)
        for value, state in self._lr.items():
            if isinstance(value, (Argument, GlobalVariable)):
                anchors.setdefault(state.location.index, set()).add(value)
        frozen = {index: frozenset(values) for index, values in anchors.items()}
        self._location_anchor_cache = frozen
        return frozen

    def refresh_function(self, old_function, new_function, edit) -> None:
        """Function-granular incremental re-run (manager edit hook).

        LR is strictly per-function (bases never cross function boundaries),
        so an edit purges the old body's state — per-value LR entries, fresh
        bases minted at its sites, shared arithmetic bases rooted in its
        values — drops the purged fresh bases from the location table, and
        re-solves only the new body in dominance preorder.  Solver
        statistics accumulate across refreshes.
        """
        stale = set(old_function.args)
        stale.update(old_function.instructions())
        retired = [self._lr.pop(value).location
                   for value in [value for value in self._lr if value in stale]]
        retired += [self._fresh_by_site.pop(site).location
                    for site in [site for site in self._fresh_by_site
                                 if site in stale]]
        retired += [self._arithmetic_bases.pop(key)
                    for key in [key for key in self._arithmetic_bases
                                if key[0] in stale or key[1] in stale]]
        self.locations.discard(location for location in retired
                               if location.kind is LocationKind.SYNTHETIC)
        self._location_anchor_cache = None
        nodes: List[Instruction] = []
        for block in new_function.cfg().dom_tree.preorder():
            nodes.extend(inst for inst in block.instructions
                         if inst.type.is_pointer())
        solver = SparseSolver(_LocalRangeProblem(self, nodes))
        self.solver_statistics.accumulate(solver.solve())

    # -- helpers -------------------------------------------------------------------
    def _fresh(self, hint: str) -> LocalAbstractValue:
        location = self.locations.new_synthetic_location(hint)
        return LocalAbstractValue(location, SymbolicInterval.point(0))

    def _remember(self, value: Value, abstract: LocalAbstractValue) -> LocalAbstractValue:
        self._lr[value] = abstract
        return abstract

    def _scalar_range(self, value: Value) -> SymbolicInterval:
        return self.ranges.range_of(value)

    def _fresh_for(self, site: Value, hint: str) -> LocalAbstractValue:
        """The (memoized) fresh base state of a location-defining site."""
        state = self._fresh_by_site.get(site)
        if state is None:
            state = self._fresh(hint)
            self._fresh_by_site[site] = state
        return state

    # -- driver --------------------------------------------------------------------
    def _run(self) -> None:
        nodes: List[Instruction] = []
        for function in self.module.defined_functions():
            for block in function.cfg().dom_tree.preorder():
                for inst in block.instructions:
                    if inst.type.is_pointer():
                        nodes.append(inst)
        solver = SparseSolver(_LocalRangeProblem(self, nodes))
        self.solver_statistics = solver.solve()

    # -- transfer functions (Figure 11) ------------------------------------------------
    def _operand(self, value: Value) -> Optional[LocalAbstractValue]:
        result = self.value_of(value)
        if result is not None:
            return result
        if isinstance(value, (NullPointer, UndefValue)):
            return None
        if isinstance(value, Instruction) and value.type.is_pointer():
            # Use before dominance-order definition (only possible through
            # irreducible flow): treat as an unknown fresh base.
            return self._remember(value, self._fresh(f"{value.name or 'ptr'}.fwd"))
        return None

    def _evaluate(self, inst: Instruction) -> LocalAbstractValue:
        function_name = inst.function.name if inst.function is not None else "?"
        label = f"{function_name}.{inst.name or inst.opcode}"
        if isinstance(inst, (MallocInst, AllocaInst)):
            return self._fresh_for(inst, label)
        if isinstance(inst, (PhiInst, LoadInst)):
            # Figure 11: φs and loads define new locations.
            return self._fresh_for(inst, label)
        if isinstance(inst, FreeInst):
            return self._fresh_for(inst, label)
        if isinstance(inst, SigmaInst):
            source = self._operand(inst.source)
            return source if source is not None else self._fresh_for(inst, label)
        if isinstance(inst, CastInst):
            if inst.kind == "bitcast":
                source = self._operand(inst.value)
                if source is not None:
                    return source
            return self._fresh_for(inst, label)
        if isinstance(inst, SelectInst):
            # A select is a value chosen at runtime; it acts as its own base.
            return self._fresh_for(inst, label)
        if isinstance(inst, CallInst):
            if inst.callee_name() in RETURNS_FIRST_ARGUMENT and inst.args:
                source = self._operand(inst.args[0])
                if source is not None:
                    return source
            return self._fresh_for(inst, label)
        if isinstance(inst, PtrAddInst):
            return self._evaluate_ptradd(inst, label)
        return self._fresh_for(inst, label)

    @staticmethod
    def _decompose_index(index: Value) -> Tuple[Value, int]:
        """Split an index into ``(root value, constant addend)``.

        ``p[i]`` and ``p[i + 1]`` lower to pointer arithmetic over the SSA
        values ``i`` and ``i + 1``; peeling constant additions off the index
        lets both share the root ``i`` — the renaming of Figure 4.
        """
        from ..ir.instructions import BinaryInst, CastInst
        from ..ir.values import ConstantInt

        addend = 0
        current = index
        for _ in range(16):
            if isinstance(current, CastInst) and current.kind in ("sext", "zext", "trunc"):
                current = current.value
                continue
            if isinstance(current, SigmaInst):
                current = current.source
                continue
            if isinstance(current, BinaryInst) and current.opcode in ("add", "sub"):
                if isinstance(current.rhs, ConstantInt):
                    delta = current.rhs.value
                    addend += delta if current.opcode == "add" else -delta
                    current = current.lhs
                    continue
                if current.opcode == "add" and isinstance(current.lhs, ConstantInt):
                    addend += current.lhs.value
                    current = current.rhs
                    continue
            break
        return current, addend

    def _evaluate_ptradd(self, inst: PtrAddInst, label: str) -> LocalAbstractValue:
        base = self._operand(inst.base)
        constant_offset = inst.constant_byte_offset()
        if base is not None and constant_offset is not None:
            return base.shifted(SymbolicInterval.point(constant_offset))
        if base is not None and inst.index is not None:
            index_range = self._scalar_range(inst.index)
            if index_range.is_constant() and index_range.lower is index_range.upper:
                delta = index_range.scale(inst.scale).shift(inst.offset)
                return base.shifted(delta)
            # Varying index: all computations sharing (base, root index, scale)
            # spring from the same runtime address, so they share one fresh
            # base location and differ only by their constant offsets — this
            # is the pointer renaming of Section 2 / Figure 4.
            root_index, addend = self._decompose_index(inst.index)
            key = (inst.base, root_index, inst.scale)
            location = self._arithmetic_bases.get(key)
            if location is None:
                location = self.locations.new_synthetic_location(f"{label}.base")
                self._arithmetic_bases[key] = location
            byte_offset = inst.offset + addend * inst.scale
            return LocalAbstractValue(location, SymbolicInterval.point(byte_offset))
        return self._fresh_for(inst, label)
