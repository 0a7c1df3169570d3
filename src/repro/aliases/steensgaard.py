"""Steensgaard-style unification-based points-to analysis.

The almost-linear-time cousin of Andersen's analysis: instead of subset
constraints, every assignment *unifies* the equivalence classes of the two
sides (union-find).  The result is coarser — all pointers that ever flow
together share one points-to class — but each constraint is applied exactly
once.  The constraint schedule runs on the shared sparse engine
(:mod:`repro.engine.solver`) as a degenerate problem with no dependence
edges: one topological sweep applies every unification, and the engine's
step counters make the baseline comparable with the iterative analyses in
the scalability reports.  It is included as a classic baseline for the
ablation benchmarks and as the substrate the paper suggests could be
"augmented to map pointers to sets of locations plus ranges".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..analysis.callgraph import CallSite
from ..engine import keys
from ..engine.manager import AnalysisManager
from ..engine.solver import SolverStatistics, SparseProblem, SparseSolver
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
    StoreInst,
)
from ..ir.module import Module
from ..ir.values import NullPointer, Value
from .base import AliasAnalysis
from .results import AliasResult, MemoryAccess

__all__ = ["SteensgaardAliasAnalysis"]


class _UnionFind:
    """Union-find over arbitrary hashable keys with path compression."""

    def __init__(self):
        self._parent: Dict[object, object] = {}
        self._rank: Dict[object, int] = {}

    def find(self, item: object) -> object:
        self._parent.setdefault(item, item)
        self._rank.setdefault(item, 0)
        root = item
        while self._parent[root] is not root:
            root = self._parent[root]
        # Path compression.
        while self._parent[item] is not root:
            item, self._parent[item] = self._parent[item], root
        return root

    def union(self, a: object, b: object) -> object:
        root_a, root_b = self.find(a), self.find(b)
        if root_a is root_b:
            return root_a
        if self._rank[root_a] < self._rank[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        if self._rank[root_a] == self._rank[root_b]:
            self._rank[root_a] += 1
        return root_a


class _UnificationProblem(SparseProblem):
    """Steensgaard's one-pass constraint schedule on the shared engine.

    Unification has no dependence structure — every constraint is applied
    exactly once and the union-find carries the transitivity — so the
    problem declares no edges and the engine's initial sweep is the whole
    solve.  Sharing the engine still buys uniform step accounting.
    """

    name = "steensgaard"

    def __init__(self, analysis: "SteensgaardAliasAnalysis",
                 constraints: List[Tuple[str, object]]):
        self._analysis = analysis
        self._constraints = constraints
        self._applied: Set[Tuple[str, object]] = set()

    def nodes(self) -> List[Tuple[str, object]]:
        return self._constraints

    def transfer(self, constraint: Tuple[str, object]) -> bool:
        self._analysis._apply(constraint)
        return True

    def read(self, constraint: Tuple[str, object]) -> bool:
        return constraint in self._applied

    def write(self, constraint: Tuple[str, object], value: bool) -> None:
        self._applied.add(constraint)


class SteensgaardAliasAnalysis(AliasAnalysis):
    """Unification-based points-to analysis."""

    name = "steensgaard"

    def __init__(self, module: Module, manager: Optional[AnalysisManager] = None):
        super().__init__(module)
        self.callgraph = AnalysisManager.ensure(module, manager).get(keys.CALLGRAPH)
        self.solver_statistics = self._build()

    # -- class helpers --------------------------------------------------------
    def _class_of(self, value: Value) -> object:
        return self._uf.find(value)

    def _mark_object(self, pointer: Value, obj: Value) -> None:
        representative = self._class_of(pointer)
        self._objects_of_class.setdefault(representative, set()).add(obj)

    def _mark_unknown(self, pointer: Value) -> None:
        representative = self._class_of(pointer)
        self._class_unknown[representative] = True

    def _merge(self, key_a: object, key_b: object) -> object:
        """Merge the equivalence classes of two keys, carrying all metadata.

        Every union in the analysis goes through this method so that object
        sets, the unknown flag and pointee cells are always keyed by the
        *current* representative (a raw union-find merge would strand them
        under stale keys, which could make overlapping classes look disjoint
        — an unsoundness).
        """
        class_a, class_b = self._uf.find(key_a), self._uf.find(key_b)
        if class_a is class_b:
            return class_a
        objects = self._objects_of_class.pop(class_a, set()) | \
            self._objects_of_class.pop(class_b, set())
        unknown = self._class_unknown.pop(class_a, False) or \
            self._class_unknown.pop(class_b, False)
        pointee_a = self._pointee_class.pop(class_a, None)
        pointee_b = self._pointee_class.pop(class_b, None)
        merged = self._uf.union(class_a, class_b)
        if objects:
            self._objects_of_class.setdefault(merged, set()).update(objects)
        if unknown:
            self._class_unknown[merged] = True
        # Unify the pointee cells as well (the hallmark of Steensgaard).
        if pointee_a is not None and pointee_b is not None:
            self._pointee_class[merged] = self._merge(pointee_a, pointee_b)
        elif pointee_a is not None or pointee_b is not None:
            self._pointee_class[merged] = self._uf.find(
                pointee_a if pointee_a is not None else pointee_b)
        return self._uf.find(merged)

    def _unify(self, a: Value, b: Value) -> None:
        self._merge(a, b)

    def _pointee_cell(self, pointer: Value) -> object:
        """The class holding whatever is stored *inside* the pointees of ``pointer``."""
        representative = self._class_of(pointer)
        cell = self._pointee_class.get(representative)
        if cell is None:
            cell = f"cell:{id(representative)}"
            self._uf.find(cell)
            self._pointee_class[representative] = cell
        return self._uf.find(cell)

    # -- construction -------------------------------------------------------------
    def _build(self) -> SolverStatistics:
        """Apply every constraint of the current module to fresh classes."""
        self._uf = _UnionFind()
        #: representative class -> set of allocation objects in that class
        self._objects_of_class: Dict[object, Set[Value]] = {}
        #: representative class -> True when the class contains an unknown pointer
        self._class_unknown: Dict[object, bool] = {}
        #: class of pointers -> class of what their pointees' cells hold
        self._pointee_class: Dict[object, object] = {}
        return SparseSolver(_UnificationProblem(self, self._constraints())).solve()

    def _constraints(self) -> List[Tuple[str, object]]:
        module = self.module
        constraints: List[Tuple[str, object]] = []
        for variable in module.globals:
            constraints.append(("global", variable))
        for function in module.defined_functions():
            for argument in function.args:
                if argument.type.is_pointer():
                    constraints.append(("argument", argument))
            for inst in function.instructions():
                constraints.append(("inst", inst))
        # Interprocedural unification of actuals with formals and returns runs
        # after every intraprocedural constraint, as in the original one-pass
        # formulation.
        constraints.extend(("call", site) for site in self.callgraph.call_sites)
        return constraints

    def refresh_function(self, old_function, new_function, edit) -> None:
        """Rebuild the classes in place after one function was replaced.

        A union-find merge cannot be undone, so nothing is retained: every
        constraint of the edited module, with the call sites of the call
        graph the manager refreshed first, is applied to fresh classes, and
        the counters fold into ``solver_statistics``.
        """
        self.solver_statistics.accumulate(self._build())
        self.pair_memo.clear()

    def _apply(self, constraint: Tuple[str, object]) -> None:
        kind, subject = constraint
        if kind == "global":
            self._mark_object(subject, subject)
        elif kind == "argument":
            self._mark_unknown(subject)
        elif kind == "inst":
            self._visit(subject)
        elif kind == "call":
            self._apply_call_bindings(subject)

    def _apply_call_bindings(self, site: CallSite) -> None:
        for formal, actual in site.argument_bindings():
            if formal.type.is_pointer() and actual.type.is_pointer():
                self._unify(formal, actual)
        if site.callee is not None and site.instruction.type.is_pointer():
            for value in self.callgraph.returned_pointers(site.callee):
                self._unify(site.instruction, value)

    def _visit(self, inst: Instruction) -> None:
        if isinstance(inst, (MallocInst, AllocaInst)):
            self._mark_object(inst, inst)
        elif isinstance(inst, PtrAddInst):
            self._unify(inst, inst.base)
        elif isinstance(inst, CastInst) and inst.type.is_pointer():
            if inst.kind == "bitcast":
                self._unify(inst, inst.value)
            else:
                self._mark_unknown(inst)
        elif isinstance(inst, SigmaInst) and inst.type.is_pointer():
            self._unify(inst, inst.source)
        elif isinstance(inst, PhiInst) and inst.type.is_pointer():
            for value, _ in inst.incoming():
                if not isinstance(value, NullPointer):
                    self._unify(inst, value)
        elif isinstance(inst, SelectInst) and inst.type.is_pointer():
            self._unify(inst, inst.true_value)
            self._unify(inst, inst.false_value)
        elif isinstance(inst, FreeInst):
            self._unify(inst, inst.pointer)
        elif isinstance(inst, LoadInst) and inst.type.is_pointer():
            cell = self._pointee_cell(inst.pointer)
            self._merge(cell, inst)
        elif isinstance(inst, StoreInst) and inst.value.type.is_pointer():
            cell = self._pointee_cell(inst.pointer)
            self._merge(cell, inst.value)
        elif isinstance(inst, CallInst) and inst.type.is_pointer():
            if self.callgraph.callee_of(inst) is None:
                self._mark_unknown(inst)

    # -- queries ------------------------------------------------------------------------
    def alias(self, a: MemoryAccess, b: MemoryAccess) -> AliasResult:
        if a.pointer is b.pointer:
            return AliasResult.MUST_ALIAS
        return self.remembered(a, b, self._alias_uncached)

    def _alias_uncached(self, a: MemoryAccess, b: MemoryAccess) -> AliasResult:
        if isinstance(a.pointer, NullPointer) or isinstance(b.pointer, NullPointer):
            return AliasResult.NO_ALIAS
        class_a = self._class_of(a.pointer)
        class_b = self._class_of(b.pointer)
        if class_a is class_b:
            return AliasResult.MAY_ALIAS
        unknown_a = self._class_unknown.get(class_a, False)
        unknown_b = self._class_unknown.get(class_b, False)
        if unknown_a or unknown_b:
            return AliasResult.MAY_ALIAS
        objects_a = self._objects_of_class.get(class_a, set())
        objects_b = self._objects_of_class.get(class_b, set())
        if objects_a and objects_b and not (objects_a & objects_b):
            return AliasResult.NO_ALIAS
        if not objects_a and not objects_b:
            return AliasResult.MAY_ALIAS
        return AliasResult.MAY_ALIAS
