"""Andersen-style inclusion-based points-to analysis.

The paper positions its contribution as *complementary* to classic points-to
analyses: "our representation of pointers can be used to enhance the
precision of algorithms such as Steensgaard's or Andersen's" (Section 5).
To support that comparison — and the ablation benchmarks — this module
implements a field-insensitive, flow-insensitive, context-insensitive
inclusion-based analysis:

* every allocation site, global, pointer parameter and external pointer is
  an abstract object;
* constraints are generated per instruction (``p = &x``, ``p = q``,
  ``p = *q``, ``*p = q``) and solved on the shared sparse engine
  (:mod:`repro.engine.solver`): points-to sets and per-object memory
  summaries are solver nodes, copy edges are dependence edges, and the
  load/store indirections register their dependence edges dynamically as
  the points-to sets grow;
* two pointers may alias iff their points-to sets intersect (or either set
  contains the *unknown* object).

Unlike the range-based analysis, offsets are ignored entirely: ``p`` and
``p + 1`` always share their points-to set, which is exactly the imprecision
the paper's approach removes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..engine import keys
from ..engine.manager import AnalysisManager
from ..engine.solver import SolverStatistics, SparseProblem, SparseSolver
from ..ir.function import Function
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
from ..ir.values import GlobalVariable, NullPointer, Value
from .base import AliasAnalysis
from .results import AliasResult, MemoryAccess

__all__ = ["AndersenAliasAnalysis"]

#: The distinguished abstract object standing for everything the analysis
#: cannot see (externally allocated memory, unknown call results…).
_UNKNOWN_OBJECT = "<unknown>"


class _PointsToProblem(SparseProblem):
    """The inclusion constraint system as a sparse solver problem.

    Two node namespaces: ``("v", value)`` is the points-to set of an SSA
    pointer, ``("m", obj)`` the memory summary of one abstract object.  Copy
    edges are static dependencies; the edges through memory (``p = *q`` and
    ``*p = q``) appear as the pointer operands' sets grow, so the transfer
    functions register them with :meth:`SparseSolver.add_dependency`.
    """

    name = "andersen"

    def __init__(self, analysis: "AndersenAliasAnalysis"):
        self._analysis = analysis
        self._solver = None

    def bind(self, solver: SparseSolver) -> None:
        self._solver = solver

    def nodes(self):
        analysis = self._analysis
        return ([("v", value) for value in analysis._pointer_nodes]
                + [("m", obj) for obj in analysis._objects])

    def dependencies(self, node):
        kind, subject = node
        analysis = self._analysis
        if kind == "v":
            deps = [("v", source) for source in analysis._sources.get(subject, ())]
            pointer = analysis._load_pointer.get(subject)
            if pointer is not None:
                deps.append(("v", pointer))
            return deps
        # The edges through memory (a load reading a summary, a summary
        # reading a store) follow points-to sets, which are empty until the
        # solve runs; _transfer_value registers them dynamically.
        return ()

    def transfer(self, node):
        kind, subject = node
        if kind == "v":
            return self._transfer_value(subject)
        return self._transfer_memory(subject)

    def _transfer_value(self, value: Value) -> Set[object]:
        analysis = self._analysis
        # Accumulate into the current state: points-to sets only ever grow
        # (conditional contributions such as the unknown-object fallback must
        # never be retracted, or cyclic constraint graphs oscillate).
        result: Set[object] = set(analysis.points_to.get(value, ()))
        result.update(analysis._base.get(value, ()))
        for source in analysis._sources.get(value, ()):
            if isinstance(source, NullPointer):
                continue
            result.update(analysis.points_to.get(source, ()))
        pointer = analysis._load_pointer.get(value)
        if pointer is not None:
            pointer_pts = analysis.points_to.get(pointer, ())
            if not pointer_pts:
                result.add(_UNKNOWN_OBJECT)
            for obj in pointer_pts:
                self._solver.add_dependency(("v", value), ("m", obj))
                memory = analysis._memory_of.get(obj)
                result.update(memory if memory is not None else {_UNKNOWN_OBJECT})
        # This pointer may be a store target: every object it can reach gains
        # the store as a contributor, and the memory summary must re-run when
        # either this pointer's or the stored value's set grows.  Registering
        # here (before the solver writes the changed set and enqueues
        # dependents) keeps the memory side of the graph as sparse as the
        # points-to sets themselves.
        stored_values = analysis._stores_by_pointer.get(value)
        if stored_values:
            for obj in result:
                contributors = analysis._stores_targeting.setdefault(obj, set())
                contributors.update(stored_values)
                self._solver.add_dependency(("m", obj), ("v", value))
                for stored in stored_values:
                    self._solver.add_dependency(("m", obj), ("v", stored))
        return result

    def _transfer_memory(self, obj: object):
        analysis = self._analysis
        existing = analysis._memory_of.get(obj)
        result = None if existing is None else set(existing)
        contributors = analysis._stores_targeting.get(obj)
        if contributors is not None:
            if result is None:
                result = set()
            for stored in contributors:
                result.update(analysis.points_to.get(stored, ()))
        # ``None`` (no store can reach the object) is distinct from the empty
        # set: loads treat untouched memory as the unknown object.
        return result

    def read(self, node):
        kind, subject = node
        if kind == "v":
            return self._analysis.points_to.get(subject, set())
        return self._analysis._memory_of.get(subject)

    def write(self, node, value) -> None:
        kind, subject = node
        if kind == "v":
            self._analysis.points_to[subject] = value
        elif value is not None:
            self._analysis._memory_of[subject] = value


class AndersenAliasAnalysis(AliasAnalysis):
    """Inclusion-based (subset) points-to analysis."""

    name = "andersen"

    def __init__(self, module: Module, manager: Optional[AnalysisManager] = None):
        super().__init__(module)
        self.callgraph = AnalysisManager.ensure(module, manager).get(keys.CALLGRAPH)
        self.solver_statistics = self._solve()

    # -- constraint helpers -----------------------------------------------------
    def _node(self, value: Value) -> None:
        if value not in self._known_nodes:
            self._known_nodes.add(value)
            self._pointer_nodes.append(value)

    def _object(self, obj: object) -> None:
        if obj not in self._object_set:
            self._object_set.add(obj)
            self._objects.append(obj)

    def _add_object(self, pointer: Value, obj: object) -> None:
        self._node(pointer)
        self._object(obj)
        self._base.setdefault(pointer, set()).add(obj)

    def _add_copy(self, destination: Value, source: Value) -> None:
        self._node(destination)
        if not isinstance(source, NullPointer):
            self._node(source)
        self._sources.setdefault(destination, []).append(source)

    # -- constraint generation ------------------------------------------------------
    def _generate(self) -> None:
        for variable in self.module.globals:
            self._add_object(variable, variable)
        for function in self.module.defined_functions():
            sites = self.callgraph.sites_calling(function)
            for argument in function.args:
                if not argument.type.is_pointer():
                    continue
                # Bound to the actuals of every call passing it; a parameter
                # no visible call passes also points to the unknown object.
                bound = False
                for site in sites:
                    actuals = site.instruction.args
                    if argument.index < len(actuals):
                        self._add_copy(argument, actuals[argument.index])
                        bound = True
                if function.name == "main" or not bound:
                    self._add_object(argument, _UNKNOWN_OBJECT)
            for inst in function.instructions():
                self._generate_for(inst)

    def _generate_for(self, inst: Instruction) -> None:
        if isinstance(inst, (MallocInst, AllocaInst)):
            self._add_object(inst, inst)
        elif isinstance(inst, PtrAddInst):
            self._add_copy(inst, inst.base)
        elif isinstance(inst, CastInst) and inst.type.is_pointer():
            if inst.kind == "bitcast":
                self._add_copy(inst, inst.value)
            else:
                self._add_object(inst, _UNKNOWN_OBJECT)
        elif isinstance(inst, SigmaInst) and inst.type.is_pointer():
            self._add_copy(inst, inst.source)
        elif isinstance(inst, PhiInst) and inst.type.is_pointer():
            for value, _ in inst.incoming():
                self._add_copy(inst, value)
        elif isinstance(inst, SelectInst) and inst.type.is_pointer():
            self._add_copy(inst, inst.true_value)
            self._add_copy(inst, inst.false_value)
        elif isinstance(inst, FreeInst):
            self._add_copy(inst, inst.pointer)
        elif isinstance(inst, LoadInst) and inst.type.is_pointer():
            self._node(inst)
            self._node(inst.pointer)
            self._load_pointer[inst] = inst.pointer
        elif isinstance(inst, StoreInst) and inst.value.type.is_pointer():
            self._node(inst.value)
            self._node(inst.pointer)
            self._stores_by_pointer.setdefault(inst.pointer, set()).add(inst.value)
        elif isinstance(inst, CallInst) and inst.type.is_pointer():
            callee = self.callgraph.callee_of(inst)
            if callee is not None:
                for value in self.callgraph.returned_pointers(callee):
                    self._add_copy(inst, value)
            else:
                self._add_object(inst, _UNKNOWN_OBJECT)

    # -- solving ----------------------------------------------------------------------
    def _solve(self) -> SolverStatistics:
        """Generate the constraints of the current module into fresh state
        tables and solve them cold."""
        # points_to maps pointer values to sets of abstract objects, where an
        # abstract object is an allocation Value or the _UNKNOWN_OBJECT tag.
        self.points_to: Dict[Value, Set[object]] = {}
        # base ("address-of") facts: p ∋ obj constraints from allocations.
        self._base: Dict[Value, Set[object]] = {}
        # copy sources per destination: pts(dst) ⊇ pts(src).
        self._sources: Dict[Value, List[Value]] = {}
        # object -> summary "memory node" points-to set (field-insensitive heap).
        self._memory_of: Dict[object, Set[object]] = {}
        self._load_pointer: Dict[LoadInst, Value] = {}
        # store pointer -> values stored through it; object -> stored values
        # of the stores known to reach it (built dynamically during solving).
        self._stores_by_pointer: Dict[Value, Set[Value]] = {}
        self._stores_targeting: Dict[object, Set[Value]] = {}
        self._pointer_nodes: List[Value] = []
        self._known_nodes: Set[Value] = set()
        self._objects: List[object] = []
        self._object_set: Set[object] = set()
        self._generate()
        return SparseSolver(_PointsToProblem(self)).solve()

    def refresh_function(self, old_function: Function, new_function: Function,
                         edit) -> None:
        """Rebuild the inclusion fixed point in place after one function was
        replaced: every state table is reset, the constraints are generated
        again from the edited module and the call graph (which the manager
        refreshed first), and a cold solve runs.  Its counters fold into
        ``solver_statistics``, so ``steps`` covers the first build plus
        every rebuild."""
        self.solver_statistics.accumulate(self._solve())
        self.pair_memo.clear()

    # -- queries -------------------------------------------------------------------------
    def points_to_set(self, pointer: Value) -> Set[object]:
        """The abstract objects ``pointer`` may reference."""
        if isinstance(pointer, GlobalVariable):
            return {pointer}
        if isinstance(pointer, NullPointer):
            return set()
        pts = self.points_to.get(pointer)
        if pts is None or not pts:
            return {_UNKNOWN_OBJECT}
        return pts

    def alias(self, a: MemoryAccess, b: MemoryAccess) -> AliasResult:
        if a.pointer is b.pointer:
            return AliasResult.MUST_ALIAS
        return self.remembered(a, b, self._alias_uncached)

    def _alias_uncached(self, a: MemoryAccess, b: MemoryAccess) -> AliasResult:
        set_a = self.points_to_set(a.pointer)
        set_b = self.points_to_set(b.pointer)
        if not set_a or not set_b:
            return AliasResult.NO_ALIAS
        if _UNKNOWN_OBJECT in set_a or _UNKNOWN_OBJECT in set_b:
            return AliasResult.MAY_ALIAS
        if set_a & set_b:
            return AliasResult.MAY_ALIAS
        return AliasResult.NO_ALIAS
