"""The global symbolic range analysis of pointers (``GR``, Section 3.4).

For every pointer-typed SSA value the analysis computes an element of the
``MemLocs`` lattice: which allocation sites the pointer may reference and,
for each site, a symbolic interval of byte offsets.  The abstract transfer
functions follow Figure 9 of the paper; the fixed point is computed by the
shared sparse solver (:mod:`repro.engine.solver`) over the def-use graph of
pointer values: one ascending phase (widening at φ-functions, call results
and formal parameters after their first evaluation) followed by a descending
sequence of length two — the schedule traced in Figure 12.

Interprocedurality is context-insensitive: pointer formal parameters are
treated as φ-functions over the actual arguments of the visible call sites
(Section 3.1).  Parameters of functions that may be called from outside the
module get a *parameter pseudo-location*, and results of external calls get
an *unknown pseudo-location*; the query engine treats those object kinds
conservatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.callgraph import RETURNS_FIRST_ARGUMENT, CallGraph
from ..engine.solver import SparseProblem, SparseSolver
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
)
from ..ir.module import Module
from ..ir.values import Argument, Constant, GlobalVariable, NullPointer, UndefValue, Value
from ..rangeanalysis.symbolic_ra import SymbolicRangeAnalysis
from ..symbolic import SymbolicInterval
from .domain import BOTTOM, TOP, PointerAbstractValue
from .locations import LocationTable

__all__ = ["GlobalAnalysisOptions", "GlobalRangeAnalysis"]

#: Re-evaluations of one value before the ascending phase forces
#: convergence (widening makes few necessary).
MAX_ASCENDING_PASSES = 6


@dataclass
class GlobalAnalysisOptions:
    """Configuration of the global pointer analysis."""

    #: Bind pointer formal parameters to the actual arguments of internal
    #: call sites (the paper's interprocedural, context-insensitive mode).
    interprocedural: bool = True
    #: Length of the descending (narrowing) sequence.
    descending_passes: int = 2
    #: Record per-phase snapshots of the abstract state (Figure 12 traces).
    track_trace: bool = False


class _GlobalRangeProblem(SparseProblem):
    """Adapter presenting the GR analysis to the sparse solver.

    Nodes are every pointer-typed formal parameter and instruction; an edge
    points from a value to each value its transfer function reads, including
    the interprocedural actual→formal and return→call-site bindings.
    """

    name = "global-ranges"

    def __init__(self, analysis: "GlobalRangeAnalysis", nodes: List[Value]):
        self._analysis = analysis
        self._nodes = nodes
        self._solver: Optional[SparseSolver] = None

    def bind(self, solver: SparseSolver) -> None:
        self._solver = solver

    def nodes(self) -> List[Value]:
        return self._nodes

    def dependencies(self, node: Value):
        analysis = self._analysis
        if isinstance(node, Argument):
            if not analysis.options.interprocedural:
                return ()
            function = node.parent
            deps = []
            for site in analysis.callgraph.sites_calling(function):
                actuals = site.instruction.args
                if node.index < len(actuals):
                    deps.append(actuals[node.index])
            return deps
        if isinstance(node, PhiInst):
            return [value for value, _ in node.incoming()]
        if isinstance(node, SigmaInst):
            deps = [node.source]
            if node.upper is not None and node.upper.type.is_pointer():
                deps.append(node.upper)
            if node.lower is not None and node.lower.type.is_pointer():
                deps.append(node.lower)
            return deps
        if isinstance(node, CastInst) and node.kind == "bitcast":
            return (node.value,)
        if isinstance(node, SelectInst):
            return (node.true_value, node.false_value)
        if isinstance(node, PtrAddInst):
            return (node.base,)
        if isinstance(node, CallInst):
            return analysis._call_dependencies(node)
        return ()

    def transfer(self, node: Value) -> PointerAbstractValue:
        analysis = self._analysis
        if isinstance(node, Argument):
            return analysis._argument_state(node.parent, node)
        return analysis._evaluate(node)

    def read(self, node: Value) -> PointerAbstractValue:
        return self._analysis._gr.get(node, BOTTOM)

    def write(self, node: Value, value: PointerAbstractValue) -> None:
        self._analysis._gr[node] = value

    def is_refinement_point(self, node: Value) -> bool:
        return isinstance(node, (Argument, PhiInst, CallInst))

    def widen(self, node: Value, old: PointerAbstractValue,
              new: PointerAbstractValue) -> PointerAbstractValue:
        return old.widen(new) if not old.is_bottom else new

    def narrow(self, node: Value, old: PointerAbstractValue,
               new: PointerAbstractValue) -> PointerAbstractValue:
        return old.narrow(new) if not old.is_bottom else new

    def on_phase(self, phase: str) -> None:
        analysis = self._analysis
        if not analysis.options.track_trace:
            return
        if phase == "sweep":
            analysis._snapshot("starting state")
        elif phase == "ascending":
            analysis._snapshot("after widening")
        elif phase.startswith("descending:"):
            analysis._snapshot(f"descending step {phase.split(':', 1)[1]}")

    def delta_nodes(self, edit) -> List[Value]:
        """Seed set of a re-solve after editing ``edit.function``.

        The edited function's own nodes and the formal parameters of every
        function it called before or calls now (their actuals, and with them
        their visibility, changed; an actual need not be a node, so no edge
        reaches them), plus the transitive *dependents* of those over the
        static dependence graph — every value whose fixed point the edit can
        influence (interprocedural influence flows only through the
        actual→formal and return→call-site edges ``dependencies`` already
        declares).  Dependence cycles are either entirely inside or entirely
        outside this closure, so re-solving it with the cold schedule while
        reading retained values for everything else reproduces the cold
        fixed point.

        The dependents are the edges the bound solver registered
        (:meth:`SparseSolver.register`), so ``dependencies`` is asked once
        per node for the whole re-solve.
        """
        analysis = self._analysis
        edited = analysis.module.get_function(edit.function)
        rebound = analysis.callgraph.rebound
        dependents = self._solver.dependents
        seeds = set()
        for node in self._nodes:
            if isinstance(node, Argument):
                if node.parent is edited or node.parent in rebound:
                    seeds.add(node)
            elif node.function is edited:
                seeds.add(node)
        frontier = list(seeds)
        while frontier:
            node = frontier.pop()
            for dependent in dependents(node):
                if dependent not in seeds:
                    seeds.add(dependent)
                    frontier.append(dependent)
        return [node for node in self._nodes if node in seeds]


class GlobalRangeAnalysis:
    """Whole-module GR analysis."""

    def __init__(self, module: Module,
                 ranges: Optional[SymbolicRangeAnalysis] = None,
                 locations: Optional[LocationTable] = None,
                 options: Optional[GlobalAnalysisOptions] = None,
                 callgraph: Optional[CallGraph] = None):
        self.module = module
        self.options = options or GlobalAnalysisOptions()
        self.ranges = ranges if ranges is not None else SymbolicRangeAnalysis(module)
        self.locations = locations if locations is not None else LocationTable(module)
        self.callgraph = callgraph if callgraph is not None else CallGraph(module)
        self.solver_statistics = None
        self._gr: Dict[Value, PointerAbstractValue] = {}
        #: function -> external-visibility verdict; the check walks callgraph
        #: tables and is re-asked on every evaluation of every argument of
        #: the function, so it is resolved once per function instead.
        self._visible: Dict[Function, bool] = {}
        self._trace: List[Tuple[str, Dict[Value, PointerAbstractValue]]] = []
        self._run()

    # -- public API --------------------------------------------------------------
    def value_of(self, value: Value) -> PointerAbstractValue:
        """``GR(value)``: the abstract address set of a pointer value."""
        return self._abstract_of(value)

    def trace(self) -> List[Tuple[str, Dict[Value, PointerAbstractValue]]]:
        """Per-phase snapshots (only populated with ``track_trace=True``)."""
        return list(self._trace)

    def pointer_values(self) -> List[Value]:
        """Every pointer value the analysis assigned an abstract state to."""
        return list(self._gr.keys())

    # -- operand evaluation ---------------------------------------------------------
    def _abstract_of(self, value: Value) -> PointerAbstractValue:
        cached = self._gr.get(value)
        if cached is not None:
            return cached
        if isinstance(value, GlobalVariable):
            location = self.locations.location_for_site(value)
            result = PointerAbstractValue.at_location(location) if location else TOP
            self._gr[value] = result
            return result
        if isinstance(value, (NullPointer, UndefValue)):
            return BOTTOM
        if isinstance(value, Constant):
            return BOTTOM
        if isinstance(value, Function):
            return BOTTOM
        # Instructions / arguments not yet visited in this pass.
        return BOTTOM

    def _scalar_range(self, value: Value) -> SymbolicInterval:
        return self.ranges.range_of(value)

    # -- seeding -------------------------------------------------------------------
    def _is_externally_visible(self, function: Function) -> bool:
        cached = self._visible.get(function)
        if cached is None:
            if function.name == "main":
                cached = True
            elif self.callgraph.is_address_taken(function):
                cached = True
            else:
                cached = not self.callgraph.sites_calling(function)
            self._visible[function] = cached
        return cached

    def _argument_state(self, function: Function, argument: Argument) -> PointerAbstractValue:
        # A pointer parameter of an internally-called function gets only the
        # join of its actuals; the others also keep their own pseudo-location.
        state = BOTTOM
        if not self.options.interprocedural or self._is_externally_visible(function):
            location = self.locations.ensure_parameter_location(argument)
            state = state.join(PointerAbstractValue.at_location(location))
        if self.options.interprocedural:
            for site in self.callgraph.sites_calling(function):
                actuals = site.instruction.args
                if argument.index < len(actuals):
                    state = state.join(self._abstract_of(actuals[argument.index]))
        return state

    # -- fixed point -----------------------------------------------------------------
    def _call_dependencies(self, inst: CallInst) -> List[Value]:
        """Pointer values the transfer function of a call instruction reads."""
        if inst.callee_name() in RETURNS_FIRST_ARGUMENT and inst.args:
            return [inst.args[0]]
        callee = self.callgraph.callee_of(inst)
        if callee is None or not self.options.interprocedural:
            return []
        return self.callgraph.returned_pointers(callee)

    def _pointer_nodes(self) -> List[Value]:
        """Every pointer formal parameter and instruction, in sweep priority
        order (function order, arguments first, then instructions in RPO)."""
        nodes: List[Value] = []
        for function in self.module.defined_functions():
            for argument in function.args:
                if argument.type.is_pointer():
                    nodes.append(argument)
            for block in function.cfg().rpo:
                for inst in block.instructions:
                    if inst.type.is_pointer():
                        nodes.append(inst)
        return nodes

    def _run(self) -> None:
        solver = SparseSolver(
            _GlobalRangeProblem(self, self._pointer_nodes()),
            max_node_evaluations=MAX_ASCENDING_PASSES,
            descending_passes=self.options.descending_passes,
        )
        self.solver_statistics = solver.solve()

    def refresh_function(self, old_function: Function, new_function: Function,
                         edit) -> Dict[str, int]:
        """Re-seed the fixed point after a single-function edit.

        The retained ``_gr`` table keeps every value the edit cannot
        influence; the problem's :meth:`_GlobalRangeProblem.delta_nodes`
        closure is reset to ⊥ and re-solved with the cold
        ascending/descending schedule through
        :meth:`SparseSolver.resolve_from`.  Values flowed out of the edited
        function (including its pseudo-locations and kernel symbols) only
        travel along the dependence edges the closure follows, so retained
        entries — and therefore post-edit answers — match a cold rebuild.
        """
        for value in list(old_function.args) + list(old_function.instructions()):
            self._gr.pop(value, None)
        # The new body may add or remove call sites, so the visibility
        # verdicts read from the (already refreshed) callgraph are re-derived.
        self._visible.clear()
        problem = _GlobalRangeProblem(self, self._pointer_nodes())
        solver = SparseSolver(
            problem,
            max_node_evaluations=MAX_ASCENDING_PASSES,
            descending_passes=self.options.descending_passes,
        )
        solver.register(problem)
        seeds = problem.delta_nodes(edit)
        for node in seeds:
            self._gr.pop(node, None)
        retained = len(self._gr)
        self.solver_statistics.accumulate(solver.resolve_from(problem, seeds))
        return {"reseeded": len(seeds), "retained": retained}

    def _snapshot(self, label: str) -> None:
        self._trace.append((label, dict(self._gr)))

    # -- transfer functions --------------------------------------------------------------
    def _evaluate(self, inst: Instruction) -> PointerAbstractValue:
        if isinstance(inst, (MallocInst, AllocaInst)):
            location = self.locations.location_for_site(inst)
            return PointerAbstractValue.at_location(location) if location else TOP
        if isinstance(inst, FreeInst):
            return BOTTOM
        if isinstance(inst, PtrAddInst):
            return self._evaluate_ptradd(inst)
        if isinstance(inst, PhiInst):
            state = BOTTOM
            for value, _ in inst.incoming():
                state = state.join(self._abstract_of(value))
            return state
        if isinstance(inst, SigmaInst):
            return self._evaluate_sigma(inst)
        if isinstance(inst, LoadInst):
            # Figure 9: q = *p gets the top of the lattice — memory contents
            # are deliberately not tracked.
            return TOP
        if isinstance(inst, CastInst):
            if inst.kind == "bitcast":
                return self._abstract_of(inst.value)
            if inst.kind == "inttoptr":
                location = self.locations.ensure_unknown_location(
                    inst, f"{inst.function.name}.inttoptr.{inst.name or 'cast'}")
                return PointerAbstractValue.at_location(location)
            return TOP
        if isinstance(inst, SelectInst):
            return self._abstract_of(inst.true_value).join(self._abstract_of(inst.false_value))
        if isinstance(inst, CallInst):
            return self._evaluate_call(inst)
        return TOP

    def _evaluate_ptradd(self, inst: PtrAddInst) -> PointerAbstractValue:
        base = self._abstract_of(inst.base)
        if base.is_bottom or base.is_top:
            return base
        if inst.index is None:
            delta = SymbolicInterval.point(inst.offset)
        else:
            delta = self._scalar_range(inst.index).scale(inst.scale)
            if inst.offset:
                delta = delta.shift(inst.offset)
        return base.shift(delta)

    def _evaluate_sigma(self, inst: SigmaInst) -> PointerAbstractValue:
        state = self._abstract_of(inst.source)
        if state.is_bottom:
            return state
        # Bounds that are pointers constrain slot-wise (Figure 9); integer
        # bounds on a pointer σ cannot arise from the e-SSA construction.
        if inst.upper is not None and inst.upper.type.is_pointer():
            bound = self._abstract_of(inst.upper)
            if not bound.is_bottom:
                state = state.meet_ranges(bound, use_upper=True, adjust=inst.upper_adjust)
        if inst.lower is not None and inst.lower.type.is_pointer():
            bound = self._abstract_of(inst.lower)
            if not bound.is_bottom:
                state = state.meet_ranges(bound, use_upper=False, adjust=inst.lower_adjust)
        if state.is_bottom:
            # The meet removed every slot (infeasible path approximation);
            # fall back to the unconstrained source, which is always sound.
            return self._abstract_of(inst.source)
        return state

    def _evaluate_call(self, inst: CallInst) -> PointerAbstractValue:
        callee_name = inst.callee_name()
        if callee_name in RETURNS_FIRST_ARGUMENT and inst.args:
            return self._abstract_of(inst.args[0])
        callee = self.callgraph.callee_of(inst)
        if callee is not None:
            if self.options.interprocedural:
                state = BOTTOM
                for value in self.callgraph.returned_pointers(callee):
                    state = state.join(self._abstract_of(value))
                return state
            return TOP
        # External call returning a pointer: a fresh unknown object.
        location = self.locations.ensure_unknown_location(
            inst, f"{inst.function.name}.{callee_name}.{inst.name or 'ret'}")
        return PointerAbstractValue.at_location(location)
