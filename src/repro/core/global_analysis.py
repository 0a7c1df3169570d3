"""The global symbolic range analysis of pointers (``GR``, Section 3.4).

For every pointer-typed SSA value the analysis computes an element of the
``MemLocs`` lattice: which allocation sites the pointer may reference and,
for each site, a symbolic interval of byte offsets.  The abstract transfer
functions follow Figure 9 of the paper, one rule per instruction kind in
the ``_RULES`` table at the end of this module; the fixed point is computed by the
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

from ..analysis.callgraph import RETURNS_FIRST_ARGUMENT
from ..engine import keys
from ..engine.manager import AnalysisManager
from ..engine.solver import RuleProblem, SparseSolver, TransferRule, no_operands
from ..ir.function import Function
from ..ir.instructions import (
    AllocaInst,
    BinaryInst,
    CallInst,
    CastInst,
    FreeInst,
    ICmpInst,
    Instruction,
    LoadInst,
    MallocInst,
    PhiInst,
    PtrAddInst,
    SelectInst,
    SigmaInst,
)
from ..ir.module import Module
from ..ir.values import Argument, GlobalVariable, Value
from ..rangeanalysis.symbolic_ra import RangeAnalysisOptions
from ..symbolic import SymbolicInterval
from .domain import BOTTOM, TOP, PointerAbstractValue

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


class GlobalRangeAnalysis:
    """Whole-module GR analysis."""

    def __init__(self, module: Module,
                 manager: Optional[AnalysisManager] = None,
                 options: Optional[GlobalAnalysisOptions] = None,
                 range_options: Optional[RangeAnalysisOptions] = None):
        self.module = module
        self.options = options or GlobalAnalysisOptions()
        manager = AnalysisManager.ensure(module, manager)
        self.ranges = manager.get(keys.RANGES, options=range_options)
        self.locations = manager.get(keys.LOCATIONS)
        self.callgraph = manager.get(keys.CALLGRAPH)
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
        # Null, undef, other constants, functions, and nodes not yet visited.
        return BOTTOM

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

    def _argument_state(self, argument: Argument) -> PointerAbstractValue:
        # A pointer parameter of an internally-called function gets only the
        # join of its actuals; the others also keep their own pseudo-location.
        state = BOTTOM
        if not self.options.interprocedural or self._is_externally_visible(argument.parent):
            state = PointerAbstractValue.at_location(
                self.locations.ensure_parameter_location(argument))
        return self._join(_argument_operands(self, argument), state)

    def _join(self, values, state: PointerAbstractValue = BOTTOM) -> PointerAbstractValue:
        for value in values:
            state = state.join(self._abstract_of(value))
        return state

    # -- fixed point -----------------------------------------------------------------
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
    def _evaluate_allocation(self, inst: Instruction) -> PointerAbstractValue:
        location = self.locations.location_for_site(inst)
        return PointerAbstractValue.at_location(location) if location else TOP

    def _evaluate_cast(self, inst: CastInst) -> PointerAbstractValue:
        if inst.kind == "bitcast":
            return self._abstract_of(inst.value)
        if inst.kind == "inttoptr":
            location = self.locations.ensure_unknown_location(
                inst, f"{inst.function.name}.inttoptr.{inst.name or 'cast'}")
            return PointerAbstractValue.at_location(location)
        return TOP

    def _evaluate_ptradd(self, inst: PtrAddInst) -> PointerAbstractValue:
        base = self._abstract_of(inst.base)
        if base.is_bottom or base.is_top:
            return base
        if inst.index is None:
            delta = SymbolicInterval.point(inst.offset)
        else:
            delta = self.ranges.range_of(inst.index).scale(inst.scale)
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
                return self._join(self.callgraph.returned_pointers(callee))
            return TOP
        # External call returning a pointer: a fresh unknown object.
        location = self.locations.ensure_unknown_location(
            inst, f"{inst.function.name}.{callee_name}.{inst.name or 'ret'}")
        return PointerAbstractValue.at_location(location)



def _argument_operands(analysis: GlobalRangeAnalysis, argument: Argument) -> List[Value]:
    """The actuals bound to ``argument`` at every visible call site."""
    if not analysis.options.interprocedural:
        return []
    return [site.instruction.args[argument.index]
            for site in analysis.callgraph.sites_calling(argument.parent)
            if argument.index < len(site.instruction.args)]


def _call_operands(analysis: GlobalRangeAnalysis, inst: CallInst) -> List[Value]:
    if inst.callee_name() in RETURNS_FIRST_ARGUMENT and inst.args:
        return [inst.args[0]]
    callee = analysis.callgraph.callee_of(inst)
    if callee is None or not analysis.options.interprocedural:
        return []
    return analysis.callgraph.returned_pointers(callee)


def _join_operands(analysis: GlobalRangeAnalysis, inst: Instruction) -> PointerAbstractValue:
    return analysis._join(_RULES[inst.__class__].operands(analysis, inst))


def _constant(state: PointerAbstractValue) -> TransferRule:
    return TransferRule(no_operands, lambda analysis, node: state)


_ALLOCATION = TransferRule(no_operands, GlobalRangeAnalysis._evaluate_allocation)

# The rule table (Figure 9): one entry per value-producing IR class, plus
# formal parameters, holding the operands the transfer reads (in
# dependence-edge order) and the transfer.
_RULES = {
    # Formal parameter: a φ over the actuals of the visible call sites
    # (Section 3.1), plus a pseudo-location when callable from outside.
    Argument: TransferRule(_argument_operands, GlobalRangeAnalysis._argument_state),
    # p = malloc / alloca: the site's location at offset [0, 0] (Figure 9).
    MallocInst: _ALLOCATION,
    AllocaInst: _ALLOCATION,
    # p0 = free(p1): bound to no location (Figure 9).
    FreeInst: _constant(BOTTOM),
    # q = p + i: every slot of p shifted by R(i) (Figure 9).
    PtrAddInst: TransferRule(lambda analysis, inst: (inst.base,),
                             GlobalRangeAnalysis._evaluate_ptradd),
    # q = φ(p1, p2, …): the join of the incoming states (Figure 9).
    PhiInst: TransferRule(lambda analysis, inst: inst.operands, _join_operands),
    # σ: each slot met with a bound pointer's slot, upper bound first
    # (Figure 9); integer bounds do not constrain a pointer.
    SigmaInst: TransferRule(
        lambda analysis, inst: [inst.source] + [bound for bound in (inst.upper, inst.lower)
                                                if bound is not None
                                                and bound.type.is_pointer()],
        GlobalRangeAnalysis._evaluate_sigma),
    # q = *p: memory contents are not tracked, so ⊤ (Figure 9).
    LoadInst: _constant(TOP),
    # bitcast copies (Figure 9's q = p); inttoptr is an unknown object.
    CastInst: TransferRule(lambda analysis, inst: (inst.value,) if inst.kind == "bitcast" else (),
                           GlobalRangeAnalysis._evaluate_cast),
    SelectInst: TransferRule(lambda analysis, inst: (inst.true_value, inst.false_value),
                             _join_operands),
    # Calls bind returns to the call site (Section 3.1); external results
    # are unknown objects.
    CallInst: TransferRule(_call_operands, GlobalRangeAnalysis._evaluate_call),
    # Never pointer-typed.
    BinaryInst: _constant(TOP),
    ICmpInst: _constant(TOP),
}


class _GlobalRangeProblem(RuleProblem):
    """Adapter presenting the GR analysis to the sparse solver.

    Nodes are every pointer-typed formal parameter and instruction; an edge
    points from a value to each value its transfer function reads, including
    the interprocedural actual→formal and return→call-site bindings.
    """

    name = "global-ranges"
    rules = _RULES

    def bind(self, solver: SparseSolver) -> None:
        self._solver = solver

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
