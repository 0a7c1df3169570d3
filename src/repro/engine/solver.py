"""A shared sparse fixpoint engine for every analysis in the repository.

Before this module existed each analysis — the integer range bootstrap, the
global GR analysis, the Andersen baseline — carried its own hand-rolled
fixed-point loop, all of them dense: every pass re-evaluated every node of
the module whether or not its inputs had changed.  The engine replaces those
loops with one algorithm:

1. the *dependence graph* of the problem (def-use edges for the SSA
   analyses, constraint edges for points-to) is condensed into strongly
   connected components with an iterative Tarjan walk;
2. nodes are evaluated once in topological (dependencies-first) component
   order — acyclic regions therefore stabilise in a single visit;
3. nodes whose inputs changed are re-evaluated through a deduplicating
   worklist until the component reaches a fixed point, with a widening hook
   applied at the problem's designated refinement points (φ-functions,
   formal parameters, call results) to force convergence on cyclic regions;
4. an optional descending (narrowing) sequence of full sweeps recovers
   precision lost to widening — the schedule of Section 3.9 of the paper.
   A descending step whose node has a recorded transfer result and none of
   whose inputs changed since that transfer gets the recorded result back
   instead of calling ``transfer`` again (the *stale* set tracks which
   nodes had an input written); narrowing, the change test and the write
   run exactly as before.

Problems describe themselves through :class:`SparseProblem`; the solver owns
scheduling only, never abstract values, so every analysis keeps its existing
state tables and transfer functions.  :class:`SolverStatistics` counts
scheduled evaluations ("steps"), the deterministic cost measure every gate
reads; wall time is measured only outside the engine (the repository
benchmark and Figure 15's timer).
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Hashable, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Set, Tuple)

__all__ = ["RuleProblem", "SolverInterrupted", "SolverStatistics", "SparseProblem",
           "SparseSolver", "TransferRule", "condense_sccs", "no_operands",
           "solver_budget"]

Node = Hashable


class SolverInterrupted(RuntimeError):
    """An installed budget hook asked the solver to abandon its fixed point.

    Raised *between* solver steps, so the problem's abstract state
    is internally consistent but not a fixed point — callers must discard
    the partially solved analysis (the :class:`~repro.engine.manager
    .AnalysisManager` never caches a build whose factory raised).
    """


#: Process-wide cooperative budget: when set, the solver calls it before
#: every step and raises :class:`SolverInterrupted` the
#: moment it returns ``False``.  Installed via :func:`solver_budget` by the
#: serving layer to honour per-request ``timeout_ms`` deadlines; ``None``
#: (the default) costs one attribute read per step.
_BUDGET_HOOK: Optional[Callable[[], bool]] = None


@contextmanager
def solver_budget(hook: Callable[[], bool]) -> Iterator[None]:
    """Install a cooperative step budget for every solve on this thread.

    ``hook`` is consulted before each step; returning
    ``False`` aborts the solve with :class:`SolverInterrupted`.  The
    previous hook (usually ``None``) is restored on exit, so nested budgets
    compose: the innermost (tightest) deadline wins while it is active.
    """
    global _BUDGET_HOOK
    previous = _BUDGET_HOOK
    _BUDGET_HOOK = hook
    try:
        yield
    finally:
        _BUDGET_HOOK = previous


@dataclass
class SolverStatistics:
    """Counters of one :meth:`SparseSolver.solve` run.

    ``steps`` is the total number of scheduled evaluations — the engine's
    hardware-independent cost measure.  It counts what the schedule asked
    for, not what it recomputed: ``reused`` says how many of those steps (all
    of them descending) got the node's last transfer result back because no
    input had changed since, so ``steps - reused`` is the number of
    ``transfer`` calls.  ``max_node_evaluations`` plays the role the old
    per-analysis "pass" counters played: it bounds how often any single node
    was re-evaluated during the ascending phase.
    """

    problem: str = ""
    nodes: int = 0
    edges: int = 0
    sccs: int = 0
    largest_scc: int = 0
    steps: int = 0
    sweep_steps: int = 0
    worklist_steps: int = 0
    descending_steps: int = 0
    widenings: int = 0
    max_node_evaluations: int = 0
    reused: int = 0

    def accumulate(self, other: "SolverStatistics") -> None:
        """Fold a later solve's counters into this one.

        Used by function-granular incremental refreshes: an analysis that
        re-solves one function's nodes keeps a single statistics object whose
        ``steps`` total covers the initial solve plus every refresh, so the
        warm-vs-cold comparison reads one counter.
        """
        self.nodes += other.nodes
        self.edges += other.edges
        self.sccs += other.sccs
        self.largest_scc = max(self.largest_scc, other.largest_scc)
        self.steps += other.steps
        self.sweep_steps += other.sweep_steps
        self.worklist_steps += other.worklist_steps
        self.descending_steps += other.descending_steps
        self.widenings += other.widenings
        self.reused += other.reused
        self.max_node_evaluations = max(self.max_node_evaluations,
                                        other.max_node_evaluations)


class SparseProblem:
    """One dataflow problem the sparse solver can run.

    Subclasses own the abstract state; the solver only schedules.  The
    minimal contract is ``nodes`` + ``transfer`` + ``read``/``write``;
    everything else has a sensible default.

    A problem solved with descending passes must have a ``transfer`` that
    reads only the nodes its ``dependencies`` declare, plus state that stays
    fixed for the whole solve: a descending step reuses a node's last
    transfer result when none of its declared in-problem dependencies was
    written since.  The symbolic integer ranges, GR and LR keep both halves
    in one place — a :class:`RuleProblem` whose :class:`TransferRule` table
    lists each instruction kind's operands next to its transfer — and
    ``tests/unit/test_transfer_contract.py`` checks the contract on the
    benchmark suite.  Problems whose ``transfer`` mutates state or
    registers edges on the fly (Andersen, Steensgaard) run no descending
    passes.
    """

    #: Short name used in statistics and debugging output.
    name = "sparse-problem"

    def nodes(self) -> Sequence[Node]:
        """Every node of the problem, in the priority order sweeps should use."""
        raise NotImplementedError

    def dependencies(self, node: Node) -> Iterable[Node]:
        """Nodes whose state the transfer function of ``node`` reads."""
        return ()

    def transfer(self, node: Node) -> Any:
        """Recompute the abstract value of ``node`` from its inputs."""
        raise NotImplementedError

    def read(self, node: Node) -> Any:
        """Current abstract value of ``node`` (a sentinel when unvisited)."""
        raise NotImplementedError

    def write(self, node: Node, value: Any) -> None:
        """Store the new abstract value of ``node``."""
        raise NotImplementedError

    def is_refinement_point(self, node: Node) -> bool:
        """Nodes where widening (ascending) and narrowing (descending) apply."""
        return False

    def widen(self, node: Node, old: Any, new: Any) -> Any:
        """Widening hook: combine on re-evaluation of a refinement point."""
        return new

    def narrow(self, node: Node, old: Any, new: Any) -> Any:
        """Narrowing hook: combine during descending sweeps."""
        return new

    def on_phase(self, phase: str) -> None:
        """Called at phase boundaries: ``"sweep"``, ``"ascending"`` and
        ``"descending:<k>"`` — the GR analysis snapshots its Figure-12 trace
        from here."""


class TransferRule(NamedTuple):
    """One instruction kind's entry in an analysis' rule table.

    ``operands(analysis, node)`` lists the values ``transfer(analysis,
    node)`` reads from the analysis' own state, in the order the solver
    registers them as dependence edges (and so the worklist order).
    """

    operands: Callable[[Any, Node], Iterable[Node]]
    transfer: Callable[[Any, Node], Any]


def no_operands(analysis: Any, node: Node) -> Tuple[()]:
    """The ``operands`` of a rule whose transfer reads no node."""
    return ()


class RuleProblem(SparseProblem):
    """A problem over one analysis whose rules sit in ``rules``, a
    :class:`TransferRule` table keyed by exact node class (IR classes are
    never subclassed): ``dependencies`` and ``transfer`` are lookups in it."""

    rules: Dict[type, TransferRule] = {}

    def __init__(self, analysis: Any, nodes: Sequence[Node]):
        self._analysis = analysis
        self._nodes = nodes

    def nodes(self) -> Sequence[Node]:
        return self._nodes

    def dependencies(self, node: Node) -> Iterable[Node]:
        return self.rules[node.__class__].operands(self._analysis, node)

    def transfer(self, node: Node) -> Any:
        return self.rules[node.__class__].transfer(self._analysis, node)


def condense_sccs(nodes: Sequence[Node],
                  dependencies: Callable[[Node], Iterable[Node]]) -> List[List[Node]]:
    """Strongly connected components in dependencies-first topological order.

    Iterative Tarjan over the dependence edges; because edges point from a
    node to the nodes it *reads*, Tarjan's emission order (callees first) is
    exactly the evaluation order the solver wants.  Unknown dependencies
    (values that are not problem nodes, e.g. constants) are skipped.
    """
    known = set(nodes)
    index_counter = [0]
    stack: List[Node] = []
    lowlink: Dict[Node, int] = {}
    index: Dict[Node, int] = {}
    on_stack: Set[Node] = set()
    components: List[List[Node]] = []

    def edges(node: Node) -> List[Node]:
        return [dep for dep in dependencies(node) if dep in known]

    for root in nodes:
        if root in index:
            continue
        work: List[tuple] = [(root, iter(edges(root)))]
        index[root] = lowlink[root] = index_counter[0]
        index_counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            current, children = work[-1]
            advanced = False
            for child in children:
                if child not in index:
                    index[child] = lowlink[child] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(edges(child))))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[current] = min(lowlink[current], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[current])
            if lowlink[current] == index[current]:
                component: List[Node] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member is current:
                        break
                components.append(component)
    return components


class SparseSolver:
    """Drives a :class:`SparseProblem` to its fixed point.

    The ascending phase is change-driven: after the initial topological
    sweep, only nodes whose dependencies changed are re-evaluated.  Problems
    whose dependence edges appear during solving (Andersen's load/store
    constraints) register them with :meth:`add_dependency` from inside their
    transfer functions.
    """

    def __init__(self, problem: SparseProblem, *,
                 max_node_evaluations: Optional[int] = None,
                 descending_passes: int = 0):
        self.problem = problem
        self.max_node_evaluations = max_node_evaluations
        self.descending_passes = descending_passes
        self.statistics = SolverStatistics(problem=problem.name)
        self._order: List[Node] = []
        self._dependents: Dict[Node, List[Node]] = {}
        self._dependent_sets: Dict[Node, Set[Node]] = {}
        self._evaluations: Dict[Node, int] = {}
        self._worklist: deque = deque()
        self._enqueued: Set[Node] = set()
        #: node -> its last ``transfer`` result, and the nodes an input of
        #: which was written since; kept only for descending passes to reuse.
        self._results: Dict[Node, Any] = {}
        self._stale: Set[Node] = set()
        #: What :meth:`register` recorded for the next :meth:`resolve_from`:
        #: the problem, its nodes, their priorities and in-problem edges.
        self._registered: Optional[tuple] = None

    # -- dynamic dependence edges ---------------------------------------------
    def add_dependency(self, dependent: Node, dependency: Node) -> None:
        """Record, mid-solve, that ``dependent`` reads ``dependency``.

        Future changes of ``dependency`` will re-enqueue ``dependent``; used
        by problems whose dependence graph grows as states grow.
        """
        bucket = self._dependent_sets.setdefault(dependency, set())
        if dependent in bucket:
            return
        bucket.add(dependent)
        self._dependents.setdefault(dependency, []).append(dependent)
        self.statistics.edges += 1

    def _enqueue_dependents(self, node: Node) -> None:
        for dependent in self._dependents.get(node, ()):
            if dependent in self._enqueued:
                continue
            if self._evaluations.get(dependent, 0) == 0:
                continue  # the initial sweep will evaluate it with fresh inputs
            cap = self.max_node_evaluations
            if cap is not None and self._evaluations.get(dependent, 0) >= cap:
                continue  # forced convergence: the cap bounds re-evaluation
            self._enqueued.add(dependent)
            self._worklist.append(dependent)

    # -- evaluation -----------------------------------------------------------
    def _write(self, node: Node, value: Any) -> None:
        self.problem.write(node, value)
        if self.descending_passes:
            self._stale.update(self._dependents.get(node, ()))

    def _reusable(self, node: Node) -> bool:
        """Whether a descending step of ``node`` may skip ``transfer``: it
        has a recorded result and no input was written since."""
        return node in self._results and node not in self._stale

    def _evaluate(self, node: Node, *, phase: str) -> bool:
        budget = _BUDGET_HOOK
        if budget is not None and not budget():
            raise SolverInterrupted(
                f"{self.problem.name}: budget exhausted after "
                f"{self.statistics.steps} steps")
        problem = self.problem
        stats = self.statistics
        old = problem.read(node)
        if phase == "descending" and self._reusable(node):
            new = self._results[node]
            stats.reused += 1
        else:
            new = problem.transfer(node)
            if self.descending_passes:
                self._results[node] = new
                self._stale.discard(node)
        stats.steps += 1
        seen = self._evaluations.get(node, 0)
        self._evaluations[node] = seen + 1
        if phase != "descending" and seen + 1 > stats.max_node_evaluations:
            stats.max_node_evaluations = seen + 1
        if phase == "descending":
            stats.descending_steps += 1
            if problem.is_refinement_point(node):
                new = problem.narrow(node, old, new)
            if new != old:
                self._write(node, new)
                return True
            return False
        if phase == "sweep":
            stats.sweep_steps += 1
        else:
            stats.worklist_steps += 1
            if problem.is_refinement_point(node):
                widened = problem.widen(node, old, new)
                if widened != new:
                    stats.widenings += 1
                new = widened
        if new != old:
            self._write(node, new)
            self._enqueue_dependents(node)
            return True
        return False

    # -- driver ---------------------------------------------------------------
    def solve(self) -> SolverStatistics:
        """Solve the problem cold: :meth:`resolve_from` every node."""
        return self.resolve_from(self.problem)

    def _schedule(self, nodes: Sequence[Node], priority: Dict[Node, int],
                  edges: Dict[Node, List[Node]]) -> None:
        """Condense ``nodes`` into SCCs, dependencies first, and sweep each
        component in ``priority`` order (the order ``nodes()`` gave)."""
        stats = self.statistics
        components = condense_sccs(nodes, edges.__getitem__)
        stats.sccs = len(components)
        stats.largest_scc = max((len(c) for c in components), default=0)
        self._order = [node for component in components
                       for node in sorted(component, key=priority.__getitem__)]

    def _register_edges(self, ordered_nodes: Sequence[Node],
                        priority: Dict[Node, int]) -> Dict[Node, List[Node]]:
        """Ask the problem once for each node's dependencies and register
        the in-problem ones as dependence edges; the returned lists are
        for condensing into SCCs and are dropped before solving."""
        dependencies = self.problem.dependencies
        edges: Dict[Node, List[Node]] = {}
        for node in ordered_nodes:
            inside = [dependency for dependency in dependencies(node)
                      if dependency in priority]
            edges[node] = inside
            for dependency in inside:
                self.add_dependency(node, dependency)
        return edges

    def register(self, state: SparseProblem) -> None:
        """Bind ``state`` and register its whole dependence graph.

        :meth:`solve` and :meth:`resolve_from` do this themselves.  GR's
        edit refresh registers first, because it closes its seed set over
        :meth:`dependents`; the following ``resolve_from`` on the same state
        reuses the registration, so ``dependencies`` is still asked once per
        node.
        """
        self.problem = state
        bind = getattr(state, "bind", None)
        if bind is not None:
            bind(self)
        ordered_nodes = list(state.nodes())
        priority = {node: position for position, node in enumerate(ordered_nodes)}
        edges = self._register_edges(ordered_nodes, priority)
        self._registered = (state, ordered_nodes, priority, edges)

    def dependents(self, node: Node) -> Sequence[Node]:
        """The registered nodes that read ``node``."""
        return self._dependents.get(node, ())

    def resolve_from(self, state: SparseProblem,
                     seeds: Optional[Iterable[Node]] = None) -> SolverStatistics:
        """Restart change-driven propagation from ``seeds`` against ``state``.

        ``state`` is the problem holding a previously computed fixed point
        (problems own their abstract values, so the retained state *is* the
        problem); ``seeds`` are the nodes an edit can influence.  GR is the
        one fixed point an edit re-seeds; the other interprocedural analyses
        rebuild cold.  ``seeds=None`` seeds every node, which is the cold
        solve (:meth:`solve`).  The schedule is the cold one restricted to
        the seed set:

        1. the seed subgraph is condensed and swept dependencies-first,
           reading retained values for every non-seed dependency (because
           dependence cycles are either entirely inside or entirely outside
           a dependent-closed seed set, the relative order matches the cold
           sweep's);
        2. the worklist drains changes, which may escape the seed set —
           non-seed nodes are pre-marked as evaluated so they re-enter the
           schedule the moment an input of theirs changes;
        3. descending (narrowing) passes re-run over the seeds only.

        Widening re-arms on the seeds alone: their evaluation counters start
        at zero, so ``max_node_evaluations`` bounds the re-seeded region
        exactly as a cold solve would, while retained nodes keep their prior
        fixed point unless propagation actually reaches them.  The returned
        statistics cover only this run — callers fold them into a long-lived
        counter with :meth:`SolverStatistics.accumulate`.
        """
        stats = self.statistics
        if self._registered is None or self._registered[0] is not state:
            self.register(state)
        _, ordered_nodes, priority, edges = self._registered
        self._registered = None
        if seeds is None:
            seed_list = ordered_nodes
        else:
            # Seeds in sweep-priority order, deduplicated, unknown nodes
            # dropped (an edit's seed map may mention values that no longer
            # exist).
            seed_list = sorted({node for node in seeds if node in priority},
                               key=priority.__getitem__)
            seed_set = set(seed_list)
            # The full dependence graph is registered — change propagation
            # must be able to leave the seed set — but only scheduled
            # evaluations count as steps, so the edit pays O(edit cone)
            # evaluations.
            for node in ordered_nodes:
                if node not in seed_set:
                    self._evaluations[node] = 1
        stats.nodes = len(seed_list)
        self._schedule(seed_list, priority, edges)
        return self._run_phases()

    def _run_phases(self) -> SolverStatistics:
        problem = self.problem

        # Phase 1: one topological sweep (dependencies before dependents).
        for node in self._order:
            self._evaluate(node, phase="sweep")
        problem.on_phase("sweep")

        # Phase 2: change-driven iteration with widening at refinement points.
        while self._worklist:
            node = self._worklist.popleft()
            self._enqueued.discard(node)
            self._evaluate(node, phase="ascending")
        problem.on_phase("ascending")

        # Phase 3: descending sweeps (narrowing) in the same global order.
        for step in range(self.descending_passes):
            for node in self._order:
                self._evaluate(node, phase="descending")
            problem.on_phase(f"descending:{step + 1}")
        return self.statistics
