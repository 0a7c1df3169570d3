"""Descending sweeps reuse a node's last transfer result when no input changed.

The reuse is an optimisation only: with it switched off (every step calls
``transfer``) every fixed point and every counter except ``reused`` must be
identical.
"""

import dataclasses

import pytest

from repro.benchgen import edit_scenario
from repro.benchgen.suites import SUITE_PROGRAMS, build_program
from repro.core.global_analysis import GlobalRangeAnalysis, _GlobalRangeProblem
from repro.engine import AnalysisManager, SparseProblem, SparseSolver, keys
from repro.frontend import compile_source
from repro.ir.values import Argument
from repro.rangeanalysis.symbolic_ra import SymbolicRangeAnalysis

INFINITY = 1000

EDIT_V1 = """
int grid[8];
int* step(int* p, int k) { return p + k; }
void touch(int* p, int n) { int i; for (i = 0; i < n; i++) { p[i] = i; } }
int main(int argc, char** argv) {
  int n = atoi(argv[1]);
  int* xs = (int*)malloc(n * 4);
  int* cursor = xs;
  while (cursor < xs + n) { *cursor = 0; cursor = cursor + 1; }
  touch(xs, n);
  return xs[0];
}
"""

#: ``main`` gains a call of ``step``: the edit re-seeds ``step``'s parameter
#: and the loop over ``cursor`` through ``SparseSolver.resolve_from``.
EDIT_V2 = EDIT_V1.replace("touch(xs, n);", "touch(xs, n); touch(step(grid, 2), 3);")


class _LoopProblem(SparseProblem):
    """A counting loop in miniature, as upper bounds: ``phi = max(init,
    min(succ, 10))``, ``succ = phi + 1`` and ``use = phi``.

    Widening sends ``phi`` to ``INFINITY``; the first descending pass
    narrows it to 10, which changes ``succ`` *after* ``phi`` was evaluated
    in that pass, so ``phi`` must be recomputed in the second pass.
    """

    name = "loop"
    GRAPH = {"init": [], "phi": ["init", "succ"], "succ": ["phi"], "use": ["phi"]}

    def __init__(self):
        self.state = {}
        self.phases = []
        #: (number of finished phases, node) per ``transfer`` call.
        self.calls = []

    def nodes(self):
        return list(self.GRAPH)

    def dependencies(self, node):
        return self.GRAPH[node]

    def transfer(self, node):
        self.calls.append((len(self.phases), node))
        read = self.read
        if node == "init":
            return 0
        if node == "phi":
            return max(read("init"), min(read("succ"), 10))
        if node == "succ":
            return read("phi") + 1
        return read("phi")

    def read(self, node):
        return self.state.get(node, 0)

    def write(self, node, value):
        self.state[node] = value

    def is_refinement_point(self, node):
        return node == "phi"

    def widen(self, node, old, new):
        return old if new <= old else INFINITY

    def narrow(self, node, old, new):
        return new if old == INFINITY else old

    def on_phase(self, phase):
        self.phases.append(phase)

    def transfers_in(self, phase):
        index = self.phases.index(phase)
        return [node for finished, node in self.calls if finished == index]


def _without_reused(statistics):
    return dataclasses.replace(statistics, reused=0)


def _every_step_transfers(patch):
    patch.setattr(SparseSolver, "_reusable", lambda self, node: False)


def _solve_loop():
    problem = _LoopProblem()
    statistics = SparseSolver(problem, descending_passes=2).solve()
    return problem, statistics


class TestToyProblem:
    def test_dependency_changed_between_passes_is_recomputed(self):
        problem, _ = _solve_loop()
        assert problem.state == {"phi": 10, "succ": 11, "use": 10}
        # ``succ`` changed after ``phi``'s first-pass step, so the second
        # pass calls ``phi``'s transfer again.
        assert problem.transfers_in("descending:1") == ["succ", "use"]
        assert problem.transfers_in("descending:2") == ["phi"]

    def test_unchanged_inputs_are_not_recomputed(self):
        problem, statistics = _solve_loop()
        # ``init`` has no inputs; ``phi`` is reused in the first pass because
        # nothing it reads was written after its last ascending transfer.
        assert "init" not in problem.transfers_in("descending:1")
        assert "phi" not in problem.transfers_in("descending:1")
        assert statistics.descending_steps == 8
        assert statistics.reused == 8 - 3
        assert statistics.steps - statistics.reused == len(problem.calls)

    def test_reuse_leaves_state_and_counters_unchanged(self, monkeypatch):
        reused_problem, reused = _solve_loop()
        with monkeypatch.context() as patch:
            _every_step_transfers(patch)
            plain_problem, plain = _solve_loop()
        assert plain.reused == 0
        assert reused_problem.state == plain_problem.state
        assert _without_reused(reused) == plain

    def test_no_descending_passes_record_nothing(self):
        problem = _LoopProblem()
        statistics = SparseSolver(problem).solve()
        assert statistics.reused == 0
        assert statistics.steps == len(problem.calls)


class TestAnalysesWithAndWithoutReuse:
    @pytest.mark.parametrize("program", [p.name for p in SUITE_PROGRAMS])
    def test_suite_fixed_points_match(self, program, monkeypatch):
        module = build_program(program).module
        manager = AnalysisManager(module)
        ranges = manager.get(keys.RANGES)
        gr = manager.get(keys.GLOBAL_RANGES)
        with monkeypatch.context() as patch:
            _every_step_transfers(patch)
            plain_ranges = SymbolicRangeAnalysis(module)
            plain_gr = GlobalRangeAnalysis(module, ranges, manager.get(keys.LOCATIONS),
                                           callgraph=manager.get(keys.CALLGRAPH))
        assert plain_ranges._ranges == ranges._ranges
        assert plain_gr._gr == gr._gr
        assert plain_ranges.solver_statistics.reused == 0
        assert plain_gr.solver_statistics.reused == 0
        assert _without_reused(ranges.solver_statistics) == plain_ranges.solver_statistics
        assert _without_reused(gr.solver_statistics) == plain_gr.solver_statistics
        assert ranges.solver_statistics.reused > 0

    @pytest.mark.parametrize("program", [p.name for p in SUITE_PROGRAMS])
    def test_only_descending_problems_reuse(self, program):
        manager = AnalysisManager(build_program(program).module)
        for key in (keys.LOCAL_RANGES, keys.ANDERSEN, keys.STEENSGAARD):
            assert manager.get(key).solver_statistics.reused == 0, key.name

    def test_gr_resolve_from_edit_matches(self, monkeypatch):
        module = compile_source(EDIT_V1, "prog")
        reusing, plain = AnalysisManager(module), AnalysisManager(module)
        reused_before_edit = reusing.get(keys.GLOBAL_RANGES).solver_statistics.reused
        with monkeypatch.context() as patch:
            _every_step_transfers(patch)
            plain.get(keys.GLOBAL_RANGES)
        old = module.replace_function(compile_source(EDIT_V2, "prog").get_function("main"))
        new = module.get_function("main")
        reusing_impact = reusing.apply_function_edit(old, new)
        with monkeypatch.context() as patch:
            _every_step_transfers(patch)
            plain_impact = plain.apply_function_edit(old, new)
        assert reusing_impact.reseeded["global-ranges"] > 0
        assert reusing_impact.as_dict() == plain_impact.as_dict()
        reusing_gr, plain_gr = reusing.get(keys.GLOBAL_RANGES), plain.get(keys.GLOBAL_RANGES)
        assert reusing_gr._gr == plain_gr._gr
        assert reusing.get(keys.RANGES)._ranges == plain.get(keys.RANGES)._ranges
        assert plain_gr.solver_statistics.reused == 0
        assert reusing_gr.solver_statistics.reused > reused_before_edit
        assert _without_reused(reusing_gr.solver_statistics) == plain_gr.solver_statistics



def _reference_seeds(problem, edit, dependencies):
    """GR's edit seeds computed the way a problem without a registered
    graph would: roots closed over a reverse map built from
    ``dependencies``."""
    analysis = problem._analysis
    edited = analysis.module.get_function(edit.function)
    rebound = analysis.callgraph.rebound
    nodes = problem.nodes()
    known = set(nodes)
    dependents = {}
    seeds = set()
    for node in nodes:
        if isinstance(node, Argument):
            if node.parent is edited or node.parent in rebound:
                seeds.add(node)
        elif node.function is edited:
            seeds.add(node)
        for dependency in dependencies(problem, node):
            if dependency in known:
                dependents.setdefault(dependency, []).append(node)
    frontier = list(seeds)
    while frontier:
        for dependent in dependents.get(frontier.pop(), ()):
            if dependent not in seeds:
                seeds.add(dependent)
                frontier.append(dependent)
    return [node for node in nodes if node in seeds]


class TestGlobalRangeEditSeeds:
    """GR's edit seeds close over the dependents the solver registers, so a
    re-solve asks ``dependencies`` once per node, not twice."""

    def _spy(self, monkeypatch):
        asked, seeded = [], []
        dependencies = _GlobalRangeProblem.dependencies
        delta_nodes = _GlobalRangeProblem.delta_nodes

        def counting(problem, node):
            asked.append(node)
            return dependencies(problem, node)

        def recording(problem, edit):
            seeds = delta_nodes(problem, edit)
            seeded.append((seeds, _reference_seeds(problem, edit,
                                                   dependencies)))
            return seeds

        monkeypatch.setattr(_GlobalRangeProblem, "dependencies", counting)
        monkeypatch.setattr(_GlobalRangeProblem, "delta_nodes", recording)
        return asked, seeded

    def test_one_function_edit_asks_each_node_once(self, monkeypatch):
        module = compile_source(EDIT_V1, "prog")
        manager = AnalysisManager(module)
        gr = manager.get(keys.GLOBAL_RANGES)
        asked, seeded = self._spy(monkeypatch)
        old = module.replace_function(compile_source(EDIT_V2, "prog").get_function("main"))
        impact = manager.apply_function_edit(old, module.get_function("main"))
        nodes = gr._pointer_nodes()
        assert len(nodes) == 18
        assert len(asked) == 18
        assert set(asked) == set(nodes)
        [(seeds, reference)] = seeded
        assert seeds == reference
        assert impact.reseeded == {"global-ranges": 18}

    @pytest.mark.parametrize("program", ["anagram", "bc"])
    def test_scenario_seeds_match_the_reverse_map_closure(self, program,
                                                          monkeypatch):
        config = next(p for p in SUITE_PROGRAMS if p.name == program).config()
        steps = edit_scenario(config, edits=2).steps
        module = compile_source(steps[0].source, program)
        manager = AnalysisManager(module)
        gr = manager.get(keys.GLOBAL_RANGES)
        asked, seeded = self._spy(monkeypatch)
        for step in steps[1:]:
            donor = compile_source(step.source, program)
            old = module.replace_function(donor.get_function(step.function))
            manager.apply_function_edit(old, module.get_function(step.function))
            cold = GlobalRangeAnalysis(module, manager.get(keys.RANGES),
                                       manager.get(keys.LOCATIONS),
                                       callgraph=manager.get(keys.CALLGRAPH))
            assert gr._gr == cold._gr
        assert [seeds for seeds, _ in seeded] == \
            [reference for _, reference in seeded]
        assert any(len(seeds) < len(gr._pointer_nodes()) for seeds, _ in seeded)
