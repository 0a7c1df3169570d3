"""Unit tests for the shared analysis engine: solver, manager, batched queries."""

import pytest

from repro.aliases.combined import CombinedAliasAnalysis
from repro.benchgen import build_program
from repro.core import RBAAAliasAnalysis
from repro.engine import (
    AnalysisKey,
    AnalysisManager,
    SparseProblem,
    SparseSolver,
    condense_sccs,
    keys,
)
from repro.evaluation import standard_factories
from repro.evaluation.harness import enumerate_query_pairs, run_queries
from repro.frontend import compile_source


class TestSCCCondensation:
    def test_acyclic_graph_is_topologically_ordered(self):
        # a -> b -> c (an edge points at what the node *reads*).
        deps = {"a": ["b"], "b": ["c"], "c": []}
        components = condense_sccs(["a", "b", "c"], lambda n: deps[n])
        assert components == [["c"], ["b"], ["a"]]

    def test_cycle_is_one_component(self):
        deps = {"a": ["b"], "b": ["a"], "c": ["a"]}
        components = condense_sccs(["a", "b", "c"], lambda n: deps[n])
        assert sorted(sorted(c) for c in components) == [["a", "b"], ["c"]]
        # The cyclic component comes before its dependent.
        assert components[0] in (["a", "b"], ["b", "a"])

    def test_unknown_dependencies_are_ignored(self):
        components = condense_sccs(["a"], lambda n: ["not-a-node"])
        assert components == [["a"]]

    def test_self_loop(self):
        components = condense_sccs(["a", "b"], lambda n: ["a"] if n == "a" else [])
        assert sorted(map(sorted, components)) == [["a"], ["b"]]


class _MaxFlowProblem(SparseProblem):
    """Toy lattice: each node's value is max(seed, values it reads) + bias.

    With ``bias=1`` on a cycle the exact ascending chain never stabilises,
    so convergence requires the widening hook (which jumps to the cap).
    """

    name = "max-flow"

    def __init__(self, graph, seeds, widen_points=(), cap=100):
        self.graph = graph
        self.seeds = seeds
        self.widen_points = set(widen_points)
        self.cap = cap
        self.state = {}
        self.transfers = 0

    def nodes(self):
        return list(self.graph)

    def dependencies(self, node):
        return self.graph[node]

    def transfer(self, node):
        self.transfers += 1
        value = self.seeds.get(node, 0)
        for dep in self.graph[node]:
            value = max(value, self.state.get(dep, 0) + 1)
        return min(value, self.cap)

    def read(self, node):
        return self.state.get(node, 0)

    def write(self, node, value):
        self.state[node] = value

    def is_refinement_point(self, node):
        return node in self.widen_points

    def widen(self, node, old, new):
        return self.cap if new > old else new


class TestSparseSolver:
    def test_acyclic_chain_converges_in_one_sweep(self):
        # d -> c -> b -> a, listed in the worst possible priority order: the
        # SCC condensation must still schedule dependencies first.
        graph = {"d": ["c"], "c": ["b"], "b": ["a"], "a": []}
        problem = _MaxFlowProblem(graph, seeds={"a": 5})
        statistics = SparseSolver(problem).solve()
        assert problem.state == {"a": 5, "b": 6, "c": 7, "d": 8}
        # Sparse: exactly one transfer per node, no worklist iteration.
        assert statistics.steps == 4
        assert statistics.worklist_steps == 0
        assert statistics.max_node_evaluations == 1

    def test_cycle_requires_widening_to_converge(self):
        graph = {"a": ["b"], "b": ["a"]}
        problem = _MaxFlowProblem(graph, seeds={"a": 1}, widen_points=["a"], cap=50)
        statistics = SparseSolver(problem).solve()
        assert problem.state["a"] == 50
        assert problem.state["b"] == 50
        assert statistics.widenings >= 1
        # Far fewer steps than the 50 round-robin passes a dense loop needs.
        assert statistics.steps < 20

    def test_evaluation_cap_forces_convergence(self):
        # No widening points at all: the cap must still terminate the loop.
        graph = {"a": ["b"], "b": ["a"]}
        problem = _MaxFlowProblem(graph, seeds={"a": 1}, cap=1000)
        statistics = SparseSolver(problem, max_node_evaluations=6).solve()
        assert statistics.max_node_evaluations <= 6

    def test_descending_passes_run_in_order(self):
        phases = []

        class _Tracked(_MaxFlowProblem):
            def on_phase(self, phase):
                phases.append(phase)

        problem = _Tracked({"a": []}, seeds={"a": 3})
        SparseSolver(problem, descending_passes=2).solve()
        assert phases == ["sweep", "ascending", "descending:1", "descending:2"]

    def test_statistics_record_graph_shape(self):
        graph = {"a": ["b"], "b": ["a"], "c": []}
        problem = _MaxFlowProblem(graph, seeds={}, widen_points=["a"])
        statistics = SparseSolver(problem).solve()
        assert statistics.nodes == 3
        assert statistics.sccs == 2
        assert statistics.largest_scc == 2


class TestAnalysisManager:
    def _counting_key(self, builds):
        def factory(module, manager):
            builds.append(module)
            return object()
        return AnalysisKey("counted", factory)

    def test_cache_hit_returns_same_instance(self):
        module = compile_source("void f(int n) { char* p = (char*)malloc(n); *p = 0; }")
        manager = AnalysisManager(module)
        builds = []
        key = self._counting_key(builds)
        first = manager.get(key)
        second = manager.get(key)
        assert first is second
        assert len(builds) == 1
        assert manager.statistics.hits == 1
        assert manager.statistics.misses == 1

    def test_two_dependent_consumers_build_shared_input_once(self):
        """The ISSUE's acceptance test: GR and LR both require the range
        bootstrap; requesting both through one manager must construct the
        underlying SymbolicRangeAnalysis exactly once."""
        module = compile_source("""
        void f(int n) {
          char* p = (char*)malloc(n);
          char* q = p + 1;
          *q = 0;
        }
        """)
        manager = AnalysisManager(module)
        builds = []
        original = keys.RANGES.factory

        def counting(module_, manager_, **kwargs):
            builds.append(module_)
            return original(module_, manager_, **kwargs)

        import repro.engine.keys as keymod
        counted_ranges = AnalysisKey(keys.RANGES.name, counting)
        ranges_key = keys.RANGES
        try:
            # Swap the key the dependent factories resolve against.
            keymod.RANGES = counted_ranges
            global_analysis = manager.get(keys.GLOBAL_RANGES)
            local_analysis = manager.get(keys.LOCAL_RANGES)
        finally:
            keymod.RANGES = ranges_key
        assert len(builds) == 1
        assert global_analysis.ranges is local_analysis.ranges
        assert global_analysis.locations is local_analysis.locations

    def test_parameterized_requests_cache_separately(self):
        from repro.rangeanalysis.symbolic_ra import RangeAnalysisOptions
        module = compile_source("int f(int a) { return a + 1; }")
        manager = AnalysisManager(module)
        default = manager.get(keys.RANGES)
        custom = manager.get(keys.RANGES,
                             options=RangeAnalysisOptions(loads_as_symbols=False))
        assert default is not custom
        assert manager.get(keys.RANGES) is default

    def test_invalidation_evicts_dependents_transitively(self):
        module = compile_source("void f(int n) { char* p = (char*)malloc(n); *p = 0; }")
        manager = AnalysisManager(module)
        global_analysis = manager.get(keys.GLOBAL_RANGES)
        assert manager.cached(keys.RANGES) is not None
        evicted = manager.invalidate(keys.RANGES)
        # RANGES itself plus GLOBAL_RANGES, which was built on top of it.
        assert evicted >= 2
        assert manager.cached(keys.GLOBAL_RANGES) is None
        rebuilt = manager.get(keys.GLOBAL_RANGES)
        assert rebuilt is not global_analysis

    def test_full_invalidation_clears_everything(self):
        module = compile_source("void f() { }")
        manager = AnalysisManager(module)
        manager.get(keys.LOCATIONS)
        manager.get(keys.CALLGRAPH)
        assert len(manager) == 2
        manager.invalidate()
        assert len(manager) == 0

    @pytest.mark.parametrize("key", [keys.RANGES, keys.GLOBAL_RANGES,
                                     keys.LOCAL_RANGES, keys.ANDERSEN,
                                     keys.STEENSGAARD], ids=lambda key: key.name)
    def test_cold_builds_give_equal_solver_statistics(self, key):
        module = build_program("anagram").module
        first = AnalysisManager(module).get(key).solver_statistics
        second = AnalysisManager(module).get(key).solver_statistics
        assert first.steps > 0
        assert first == second

    def test_rbaa_instances_share_analyses_through_manager(self):
        module = compile_source("""
        void f(int n) { char* p = (char*)malloc(n); *p = 0; }
        """)
        manager = AnalysisManager(module)
        first = RBAAAliasAnalysis(module, manager=manager)
        second = RBAAAliasAnalysis(module, manager=manager)
        assert first.ranges is second.ranges
        assert first.global_analysis is second.global_analysis
        assert first.local_analysis is second.local_analysis


class TestBatchedQueries:
    SOURCE = """
    void f(int n) {
      char* a = (char*)malloc(n);
      char* b = (char*)malloc(n);
      char* lo = a;
      char* hi = a + n;
      a[0] = 0;
      b[0] = 0;
    }
    """

    def _pairs(self, module):
        return [(pair.a, pair.b) for pair in enumerate_query_pairs(module)]

    def test_query_many_matches_individual_queries(self):
        module = compile_source(self.SOURCE)
        rbaa = RBAAAliasAnalysis(module)
        pairs = self._pairs(module)
        batched = rbaa.query_many(pairs)
        fresh = RBAAAliasAnalysis(module)
        individual = [fresh.alias(a, b) for a, b in pairs]
        assert batched == individual

    def test_rbaa_statistics_survive_the_batched_path(self):
        """Regression: memoized pairs must still hit the Figure-14 counters."""
        module = compile_source(self.SOURCE)
        rbaa = RBAAAliasAnalysis(module)
        pairs = self._pairs(module)
        duplicated = pairs + pairs  # every pair answered twice, once memoized
        rbaa.query_many(duplicated)
        stats = rbaa.statistics
        assert stats.queries == len(duplicated)
        assert stats.no_alias > 0
        assert stats.no_alias == (stats.answered_by_global + stats.answered_by_local
                                  + stats.answered_by_distinct_objects)
        # Counters doubled along with the queries: batching preserved ratios.
        assert stats.no_alias % 2 == 0
        assert rbaa.pair_memo.hits == len(pairs)

    def test_query_memoization_skips_recomputation(self):
        module = compile_source(self.SOURCE)
        rbaa = RBAAAliasAnalysis(module)
        pairs = self._pairs(module)
        rbaa.query_many(pairs + pairs)
        # The analysis's pair memo computed each distinct pair once.
        assert len(rbaa.pair_memo) == len(pairs)
        assert rbaa.pair_memo.misses == len(pairs)

    def test_combined_credit_counts_every_ask_on_any_call_path(self):
        """A chain's credit is per ask: a batch with every pair twice
        credits the same as an ``alias`` loop over the same asks."""
        program = build_program("anagram")
        pairs = [(pair.a, pair.b)
                 for pair in enumerate_query_pairs(program.module)]
        asks = pairs + pairs

        def chain():
            manager = AnalysisManager(program.module)
            return CombinedAliasAnalysis(
                program.module, [manager.get(keys.RBAA), manager.get(keys.BASIC)])

        batched = chain()
        batched_answers = batched.query_many(asks)
        looped = chain()
        looped_answers = [looped.alias(a, b) for a, b in asks]
        assert batched_answers == looped_answers
        assert batched.credit["rbaa"] > 0
        assert batched.credit == looped.credit
        rbaa_batched, rbaa_looped = batched.analyses[0], looped.analyses[0]
        assert rbaa_batched.statistics == rbaa_looped.statistics
        assert rbaa_batched.statistics.queries == len(asks)

    def test_run_queries_uses_shared_manager(self):
        module = compile_source(self.SOURCE)
        manager = AnalysisManager(module)

        def rbaa_factory(mod, manager=None):
            return RBAAAliasAnalysis(mod, manager=manager)

        result = run_queries("t", module,
                             [("rbaa", rbaa_factory), ("rbaa2", rbaa_factory)],
                             manager=manager)
        assert result.queries > 0
        assert result.no_alias["rbaa"] == result.no_alias["rbaa2"]
        # The second factory found every sub-analysis in the cache.
        assert manager.statistics.hits > 0

    def test_run_queries_twice_gives_equal_results(self):
        module = build_program("anagram").module
        first = run_queries("anagram", module, standard_factories())
        second = run_queries("anagram", module, standard_factories())
        assert first.queries > 0
        assert first == second
