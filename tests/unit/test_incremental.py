"""Function-granular incremental analysis: IR edits + manager reaction.

Covers the two layers under the analysis service: ``Module
.replace_function`` (the IR-level graft primitive) and ``AnalysisManager
.apply_function_edit`` (refresh what has a hook, evict the rest),
including the refresh hooks of the function-local analyses.
"""

import itertools
import re

import pytest

from repro.aliases.results import MemoryAccess
from repro.engine import keys
from repro.engine.manager import AnalysisKey, AnalysisManager
from repro.frontend import compile_source
from repro.ir.instructions import CallInst
from repro.ir.printer import print_function

SRC_V1 = """
int shared_table[16];

void fill(char* buf, int n) {
  int i;
  for (i = 0; i < n; i++) { buf[i] = 1; }
}
int scan(int* xs, int n) {
  int i;
  int total = 0;
  for (i = 0; i < n; i++) { total += xs[i] + shared_table[i % 16]; }
  return total;
}
int main(int argc, char** argv) {
  int n = atoi(argv[1]);
  char* bytes = (char*)malloc(n);
  int* ints = (int*)malloc(n * 4);
  fill(bytes, n);
  return scan(ints, n);
}
"""

SRC_V2 = SRC_V1.replace("buf[i] = 1;", "buf[i] = 2; buf[i + 3] = 4;")


def _compile_pair():
    module = compile_source(SRC_V1, "prog")
    donor = compile_source(SRC_V2, "prog")
    return module, donor


class TestReplaceFunction:
    def test_grafts_body_and_preserves_module_order(self):
        module, donor = _compile_pair()
        names_before = [fn.name for fn in module.functions]
        old = module.replace_function(donor.get_function("fill"))
        assert old.parent is None
        assert [fn.name for fn in module.functions] == names_before
        new = module.get_function("fill")
        assert new is donor.get_function("fill")
        assert new.parent is module
        assert "4" in print_function(new)  # the edited body landed

    def test_call_sites_are_retargeted(self):
        module, donor = _compile_pair()
        module.replace_function(donor.get_function("fill"))
        new = module.get_function("fill")
        main = module.get_function("main")
        callees = [inst.callee for inst in main.instructions()
                   if isinstance(inst, CallInst) and inst.callee_name() == "fill"]
        assert callees and all(callee is new for callee in callees)

    def test_donor_global_references_are_remapped(self):
        module, donor = _compile_pair()
        donor_v3 = compile_source(
            SRC_V2.replace("xs[i] + shared_table[i % 16]",
                           "xs[i] + shared_table[(i + 1) % 16]"), "prog")
        module.replace_function(donor_v3.get_function("scan"))
        table = module.get_global("shared_table")
        new = module.get_function("scan")
        referenced = {operand for inst in new.instructions()
                      for operand in inst.operands
                      if operand.name == "shared_table"}
        assert referenced == {table}
        # The graft also registered uses on this module's global, so
        # use-lists stay coherent for escape/address-taken reasoning.
        assert any(use.user.function is new for use in table.uses)

    def test_old_body_uses_are_detached(self):
        module, donor = _compile_pair()
        table = module.get_global("shared_table")
        old = module.replace_function(donor.get_function("scan"))
        assert all(use.user.function is not old for use in table.uses)

    def test_signature_change_is_rejected(self):
        module, _ = _compile_pair()
        other = compile_source("void fill(char* buf) { *buf = 0; }", "donor")
        with pytest.raises(ValueError, match="signature"):
            module.replace_function(other.get_function("fill"))

    def test_unknown_function_is_rejected(self):
        module, _ = _compile_pair()
        other = compile_source("void nobody(int x) { }", "donor")
        with pytest.raises(ValueError, match="no function"):
            module.replace_function(other.get_function("nobody"))


class TestApplyFunctionEdit:
    def _edit(self, module, donor, name):
        manager = AnalysisManager(module)
        rbaa = manager.get(keys.RBAA)
        ranges = manager.get(keys.RANGES)
        lr = manager.get(keys.LOCAL_RANGES)
        gr = manager.get(keys.GLOBAL_RANGES)
        # Build the callgraph-scoped aliasing fixed points too so the edit
        # exercises their in-place rebuilds rather than lazy cold builds.
        manager.get(keys.ANDERSEN)
        manager.get(keys.STEENSGAARD)
        old = module.replace_function(donor.get_function(name))
        impact = manager.apply_function_edit(old, module.get_function(name))
        return manager, impact, (rbaa, ranges, lr, gr)

    def test_function_scoped_entries_refresh_in_place(self):
        module, donor = _compile_pair()
        manager, impact, (rbaa, ranges, lr, gr) = self._edit(module, donor, "fill")
        assert "symbolic-ranges" in impact.refreshed
        assert "local-ranges" in impact.refreshed
        assert "rbaa" in impact.refreshed
        assert manager.get(keys.RANGES) is ranges
        assert manager.get(keys.LOCAL_RANGES) is lr
        assert manager.get(keys.RBAA) is rbaa

    def test_callgraph_scoped_entries_reseed_in_place(self):
        module, donor = _compile_pair()
        manager, impact, (_, _, _, gr) = self._edit(module, donor, "fill")
        assert "global-ranges" in impact.refreshed
        assert "global-ranges" not in impact.evicted
        # Same object, re-seeded: no eviction, and the telemetry records how
        # much of the fixed point survived.
        assert manager.get(keys.GLOBAL_RANGES) is gr
        assert impact.reseeded["global-ranges"] > 0
        assert impact.retained["global-ranges"] > 0

    def test_callgraph_refreshes_in_place(self):
        module, donor = _compile_pair()
        manager = AnalysisManager(module)
        callgraph = manager.get(keys.CALLGRAPH)
        old = module.replace_function(donor.get_function("fill"))
        impact = manager.apply_function_edit(old, module.get_function("fill"))
        assert "callgraph" in impact.refreshed
        assert impact.evicted == []
        assert manager.get(keys.CALLGRAPH) is callgraph
        fill = module.get_function("fill")
        assert [site.caller.name for site in callgraph.sites_calling(fill)] == ["main"]
        assert not callgraph.sites_calling(old)

    def test_refresh_accumulates_solver_steps(self):
        module, donor = _compile_pair()
        manager = AnalysisManager(module)
        ranges = manager.get(keys.RANGES)
        before = ranges.solver_statistics.steps
        old = module.replace_function(donor.get_function("fill"))
        manager.apply_function_edit(old, module.get_function("fill"))
        after = ranges.solver_statistics.steps
        assert after > before
        # The refresh re-ran only one function: far fewer steps than a
        # whole-module solve.
        assert after - before < before

    def test_refresh_counter_and_fallback_eviction(self):
        module, donor = _compile_pair()
        manager = AnalysisManager(module)
        # A value without a refresh hook must fall back to eviction instead
        # of being silently kept stale.
        hookless = AnalysisKey("hookless", lambda m, mgr: object())
        manager.get(hookless)
        manager.get(keys.RANGES)
        old = module.replace_function(donor.get_function("fill"))
        impact = manager.apply_function_edit(old, module.get_function("fill"))
        assert "hookless" in impact.evicted
        assert manager.statistics.refreshes > 0

    def test_edit_evicts_only_the_clients(self):
        # The service's solver-step totals sum the cached analyses only, so
        # an edit must never evict an analysis that ran the solver; every
        # shipped key but the two clients refreshes in place.  The clients
        # run no solver, and their reports may depend on any function, so
        # an edit evicts them and the next request rebuilds them.
        module, donor = _compile_pair()
        manager = AnalysisManager(module)
        for name in keys.__all__:
            manager.get(getattr(keys, name))
        old = module.replace_function(donor.get_function("fill"))
        impact = manager.apply_function_edit(old, module.get_function("fill"))
        clients = {keys.BOUNDS.name, keys.PARALLEL.name}
        assert impact.evicted == sorted(clients)
        assert set(impact.refreshed) == {getattr(keys, name).name
                                         for name in keys.__all__} - clients

    def test_reseed_is_cheaper_than_cold_rebuild(self):
        module, donor = _compile_pair()
        manager, impact, _ = self._edit(module, donor, "fill")
        cold = AnalysisManager(compile_source(SRC_V2, "prog"))
        warm_gr = manager.get(keys.GLOBAL_RANGES)
        cold_gr = cold.get(keys.GLOBAL_RANGES)
        # Warm totals cover the original solve PLUS the refresh; the refresh
        # alone (total minus one cold-equivalent solve) must be strictly
        # cheaper than solving the edited module from scratch.
        gr_refresh = warm_gr.solver_statistics.steps - cold_gr.solver_statistics.steps
        assert 0 < gr_refresh < cold_gr.solver_statistics.steps
        assert impact.reseeded["global-ranges"] > 0

    def test_points_to_baselines_rebuild_cold_in_place(self):
        # GR is the only fixed point an edit re-seeds: Andersen and
        # Steensgaard run a cold solve of the edited module on the same
        # object, and report no re-seed telemetry.
        module, donor = _compile_pair()
        manager = AnalysisManager(module)
        built = {key: manager.get(key) for key in (keys.ANDERSEN, keys.STEENSGAARD)}
        before = {key: analysis.solver_statistics.steps
                  for key, analysis in built.items()}
        old = module.replace_function(donor.get_function("fill"))
        impact = manager.apply_function_edit(old, module.get_function("fill"))
        cold = AnalysisManager(compile_source(SRC_V2, "prog"))
        for key, analysis in built.items():
            assert manager.get(key) is analysis
            assert analysis.solver_statistics.steps \
                == before[key] + cold.get(key).solver_statistics.steps
            assert key.name in impact.refreshed
            assert key.name not in impact.reseeded

    def test_gr_state_matches_cold_rebuild(self):
        module, donor = _compile_pair()
        manager, _, _ = self._edit(module, donor, "fill")
        cold_module = compile_source(SRC_V2, "prog")
        cold = AnalysisManager(cold_module)
        warm_gr = manager.get(keys.GLOBAL_RANGES)
        cold_gr = cold.get(keys.GLOBAL_RANGES)
        for fn_name in ("fill", "scan", "main"):
            warm_fn = module.get_function(fn_name)
            cold_fn = cold_module.get_function(fn_name)
            for warm_v, cold_v in zip(warm_fn.pointer_values(),
                                      cold_fn.pointer_values()):
                assert repr(warm_gr.value_of(warm_v)) \
                    == repr(cold_gr.value_of(cold_v)), (fn_name, warm_v)

    def test_andersen_state_matches_cold_rebuild(self):
        module, donor = _compile_pair()
        manager, _, _ = self._edit(module, donor, "fill")
        cold_module = compile_source(SRC_V2, "prog")
        cold = AnalysisManager(cold_module)
        warm = manager.get(keys.ANDERSEN)
        cold_andersen = cold.get(keys.ANDERSEN)

        def shape(analysis, fn):
            out = []
            for value in fn.pointer_values():
                pts = analysis.points_to_set(value)
                out.append(sorted(str(obj) for obj in pts))
            return out

        for fn_name in ("fill", "scan", "main"):
            assert shape(warm, module.get_function(fn_name)) \
                == shape(cold_andersen, cold_module.get_function(fn_name)), fn_name

    def test_warm_results_match_cold_rebuild(self):
        module, donor = _compile_pair()
        manager, _, _ = self._edit(module, donor, "fill")
        cold_module = compile_source(SRC_V2, "prog")
        cold = AnalysisManager(cold_module)
        for key in (keys.RBAA, keys.BASIC, keys.ANDERSEN, keys.STEENSGAARD):
            warm_analysis = manager.get(key)
            cold_analysis = cold.get(key)
            for fn_name in ("fill", "scan", "main"):
                warm_fn = module.get_function(fn_name)
                cold_fn = cold_module.get_function(fn_name)
                warm_pairs = [(MemoryAccess.of(a), MemoryAccess.of(b))
                              for a, b in itertools.combinations(
                                  warm_fn.pointer_values(), 2)]
                cold_pairs = [(MemoryAccess.of(a), MemoryAccess.of(b))
                              for a, b in itertools.combinations(
                                  cold_fn.pointer_values(), 2)]
                assert len(warm_pairs) == len(cold_pairs)
                warm_answers = warm_analysis.query_many(warm_pairs)
                cold_answers = cold_analysis.query_many(cold_pairs)
                assert warm_answers == cold_answers, (key.name, fn_name)


CALLS_V1 = """
int grid[8];
int* step(int* p, int k) { return p + k; }
void touch(int* p, int n) { int i; for (i = 0; i < n; i++) { p[i] = i; } }
int main(int argc, char** argv) {
  int n = atoi(argv[1]);
  int* xs = (int*)malloc(n * 4);
  touch(xs, n);
  return xs[0];
}
"""

#: ``step`` gains its first call site: its parameter stops being seeded as
#: externally visible and binds to ``grid`` instead.
CALLS_V2 = CALLS_V1.replace("touch(xs, n);", "touch(xs, n); touch(step(grid, 2), 3);")


LOCATION_ID = re.compile(r"loc\d+")


class TestCallGraphSharing:
    def test_consumers_share_the_managers_callgraph(self):
        manager = AnalysisManager(compile_source(CALLS_V1, "prog"))
        callgraph = manager.get(keys.CALLGRAPH)
        assert manager.get(keys.GLOBAL_RANGES).callgraph is callgraph
        assert manager.get(keys.ANDERSEN).callgraph is callgraph
        assert manager.get(keys.STEENSGAARD).callgraph is callgraph

    @pytest.mark.parametrize("before, after", [(CALLS_V1, CALLS_V2), (CALLS_V2, CALLS_V1)],
                             ids=["first-call-added", "last-call-removed"])
    def test_call_site_edit_matches_cold_rebuild(self, before, after):
        module = compile_source(before, "prog")
        manager = AnalysisManager(module)
        callgraph = manager.get(keys.CALLGRAPH)
        for key in (keys.GLOBAL_RANGES, keys.ANDERSEN, keys.STEENSGAARD):
            manager.get(key)
        old = module.replace_function(compile_source(after, "prog").get_function("main"))
        impact = manager.apply_function_edit(old, module.get_function("main"))
        assert impact.evicted == []
        assert manager.get(keys.CALLGRAPH) is callgraph
        step_callers = [site.caller.name for site in
                        callgraph.sites_calling(module.get_function("step"))]
        assert step_callers == (["main"] if after is CALLS_V2 else [])

        cold_module = compile_source(after, "prog")
        cold = AnalysisManager(cold_module)

        def pointers(of_module):
            return [value for function in of_module.defined_functions()
                    for value in function.pointer_values()]

        warm_values, cold_values = pointers(module), pointers(cold_module)
        assert len(warm_values) == len(cold_values)
        # Location ids are allocation order, which an edit does not keep.
        warm_gr, cold_gr = manager.get(keys.GLOBAL_RANGES), cold.get(keys.GLOBAL_RANGES)
        assert [LOCATION_ID.sub("loc", repr(warm_gr.value_of(value))) for value in warm_values] \
            == [LOCATION_ID.sub("loc", repr(cold_gr.value_of(value))) for value in cold_values]
        warm_andersen, cold_andersen = manager.get(keys.ANDERSEN), cold.get(keys.ANDERSEN)
        assert [sorted(map(str, warm_andersen.points_to_set(value))) for value in warm_values] \
            == [sorted(map(str, cold_andersen.points_to_set(value))) for value in cold_values]
        warm_pairs = [(MemoryAccess.of(a), MemoryAccess.of(b))
                      for a, b in itertools.combinations(warm_values, 2)]
        cold_pairs = [(MemoryAccess.of(a), MemoryAccess.of(b))
                      for a, b in itertools.combinations(cold_values, 2)]
        for key in (keys.ANDERSEN, keys.STEENSGAARD):
            assert manager.get(key).query_many(warm_pairs) \
                == cold.get(key).query_many(cold_pairs), key.name
