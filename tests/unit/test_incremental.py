"""Function-granular incremental analysis: IR edits + manager reaction.

Covers the two layers under the analysis service: ``Module
.replace_function`` (the IR-level graft primitive) and ``AnalysisManager
.apply_function_edit`` (refresh what has a hook, evict the rest),
including the refresh hooks of the function-local analyses.
"""

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
        # exercises their re-seed paths rather than lazy cold builds.
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

    def test_module_scoped_entries_still_evict(self):
        module, donor = _compile_pair()
        manager = AnalysisManager(module)
        callgraph = manager.get(keys.CALLGRAPH)
        old = module.replace_function(donor.get_function("fill"))
        impact = manager.apply_function_edit(old, module.get_function("fill"))
        assert "callgraph" in impact.evicted
        assert manager.get(keys.CALLGRAPH) is not callgraph

    def test_cone_covers_callgraph_closure(self):
        module, donor = _compile_pair()
        _, impact, _ = self._edit(module, donor, "fill")
        assert set(impact.cone) == {"fill", "scan", "main"}

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

    def test_edit_evicts_only_the_solverless_callgraph(self):
        # The service's solver-step totals sum the cached analyses only, so
        # an edit must never evict an analysis that ran the solver.
        module, donor = _compile_pair()
        manager = AnalysisManager(module)
        for name in keys.__all__:
            manager.get(getattr(keys, name))
        callgraph = manager.cached(keys.CALLGRAPH)
        old = module.replace_function(donor.get_function("fill"))
        impact = manager.apply_function_edit(old, module.get_function("fill"))
        assert impact.evicted == ["callgraph"]
        assert getattr(callgraph, "solver_statistics", None) is None

    def test_reseed_is_cheaper_than_cold_rebuild(self):
        module, donor = _compile_pair()
        manager, impact, _ = self._edit(module, donor, "fill")
        cold = AnalysisManager(compile_source(SRC_V2, "prog"))
        warm_gr = manager.get(keys.GLOBAL_RANGES)
        cold_gr = cold.get(keys.GLOBAL_RANGES)
        warm_andersen = manager.get(keys.ANDERSEN)
        cold_andersen = cold.get(keys.ANDERSEN)
        # Warm totals cover the original solve PLUS the refresh; the refresh
        # alone (total minus one cold-equivalent solve) must be strictly
        # cheaper than solving the edited module from scratch.
        gr_refresh = warm_gr.solver_statistics.steps - cold_gr.solver_statistics.steps
        assert 0 < gr_refresh < cold_gr.solver_statistics.steps
        andersen_refresh = (warm_andersen.solver_statistics.steps
                            - cold_andersen.solver_statistics.steps)
        assert 0 < andersen_refresh < cold_andersen.solver_statistics.steps
        assert impact.reseeded["andersen"] > 0

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
                import itertools
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
