"""The client analyses: bounds verdicts, loop verdicts, service surface."""

from repro.clients import (
    DEFINITELY_OOB,
    MAYBE_OOB,
    SAFE,
    BoundsCheckAnalysis,
    LoopParallelismAnalysis,
)
from repro.engine import keys
from repro.engine.manager import AnalysisManager
from repro.frontend import compile_source
from repro.service import AnalysisSession, ResultStore, handle_payload

CONST_EXTENTS = """
int main(int argc, char** argv) {
  int* p = (int*)malloc(8);
  p[0] = 1;
  p[1] = 2;
  p[4] = 3;
  free(p);
  return 0;
}
"""

OFF_BY_ONE = """
int main(int argc, char** argv) {
  int n = atoi(argv[1]);
  int* buf = (int*)malloc(n * 4);
  int i;
  for (i = 0; i < n; i++) {
    buf[i] = i;
  }
  buf[n] = 7;
  free(buf);
  return 0;
}
"""

WALK_THEN_SUM = """
int main(int argc, char** argv) {
  int n = atoi(argv[1]);
  int* p = (int*)malloc(n * 4);
  int i;
  int acc = 0;
  for (i = 0; i < n; i++) {
    p[i] = i;
  }
  for (i = 0; i < n; i++) {
    acc = acc + p[i];
  }
  free(p);
  return acc;
}
"""

SHIFT = """
int main(int argc, char** argv) {
  int n = atoi(argv[1]);
  int* a = (int*)malloc(n * 4 + 4);
  int i;
  for (i = 0; i < n; i++) {
    a[i] = i;
  }
  a[n] = 0;
  for (i = 0; i < n; i++) {
    a[i] = a[i + 1];
  }
  free(a);
  return 0;
}
"""

FREEING_LOOP = """
int main(int argc, char** argv) {
  int n = atoi(argv[1]);
  int i;
  for (i = 0; i < n; i++) {
    int* p = (int*)malloc(4);
    p[0] = i;
    free(p);
  }
  return 0;
}
"""

MIXED_WIDTH_OVERLAP = """
int main(int argc, char** argv) {
  int n = atoi(argv[1]);
  char* buf = (char*)malloc(n * 8 + 16);
  int i;
  for (i = 0; i < n * 8; i = i + 8) {
    *(int*)(buf + i) = 7;
    buf[i + 10] = 1;
  }
  free(buf);
  return 0;
}
"""

MIXED_WIDTH_DISJOINT = MIXED_WIDTH_OVERLAP.replace(
    "buf[i + 10] = 1;", "buf[i + 4] = 1;")

LOOP_CARRIED_MALLOC = """
int main(int argc, char** argv) {
  int n = atoi(argv[1]);
  int* prev = (int*)malloc(4);
  int i;
  prev[0] = 7;
  for (i = 0; i < n; i++) {
    int* fresh = (int*)malloc(4);
    fresh[0] = i + prev[0];
    prev = fresh;
  }
  return 0;
}
"""

SRC_TWO_FUNCTIONS = """
void fill(char* buf, int n) {
  int i;
  for (i = 0; i < n; i++) { buf[i] = 1; }
}
int main(int argc, char** argv) {
  int n = atoi(argv[1]);
  char* bytes = (char*)malloc(n);
  fill(bytes, n);
  free(bytes);
  return 0;
}
"""

SRC_TWO_FUNCTIONS_EDITED = SRC_TWO_FUNCTIONS.replace(
    "buf[i] = 1;", "buf[i] = 7; buf[i + 2] = 9;")


def detector_for(source, name="m"):
    module = compile_source(source, name)
    return BoundsCheckAnalysis(module, manager=AnalysisManager(module))


def checker_for(source, name="m"):
    module = compile_source(source, name)
    return LoopParallelismAnalysis(module, manager=AnalysisManager(module))


def main_report(analysis):
    module = analysis.module
    return analysis.function_report(module.get_function("main"))


class TestBoundsVerdicts:
    def test_constant_extents_classify_exactly(self):
        report = main_report(detector_for(CONST_EXTENTS))
        stores = [a for a in report["accesses"] if a["opcode"] == "store"]
        assert [a["classification"] for a in stores] == [
            SAFE, SAFE, DEFINITELY_OOB]
        assert report["summary"]["definitely_oob"] == 1

    def test_symbolic_extent_proves_loop_body_safe(self):
        report = main_report(detector_for(OFF_BY_ONE))
        stores = [a for a in report["accesses"] if a["opcode"] == "store"]
        # The in-loop buf[i] store is proven safe against the symbolic
        # malloc extent; the trailing buf[n] store is pinned out of it.
        assert SAFE in {a["classification"] for a in stores}
        assert [a for a in stores
                if a["classification"] == DEFINITELY_OOB], stores
        assert report["summary"]["definitely_oob"] == 1

    def test_unprovable_access_stays_maybe(self):
        # argv has no visible extent: indexing it can never be proven.
        report = main_report(detector_for(OFF_BY_ONE))
        loads = [a for a in report["accesses"] if a["opcode"] == "load"]
        assert MAYBE_OOB in {a["classification"] for a in loads}

    def test_module_report_sums_function_summaries(self):
        detector = detector_for(SRC_TWO_FUNCTIONS)
        module = detector.module_report()
        names = [f["function"] for f in module["functions"]]
        assert names == sorted(names)
        per_function = sum(f["summary"]["safe"] for f in module["functions"])
        assert module["summary"]["safe"] == per_function
        only_fill = detector.module_report("fill")
        assert [f["function"] for f in only_fill["functions"]] == ["fill"]


class TestLoopVerdicts:
    def test_disjoint_walk_and_readonly_sum_are_parallel(self):
        report = main_report(checker_for(WALK_THEN_SUM))
        assert report["summary"] == {"loops": 2, "parallel": 2}

    def test_overlapping_shift_is_dependent(self):
        report = main_report(checker_for(SHIFT))
        assert report["summary"]["loops"] == 2
        assert report["summary"]["parallel"] == 1
        reasons = {loop["reason"] for loop in report["loops"]
                   if not loop["parallel"]}
        assert any(reason.startswith("dependent") for reason in reasons)

    def test_mixed_width_lockstep_overlap_is_dependent(self):
        # Regression: the lockstep-stride rule once swapped the access
        # widths (testing wa <= d mod s <= s - wb instead of
        # wb <= d mod s <= s - wa), declaring a 1-byte store at
        # base+10+8i independent of a 4-byte store at base+8j although
        # adjacent iterations overlap on byte 8j+2.
        report = main_report(checker_for(MIXED_WIDTH_OVERLAP))
        (loop,) = report["loops"]
        assert loop["parallel"] is False
        assert loop["reason"].startswith("dependent")

    def test_mixed_width_lockstep_disjoint_is_parallel(self):
        # The residue 4 with widths (4, 1) and stride 8 is genuinely
        # unreachable by any iteration pair: precision must survive the
        # soundness fix.
        report = main_report(checker_for(MIXED_WIDTH_DISJOINT))
        (loop,) = report["loops"]
        assert loop["parallel"] is True

    def test_loop_carried_malloc_pointer_is_dependent(self):
        # Regression: a shared in-loop allocation site is not enough for
        # independence — the loop-carried phi reaches the *previous*
        # iteration's malloc'd object, so iteration i's store and
        # iteration i+1's load touch the same concrete object.
        report = main_report(checker_for(LOOP_CARRIED_MALLOC))
        (loop,) = report["loops"]
        assert loop["parallel"] is False
        assert loop["reason"].startswith("dependent")

    def test_freeing_loop_is_never_parallel(self):
        report = main_report(checker_for(FREEING_LOOP))
        assert report["summary"]["loops"] == 1
        (loop,) = report["loops"]
        assert loop["parallel"] is False
        assert loop["reason"] == "frees-memory"


class TestServiceOps:
    def test_check_bounds_and_parallel_loops_shapes(self):
        session = AnalysisSession()
        session.load_source("m", OFF_BY_ONE)
        bounds = session.check_bounds("m")
        assert bounds["module"] == "m" and bounds["function"] is None
        assert bounds["summary"]["definitely_oob"] == 1
        loops = session.parallel_loops("m", "main")
        assert loops["function"] == "main"
        assert loops["summary"]["loops"] == 1
        assert loops["summary"]["parallel"] == 1

    def test_function_scoped_report_matches_module_slice(self):
        session = AnalysisSession()
        session.load_source("m", SRC_TWO_FUNCTIONS)
        whole = session.check_bounds("m")
        scoped = session.check_bounds("m", "fill")
        slice_ = [f for f in whole["functions"] if f["function"] == "fill"]
        assert scoped["functions"] == slice_

    def test_unknown_function_is_a_structured_error(self):
        session = AnalysisSession()
        session.load_source("m", CONST_EXTENTS)
        for op in ("check_bounds", "parallel_loops"):
            envelope = handle_payload(session, {
                "op": op, "v": 1, "module": "m", "function": "nope"})
            assert envelope["ok"] is False
            assert envelope["error_code"] == "unknown_function"

    def test_handle_request_round_trip(self):
        session = AnalysisSession()
        handle_payload(session, {"op": "load", "v": 1, "name": "m",
                                 "source": SHIFT})
        bounds = handle_payload(session, {"op": "check_bounds", "v": 1,
                                          "module": "m"})
        assert bounds["ok"] is True
        assert bounds["summary"]["accesses"] > 0
        loops = handle_payload(session, {"op": "parallel_loops", "v": 1,
                                         "module": "m", "function": "main"})
        assert loops["ok"] is True
        assert loops["summary"]["loops"] == 2

    def test_warm_store_serves_without_materializing(self, tmp_path):
        root = str(tmp_path / "store")
        cold = AnalysisSession(store=ResultStore(root))
        cold.load_source("m", SHIFT)
        cold_answers = [cold.check_bounds("m"), cold.parallel_loops("m"),
                        cold.check_bounds("m", "main")]
        assert cold.stats("m")["materialized"] is True

        warm = AnalysisSession(store=ResultStore(root))
        warm.load_source("m", SHIFT)
        warm_answers = [warm.check_bounds("m"), warm.parallel_loops("m"),
                        warm.check_bounds("m", "main")]
        assert warm_answers == cold_answers
        record = warm.stats("m")
        assert record["materialized"] is False
        assert record["solver_steps"] == 0
        assert warm.store.misses == 0

    def test_post_edit_reports_match_cold_recompute(self):
        edited = AnalysisSession()
        edited.load_source("m", SRC_TWO_FUNCTIONS)
        edited.check_bounds("m")
        edited.parallel_loops("m")
        changed = edited.edit_source("m", SRC_TWO_FUNCTIONS_EDITED)
        assert changed["changed"] == ["fill"]

        cold = AnalysisSession()
        cold.load_source("m", SRC_TWO_FUNCTIONS_EDITED)
        assert edited.check_bounds("m") == cold.check_bounds("m")
        assert edited.parallel_loops("m") == cold.parallel_loops("m")


class TestRefreshHooks:
    def test_reports_are_function_cached(self):
        detector = detector_for(SRC_TWO_FUNCTIONS)
        function = detector.module.get_function("fill")
        first = detector.function_report(function)
        assert detector.function_report(function) is first

    def test_bounds_and_parallel_keys_are_function_scoped(self):
        module = compile_source(SRC_TWO_FUNCTIONS, "m")
        manager = AnalysisManager(module)
        manager.get(keys.BOUNDS)
        manager.get(keys.PARALLEL)
        donor = compile_source(SRC_TWO_FUNCTIONS_EDITED, "m")
        old = module.replace_function(donor.get_function("fill"))
        impact = manager.apply_function_edit(old, module.get_function("fill"))
        assert {"check-bounds", "parallel-loops"} <= set(impact.refreshed)
        assert not {"check-bounds", "parallel-loops"} & set(impact.evicted)
