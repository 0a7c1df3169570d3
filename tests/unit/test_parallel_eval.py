"""Unit tests for sharded evaluation: every experiment's one code path."""

import multiprocessing
import time

import pytest

from repro.benchgen import build_suite
from repro.evaluation import (
    PrecisionReport,
    ScalabilityReport,
    bench_record,
    compare_bench_files,
    map_shards,
    measure_point,
    merge_indexed,
    partition,
    run_precision_experiment,
    run_queries,
    run_scalability_experiment,
    run_sharded,
    scalability_configs,
    standard_factories,
    strip_volatile,
)
from repro.evaluation.ablation import run_ablation
from repro.evaluation.harness import frontend_fingerprint
from repro.evaluation.parallel import diff_records, write_json

PROGRAMS = ["allroots", "anagram"]
MAX_PAIRS = 100


class TestPartition:
    def test_round_robin_layout(self):
        assert partition([0, 1, 2, 3, 4], 2) == [[0, 2, 4], [1, 3]]
        assert partition(list(range(6)), 3) == [[0, 3], [1, 4], [2, 5]]

    def test_covers_every_item_exactly_once(self):
        items = list(range(17))
        for shards in (1, 2, 3, 5, 17):
            split = partition(items, shards)
            assert sorted(item for shard in split for item in shard) == items
            assert all(shard for shard in split)  # no empty shards

    def test_more_shards_than_items_clamps(self):
        assert partition([1, 2], 8) == [[1], [2]]
        assert partition([], 4) == []

    def test_merge_indexed_restores_corpus_order(self):
        items = [(index, f"value{index}") for index in range(7)]
        shards = partition(items, 3)
        assert merge_indexed(reversed(shards)) == [f"value{i}" for i in range(7)]


class TestRunSharded:
    def test_results_come_back_in_item_order(self):
        items = list(range(7))
        for jobs in (1, 3):
            assert run_sharded(abs, [-i for i in items], jobs) == items

    def test_jobs_below_one_run_in_process(self):
        assert run_sharded(lambda x: x + 1, [1, 2, 3], 0) == [2, 3, 4]


def _sleep_worker(seconds: float) -> float:
    time.sleep(seconds)
    return seconds


class TestMapShards:
    def test_serial_path_preserves_order(self):
        assert map_shards(lambda x: x * x, [3, 1, 2], jobs=1) == [9, 1, 4]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="worker pickling relies on fork-inherited modules")
    def test_workers_actually_overlap(self):
        """Four 0.4s sleeps across 4 workers must take well under the 1.6s a
        serial run needs — this holds even on a single-core machine, so it
        proves the fan-out is real and not a disguised serial loop."""
        delays = [0.4, 0.4, 0.4, 0.4]
        start = time.perf_counter()
        assert map_shards(_sleep_worker, delays, jobs=4) == delays
        assert time.perf_counter() - start < 1.2


@pytest.fixture(scope="module")
def serial_precision():
    """The reference: a plain loop over the harness, no sharding at all."""
    results = []
    for name, program in build_suite(PROGRAMS).items():
        result = run_queries(name, program.module, standard_factories(), MAX_PAIRS)
        result.frontend = frontend_fingerprint(program.source, program.module)
        results.append(result)
    return PrecisionReport(results=results)


@pytest.fixture(scope="module")
def serial_scalability():
    return ScalabilityReport(points=[measure_point(config)
                                     for config in scalability_configs(3)])


class TestParallelPrecision:
    def test_jobs1_is_the_serial_path(self, serial_precision):
        report = run_precision_experiment(PROGRAMS, max_pairs_per_function=MAX_PAIRS,
                                          jobs=1)
        assert strip_volatile(bench_record(report)) == \
            strip_volatile(bench_record(serial_precision))

    def test_jobs2_matches_serial_modulo_wall_time(self, serial_precision):
        report = run_precision_experiment(PROGRAMS, max_pairs_per_function=MAX_PAIRS,
                                          jobs=2)
        assert [result.program for result in report.results] == \
            [result.program for result in serial_precision.results]
        assert strip_volatile(bench_record(report)) == \
            strip_volatile(bench_record(serial_precision))


class TestParallelScalability:
    def test_jobs2_merges_in_corpus_order(self, serial_scalability):
        report = run_scalability_experiment(program_count=3, jobs=2)
        assert [point.name for point in report.points] == \
            [point.name for point in serial_scalability.points]

    def test_solver_steps_survive_the_merge(self, serial_scalability):
        report = run_scalability_experiment(program_count=3, jobs=2)
        for merged, serial in zip(report.points, serial_scalability.points):
            assert merged.instructions == serial.instructions
            assert merged.pointers == serial.pointers
            assert merged.solver_steps == serial.solver_steps
        assert report.total_solver_steps() == serial_scalability.total_solver_steps()

    def test_experiment_jobs_knob_delegates(self, serial_scalability):
        report = run_scalability_experiment(program_count=3, jobs=2)
        assert strip_volatile(bench_record(scalability=report)) == \
            strip_volatile(bench_record(scalability=serial_scalability))


class TestParallelAblation:
    def test_jobs2_totals_match_serial(self):
        serial = run_ablation(PROGRAMS, max_pairs_per_function=MAX_PAIRS)
        parallel = run_ablation(PROGRAMS, max_pairs_per_function=MAX_PAIRS, jobs=2)
        assert parallel == serial


def _removed_paths(record, stripped, path=""):
    """Paths (list indices dropped) of the keys ``strip_volatile`` removed."""
    if isinstance(record, dict):
        removed = set()
        for key, value in record.items():
            child = f"{path}.{key}" if path else key
            if key in stripped:
                removed |= _removed_paths(value, stripped[key], child)
            else:
                removed.add(child)
        return removed
    if isinstance(record, list):
        return set().union(*(_removed_paths(value, kept, f"{path}[]")
                             for value, kept in zip(record, stripped)))
    return set()


class TestBenchRecords:
    def test_strip_volatile_removes_exactly_wall_time(self, serial_scalability,
                                                      serial_precision):
        record = bench_record(serial_precision, serial_scalability,
                              run_info={"jobs": 4})
        stripped = strip_volatile(record)
        assert "run" not in stripped
        assert "correlations" not in stripped["scalability"]
        assert "instructions_per_second" not in stripped["scalability"]
        assert "analysis_seconds" not in stripped["scalability"]["points"][0]
        program = stripped["precision"]["programs"][0]
        assert "query_seconds" not in program and "build_seconds" not in program
        # The deterministic cost signals must survive.
        assert stripped["scalability"]["points"][0]["solver_steps"] > 0
        assert stripped["scalability"]["totals"]["solver_steps"] > 0
        assert program["queries"] > 0 and program["no_alias"]
        assert program["engine"]["builds"] > 0
        totals = stripped["precision"]["totals"]["engine"]
        assert totals["builds"] == sum(p["engine"]["builds"]
                                       for p in stripped["precision"]["programs"])

    def test_only_the_run_and_figure15_timer_are_volatile(self, serial_scalability,
                                                          serial_precision):
        record = bench_record(serial_precision, serial_scalability,
                              run_info={"jobs": 4})
        assert _removed_paths(record, strip_volatile(record)) == {
            "run",
            "scalability.correlations",
            "scalability.instructions_per_second",
            "scalability.points[].analysis_seconds",
            "scalability.totals.analysis_seconds",
        }

    def test_diff_records_localises_differences(self):
        a = {"x": {"y": [1, 2]}, "z": 1}
        b = {"x": {"y": [1, 3]}, "z": 1}
        assert diff_records(a, b) == ["$.x.y[1]: 2 != 3"]
        assert diff_records(a, a) == []

    def test_compare_bench_files(self, tmp_path, serial_scalability):
        record = bench_record(scalability=serial_scalability,
                              run_info={"created_at": "now"})
        # A different wall-time profile of the same results must compare clean.
        other = bench_record(scalability=run_scalability_experiment(program_count=3,
                                                                    jobs=2),
                             run_info={"created_at": "later"})
        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        write_json(str(path_a), record)
        write_json(str(path_b), other)
        assert compare_bench_files(str(path_a), str(path_b)) == []
        # A genuine (non-time) difference must be reported.
        other["scalability"]["totals"]["solver_steps"] += 1
        write_json(str(path_b), other)
        assert compare_bench_files(str(path_a), str(path_b)) != []
