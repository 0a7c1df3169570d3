"""Service-layer determinism: warm ≡ cold, across processes and hash seeds.

The serving layer may never trade correctness for warmth: replaying an edit
script against a resident session must produce exactly the answers (and
exactly the Figure-14 counters) a cold rebuild produces at every step, and
the whole record must be independent of ``PYTHONHASHSEED``.  This is also
where the incremental win is gated: on a quick-corpus program the warm
path must re-run strictly fewer solver steps than a cold rebuild after
every single-function edit.
"""

import json
import os
import subprocess
import sys

import repro
from repro.benchgen import edit_scenario
from repro.benchgen.suites import SUITE_PROGRAMS
from repro.evaluation.parallel import strip_volatile
from repro.service import AnalysisSession
from repro.service.bench import bench_program, check_record

PROGRAM = "fixoutput"
EDITS = 2
MAX_PAIRS = 100
ANALYSES = ("rbaa", "basic", "andersen", "steensgaard")


def _config(name):
    return next(p for p in SUITE_PROGRAMS if p.name == name).config()


def test_warm_incremental_beats_cold_rebuild_with_identical_answers():
    """The acceptance gate: after each single-function edit the warm path
    re-runs strictly fewer solver steps than a cold rebuild while the query
    outcomes stay byte-identical."""
    record = bench_program(PROGRAM, edits=EDITS, max_pairs=MAX_PAIRS)
    assert record["totals"]["identical"] is True
    assert check_record({"programs": [record]}) == []
    for step in record["steps"]:
        if step["index"] > 0:
            assert step["warm_solver_steps"] < step["cold_solver_steps"]


def test_figure14_counters_match_cold_rebuild_sums():
    """Every query is counted exactly once, warm or cold: the resident
    session's cumulative Figure-14 counters equal the sum of the per-step
    counters of fresh cold sessions replaying the same script."""
    scenario = edit_scenario(_config(PROGRAM), edits=EDITS)
    warm = AnalysisSession()
    warm.load_source(PROGRAM, scenario.steps[0].source)
    cold_totals = {}
    for step in scenario.steps:
        if step.index > 0:
            edited = warm.edit_source(PROGRAM, step.source)
            assert edited["reloaded"] is False
        warm.query_function(PROGRAM, "rbaa", max_pairs=MAX_PAIRS)

        cold = AnalysisSession()
        cold.load_source(PROGRAM, step.source)
        cold.query_function(PROGRAM, "rbaa", max_pairs=MAX_PAIRS)
        for key, value in cold.stats(PROGRAM)["figure14"].items():
            cold_totals[key] = cold_totals.get(key, 0) + value

    assert warm.stats(PROGRAM)["figure14"] == cold_totals


def test_record_is_hash_seed_independent():
    """The full bench record (modulo wall-time fields) is byte-identical
    under different ``PYTHONHASHSEED`` values — resident state and the edit
    scripts introduce no hash-order dependence."""
    package_root = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    script = (
        "import json\n"
        "from repro.service.bench import bench_program\n"
        "from repro.evaluation.parallel import strip_volatile\n"
        f"record = bench_program({PROGRAM!r}, edits={EDITS}, "
        f"max_pairs={MAX_PAIRS})\n"
        "print(json.dumps(strip_volatile(record), sort_keys=True))\n"
    )
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        env["PYTHONPATH"] = package_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True, env=env,
                                timeout=300)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    record = json.loads(outputs[0])
    assert record["totals"]["identical"] is True
    # strip_volatile removed every wall-time key from the nested record.
    flat = json.dumps(record)
    assert "_seconds" not in flat


def test_daemon_replay_matches_in_process_record():
    """The stdin/stdout daemon and the in-process session are the same
    service: identical deterministic records for the same edit script."""
    in_process = strip_volatile(bench_program(PROGRAM, edits=1,
                                              max_pairs=MAX_PAIRS))
    daemon = strip_volatile(bench_program(PROGRAM, edits=1,
                                          max_pairs=MAX_PAIRS,
                                          transport="daemon"))
    assert in_process == daemon
