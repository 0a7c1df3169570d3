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
from repro.service import AnalysisSession, DaemonClient, InProcessClient
from repro.service.loadtest import edit_gates, replay_edits

PROGRAM = "fixoutput"
EDITS = 2
MAX_PAIRS = 100


def _config(name):
    return next(p for p in SUITE_PROGRAMS if p.name == name).config()


def test_warm_incremental_beats_cold_rebuild_with_identical_answers():
    """The acceptance gate: after each single-function edit the warm path
    re-runs strictly fewer solver steps than a cold rebuild while the query
    outcomes stay byte-identical."""
    record = replay_edits(InProcessClient(), [PROGRAM])
    assert all(edit_gates(record).values()), edit_gates(record)
    assert [step["index"] for step in record["steps"]] == [0, 1, 2, 3]
    for step in record["steps"]:
        assert step["identical"] is True
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
    """The full edit-replay record is byte-identical under different
    ``PYTHONHASHSEED`` values — resident state and the edit scripts
    introduce no hash-order dependence."""
    package_root = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    script = (
        "import json\n"
        "from repro.service import InProcessClient\n"
        "from repro.service.loadtest import replay_edits\n"
        f"record = replay_edits(InProcessClient(), [{PROGRAM!r}])\n"
        "print(json.dumps(record, sort_keys=True))\n"
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
    assert all(step["identical"] for step in record["steps"])
    # The record carries counts only: nothing wall-time derived to strip.
    assert "_seconds" not in outputs[0]


def test_daemon_replay_matches_in_process_record():
    """The stdin/stdout daemon and the in-process session are the same
    service: identical deterministic records for the same edit script."""
    in_process = replay_edits(InProcessClient(), [PROGRAM])
    with DaemonClient() as daemon:
        assert replay_edits(daemon, [PROGRAM]) == in_process


class _SkewedClient(InProcessClient):
    """Drops the first no-alias answer of every warm sweep."""

    def call(self, payload):
        envelope = super().call(payload)
        if payload["op"] == "query_function" and envelope.get("ok"):
            envelope["no_alias_indices"] = envelope["no_alias_indices"][1:]
        return envelope


def test_forced_warm_cold_mismatch_fails_the_edit_gate():
    """``edit_warm_equals_cold`` bites: a warm service whose sweeps differ
    from the cold session's fails it (the step-count gates are unaffected)."""
    gates = edit_gates(replay_edits(_SkewedClient(), [PROGRAM]))
    assert gates == {"edit_warm_equals_cold": False,
                     "edit_fewer_solver_steps": True,
                     "edit_fewer_callgraph_steps": True}


class _SkewedBounds(InProcessClient):
    """Counts one access fewer in every warm whole-module bounds report."""

    def call(self, payload):
        envelope = super().call(payload)
        if payload["op"] == "check_bounds" and envelope.get("ok"):
            summary = dict(envelope["summary"])
            summary["accesses"] -= 1
            envelope["summary"] = summary
        return envelope


def test_forced_client_report_mismatch_fails_the_edit_gate():
    """The client reports are part of ``edit_warm_equals_cold``: a warm
    bounds report that differs from the cold session's fails it."""
    gates = edit_gates(replay_edits(_SkewedBounds(), [PROGRAM]))
    assert gates["edit_warm_equals_cold"] is False
    assert gates["edit_fewer_solver_steps"] is True
