"""Self-checks of the benchmark (run with ``python -m pytest perfbench -q``).

* Every count-type per-layer metric is identical across two traced runs
  made under different hash seeds (``PYTHONHASHSEED=1`` and ``=2``), so
  counts can be compared exactly between commits.
* No scripted ``query`` is expected to fail, so the server's coalescing of
  concurrent queries cannot turn a valid answer into an error.
* Without the package source the benchmark fails without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Counts that depend on how two connections' requests happened to
#: interleave in time, not on the program's work.
TIMING_DEPENDENT = {"service.coalesced_batches", "service.coalesced_queries"}


def _traced(workload: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


@pytest.mark.parametrize("workload", ["batch-cold", "serve-read", "serve-edit"])
def test_count_metrics_repeat_exactly_across_hash_seeds(workload):
    first, second = _traced(workload, "1"), _traced(workload, "2")
    counts = [name for name, entry in first.items()
              if entry["unit"] == "count" and name not in TIMING_DEPENDENT]
    assert counts
    assert {name: first[name]["value"] for name in counts} \
        == {name: second[name]["value"] for name in counts}


def test_no_scripted_error_request_can_be_coalesced():
    # The server merges concurrent ``query`` requests on one function into
    # one ``query_many``; a failing member would fail the valid ones too.
    sys.path.insert(0, HERE)
    import common
    import serve

    common.require_source_tree()
    from repro.service.protocol import ERROR_CODES

    failing = {serve.canonical({"op": "query"},
                               {"ok": False, "error_code": code})
               for code in ERROR_CODES}
    for workload in ("serve-read", "serve-edit"):
        script = serve.make_script(workload, 1)
        expected = serve.reference_entry(workload, 1)["answers"]
        assert not [payload for payload, answer
                    in zip(script.requests, expected)
                    if payload["op"] == "query" and answer in failing]


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert completed.returncode != 0
    assert not completed.stdout.strip()
