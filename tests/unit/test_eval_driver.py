"""The evaluation driver ``python -m repro.evaluation``, on a tiny corpus."""

import json
import re

import pytest

import repro.evaluation.__main__ as driver
from repro.aliases.base import AliasAnalysis
from repro.aliases.results import AliasResult
from repro.clients.parallelize import LoopParallelismAnalysis
from repro.evaluation import clients, soundness
from repro.evaluation.parallel import write_json

EXPERIMENTS = ("bench", "soundness", "clients", "ablation", "census")
_HEX64 = re.compile(r"[0-9a-f]{64}")


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every ``--quick`` corpus to one or two small programs."""
    monkeypatch.setattr(driver, "QUICK_PROGRAMS", ("allroots",))
    monkeypatch.setattr(driver, "QUICK_MAX_PAIRS", 60)
    monkeypatch.setattr(driver, "QUICK_SCALABILITY_POINTS", 2)
    monkeypatch.setattr(driver, "soundness_corpus",
                        lambda extra: soundness.soundness_corpus(extra=2)[-2:])
    monkeypatch.setattr(driver, "clients_corpus",
                        lambda extra: clients.clients_corpus(extra=2)[-2:])


def _run(tmp_path, *argv):
    out = tmp_path / "record.json"
    code = driver.main([*argv, "--quick", "--out", str(out)])
    return code, (json.loads(out.read_text()) if out.exists() else None)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_every_experiment_runs_and_gates_coverage(experiment, tiny, tmp_path):
    code, record = _run(tmp_path, experiment, "--check")
    assert code == 0
    assert record["run"]["experiment"] == experiment
    code, _ = _run(tmp_path, experiment, "--min-programs", "1000")
    assert code == 2


def test_bench_prints_the_figures_and_writes_the_manifest(tiny, tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    code, record = _run(tmp_path, "bench", "--manifest", str(manifest))
    assert code == 0
    printed = capsys.readouterr().out
    for figure in ("Figure 13", "Figure 14", "Figure 15"):
        assert figure in printed
    entries = json.loads(manifest.read_text())["programs"]
    assert [entry["name"] for entry in entries] == ["allroots", "scale_00", "scale_01"]
    assert [program["program"] for program in record["precision"]["programs"]] == ["allroots"]


def test_every_bench_program_carries_frontend_digests(tiny, tmp_path):
    """The frontend fingerprint rides in every bench record, so the
    determinism gate's compare covers lexing and lowering byte for byte."""
    _, record = _run(tmp_path, "bench")
    for program in record["precision"]["programs"]:
        assert _HEX64.fullmatch(program["frontend"]["token_digest"])
        assert _HEX64.fullmatch(program["frontend"]["ir_digest"])
        assert program["frontend"]["tokens"] > 0


class _AlwaysNoAlias(AliasAnalysis):
    def alias(self, a, b):
        return AliasResult.MUST_ALIAS if a.pointer is b.pointer else AliasResult.NO_ALIAS


class _AlwaysParallel(LoopParallelismAnalysis):
    def loop_verdict(self, function, loop, accesses):
        return True, "mutant"


def test_soundness_violation_exits_1(tiny, monkeypatch, tmp_path):
    monkeypatch.setattr(soundness, "soundness_factories",
                        lambda: [("always", lambda module, manager: _AlwaysNoAlias(module))])
    code, record = _run(tmp_path, "soundness")
    assert code == 1
    assert record["totals"]["violations"] > 0


def test_clients_violation_exits_1(tiny, monkeypatch, tmp_path):
    check = clients.check_clients_program
    monkeypatch.setattr(clients, "check_clients_program", lambda program, **kwargs: check(
        program, checker_factory=lambda module, manager: _AlwaysParallel(module, manager),
        **kwargs))
    code, record = _run(tmp_path, "clients")
    assert code == 1
    assert record["totals"]["violations"] > 0


def test_compare_ignores_wall_time_and_reports_differences(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_json(str(a), {"totals": {"steps": 3, "wall_seconds": 1.0}, "run": {"jobs": 1}})
    write_json(str(b), {"totals": {"steps": 3, "wall_seconds": 2.0}, "run": {"jobs": 2}})
    assert driver.main(["compare", str(a), str(b)]) == 0
    write_json(str(b), {"totals": {"steps": 4, "wall_seconds": 2.0}})
    assert driver.main(["compare", str(a), str(b)]) == 1
    assert "$.totals.steps: 3 != 4" in capsys.readouterr().out


def test_the_driver_declares_few_flags():
    """One set of shared flags, plus ``bench --manifest``: nothing else."""
    parser = driver._parser()
    commands = parser._subparsers._group_actions[0].choices
    flags = {option for command in commands.values()
             for action in command._actions for option in action.option_strings}
    assert flags == {"-h", "--help", "--quick", "--jobs", "--out", "--min-programs",
                     "--check", "--manifest"}
