"""The differential oracle on the real corpus: the tier-1 fuzz sweep.

A seeded slice of the corpus runs through the full oracle on every tier-1
run; CI's ``soundness-smoke`` job sweeps the whole quick corpus through
the CLI.  Zero violations is the paper's soundness claim; the mutant
tests (``test_mutants.py``) prove the zero is not vacuous.
"""

import json
import os

import pytest

import repro.evaluation.__main__ as driver
from repro.benchgen import build_program, generate_module, suite_configs
from repro.evaluation.soundness import (
    DEFAULT_MAX_PAIRS,
    check_program,
    run_soundness,
    soundness_corpus,
)

SUITE_COUNT = len(suite_configs())

#: Tier-1 slice: small suite programs plus the first fuzz programs.  CI can
#: widen the sweep with REPRO_SOUNDNESS_EXTRA (the smoke job instead runs
#: the CLI over the full quick corpus).
TIER1_SUITE_SLICE = ("allroots", "fixoutput", "anagram", "ft", "compiler")
TIER1_FUZZ_COUNT = int(os.environ.get("REPRO_SOUNDNESS_EXTRA", "4"))


@pytest.mark.parametrize("name", TIER1_SUITE_SLICE)
def test_suite_program_has_no_violations(name):
    check = check_program(build_program(name))
    assert check.executed, check.stop_reason
    assert check.violations == []
    # The check must not be vacuous: claims exist and most are checkable.
    assert sum(check.no_alias_claims.values()) > 0
    assert check.claims_checked > 0
    assert check.range_values_checked > 0


@pytest.mark.parametrize("index", range(TIER1_FUZZ_COUNT))
def test_fuzz_program_has_no_violations(index):
    config = soundness_corpus()[SUITE_COUNT + index]  # skip the suite slice
    check = check_program(generate_module(config))
    assert check.executed, check.stop_reason
    assert check.violations == []
    assert check.claims_checked > 0


def test_run_soundness_merges_in_corpus_order():
    configs = soundness_corpus(extra=2)[:4] + soundness_corpus(extra=2)[-2:]
    serial = run_soundness(configs, jobs=1, max_pairs_per_function=60)
    sharded = run_soundness(configs, jobs=2, max_pairs_per_function=60)
    assert [c.program for c in serial.checks] == [c.program for c in sharded.checks]
    assert [c.claims_checked for c in serial.checks] == \
        [c.claims_checked for c in sharded.checks]
    assert [c.range_values_checked for c in serial.checks] == \
        [c.range_values_checked for c in sharded.checks]
    assert serial.violations() == [] and sharded.violations() == []


def test_report_record_shape():
    report = run_soundness(soundness_corpus(extra=0)[:2], jobs=1,
                           max_pairs_per_function=40)
    record = report.as_record(run_info={"jobs": 1})
    assert record["schema"] == 1
    assert record["totals"]["programs"] == 2
    assert record["totals"]["violations"] == 0
    assert len(record["programs"]) == 2
    for entry in record["programs"]:
        assert {"program", "seed", "executed", "claims_checked"} <= set(entry)


def test_cli_writes_report_and_enforces_min_programs(tmp_path, monkeypatch):
    monkeypatch.setattr(driver, "soundness_corpus",
                        lambda extra: soundness_corpus(extra=1))
    out = tmp_path / "SOUNDNESS_REPORT.json"
    expected = SUITE_COUNT + 1
    status = driver.main(["soundness", "--quick", "--out", str(out),
                          "--min-programs", str(expected)])
    assert status == 0
    record = json.loads(out.read_text())
    assert record["totals"]["programs"] == expected
    assert record["totals"]["programs_executed"] == expected
    assert record["totals"]["violations"] == 0

    # An unreachable bar makes the CLI fail with the dedicated status.
    status = driver.main(["soundness", "--quick", "--out", str(out),
                          "--min-programs", "1000"])
    assert status == 2


def test_default_max_pairs_is_bounded():
    assert 0 < DEFAULT_MAX_PAIRS <= 500


@pytest.mark.parametrize("name", ("fixoutput", "anagram"))
def test_warm_edited_module_replays_clean_through_the_oracle(name):
    """Post-edit verdicts from fixed points refreshed in place are
    oracle-clean.

    The warm analyses are pulled straight out of an edited session's
    manager — the exact objects whose state the edit refreshed (GR's
    re-seeded via ``resolve_from``, the points-to baselines' rebuilt) —
    and fed through the full differential oracle against concrete
    executions of the edited module.
    """
    from types import SimpleNamespace

    from repro.benchgen import edit_scenario
    from repro.service.session import ANALYSIS_KEYS, AnalysisSession

    config = next(c for c in suite_configs() if c.name == name)
    scenario = edit_scenario(config, edits=2, seed=0)
    session = AnalysisSession()
    session.load_source(name, scenario.steps[0].source)
    session.query_function(name, "rbaa")
    for step in scenario.steps[1:]:
        edited = session.edit_source(name, step.source)
        assert edited["reloaded"] is False
        assert edited["changed"] == [step.function]
        session.query_function(name, "rbaa")
        resident = session._modules[name]
        warm = [(analysis_name,
                 resident.manager.get(ANALYSIS_KEYS[analysis_name]))
                for analysis_name in ("rbaa", "basic", "andersen",
                                      "steensgaard")]
        factories = [(analysis_name, (lambda module, manager, _warm=analysis: _warm))
                     for analysis_name, analysis in warm]
        check = check_program(
            SimpleNamespace(config=config, module=resident.module),
            factories=factories)
        assert check.executed, check.stop_reason
        assert check.violations == [], check.violations
        assert sum(check.no_alias_claims.values()) > 0
        assert check.claims_checked > 0
