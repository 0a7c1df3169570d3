"""The analysis service: session API, JSON daemon, edit scenarios."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.aliases import base as alias_base
from repro.aliases.base import PAIR_MEMO_PAYLOADS
from repro.benchgen import edit_scenario, generate_source
from repro.engine import keys
from repro.benchgen.suites import SUITE_PROGRAMS
from repro.frontend import compile_source
from repro.service import AnalysisSession, ServiceError, handle_payload
from repro.service.protocol import DEFAULT_SIZE
from repro.service.session import ANALYSIS_KEYS

SRC = """
void fill(char* buf, int n) {
  int i;
  for (i = 0; i < n; i++) { buf[i] = 1; }
}
int main(int argc, char** argv) {
  int n = atoi(argv[1]);
  char* bytes = (char*)malloc(n);
  char* head = bytes;
  char* tail = bytes + 1;
  *head = 0;
  *tail = 1;
  fill(bytes, n);
  return 0;
}
"""

SRC_EDITED = SRC.replace("buf[i] = 1;", "buf[i] = 7; buf[i + 2] = 9;")


def _config(name):
    return next(p for p in SUITE_PROGRAMS if p.name == name).config()


def _main_pointers(session, module="m"):
    """The malloc base and its +1 offset in ``main`` (SSA names are
    pipeline-assigned, so tests discover them through the ``values`` op)."""
    values = session.values(module, "main")["values"]
    base = next(v["name"] for v in values if v["op"] == "malloc")
    # main's first ptradd indexes argv; the last one is ``bytes + 1``.
    offset = [v["name"] for v in values if v["op"] == "ptradd"][-1]
    return base, offset


class TestAnalysisSession:
    def test_load_and_query(self):
        session = AnalysisSession()
        loaded = session.load_source("m", SRC)
        assert set(loaded["functions"]) == {"fill", "main"}
        base, offset = _main_pointers(session)
        answer = session.query("m", "rbaa", "main", base, offset)
        assert answer["result"] == "no-alias"
        # Unknown access size must kill the 1-byte disjointness proof.
        answer = session.query("m", "rbaa", "main", base, offset,
                               size_a=None, size_b=None)
        assert answer["result"] == "may-alias"

    def test_query_many_and_function_sweep(self):
        session = AnalysisSession()
        session.load_source("m", SRC)
        base, offset = _main_pointers(session)
        batch = session.query_many("m", "rbaa", "main",
                                   [(base, offset, DEFAULT_SIZE, DEFAULT_SIZE),
                                    (base, offset, None, None)])
        assert batch["results"] == ["no-alias", "may-alias"]
        sweep = session.query_function("m", "rbaa", "fill")
        assert sweep["queries"] > 0
        assert sweep["no_alias"] == len(sweep["no_alias_indices"])

    def test_memo_survives_across_requests(self):
        session = AnalysisSession()
        session.load_source("m", SRC)
        base, offset = _main_pointers(session)
        session.query("m", "rbaa", "main", base, offset)
        before = session.stats("m")["memos"]["rbaa"]["hits"]
        session.query("m", "rbaa", "main", base, offset)
        after = session.stats("m")["memos"]["rbaa"]["hits"]
        assert after == before + 1

    def test_memo_payload_cap_bounds_resident_memory(self, monkeypatch):
        monkeypatch.setattr(alias_base, "PAIR_MEMO_PAYLOADS", 1)
        session = AnalysisSession()
        session.load_source("m", SRC)
        base, offset = _main_pointers(session)
        first = session.query("m", "rbaa", "main", base, offset)
        session.query("m", "rbaa", "main", base, offset, 4, 4)  # another key
        second = session.query("m", "rbaa", "main", base, offset)
        assert first["result"] == second["result"] == "no-alias"
        # Payloads past the bound are evicted, so a long-lived daemon
        # cannot grow without bound.
        memo = session.stats("m")["memos"]["rbaa"]
        assert memo["size"] == memo["max_payloads"] == 1
        assert memo["evictions"] >= 2

    def test_range_queries(self):
        session = AnalysisSession()
        session.load_source("m", SRC)
        record = session.range_of("m", "fill", "n")
        assert record["range"].startswith("[")

    def test_unknown_names_raise(self):
        session = AnalysisSession()
        session.load_source("m", SRC)
        base, offset = _main_pointers(session)
        with pytest.raises(ServiceError):
            session.query("m", "rbaa", "nowhere", "a", "b")
        with pytest.raises(ServiceError):
            session.query("m", "rbaa", "main", base, "nothing")
        with pytest.raises(ServiceError):
            session.query("m", "voodoo", "main", base, offset)
        with pytest.raises(ServiceError):
            session.stats("ghost")

    def test_edit_takes_incremental_path(self):
        session = AnalysisSession()
        session.load_source("m", SRC)
        session.query_function("m", "rbaa")
        steps_before = session.solver_steps("m")
        edited = session.edit_source("m", SRC_EDITED)
        assert edited["reloaded"] is False
        assert edited["changed"] == ["fill"]
        assert edited["impacts"][0]["refreshed"]
        session.query_function("m", "rbaa")
        warm_delta = session.solver_steps("m") - steps_before
        # The warm path re-ran strictly fewer solver steps than a cold
        # rebuild of the edited source answering the same queries.
        cold = AnalysisSession()
        cold.load_source("m", SRC_EDITED)
        cold.query_function("m", "rbaa")
        assert warm_delta < cold.solver_steps("m")
        assert session.stats("m")["edits"] == 1

    def test_edit_answers_match_cold_rebuild(self):
        warm = AnalysisSession()
        warm.load_source("m", SRC)
        warm.query_function("m", "rbaa")
        warm.edit_source("m", SRC_EDITED)
        cold = AnalysisSession()
        cold.load_source("m", SRC_EDITED)
        for analysis in ("rbaa", "basic", "andersen", "steensgaard"):
            assert warm.query_function("m", analysis) == \
                cold.query_function("m", analysis)

    def test_edit_clears_every_pair_memo(self):
        analyses = ("rbaa", "basic", "andersen", "steensgaard")
        warm = AnalysisSession()
        warm.load_source("m", SRC)
        for analysis in analyses:
            warm.query_function("m", analysis)
        manager = warm._modules["m"].manager
        assert all(len(manager.cached(ANALYSIS_KEYS[analysis]).pair_memo)
                   for analysis in analyses)
        edited = warm.edit_source("m", SRC_EDITED)
        assert edited["reloaded"] is False
        for analysis in analyses:
            cached = manager.cached(ANALYSIS_KEYS[analysis])
            assert cached is not None, analysis
            assert len(cached.pair_memo) == 0, analysis
        cold = AnalysisSession()
        cold.load_source("m", SRC_EDITED)
        for analysis in analyses:
            assert warm.query_function("m", analysis) == \
                cold.query_function("m", analysis)

    def test_structural_edit_falls_back_to_reload(self):
        session = AnalysisSession()
        session.load_source("m", SRC)
        grown = SRC + "\nvoid extra(int* p) { *p = 0; }\n"
        edited = session.edit_source("m", grown)
        assert edited["reloaded"] is True
        assert "extra" in [fn for fn in edited["functions"]]

    def test_identical_source_is_a_no_op(self):
        session = AnalysisSession()
        session.load_source("m", SRC)
        edited = session.edit_source("m", SRC)
        assert edited == {"module": "m", "changed": [], "reloaded": False,
                          "impacts": []}

    def test_load_program_and_modules_listing(self):
        session = AnalysisSession()
        session.load_program("allroots")
        listing = session.modules()
        assert listing and listing[0]["module"] == "allroots"
        session.unload("allroots")
        assert session.modules() == []


class TestDaemonProtocol:
    def test_handle_request_round_trip(self):
        session = AnalysisSession()
        assert handle_payload(session, {"op": "ping", "v": 1})["pong"] is True
        loaded = handle_payload(session, {"op": "load", "v": 1, "name": "m",
                                          "source": SRC})
        assert loaded["ok"] is True
        listed = handle_payload(session, {"op": "values", "v": 1,
                                          "module": "m", "function": "main"})
        base = next(v["name"] for v in listed["values"] if v["op"] == "malloc")
        offset = [v["name"] for v in listed["values"]
                  if v["op"] == "ptradd"][-1]
        answer = handle_payload(session, {
            "op": "query", "v": 1, "module": "m", "analysis": "rbaa",
            "function": "main", "a": base, "b": offset})
        assert answer["result"] == "no-alias"
        unknown = handle_payload(session, {
            "op": "query", "v": 1, "module": "m", "analysis": "rbaa",
            "function": "main", "a": base, "b": offset,
            "size_a": "unknown", "size_b": "unknown"})
        assert unknown["result"] == "may-alias"
        stats = handle_payload(session, {"op": "stats", "v": 1,
                                         "module": "m"})
        assert stats["solver_steps"] > 0
        # Dispatch never raises: unknown ops come back as structured
        # error envelopes (the pre-v1 "error" string is gone for good).
        unknown_op = handle_payload(session, {"op": "warp", "v": 1, "id": 41})
        assert unknown_op["ok"] is False
        assert unknown_op["error_code"] == "unknown_op"
        assert unknown_op["id"] == 41
        assert "error" not in unknown_op

    def test_daemon_subprocess_end_to_end(self):
        env = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = package_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        # Compilation is deterministic, so an in-process session discovers
        # the same SSA names the daemon's resident module will carry.
        scout = AnalysisSession()
        scout.load_source("m", SRC)
        base, offset = _main_pointers(scout)
        requests = [
            {"op": "ping", "v": 1},
            {"op": "load", "v": 1, "name": "m", "source": SRC},
            {"op": "query", "v": 1, "module": "m", "analysis": "rbaa",
             "function": "main", "a": base, "b": offset},
            {"op": "edit", "v": 1, "name": "m", "source": SRC_EDITED},
            {"op": "query", "v": 1, "module": "m", "analysis": "rbaa",
             "function": "main", "a": base, "b": offset},
            {"op": "nonsense", "v": 1},
            {"op": "shutdown", "v": 1},
        ]
        payload = "".join(json.dumps(r) + "\n" for r in requests)
        result = subprocess.run(
            [sys.executable, "-m", "repro.service"],
            input=payload, capture_output=True, text=True, env=env,
            timeout=120)
        assert result.returncode == 0, result.stderr
        responses = [json.loads(line) for line in
                     result.stdout.strip().splitlines()]
        assert len(responses) == len(requests)
        assert responses[0]["pong"] is True
        assert responses[2]["result"] == "no-alias"
        assert responses[3]["changed"] == ["fill"]
        assert responses[4]["result"] == "no-alias"
        assert responses[5]["ok"] is False and "error" not in responses[5]
        assert responses[5]["error_code"] == "unknown_op"
        assert responses[6]["shutdown"] is True


class TestEditScenarios:
    def test_scenarios_are_deterministic_and_start_unedited(self):
        config = _config("fixoutput")
        first = edit_scenario(config, edits=3)
        second = edit_scenario(config, edits=3)
        assert [s.source for s in first.steps] == \
            [s.source for s in second.steps]
        assert first.steps[0].source == generate_source(config)
        assert first.steps[0].function == ""

    def test_each_step_changes_exactly_the_named_function(self):
        config = _config("allroots")
        scenario = edit_scenario(config, edits=3)
        session = AnalysisSession()
        session.load_source("m", scenario.steps[0].source)
        for step in scenario.steps[1:]:
            edited = session.edit_source("m", step.source)
            assert edited["reloaded"] is False
            assert edited["changed"] == [step.function]

    def test_steps_compile(self):
        config = _config("anagram")
        scenario = edit_scenario(config, edits=2)
        for step in scenario.steps:
            module = compile_source(step.source, config.name)
            assert module.instruction_count() > 0

    def test_distinct_seeds_give_distinct_scripts(self):
        config = _config("ft")
        a = edit_scenario(config, edits=2, seed=0)
        b = edit_scenario(config, edits=2, seed=1)
        assert [s.source for s in a.steps] != [s.source for s in b.steps]


class TestStatsCacheTelemetry:
    """The stats op surfaces every bounded cache the daemon depends on."""

    def test_stats_surface_memo_and_cache_counters(self):
        session = AnalysisSession()
        session.load_source("m", SRC)
        base, offset = _main_pointers(session)
        session.query("m", "rbaa", "main", base, offset)
        record = session.stats("m")
        memo = record["memos"]["rbaa"]
        assert {"hits", "misses", "evictions", "size",
                "max_payloads"} <= set(memo)
        assert memo["max_payloads"] == PAIR_MEMO_PAYLOADS
        assert memo["misses"] >= 1
        assert memo["evictions"] == 0
        assert "rbaa_outcome_memo" not in record
        caches = record["symbolic_caches"]
        assert set(caches) == {"compare", "difference"}
        for counters in caches.values():
            assert {"size", "maxsize", "hits", "misses",
                    "evictions"} == set(counters)

    def test_memo_cap_resize_applies_to_live_memos(self):
        session = AnalysisSession()
        session.load_source("m", SRC)
        base, offset = _main_pointers(session)
        session.query("m", "rbaa", "main", base, offset)
        rbaa = session._modules["m"].manager.cached(keys.RBAA)
        rbaa.pair_memo.resize(1)
        session.query("m", "rbaa", "main", base, offset)
        assert session.stats("m")["memos"]["rbaa"]["size"] <= 1
