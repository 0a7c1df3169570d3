"""The concurrent socket serving layer: identity vs serial, warm restarts."""

import json
import os
import socket
import subprocess
import sys

import pytest

import repro
from repro.benchgen import build_program, edit_scenario, stable_seed
from repro.benchgen.suites import SUITE_PROGRAMS
from repro.service.client import InProcessClient
from repro.service.loadtest import (
    build_corpus,
    check_identity,
    client_script,
    edit_gates,
    replay_edits,
    run_once,
    serial_expectations,
    stats_gate_view,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    handle_payload,
    make_request,
)
from repro.service.session import AnalysisSession

PROGRAMS = ("allroots", "fixoutput")
CLIENTS = 3
REQUESTS = 6
WORKERS = 2


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(PROGRAMS)


@pytest.fixture(scope="module")
def scripts(corpus):
    return [client_script(index, corpus, REQUESTS)
            for index in range(CLIENTS)]


@pytest.fixture(scope="module")
def oracle(corpus, scripts):
    return serial_expectations(corpus, scripts)


class TestConcurrentIdentity:
    def test_socket_answers_match_serial_session(self, corpus, scripts,
                                                 oracle):
        expected, serial_stats = oracle
        result = run_once(corpus, scripts, WORKERS, None)
        identity = check_identity(result, expected)
        assert identity["mismatches"] == 0, identity["first_mismatches"]
        # Sanity: the run exercised every client script plus the loads.
        assert identity["checked"] == \
            len(corpus) + CLIENTS * REQUESTS
        # The deterministic stats subset is interleaving-independent: the
        # sharded front end must land on the serial counters.
        for program in corpus:
            assert stats_gate_view(result.stats[program.name]) == \
                stats_gate_view(serial_stats[program.name])

    def test_single_worker_single_client_is_also_identical(self, corpus,
                                                           oracle):
        expected, _ = oracle
        script = client_script(0, corpus, REQUESTS)
        result = run_once(corpus, [script], 1, None)
        assert check_identity(result, expected)["mismatches"] == 0

    def test_edit_replay_over_the_socket_matches_in_process(self, corpus):
        """The loadtest's edit replay through the sharded server records
        exactly what it records in process, and passes its gates."""
        result = run_once(corpus, [], WORKERS, None, edits=True)
        assert result.edits == replay_edits(InProcessClient(), PROGRAMS)
        assert all(edit_gates(result.edits).values())


class TestWarmRestart:
    def test_restarted_server_answers_from_the_store(self, corpus, scripts,
                                                     oracle, tmp_path):
        expected, _ = oracle
        root = str(tmp_path / "store")
        cold = run_once(corpus, scripts, WORKERS, root)
        assert check_identity(cold, expected)["mismatches"] == 0
        # A brand-new server (fresh pool, fresh worker sessions) on the
        # same store: the warmth must never change an answer...
        warm = run_once(corpus, scripts, WORKERS, root)
        assert check_identity(warm, expected)["mismatches"] == 0
        # ...and must fully absorb the work: no module compiled, no solver
        # step run, no store miss anywhere.
        for program in corpus:
            record = warm.stats[program.name]
            assert record["materialized"] is False, program.name
            assert record["solver_steps"] == 0
            assert record["store"]["misses"] == 0
            assert record["store"]["corrupt_entries"] == 0
        assert any(warm.stats[p.name]["store"]["hits"] > 0 for p in corpus)


class _RawClient:
    """A line-delimited JSON conversation with a spawned server process."""

    def __init__(self, workers=1, store=None):
        env = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = package_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        command = [sys.executable, "-m", "repro.service.server",
                   "--port", "0", "--workers", str(workers)]
        if store is not None:
            command += ["--store", str(store)]
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, env=env)
        banner = self.process.stdout.readline()
        port = int(banner.rsplit(":", 1)[1].split()[0])
        self.connection = socket.create_connection(("127.0.0.1", port),
                                                   timeout=120)
        self.stream = self.connection.makefile("rw", encoding="utf-8",
                                               newline="\n")

    def send_raw(self, line):
        self.stream.write(line + "\n")
        self.stream.flush()
        return json.loads(self.stream.readline())

    def call(self, payload):
        return self.send_raw(json.dumps(payload))

    def close(self):
        try:
            self.call(make_request("shutdown"))
        finally:
            self.connection.close()
            self.process.wait(timeout=30)


class TestRawSocketEnvelopes:
    def test_error_envelopes_and_id_echo_over_the_wire(self):
        client = _RawClient()
        try:
            assert client.call(make_request("ping", id="p1"))["pong"] is True

            malformed = client.send_raw("this is { not json")
            assert malformed["ok"] is False
            assert malformed["error_code"] == "bad_request"
            assert malformed["v"] == PROTOCOL_VERSION

            mismatch = client.call({"op": "ping", "v": 99, "id": "v1"})
            assert mismatch["ok"] is False
            assert mismatch["error_code"] == "protocol_mismatch"
            assert mismatch["id"] == "v1"

            unversioned = client.call({"op": "ping", "id": "v2"})
            assert unversioned["ok"] is False
            assert unversioned["error_code"] == "protocol_mismatch"
            assert unversioned["id"] == "v2"

            unknown = client.call(make_request("frobnicate", id="u1"))
            assert unknown["error_code"] == "unknown_op"
            assert unknown["id"] == "u1"
            assert "error" not in unknown  # pre-v1 legacy string is gone

            ghost = client.call(make_request(
                "query", id="g1", module="ghost", analysis="rbaa",
                function="main", a="x", b="y"))
            assert ghost["error_code"] == "unknown_module"
            assert ghost["id"] == "g1"

            # The transport survived five failures in a row.
            assert client.call(make_request("ping", id="p2"))["id"] == "p2"
        finally:
            client.close()


def _names_on_distinct_shards(workers):
    """Two module names the unpinned name-hash places on different shards."""
    picked = {}
    for index in range(64):
        name = f"edit-shard-{index}"
        picked.setdefault(stable_seed(f"service/shard/{name}", workers), name)
        if len(picked) == workers:
            return picked[0], picked[1]
    raise AssertionError("hash never covered both shards")


class TestSocketEdits:
    """Function-granular edits through the concurrent server + store."""

    def test_edit_invalidates_one_shard_and_keeps_others_warm(self, tmp_path):
        config = next(p for p in SUITE_PROGRAMS
                      if p.name == "allroots").config()
        scenario = edit_scenario(config, edits=1, seed=0)
        before, after = scenario.steps
        other_source = build_program("fixoutput").source
        name_a, name_b = _names_on_distinct_shards(WORKERS)

        def script(source_a):
            return [
                make_request("load", id="load.a", name=name_a,
                             source=source_a),
                make_request("load", id="load.b", name=name_b,
                             source=other_source),
                make_request("query_function", id="sweep.a", module=name_a,
                             analysis="rbaa", max_pairs=60),
                make_request("query_function", id="sweep.b", module=name_b,
                             analysis="rbaa", max_pairs=60),
            ]
        edit_payload = make_request("edit", id="edit.a", name=name_a,
                                    source=after.source)

        root = str(tmp_path / "store")
        client = _RawClient(workers=WORKERS, store=root)
        transcript = {}
        try:
            for payload in script(before.source):
                transcript[payload["id"]] = client.call(payload)
            stats_before = {name: client.call(make_request("stats",
                                                           module=name))
                            for name in (name_a, name_b)}

            edited = client.call(edit_payload)
            assert edited["ok"] is True
            assert edited["reloaded"] is False
            assert edited["changed"] == [after.function]
            assert edited["impacts"], "edit produced no incremental impacts"
            transcript["edit.a"] = edited

            for payload in script(before.source)[2:]:  # re-run both sweeps
                transcript[payload["id"] + ".post"] = client.call(payload)
            stats_after = {name: client.call(make_request("stats",
                                                          module=name))
                          for name in (name_a, name_b)}
        finally:
            client.close()

        # The edited module took the incremental path on its own shard...
        assert stats_after[name_a]["edits"] == 1
        assert stats_after[name_a]["solver_steps"] > \
            stats_before[name_a]["solver_steps"]
        # ...and wrote the post-edit answers under the new source digest.
        assert stats_after[name_a]["store"]["writes"] > \
            stats_before[name_a]["store"]["writes"]
        # The other shard never saw the edit: no new analysis work at all.
        assert stats_after[name_b]["edits"] == 0
        assert stats_after[name_b]["solver_steps"] == \
            stats_before[name_b]["solver_steps"]

        # Answer identity vs a serial in-process session, through the edit.
        session = AnalysisSession()
        for payload in script(before.source):
            expected = handle_payload(session, payload)
            assert transcript[payload["id"]] == expected, payload["id"]
        assert handle_payload(session, edit_payload) == transcript["edit.a"]
        for payload in script(before.source)[2:]:
            expected = handle_payload(session, payload)
            assert transcript[payload["id"] + ".post"] == expected, \
                payload["id"]

        # A restarted server on the same store serves the *edited* module
        # warm — proof the post-edit entries are keyed by the new digest.
        warm = _RawClient(workers=WORKERS, store=root)
        try:
            for payload in script(after.source):
                response = warm.call(payload)
                if payload["id"].startswith("sweep"):
                    key = payload["id"] + ".post"
                    assert response == transcript[key], payload["id"]
            for name in (name_a, name_b):
                record = warm.call(make_request("stats", module=name))
                assert record["materialized"] is False, name
                assert record["solver_steps"] == 0
                assert record["store"]["misses"] == 0
                assert record["store"]["hits"] > 0
        finally:
            warm.close()
