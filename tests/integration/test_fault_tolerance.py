"""Fault tolerance of the serving layer: crash failover with journal
replay, deadlines (cooperative + backstop), backpressure shedding, client
misbehaviour isolation, and SIGTERM's orderly-stop path."""

import asyncio
import glob
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import repro
from repro.service.pool import WorkerPool
from repro.service.protocol import make_request
from repro.service.server import ServiceServer

SRC = """
int main(int argc, char** argv) {
  char* a = (char*)malloc(8);
  char* b = a + 1;
  *a = 0;
  *b = 1;
  return 0;
}
"""

# A body-only edit (incremental path): replayed state is distinguishable
# from a bare reload by the session's edit counter.
SRC_EDITED = SRC.replace("malloc(8)", "malloc(16)")


def _run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=120))


async def _send(reader, writer, payload):
    writer.write((json.dumps(payload, sort_keys=True) + "\n").encode())
    await writer.drain()
    return json.loads(await reader.readline())


async def _start(workers=1, store=None, chaos=None, max_inflight=None,
                 deadline_grace=0.25):
    pool = WorkerPool(workers=workers, store_root=store, chaos=chaos)
    server = ServiceServer(pool, max_inflight=max_inflight,
                           deadline_grace=deadline_grace)
    await server.start()
    return pool, server


async def _connect(server):
    return await asyncio.open_connection(server.host, server.port)


class TestCrashFailover:
    def test_kill_respawns_and_replays_the_journal_including_edits(self):
        async def scenario():
            pool, server = await _start(workers=1)
            try:
                reader, writer = await _connect(server)
                loaded = await _send(reader, writer, make_request(
                    "load", id="l", name="m", source=SRC))
                assert loaded["ok"] is True
                edited = await _send(reader, writer, make_request(
                    "edit", id="e", name="m", source=SRC_EDITED))
                assert edited["ok"] is True
                dead = pool.worker(0).process
                dead.kill()
                # The very next request must neither hang nor observe
                # pre-edit state: the respawned worker replays the journal
                # (load, then edit) before serving anything.
                values = await _send(reader, writer, make_request(
                    "values", id="v", module="m", function="main"))
                assert values["ok"] is True, values
                stats = await _send(reader, writer, make_request(
                    "stats", id="s", module="m"))
                assert stats["ok"] is True
                # A bare reload would report 0: the counter proves the
                # journal replayed the edit, not just the load.
                assert stats["edits"] == 1
                faults = server.fault_stats()
                assert faults["respawns"] == 1
                assert faults["worker_deaths"] == 1
                assert faults["replayed_payloads"] == 2  # load + edit
                # Failover reaped the killed process before replacing it.
                assert pool.worker(0).process is not dead
                assert dead.exitcode is not None
                writer.close()
            finally:
                await server.stop()
        _run(scenario())

    def test_in_flight_edit_fails_structured_and_is_not_half_applied(self):
        async def scenario():
            chaos = {0: {"latency_by_id": {"e1": 0.6}}}
            pool, server = await _start(workers=1, chaos=chaos)
            try:
                reader, writer = await _connect(server)
                loaded = await _send(reader, writer, make_request(
                    "load", id="l", name="m", source=SRC))
                assert loaded["ok"] is True
                edit_task = asyncio.create_task(_send(
                    reader, writer, make_request(
                        "edit", id="e1", name="m", source=SRC_EDITED)))
                await asyncio.sleep(0.25)  # the worker is asleep on e1
                pool.worker(0).process.kill()
                envelope = await edit_task
                # A mutating request is never transparently retried: its
                # effect on the dead worker is unknowable, so the client
                # gets the structured verdict and owns the resend.
                assert envelope["ok"] is False
                assert envelope["error_code"] == "worker_unavailable"
                assert envelope["id"] == "e1"
                # The unacknowledged edit is absent from the replayed
                # state (exactly-once journal): resending applies it once.
                resent = await _send(reader, writer, make_request(
                    "edit", id="e2", name="m", source=SRC_EDITED))
                assert resent["ok"] is True
                stats = await _send(reader, writer, make_request(
                    "stats", id="s", module="m"))
                assert stats["edits"] == 1
                writer.close()
            finally:
                await server.stop()
        _run(scenario())

    def test_respawned_shard_answers_warm_with_zero_bootstrap(self, tmp_path):
        root = str(tmp_path / "store")

        async def warm_the_store():
            pool, server = await _start(workers=1, store=root)
            try:
                reader, writer = await _connect(server)
                await _send(reader, writer, make_request(
                    "load", id="l", name="m", source=SRC))
                values = await _send(reader, writer, make_request(
                    "values", id="v", module="m", function="main"))
                names = [v["name"] for v in values["values"] if v["pointer"]]
                query = make_request("query", id="q", module="m",
                                     analysis="rbaa", function="main",
                                     a=names[0], b=names[1])
                assert (await _send(reader, writer, query))["ok"] is True
                writer.close()
                return query
            finally:
                await server.stop()

        async def crash_and_requery(query):
            pool, server = await _start(workers=1, store=root)
            try:
                reader, writer = await _connect(server)
                await _send(reader, writer, make_request(
                    "load", id="l2", name="m", source=SRC))
                pool.worker(0).process.kill()
                requery = dict(query, id="q2")
                answer = await _send(reader, writer, requery)
                assert answer["ok"] is True
                stats = await _send(reader, writer, make_request(
                    "stats", id="s2", module="m"))
                # The respawned worker answered out of the warm store: the
                # module never compiled, the solver never stepped.
                assert stats["materialized"] is False
                assert stats["solver_steps"] == 0
                assert server.fault_stats()["respawns"] == 1
                writer.close()
            finally:
                await server.stop()

        query = _run(warm_the_store())
        _run(crash_and_requery(query))


class TestPlumbing:
    def test_serving_starts_no_threads(self):
        """Worker sockets are read by the event loop itself: answering
        queries on two shards leaves no helper thread behind."""
        async def scenario():
            before = set(threading.enumerate())
            pool, server = await _start(workers=2)
            try:
                reader, writer = await _connect(server)
                for index, name in enumerate(("m", "n")):
                    loaded = await _send(reader, writer, make_request(
                        "load", id=f"l{index}", name=name, source=SRC))
                    assert loaded["ok"] is True
                    values = await _send(reader, writer, make_request(
                        "values", id=f"v{index}", module=name,
                        function="main"))
                    assert values["ok"] is True
                modules = await _send(reader, writer, make_request(
                    "modules", id="ms"))
                assert [m["module"] for m in modules["modules"]] == ["m", "n"]
                started = [thread.name for thread in threading.enumerate()
                           if thread not in before]
                assert started == []
                writer.close()
            finally:
                await server.stop()
        _run(scenario())


class TestDeadlines:
    def test_backstop_answers_even_when_the_worker_is_wedged(self):
        async def scenario():
            chaos = {0: {"latency_by_id": {"slow": 2.0}}}
            pool, server = await _start(workers=1, chaos=chaos,
                                        deadline_grace=0.25)
            try:
                reader, writer = await _connect(server)
                await _send(reader, writer, make_request(
                    "load", id="l", name="m", source=SRC))
                started = time.perf_counter()
                wedged = await _send(reader, writer, make_request(
                    "query", id="slow", module="m", analysis="rbaa",
                    function="main", a="x", b="y", timeout_ms=100))
                elapsed = time.perf_counter() - started
                assert wedged["ok"] is False
                assert wedged["error_code"] == "deadline_exceeded"
                assert wedged["id"] == "slow"
                assert elapsed < 1.5  # well inside the 2 s wedge
                assert server.fault_stats()["backstops"] == 1
                writer.close()
            finally:
                await server.stop()
        _run(scenario())

    def test_zero_budget_is_answered_cooperatively_by_the_worker(self):
        async def scenario():
            pool, server = await _start(workers=1)
            try:
                reader, writer = await _connect(server)
                await _send(reader, writer, make_request(
                    "load", id="l", name="m", source=SRC))
                probe = await _send(reader, writer, make_request(
                    "query", id="z", module="m", analysis="rbaa",
                    function="main", a="x", b="y", timeout_ms=0))
                assert probe["error_code"] == "deadline_exceeded"
                # Cooperative (worker-side) wording, not the backstop's.
                assert "expired before evaluation" in probe["message"]
                assert server.fault_stats()["backstops"] == 0
                writer.close()
            finally:
                await server.stop()
        _run(scenario())


class TestBackpressure:
    def test_admissions_beyond_the_bound_are_shed_with_overloaded(self):
        async def scenario():
            chaos = {0: {"latency_by_id": {"slow": 1.0}}}
            pool, server = await _start(workers=1, chaos=chaos,
                                        max_inflight=1)
            try:
                reader_a, writer_a = await _connect(server)
                await _send(reader_a, writer_a, make_request(
                    "load", id="l", name="m", source=SRC))
                slow_task = asyncio.create_task(_send(
                    reader_a, writer_a, make_request(
                        "query", id="slow", module="m", analysis="rbaa",
                        function="main", a="x", b="y")))
                await asyncio.sleep(0.2)  # the shard is at max in-flight
                reader_b, writer_b = await _connect(server)
                shed = await _send(reader_b, writer_b, make_request(
                    "query", id="q2", module="m", analysis="rbaa",
                    function="main", a="x", b="y"))
                assert shed["ok"] is False
                assert shed["error_code"] == "overloaded"
                assert shed["id"] == "q2"
                assert server.fault_stats()["shed"] == 1
                # The wedged request still terminates (with its own
                # deterministic answer), and afterwards admission reopens.
                slow = await slow_task
                assert slow["error_code"] == "unknown_value"
                retried = await _send(reader_b, writer_b, make_request(
                    "query", id="q3", module="m", analysis="rbaa",
                    function="main", a="x", b="y"))
                assert retried["error_code"] == "unknown_value"
                writer_a.close()
                writer_b.close()
            finally:
                await server.stop()
        _run(scenario())


class TestClientMisbehaviour:
    def test_partial_json_and_abrupt_close_do_not_affect_others(self):
        async def scenario():
            chaos = {0: {"latency_by_id": {"goner": 0.4}}}
            pool, server = await _start(workers=1, chaos=chaos)
            try:
                healthy_r, healthy_w = await _connect(server)
                await _send(healthy_r, healthy_w, make_request(
                    "load", id="l", name="m", source=SRC))
                # A client torn mid-line: half a JSON object, no newline,
                # then a hard close.
                torn_r, torn_w = await _connect(server)
                line = json.dumps(make_request("query", id="torn",
                                               module="m", analysis="rbaa",
                                               function="main", a="x",
                                               b="y"))
                torn_w.write(line[:len(line) // 2].encode())
                await torn_w.drain()
                torn_w.close()
                # A client that departs while its request is in flight.
                goner_r, goner_w = await _connect(server)
                goner_w.write((json.dumps(make_request(
                    "query", id="goner", module="m", analysis="rbaa",
                    function="main", a="x", b="y")) + "\n").encode())
                await goner_w.drain()
                goner_w.close()
                # The healthy connection sees none of it.
                pong = await _send(healthy_r, healthy_w,
                                   make_request("ping", id="p"))
                assert pong["pong"] is True
                answer = await _send(healthy_r, healthy_w, make_request(
                    "query", id="q", module="m", analysis="rbaa",
                    function="main", a="x", b="y"))
                assert answer["error_code"] == "unknown_value"
                assert server.fault_stats()["respawns"] == 0
                healthy_w.close()
            finally:
                await server.stop()
        _run(scenario())

    def test_bad_query_does_not_poison_its_coalesced_round(self):
        async def scenario():
            chaos = {0: {"latency_by_id": {"hold": 0.5}}}
            pool, server = await _start(workers=1, chaos=chaos)
            connections = [await _connect(server) for _ in range(3)]
            try:
                (hold_r, hold_w), (good_r, good_w), (bad_r, bad_w) = \
                    connections
                await _send(hold_r, hold_w, make_request(
                    "load", id="l", name="m", source=SRC))
                values = (await _send(hold_r, hold_w, make_request(
                    "values", id="v", module="m", function="main")))["values"]
                base = next(v["name"] for v in values if v["op"] == "malloc")
                offset = [v["name"] for v in values
                          if v["op"] == "ptradd"][-1]
                # The held request keeps the shard's round busy, so both
                # queries queue behind it and coalesce into one batch.
                held = asyncio.ensure_future(_send(hold_r, hold_w,
                                                   make_request(
                    "stats", id="hold", module="m")))
                await asyncio.sleep(0.1)
                query = dict(module="m", analysis="rbaa", function="main",
                             a=base)
                good, bad = await asyncio.gather(
                    _send(good_r, good_w, make_request(
                        "query", id="good", b=offset, **query)),
                    _send(bad_r, bad_w, make_request(
                        "query", id="bad", b="nothing", **query)))
                await held
                assert server.batches == 1
                assert good["ok"] is True, good
                assert good["id"] == "good" and good["result"] == "no-alias"
                assert bad["error_code"] == "unknown_value"
                assert bad["id"] == "bad"
            finally:
                for _, writer in connections:
                    writer.close()
                await server.stop()
        _run(scenario())


class TestSignals:
    def test_sigterm_runs_the_orderly_stop_path(self, tmp_path):
        store = str(tmp_path / "store")
        env = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = package_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.service.server",
             "--port", "0", "--workers", "1", "--store", store],
            stdout=subprocess.PIPE, text=True, env=env)
        try:
            banner = process.stdout.readline()
            port = int(banner.rsplit(":", 1)[1].split()[0])
            connection = socket.create_connection(("127.0.0.1", port),
                                                  timeout=120)
            stream = connection.makefile("rw", encoding="utf-8",
                                         newline="\n")
            stream.write(json.dumps(make_request(
                "load", id="l", name="m", source=SRC)) + "\n")
            stream.flush()
            assert json.loads(stream.readline())["ok"] is True
            entries_before = glob.glob(os.path.join(store, "*", "*.json"))
            assert entries_before  # the load wrote store entries
            process.send_signal(signal.SIGTERM)
            # Orderly stop: exit code 0 (not -SIGTERM), workers reaped.
            assert process.wait(timeout=60) == 0
            connection.close()
            # The store survived the shutdown byte-for-byte addressable.
            assert set(glob.glob(os.path.join(store, "*", "*.json"))) \
                == set(entries_before)
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup
                process.kill()
                process.wait(timeout=30)
