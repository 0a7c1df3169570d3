"""The socket front end's store hit path: warm reads answered without a
worker hop must be the answers a worker (and a storeless serial session)
gives, and must never outlive the module state they were stored for."""

import asyncio
import json
import time

from repro.service.pool import WorkerPool
from repro.service.protocol import OPS, handle_payload, make_request
from repro.service.server import ServiceServer
from repro.service.session import AnalysisSession

SRC = """
void fill(float* p, int n) {
  int i = 0;
  while (i < n) {
    p[i] = 0;
    p[i + 1] = 1;
    i = i + 2;
  }
}

int main(int argc, char** argv) {
  char* a = (char*)malloc(8);
  char* b = a + 1;
  *a = 0;
  *b = 1;
  float* f = (float*)malloc(64);
  fill(f, argc);
  return 0;
}
"""

# ``*b`` moves out of its 8-byte object: the bounds report changes.
SRC_EDITED = SRC.replace("a + 1", "a + 9")

BOUNDS = dict(module="m", function="main")


def _run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=120))


async def _send_line(reader, writer, payload):
    writer.write((json.dumps(payload, sort_keys=True) + "\n").encode())
    await writer.drain()
    return await reader.readline()


async def _send(reader, writer, payload):
    return json.loads(await _send_line(reader, writer, payload))


def _serial_line(source, payloads):
    """The wire line a storeless serial session answers to the last
    payload, after all the others."""
    session = AnalysisSession()
    handle_payload(session, make_request("load", name="m", source=source))
    for payload in payloads:
        envelope = handle_payload(session, payload)
    return (json.dumps(envelope, sort_keys=True) + "\n").encode()


async def _start(tmp_path, chaos=None):
    pool = WorkerPool(workers=1, store_root=str(tmp_path / "store"),
                      chaos=chaos)
    server = ServiceServer(pool)
    await server.start()
    reader, writer = await asyncio.open_connection(server.host, server.port)
    loaded = await _send(reader, writer, make_request(
        "load", id="l", name="m", source=SRC))
    assert loaded["ok"] is True
    return pool, server, reader, writer


def _read_payloads():
    """One request of every read op the front end may answer."""
    pairs = [["m1", "p3"], ["p3", "m1", 1, None]]
    return [
        make_request("query", id="q", module="m", analysis="rbaa",
                     function="main", a="m1", b="p3"),
        make_request("query_many", id="qm", module="m", analysis="basic",
                     function="main", pairs=pairs),
        make_request("query_function", id="qf", module="m", analysis="rbaa"),
        make_request("values", id="v", module="m", function="fill"),
        make_request("range", id="r", module="m", function="fill",
                     value="n"),
        make_request("check_bounds", id="cb", **BOUNDS),
        make_request("parallel_loops", id="pl", module="m"),
    ]


class TestFrontEndHits:
    def test_every_stored_read_op_answers_like_the_worker_and_serially(
            self, tmp_path):
        payloads = _read_payloads()
        assert {payload["op"] for payload in payloads} == \
            {name for name, spec in OPS.items() if spec.stored}

        async def scenario():
            pool, server, reader, writer = await _start(tmp_path)
            try:
                for payload in payloads:
                    hits = server.fault_stats()["store_hits"]
                    worker = await _send_line(reader, writer, payload)
                    assert json.loads(worker)["ok"] is True, worker
                    assert server.fault_stats()["store_hits"] == hits
                    front = await _send_line(reader, writer, payload)
                    # Answered from the store by the front end: one hit per
                    # stored value (one per pair for the alias ops).
                    stored = len(payload.get("pairs", [None]))
                    assert server.fault_stats()["store_hits"] \
                        == hits + stored, payload["op"]
                    assert front == worker
                    assert front == _serial_line(SRC, [payload])
                writer.close()
            finally:
                await server.stop()
        _run(scenario())

    def test_read_during_a_wedged_edit_returns_the_post_edit_answer(
            self, tmp_path):
        bounds = make_request("check_bounds", id="cb", **BOUNDS)
        before = _serial_line(SRC, [bounds])
        after = _serial_line(SRC_EDITED, [bounds])
        assert before != after

        async def scenario():
            pool, server, reader, writer = await _start(
                tmp_path, chaos={0: {"latency_by_id": {"e": 0.5}}})
            try:
                # The pre-edit answer is stored (and served by the front
                # end) before the edit starts.
                for _ in range(2):
                    assert await _send_line(reader, writer, bounds) == before
                edit = asyncio.ensure_future(_send(reader, writer,
                                                   make_request(
                    "edit", id="e", name="m", source=SRC_EDITED)))
                await asyncio.sleep(0.1)  # the worker sleeps on the edit
                other_r, other_w = await asyncio.open_connection(
                    server.host, server.port)
                answer = await _send_line(other_r, other_w, bounds)
                assert (await edit)["ok"] is True
                assert answer == after
                # Once the edit is acknowledged, the front end serves the
                # new source's answers.
                hits = server.fault_stats()["store_hits"]
                assert await _send_line(other_r, other_w, bounds) == after
                assert server.fault_stats()["store_hits"] == hits + 1
                writer.close()
                other_w.close()
            finally:
                await server.stop()
        _run(scenario())

    def test_read_after_unload_is_an_unknown_module(self, tmp_path):
        values = make_request("values", id="v", module="m", function="main")

        async def scenario():
            pool, server, reader, writer = await _start(tmp_path)
            try:
                for _ in range(2):
                    assert (await _send(reader, writer, values))["ok"] is True
                assert server.fault_stats()["store_hits"] == 1
                unloaded = await _send(reader, writer, make_request(
                    "unload", id="u", name="m"))
                assert unloaded["ok"] is True
                gone = await _send(reader, writer, values)
                assert gone["error_code"] == "unknown_module"
                assert gone["id"] == "v"
                writer.close()
            finally:
                await server.stop()
        _run(scenario())

    def test_read_after_a_rejected_edit_is_still_correct(self, tmp_path):
        bounds = make_request("check_bounds", id="cb", **BOUNDS)
        expected = _serial_line(SRC, [bounds])

        async def scenario():
            pool, server, reader, writer = await _start(tmp_path)
            try:
                for _ in range(2):
                    assert await _send_line(reader, writer, bounds) \
                        == expected
                rejected = await _send(reader, writer, make_request(
                    "edit", id="e", name="m", source="int main( {"))
                assert rejected["error_code"] == "edit_rejected"
                assert await _send_line(reader, writer, bounds) == expected
                writer.close()
            finally:
                await server.stop()
        _run(scenario())

    def test_zero_budget_read_is_answered_cooperatively(self, tmp_path):
        query = make_request("query", id="q", module="m", analysis="rbaa",
                             function="main", a="m1", b="p3")
        expired = dict(query, id="z", timeout_ms=0)

        async def scenario():
            pool, server, reader, writer = await _start(tmp_path)
            try:
                for _ in range(2):
                    assert (await _send(reader, writer, query))["ok"] is True
                hits = server.fault_stats()["store_hits"]
                line = await _send_line(reader, writer, expired)
                assert server.fault_stats()["store_hits"] == hits + 1
                probe = json.loads(line)
                assert probe["error_code"] == "deadline_exceeded"
                assert "expired before evaluation" in probe["message"]
                assert line == _serial_line(SRC, [expired])
                assert server.fault_stats()["backstops"] == 0
                writer.close()
            finally:
                await server.stop()
        _run(scenario())

    def test_warm_reads_of_a_wedged_worker_are_answered_without_waiting(
            self, tmp_path):
        values = make_request("values", id="v", module="m", function="main")

        async def scenario():
            pool, server, reader, writer = await _start(
                tmp_path, chaos={0: {"latency_by_id": {"hold": 1.0}}})
            try:
                assert (await _send(reader, writer, values))["ok"] is True
                held = asyncio.ensure_future(_send(reader, writer,
                                                   make_request(
                    "stats", id="hold", module="m")))
                await asyncio.sleep(0.1)  # the worker sleeps on ``hold``
                other_r, other_w = await asyncio.open_connection(
                    server.host, server.port)
                started = time.perf_counter()
                answer = await _send(other_r, other_w, values)
                elapsed = time.perf_counter() - started
                assert answer["ok"] is True
                assert not held.done()
                assert elapsed < 0.5
                assert (await held)["ok"] is True
                writer.close()
                other_w.close()
            finally:
                await server.stop()
        _run(scenario())
