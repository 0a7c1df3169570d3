"""The concurrent socket front end: asyncio TCP over the sharded pool.

One asyncio process accepts any number of clients speaking the same
line-delimited JSON protocol as the stdio daemon (one request object per
line, one response object per line; see :mod:`repro.service.protocol`).
Requests are parsed *here* — malformed ones are rejected with the standard
structured envelope without touching a worker — then routed by their
module to a shard of the shared-nothing :class:`~repro.service.pool.WorkerPool`
and answered out of that worker's resident session.  Responses are
correlated by the protocol's request ``id``, so any one connection may
pipeline freely.

Worker plumbing lives in :class:`~repro.service.supervisor.WorkerSupervisor`:
every worker is one socket pair whose front-end end is an asyncio stream on
this same event loop — no helper threads.  End-of-stream is a worker's
death; the supervisor then fails or transparently retries the dead shard's
in-flight jobs, respawns it, and replays its journal — so no request ever
hangs on a dead worker.

Fault envelopes the front end itself can produce:

* ``overloaded`` — admission control: at most ``max_inflight`` requests
  may be outstanding per shard; beyond that the request is shed
  immediately instead of queueing without bound (clients retry with
  backoff — see :class:`~repro.service.client.RetryPolicy`).
* ``deadline_exceeded`` — a request carrying ``timeout_ms`` is backstopped
  with a wall-clock timer here (``timeout_ms`` plus a grace for queueing
  and IPC), so even a *wedged* worker cannot stall the client past its
  deadline; cooperative worker-side deadlines are the common case
  (``protocol._apply_with_deadline``), the backstop is the guarantee.

Batching: each shard has a dispatcher coroutine that drains its queue in
rounds and *coalesces* the round's single ``query`` requests that target
the same ``(module, analysis, function)`` into one ``query_many`` job —
one IPC round-trip and one engine batch instead of N.  The dispatcher
waits for the whole round to be answered before draining again, which is
what gives concurrent clients a window to pile up coalescable queries.
Batched answers are split back into per-request envelopes (id echoed), and
because the persistent result store keys alias answers *per pair*, the
coalescing a particular traffic interleaving happens to produce never
changes what a warm store can answer later.  When a coalesced batch fails
(one member naming an unknown value fails the whole ``query_many``), each
member is resubmitted as its own ``query``, so a bad query never poisons
the valid ones that shared its round.  Requests carrying ``timeout_ms``
are never coalesced — their deadline is their own.

The front end answers ``ping`` itself, fans ``modules`` out to every shard
and merges the listings, and treats ``shutdown`` (or SIGTERM) as an
orderly stop of the whole server.  Everything else — including every error
a *valid* request produces — comes verbatim from a worker's
``handle_payload``, so socket answers are bit-identical to the in-process
session's.

Usage::

    python -m repro.service.server --port 7411 --workers 4 --store DIR
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
from typing import Any, Callable, Dict, List, Optional, Tuple

from .pool import WorkerPool
from .protocol import (
    BAD_REQUEST,
    DEADLINE_EXCEEDED,
    OPS,
    OVERLOADED,
    Request,
    ServiceError,
    error_envelope,
    parse_request,
    request_id_of,
    success_envelope,
)
from .supervisor import WorkerSupervisor

__all__ = ["ServiceServer", "main"]

#: Wall-clock slack added to ``timeout_ms`` before the front end backstops
#: a request: covers queueing, IPC and the worker's own grace to answer
#: ``deadline_exceeded`` cooperatively (the common, well-behaved case).
DEFAULT_DEADLINE_GRACE = 0.25


class ServiceServer:
    """The asyncio TCP front end over one supervised :class:`WorkerPool`."""

    def __init__(self, pool: WorkerPool, host: str = "127.0.0.1",
                 port: int = 0, max_inflight: Optional[int] = None,
                 deadline_grace: float = DEFAULT_DEADLINE_GRACE,
                 on_response: Optional[Callable[[int, Dict[str, Any]], None]]
                 = None):
        self.pool = pool
        self.host = host
        self.port: Optional[int] = None
        self._requested_port = port
        #: Per-shard admission bound (``None`` = unbounded, the pre-PR-10
        #: behaviour); beyond it requests are shed with ``overloaded``.
        self.max_inflight = max_inflight
        self.deadline_grace = deadline_grace
        self.supervisor = WorkerSupervisor(pool, on_response=on_response)
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queues: List[asyncio.Queue] = []
        self._dispatchers: List[asyncio.Task] = []
        self._inflight: List[int] = []
        self._shutdown = asyncio.Event()
        self._stopped = False
        #: Telemetry: coalesced query rounds (observable from the loadtest).
        self.batches = 0
        self.batched_queries = 0
        #: Fault telemetry: requests shed with ``overloaded`` and deadlines
        #: enforced by the front-end backstop (vs cooperatively by workers).
        self.shed = 0
        self.backstops = 0

    # -- lifecycle -------------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self.supervisor.start()
        for shard in range(self.pool.workers):
            self._queues.append(asyncio.Queue())
            self._inflight.append(0)
            self._dispatchers.append(
                asyncio.create_task(self._dispatch(shard)))
        self._server = await asyncio.start_server(
            self._serve_client, self.host, self._requested_port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def wait_shutdown(self) -> None:
        """Block until ``shutdown`` arrives, SIGTERM fires, or :meth:`stop`."""
        await self._shutdown.wait()

    def request_shutdown(self) -> None:
        """Signal-safe orderly-shutdown trigger (SIGTERM/SIGINT handler)."""
        self._shutdown.set()

    async def stop(self) -> None:
        """Orderly stop: close the listener, then let the supervisor close
        the worker sockets, join the workers, and settle any in-flight job."""
        if self._stopped:
            return
        self._stopped = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._dispatchers:
            task.cancel()
        await self.supervisor.stop()
        self._shutdown.set()

    def fault_stats(self) -> Dict[str, Any]:
        """Supervision/backpressure counters (chaos harness + loadtest)."""
        stats = self.supervisor.stats.as_dict()
        stats["shed"] = self.shed
        stats["backstops"] = self.backstops
        return stats

    # -- dispatch + batching ---------------------------------------------------
    async def _dispatch(self, shard: int) -> None:
        """One shard's round loop: drain, coalesce, submit, await the round.

        Awaiting the whole round before the next drain is deliberate — it
        is the window during which concurrent clients' queries accumulate
        into the next coalescable batch.
        """
        queue = self._queues[shard]
        supervisor = self.supervisor
        while True:
            batch: List[Tuple[Request, Dict[str, Any], asyncio.Future]] = \
                [await queue.get()]
            while not queue.empty():
                batch.append(queue.get_nowait())
            round_jobs = []
            groups: Dict[Tuple[str, str, str],
                         List[Tuple[Request, asyncio.Future]]] = {}
            for request, payload, reply in batch:
                if request.op == "query" and request.timeout_ms is None:
                    args = request.args
                    key = (args["module"], args["analysis"], args["function"])
                    groups.setdefault(key, []).append((request, reply))
                else:
                    job = await supervisor.submit(
                        shard, payload, mutating=request.spec.mutating,
                        request_id=request.id)
                    round_jobs.append(self._deliver(job, reply))
            for key, members in groups.items():
                if len(members) == 1:
                    round_jobs.append(self._deliver_alone(shard, *members[0]))
                    continue
                module, analysis, function = key
                combined = Request(OPS["query_many"], {
                    "module": module, "analysis": analysis,
                    "function": function,
                    "pairs": [(r.args["a"], r.args["b"], r.args["size_a"],
                               r.args["size_b"]) for r, _ in members]})
                self.batches += 1
                self.batched_queries += len(members)
                job = await supervisor.submit(shard, combined.to_payload())
                round_jobs.append(self._deliver_split(shard, job, members))
            await asyncio.gather(*round_jobs)

    @staticmethod
    async def _deliver(job: asyncio.Future, reply: asyncio.Future) -> None:
        """Forward one job envelope to its reply, unless the reply already
        terminated (deadline backstop) — then the round moves on and the
        worker's late answer is consumed silently by the supervisor."""
        await asyncio.wait({job, reply}, return_when=asyncio.FIRST_COMPLETED)
        if reply.done():
            return
        envelope = await job
        if not reply.done():
            reply.set_result(envelope)

    async def _deliver_alone(self, shard: int, request: Request,
                             reply: asyncio.Future) -> None:
        """Answer one ``query`` with its own worker job."""
        job = await self.supervisor.submit(shard, request.to_payload(),
                                           request_id=request.id)
        await self._deliver(job, reply)

    async def _deliver_split(self, shard: int, job: asyncio.Future,
                             members: List[Tuple[Request,
                                                 asyncio.Future]]) -> None:
        """Split one coalesced ``query_many`` answer into per-query envelopes.

        The reconstructed envelopes are field-for-field what the worker
        would have produced for the individual ``query``.  A failed batch
        says nothing about any one member — a single unknown value name
        fails the whole ``query_many`` — so each member is then resubmitted
        as its own ``query`` and gets its own answer.
        """
        envelope = await job
        if not envelope.get("ok"):
            await asyncio.gather(*(self._deliver_alone(shard, request, reply)
                                   for request, reply in members))
            return
        for (request, reply), result in zip(members, envelope["results"]):
            if not reply.done():
                args = request.args
                reply.set_result(success_envelope(request.id, {
                    "module": args["module"], "analysis": args["analysis"],
                    "function": args["function"],
                    "a": args["a"], "b": args["b"], "result": result}))

    # -- client handling -------------------------------------------------------
    async def _serve_client(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                try:
                    payload: Any = json.loads(text)
                except ValueError as error:
                    response = error_envelope(BAD_REQUEST,
                                              f"invalid JSON: {error}", None)
                else:
                    response = await self._handle(payload)
                writer.write(
                    (json.dumps(response, sort_keys=True) + "\n").encode())
                await writer.drain()
                if response.get("shutdown"):
                    self._shutdown.set()
                    return
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            return
        except asyncio.CancelledError:  # loop teardown with the client open
            return
        finally:
            writer.close()

    async def _handle(self, payload: Any) -> Dict[str, Any]:
        try:
            request = parse_request(payload)
        except ServiceError as error:
            return error_envelope(error.code, str(error),
                                  request_id_of(payload))
        if request.op in ("ping", "shutdown"):  # no session state involved
            return success_envelope(request.id, request.apply(None))
        if request.op == "modules":
            return await self._merged_modules(request)
        shard = self.pool.shard_of(request.routing_module())
        if self.max_inflight is not None \
                and self._inflight[shard] >= self.max_inflight:
            self.shed += 1
            return error_envelope(
                OVERLOADED,
                f"shard {shard} at max in-flight ({self.max_inflight}); "
                f"retry with backoff", request.id)
        reply = self._loop.create_future()
        self._inflight[shard] += 1
        reply.add_done_callback(
            lambda _, s=shard: self._admit_release(s))
        if request.timeout_ms is not None:
            self._arm_backstop(request, reply)
        await self._queues[shard].put((request, payload, reply))
        return await reply

    def _admit_release(self, shard: int) -> None:
        self._inflight[shard] -= 1

    def _arm_backstop(self, request: Request, reply: asyncio.Future) -> None:
        """The front end's wall-clock deadline: fires even if the worker is
        wedged (the cooperative worker-side deadline is the common case)."""
        def backstop() -> None:
            if not reply.done():
                self.backstops += 1
                reply.set_result(error_envelope(
                    DEADLINE_EXCEEDED,
                    f"deadline of {request.timeout_ms} ms exceeded "
                    f"(front-end wall-clock backstop)", request.id))

        handle = self._loop.call_later(
            request.timeout_ms / 1000.0 + self.deadline_grace, backstop)
        reply.add_done_callback(lambda _: handle.cancel())

    async def _merged_modules(self, request: Request) -> Dict[str, Any]:
        """Fan ``modules`` out to every shard; merge listings in name order."""
        jobs = [await self.supervisor.submit(shard, {"op": "modules", "v": 1})
                for shard in range(len(self._queues))]
        envelopes = await asyncio.gather(*jobs)
        merged: List[Dict[str, Any]] = []
        for envelope in envelopes:
            merged.extend(envelope.get("modules", []))
        merged.sort(key=lambda entry: entry["module"])
        return success_envelope(request.id, {"modules": merged})


async def _serve(options: argparse.Namespace) -> int:
    pool = WorkerPool(workers=options.workers, store_root=options.store)
    server = ServiceServer(pool, host=options.host, port=options.port,
                           max_inflight=options.max_inflight)
    await server.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, server.request_shutdown)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # platforms without loop signal handlers
    print(f"repro analysis service on {server.host}:{server.port} "
          f"({options.workers} workers)", flush=True)
    try:
        await server.wait_shutdown()
    finally:
        await server.stop()
    return 0


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover - CLI
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.server",
        description="concurrent TCP analysis service over a sharded "
                    "worker pool")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 picks an ephemeral one)")
    parser.add_argument("--workers", type=int, default=2,
                        help="shared-nothing worker processes")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="persistent content-addressed result store")
    parser.add_argument("--max-inflight", type=int, default=None,
                        help="per-shard admission bound; beyond it requests "
                             "are shed with error_code 'overloaded'")
    options = parser.parse_args(argv)
    return asyncio.run(_serve(options))


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main(sys.argv[1:]))
