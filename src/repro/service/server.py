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

Each admitted request is one worker job: the front end writes the
request's own payload to its shard's worker socket at once and awaits that
job's envelope.  Nothing is held back, merged or split, so a request waits
only for the worker to reach it.

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
from typing import Any, Callable, Dict, List, Optional

from .pool import WorkerPool
from .protocol import (
    BAD_REQUEST,
    DEADLINE_EXCEEDED,
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
        self._inflight: List[int] = [0] * pool.workers
        self._shutdown = asyncio.Event()
        self._stopped = False
        #: Always 0: the front end does not coalesce queries.  Kept only
        #: because ``perfbench/server_proc.py`` reads both when the server
        #: stops; they go with the next change to the benchmark.
        self.batches = 0
        self.batched_queries = 0
        #: Fault telemetry: requests shed with ``overloaded`` and deadlines
        #: enforced by the front-end backstop (vs cooperatively by workers).
        self.shed = 0
        self.backstops = 0

    # -- lifecycle -------------------------------------------------------------
    async def start(self) -> None:
        await self.supervisor.start()
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
        await self.supervisor.stop()
        self._shutdown.set()

    def fault_stats(self) -> Dict[str, Any]:
        """Supervision/backpressure counters (chaos harness + loadtest)."""
        stats = self.supervisor.stats.as_dict()
        stats["shed"] = self.shed
        stats["backstops"] = self.backstops
        return stats

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
        self._inflight[shard] += 1
        try:
            answer = self._answer(shard, request, payload)
            if request.timeout_ms is None:
                return await answer
            # The front end's wall-clock deadline: fires even if the worker
            # is wedged (the cooperative worker-side deadline is the common
            # case), and also covers the submit's wait for a failover in
            # progress.  A late worker answer is consumed by the supervisor.
            try:
                return await asyncio.wait_for(
                    answer, request.timeout_ms / 1000.0 + self.deadline_grace)
            except asyncio.TimeoutError:
                self.backstops += 1
                return error_envelope(
                    DEADLINE_EXCEEDED,
                    f"deadline of {request.timeout_ms} ms exceeded "
                    f"(front-end wall-clock backstop)", request.id)
        finally:
            self._inflight[shard] -= 1

    async def _answer(self, shard: int, request: Request,
                      payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send ``payload`` to the shard's worker as one job; its envelope."""
        job = await self.supervisor.submit(
            shard, payload, mutating=request.spec.mutating,
            request_id=request.id)
        return await job

    async def _merged_modules(self, request: Request) -> Dict[str, Any]:
        """Fan ``modules`` out to every shard; merge listings in name order."""
        jobs = [await self.supervisor.submit(shard, {"op": "modules", "v": 1})
                for shard in range(self.pool.workers)]
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
