"""Worker supervision: crash detection, failover, and state replay.

The :class:`WorkerSupervisor` owns the front end's side of every worker
socket (:mod:`repro.service.pool`) and makes worker death a *handled*
event, all on the event loop:

* **Streams** — each worker generation's socket end is an asyncio stream.
  Submissions are written through its ``StreamWriter`` (buffered, never
  blocking); one reader task per generation decodes answer frames and
  resolves their jobs.  Answers are drained only by that always-running
  task, never by a submitter, so neither socket buffer can fill up while
  both sides wait on each other.
* **Detection** — a worker's death is EOF (or a torn frame) on its stream:
  the reader task, having resolved every answer that did arrive, starts
  the failover itself unless the supervisor is closing.  A generation
  check filters a reader whose shard was already replaced.
* **Failover** — the dead process is reaped and respawned, then the
  shard's in-flight jobs are triaged: *mutating* requests fail fast with a
  structured ``worker_unavailable`` envelope (their effect is unknown —
  the client owns the retry decision), *read-only* requests are
  deterministic and are resubmitted transparently (bounded retries), and
  replay jobs are simply dropped (the journal still holds them).  The
  shard's journal is replayed before any retry or new traffic reaches the
  replacement.
* **Replay** — sessions are pure functions of their acknowledged request
  stream, so the supervisor journals every *successful* mutating payload
  (``load``/``load_program``/``edit``/``unload``) per shard, exactly once:
  a payload is appended only when its success envelope arrives, and replay
  submissions are never re-journaled.  An edit the dead worker never
  acknowledged is therefore absent from both the journal and the replayed
  state — which is exactly what ``worker_unavailable`` tells the client.
  With a warm content-addressed store the replay is near-free: loads stay
  lazy and the respawned shard keeps answering with zero solver steps.

Admission is gated per shard on an :class:`asyncio.Event` that failover
clears while the replacement's stream opens, so nothing new is written to
a dead worker's socket; journal replays and transparent retries use a
private side door.  An orderly stop closes our end of every socket: each
worker sees EOF, exits 0, and is joined.

The chaos harness (:mod:`repro.service.chaos`) observes the supervisor
through the ``on_response`` hook — every worker envelope passes through
it, and so does every answer the front end serves from the result store
on a shard's behalf — which is how a fault plan's "kill worker N after K
responses" trigger counts deterministically.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .pool import WorkerPool, pack_frame, read_frame
from .protocol import WORKER_UNAVAILABLE, error_envelope

__all__ = ["WorkerSupervisor"]


@dataclass
class _Job:
    """One in-flight worker request and everything failover needs to triage
    it: the verbatim payload (for journal/replay), whether it mutates
    session state, and how often it has already been transparently
    resubmitted."""

    shard: int
    payload: Dict[str, Any]
    future: asyncio.Future
    mutating: bool = False
    request_id: Any = None
    replay: bool = False
    retries: int = 0


@dataclass
class SupervisorStats:
    """Counters the loadtest and the chaos harness read back."""

    worker_deaths: int = 0
    respawns: int = 0
    failed_jobs: int = 0
    retried_jobs: int = 0
    replayed_payloads: int = 0
    replay_errors: int = 0
    journal_entries: Dict[int, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "worker_deaths": self.worker_deaths,
            "respawns": self.respawns,
            "failed_jobs": self.failed_jobs,
            "retried_jobs": self.retried_jobs,
            "replayed_payloads": self.replayed_payloads,
            "replay_errors": self.replay_errors,
            "journal_entries": {str(shard): count for shard, count
                                in sorted(self.journal_entries.items())},
        }


class WorkerSupervisor:
    """Owns worker plumbing: streams, in-flight jobs, failover."""

    #: Transparent resubmissions of one deterministic read-only job before
    #: the supervisor gives up and surfaces ``worker_unavailable`` (a shard
    #: crashing three times on the same query is not a transient fault).
    MAX_READ_RETRIES = 3

    def __init__(self, pool: WorkerPool,
                 on_response: Optional[Callable[[int, Dict[str, Any]], None]]
                 = None):
        self.pool = pool
        self.on_response = on_response
        self.stats = SupervisorStats()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._jobs: Dict[int, _Job] = {}
        self._job_ids = itertools.count(1)
        self._journal: Dict[int, List[Dict[str, Any]]] = {}
        self._writers: Dict[int, asyncio.StreamWriter] = {}
        self._readers: Dict[int, asyncio.Task] = {}
        self._available: Dict[int, asyncio.Event] = {}
        self._closing = False

    # -- lifecycle -------------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.pool.start()
        for shard in range(self.pool.workers):
            self._journal[shard] = []
            self._available[shard] = asyncio.Event()
            self._available[shard].set()
            await self._attach(shard)

    async def _attach(self, shard: int) -> None:
        """Open the stream and start the reader task for a shard's *current*
        process generation (called at start and after every respawn)."""
        worker = self.pool.worker(shard)
        reader, self._writers[shard] = await asyncio.open_connection(
            sock=worker.channel)
        self._readers[shard] = self._loop.create_task(
            self._read(worker, reader))

    async def stop(self, timeout: float = 30.0) -> None:
        """Orderly close: close our socket ends, join workers, settle leftovers.

        In-flight jobs are failed with envelopes — never exceptions — so a
        late ``await`` on one of them still sees a structured answer.
        """
        if self._closing:
            return
        self._closing = True
        for task in self._readers.values():
            task.cancel()
        for writer in self._writers.values():
            writer.transport.abort()
        self.pool.close(timeout)
        for job in self._jobs.values():
            if not job.future.done():
                job.future.set_result(error_envelope(
                    WORKER_UNAVAILABLE, "server stopped", job.request_id))
        self._jobs.clear()
        for event in self._available.values():
            event.set()  # unblock submitters so they observe the failures

    # -- submission ------------------------------------------------------------
    async def submit(self, shard: int, payload: Dict[str, Any], *,
                     mutating: bool = False,
                     request_id: Any = None) -> asyncio.Future:
        """Send one payload; returns the future its envelope resolves.

        Waits out any in-progress failover first so the job lands on the
        live replacement process, never on a dead worker's socket.
        """
        await self._available[shard].wait()
        job = _Job(shard=shard, payload=payload, mutating=mutating,
                   request_id=request_id, future=self._loop.create_future())
        if self._closing:
            job.future.set_result(error_envelope(
                WORKER_UNAVAILABLE, "server stopped", request_id))
        else:
            self._post(job)
        return job.future

    def _post(self, job: _Job) -> None:
        job_id = next(self._job_ids)
        self._jobs[job_id] = job
        self._writers[job.shard].write(pack_frame((job_id, job.payload)))

    # -- response path ---------------------------------------------------------
    async def _read(self, worker: Any, reader: asyncio.StreamReader) -> None:
        """Resolve one worker generation's answers until its stream ends;
        the end of the stream is the worker's death."""
        try:
            while True:
                job_id, envelope = await read_frame(reader)
                self._resolve(job_id, envelope, worker.index)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        if not self._closing and self.pool.worker(worker.index) is worker:
            await self._failover(worker)

    def _resolve(self, job_id: int, envelope: Dict[str, Any],
                 shard: int) -> None:
        job = self._jobs.pop(job_id, None)
        if self.on_response is not None:
            self.on_response(shard, envelope)
        if job is None:  # failover already settled it; late answer discarded
            return
        if job.mutating and envelope.get("ok") and not job.replay:
            # Exactly-once journaling: only *acknowledged* mutations enter
            # the journal, and a replayed payload never re-enters it.
            self._journal[job.shard].append(job.payload)
            self.stats.journal_entries[job.shard] = \
                len(self._journal[job.shard])
        if job.replay:
            if not envelope.get("ok"):  # pragma: no cover - divergence guard
                self.stats.replay_errors += 1
            return
        if not job.future.done():
            job.future.set_result(envelope)

    # -- death handling --------------------------------------------------------
    async def _failover(self, worker: Any) -> None:
        """Replace a dead shard process; no in-flight job is left hanging."""
        shard = worker.index
        self._available[shard].clear()
        self.stats.worker_deaths += 1
        self._writers[shard].transport.abort()
        self.pool.respawn(shard)  # reaps the dead process first
        self.stats.respawns += 1
        retryable: List[_Job] = []
        for job_id in [jid for jid, job in self._jobs.items()
                       if job.shard == shard]:
            job = self._jobs.pop(job_id)
            if job.replay:
                continue  # journal still holds it; replay restarts below
            if not job.mutating and job.retries < self.MAX_READ_RETRIES:
                retryable.append(job)
                continue
            self.stats.failed_jobs += 1
            if not job.future.done():
                job.future.set_result(error_envelope(
                    WORKER_UNAVAILABLE,
                    f"worker for shard {shard} died "
                    f"(exitcode {worker.process.exitcode}) with this "
                    f"request in flight", job.request_id))
        await self._attach(shard)
        # FIFO replay ahead of everything else: the socket preserves order,
        # so journal state is rebuilt before any retry executes.
        for payload in list(self._journal[shard]):
            self.stats.replayed_payloads += 1
            self._post(_Job(shard=shard, payload=payload, mutating=True,
                            request_id=payload.get("id"), replay=True,
                            future=self._loop.create_future()))
        for job in retryable:
            job.retries += 1
            self.stats.retried_jobs += 1
            self._post(job)
        self._available[shard].set()
