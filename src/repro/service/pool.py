"""A shared-nothing pool of analysis worker processes, sharded by module.

The engine's cached analyses hold live IR object graphs that must never
cross process boundaries (the parallel evaluation runner has the same
rule), so scaling the service means *sharding*, not sharing: every worker
process owns a private :class:`~repro.service.session.AnalysisSession`,
and each resident module lives on exactly one worker.  Placement reuses
:func:`repro.evaluation.parallel.partition`'s round-robin discipline for a
known corpus (:meth:`WorkerPool.assign`), falling back to a stable
name-hash (:func:`repro.benchgen.stable_seed`) for modules that show up
unannounced — both are deterministic, so a request for module *m* reaches
the same shard on every run.

Workers speak the service protocol verbatim over one ``socket.socketpair``
per worker: a job is a ``(job_id, payload)`` frame, the answer a
``(job_id, envelope)`` frame, produced by
:func:`repro.service.protocol.handle_payload` (which never raises, so a
malformed request cannot kill a worker).  A frame is a length header plus
a pickle (:func:`pack_frame`; read by :func:`read_frame` on the front end
and by the worker loop).  The asyncio front end (:mod:`repro.service.server`)
multiplexes many clients onto these sockets and correlates by job id.

The socket is also the worker's lifeline.  A worker exits 0 when it sees
EOF — the front end closed its end — and a worker that dies shows up on
the front end as EOF (or a torn frame) on its stream; there is no sentinel
in either direction.  :meth:`WorkerPool.respawn` reaps a dead shard's
process and builds a fresh one with a fresh socket; the supervisor
(:mod:`repro.service.supervisor`) fails or retries the dead worker's
in-flight jobs and replays the shard's journal into the replacement, so
worker state stays a pure function of the acknowledged request stream.

Workers may share one persistent content-addressed result store
(:mod:`repro.service.store`): entries are written atomically, and keys are
pure functions of module source + request, so concurrent writers are safe
and a warm store lets every worker answer without compiling anything.  The
front end opens the same store and answers warm read-only requests from
it without a worker hop, so on a warm store the workers mostly see
mutations, misses and ``stats``.

Processes are *spawned*, not forked: the symbolic layer keeps
process-global memo caches, and a forked child would inherit whatever the
parent had warmed — spawn keeps worker state a pure function of the
request stream, which the loadtest's answer-identity gate relies on.
"""

from __future__ import annotations

import multiprocessing
import pickle
import socket
import struct
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, BinaryIO, Dict, List, Optional, Sequence

from ..benchgen import stable_seed
from ..evaluation.parallel import partition

if TYPE_CHECKING:  # workers never import asyncio: it costs every one ~3 MB
    import asyncio

__all__ = ["WorkerPool", "pack_frame", "read_frame"]

#: Every frame on a worker socket: the pickle's byte length, then the pickle.
_HEADER = struct.Struct("!I")


def pack_frame(message: Any) -> bytes:
    """One ``(job_id, payload)`` or ``(job_id, envelope)`` frame."""
    body = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(body)) + body


async def read_frame(reader: asyncio.StreamReader) -> Any:
    """The front end's read of one frame; raises
    :class:`asyncio.IncompleteReadError` at EOF or on a torn frame."""
    (size,) = _HEADER.unpack(await reader.readexactly(_HEADER.size))
    return pickle.loads(await reader.readexactly(size))


def _read_frame_blocking(stream: BinaryIO) -> Any:
    """The worker's read of one frame; ``None`` once the front end closed
    its end (a frame torn by a dying front end counts as closed too)."""
    header = stream.read(_HEADER.size)
    if len(header) < _HEADER.size:
        return None
    (size,) = _HEADER.unpack(header)
    body = stream.read(size)
    return pickle.loads(body) if len(body) == size else None


def _worker_main(index: int, channel: socket.socket,
                 store_root: Optional[str],
                 chaos: Optional[Dict[str, Any]] = None) -> None:
    """One worker: a resident session answering frames on its socket.

    Imports happen here (not at module import) only in the sense that the
    spawned interpreter re-imports this module; the loop itself is dumb on
    purpose — all protocol semantics live in ``handle_payload``.  EOF on
    the socket is the orderly stop; a front end that vanishes mid-answer
    ends the worker too.

    ``chaos`` is the deterministic fault spec of the chaos harness
    (:mod:`repro.service.chaos`): ``latency_by_id`` maps request ids to a
    sleep (seconds) injected *before* handling — how the harness makes a
    worker wedge on one scripted request.  Production runs pass ``None``.
    """
    from .protocol import handle_payload
    from .session import AnalysisSession
    from .store import ResultStore

    latency_by_id = (chaos or {}).get("latency_by_id", {})
    store = ResultStore(store_root) if store_root else None
    session = AnalysisSession(store=store)
    stream = channel.makefile("rb")
    try:
        while True:
            job = _read_frame_blocking(stream)
            if job is None:
                return
            job_id, payload = job
            if isinstance(payload, dict):
                delay = latency_by_id.get(str(payload.get("id")))
                if delay:
                    time.sleep(float(delay))
            channel.sendall(pack_frame((job_id,
                                        handle_payload(session, payload))))
    except ConnectionError:
        return


@dataclass
class _Worker:
    index: int
    process: multiprocessing.process.BaseProcess
    #: The front end's end of the worker's socket pair.
    channel: socket.socket
    #: Bumped on every respawn — lets the supervisor ignore stale death
    #: notifications for a shard that was already replaced.
    generation: int = 0


@dataclass
class WorkerPool:
    """The process pool plus the deterministic module→shard placement."""

    workers: int = 2
    #: Shared result-store directory (``None`` disables persistence).
    store_root: Optional[str] = None
    #: Deterministic fault spec per shard index (chaos harness only):
    #: ``{shard: {"latency_by_id": {...}}}``.
    chaos: Optional[Dict[int, Dict[str, Any]]] = None
    _workers: List[_Worker] = field(default_factory=list)
    _placement: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.workers = max(1, int(self.workers))

    # -- placement -------------------------------------------------------------
    def assign(self, modules: Sequence[str]) -> Dict[str, int]:
        """Pin a known corpus to shards with the partition discipline.

        Modules are sorted first so placement is independent of call-site
        ordering; :func:`partition`'s round-robin then balances them across
        shards exactly like the parallel evaluation runner balances its
        corpus.
        """
        for shard, names in enumerate(partition(sorted(modules), self.workers)):
            for name in names:
                self._placement[name] = shard
        return dict(self._placement)

    def shard_of(self, module: Optional[str]) -> int:
        """The shard serving ``module`` (stable hash for unpinned names)."""
        if module is None:
            return 0
        shard = self._placement.get(module)
        if shard is None:
            shard = stable_seed(f"service/shard/{module}", self.workers)
            self._placement[module] = shard
        return shard

    # -- lifecycle -------------------------------------------------------------
    def _spawn(self, index: int, generation: int) -> _Worker:
        context = multiprocessing.get_context("spawn")
        ours, theirs = socket.socketpair()
        chaos = (self.chaos or {}).get(index)
        process = context.Process(
            target=_worker_main,
            args=(index, theirs, self.store_root, chaos),
            name=f"repro-service-worker-{index}.g{generation}", daemon=True)
        try:
            process.start()
        finally:
            theirs.close()  # the child's copy alone: its death must be EOF
        return _Worker(index, process, ours, generation)

    def start(self) -> None:
        if self._workers:
            return
        for index in range(self.workers):
            self._workers.append(self._spawn(index, generation=0))

    def worker(self, shard: int) -> _Worker:
        return self._workers[shard]

    def respawn(self, shard: int) -> _Worker:
        """Reap a dead shard process and start a fresh one on a fresh socket.

        The caller has seen EOF on the old socket, so the old process is
        exiting; one that lingers is killed.  The replacement session is
        empty — the caller (supervisor) replays the shard journal.
        """
        old = self._workers[shard]
        old.channel.close()  # already released by the caller's transport
        old.process.join(1.0)
        if old.process.is_alive():
            old.process.kill()
            old.process.join()
        worker = self._spawn(shard, generation=old.generation + 1)
        self._workers[shard] = worker
        return worker

    def close(self, timeout: float = 30.0) -> None:
        """Close every front-end end — each worker sees EOF and exits 0 —
        then join the workers (terminating any that outlive ``timeout``)."""
        for worker in self._workers:
            worker.channel.close()
        for worker in self._workers:
            worker.process.join(timeout)
            if worker.process.is_alive():  # pragma: no cover - hang backstop
                worker.process.terminate()
                worker.process.join(timeout)
        self._workers = []
