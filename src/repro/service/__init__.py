"""The analysis service: resident modules, incremental edits, query traffic.

* :mod:`repro.service.protocol` — the one versioned wire contract every
  transport speaks: the ``OPS`` table declaring each op once (typed
  fields, routing, ``mutating`` flag, session method, response fields),
  the one ``Request`` class that parses, encodes and applies every op,
  structured ``error_code`` envelopes with request-``id`` echo, the
  access-size schema, and client helpers.
* :mod:`repro.service.session` — :class:`AnalysisSession`, the in-process
  API: modules stay resident with warm analysis state (each alias
  analysis keeps its own bounded pair memo); single-function edits re-run only the invalidated cone;
  optionally backed by the persistent result store.
* :mod:`repro.service.store` — :class:`ResultStore`, the persistent
  content-addressed result cache keyed by source digest + generator and
  protocol versions (warm restarts skip compile-and-bootstrap).
* :mod:`repro.service.client` — :class:`ServiceClient`, the client facade
  (``client.request(op, **fields)``, checked against the op's declared
  response fields) with one implementation per transport (in-process,
  stdio daemon, TCP socket).
* :mod:`repro.service.daemon` — a stdin/stdout daemon speaking
  line-delimited JSON through the protocol layer; its docstring holds the
  human-readable op table, kept in sync with ``OPS`` by a test.
* :mod:`repro.service.pool` / :mod:`repro.service.server` — the concurrent
  serving layer: an asyncio TCP front end batching and multiplexing onto a
  shared-nothing pool of worker processes sharded by module (the op's
  routing field picks the shard), one socket pair per worker.
* :mod:`repro.service.supervisor` — :class:`WorkerSupervisor`, the fault
  tolerance core: reads every worker socket on the event loop and treats
  EOF as the worker's death, fails in-flight jobs of a dead worker
  structurally (``worker_unavailable``), respawns the shard and replays
  its journal of acknowledged mutating requests.
* :mod:`repro.service.chaos` — the deterministic fault injector behind
  ``loadtest --chaos``: seeded kill/latency/corruption/truncation plans.
* :mod:`repro.service.loadtest` — the closed-loop multi-client loadtest
  (``BENCH_service.json``) gated on answer identity vs a serial session,
  plus a replay of seeded edit scenarios gated on warm ≡ cold answers and
  on incremental solver-step wins.
"""

from .chaos import ChaosController, FaultPlan, generate_plan
from .client import (
    DaemonClient,
    InProcessClient,
    RetryPolicy,
    ServiceClient,
    SocketClient,
)
from .daemon import serve
from .pool import WorkerPool
from .protocol import (
    ERROR_CODES,
    OPS,
    PROTOCOL_VERSION,
    RETRYABLE_ERROR_CODES,
    ServiceError,
    check_response,
    handle_payload,
    make_request,
    parse_request,
)
from .session import ANALYSIS_KEYS, AnalysisSession, ResidentModule
from .store import ResultStore


def __getattr__(name: str):
    # Lazy so ``python -m repro.service.server`` does not re-import the
    # module it is about to execute (runpy would warn about that).
    if name == "ServiceServer":
        from .server import ServiceServer

        return ServiceServer
    if name == "WorkerSupervisor":
        from .supervisor import WorkerSupervisor

        return WorkerSupervisor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ANALYSIS_KEYS",
    "ERROR_CODES",
    "OPS",
    "PROTOCOL_VERSION",
    "RETRYABLE_ERROR_CODES",
    "AnalysisSession",
    "ChaosController",
    "DaemonClient",
    "FaultPlan",
    "InProcessClient",
    "ResidentModule",
    "ResultStore",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "SocketClient",
    "ServiceServer",
    "WorkerPool",
    "WorkerSupervisor",
    "check_response",
    "generate_plan",
    "handle_payload",
    "make_request",
    "parse_request",
    "serve",
]
