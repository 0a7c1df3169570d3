"""Client API over the analysis-service protocol.

One :class:`ServiceClient` facade, one implementation per transport:

* :class:`InProcessClient` — an :class:`~repro.service.session.AnalysisSession`
  behind the exact same versioned wire contract the remote transports speak
  (every payload still round-trips through
  :func:`repro.service.protocol.handle_payload`);
* :class:`DaemonClient` — a real ``python -m repro.service`` stdin/stdout
  subprocess, line-delimited JSON;
* :class:`SocketClient` — the concurrent TCP server
  (``python -m repro.service.server``) over one connection.

Every op goes through :meth:`ServiceClient.request`: ``client.request(op,
**fields)`` builds the payload with
:func:`repro.service.protocol.make_request` (stamping the mandatory ``"v"``)
and validates the envelope with
:func:`repro.service.protocol.check_response` against the op's declared
response fields in :data:`repro.service.protocol.OPS`.  Transports only
implement :meth:`ServiceClient.call` — send one payload, return one decoded
envelope.

Requests route through :meth:`ServiceClient.send`, which retries
*transient* fault envelopes — exactly the codes in
:data:`repro.service.protocol.RETRYABLE_ERROR_CODES`
(``worker_unavailable``, ``overloaded``) — with seeded-jittered exponential
backoff (:class:`RetryPolicy`).  ``deadline_exceeded`` is deliberately not
retried here: for a mutating request the effect may have applied, so the
caller owns that decision.  Retry counters surface via
:meth:`ServiceClient.retry_stats`.
"""

from __future__ import annotations

import json
import os
import random
import re
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..benchgen import stable_seed
from .protocol import (
    RETRYABLE_ERROR_CODES,
    ServiceError,
    check_response,
    handle_payload,
    make_request,
)

__all__ = ["RetryPolicy", "ServiceClient", "InProcessClient", "DaemonClient",
           "SocketClient", "subprocess_env"]


@dataclass
class RetryPolicy:
    """Seeded-jittered exponential backoff for *transient* fault envelopes.

    The jitter stream comes from :func:`repro.benchgen.stable_seed`, so a
    given ``seed`` string always produces the same backoff schedule — the
    chaos harness depends on that for reproducible fault runs.  Delays are
    ``min(cap, base · factor^attempt)`` scaled into ``[0.5, 1.0)`` of
    themselves (decorrelated enough to avoid thundering herds, bounded
    enough to stay deterministic in wall-time tests).
    """

    attempts: int = 5
    base_ms: float = 25.0
    factor: float = 2.0
    cap_ms: float = 1000.0
    seed: str = "service/retry/default"
    #: Per-``error_code`` counts of retried responses.
    retries_by_code: Dict[str, int] = field(default_factory=dict)
    #: Requests whose final answer was still a retryable error.
    exhausted: int = 0

    def __post_init__(self) -> None:
        self._rng = random.Random(stable_seed(self.seed))

    def delay_seconds(self, attempt: int) -> float:
        nominal = min(self.cap_ms, self.base_ms * (self.factor ** attempt))
        return (nominal * (0.5 + 0.5 * self._rng.random())) / 1000.0

    def note(self, code: str) -> None:
        self.retries_by_code[code] = self.retries_by_code.get(code, 0) + 1

    def stats(self) -> Dict[str, Any]:
        return {"attempts": self.attempts,
                "retries_by_code": dict(sorted(self.retries_by_code.items())),
                "retries": sum(self.retries_by_code.values()),
                "exhausted": self.exhausted}


def subprocess_env() -> Dict[str, str]:
    """An environment in which service subprocesses can import ``repro``."""
    import repro

    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = package_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class ServiceClient:
    """Transport-agnostic facade over the versioned wire protocol."""

    #: Backoff policy for transient faults; created lazily on first use.
    #: Assign a configured :class:`RetryPolicy` (or ``None`` before any
    #: request ever runs, then a default appears) to tune or seed it.
    retry_policy: Optional[RetryPolicy] = None

    # -- transport hook ---------------------------------------------------------
    def call(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request payload, return the decoded response envelope."""
        raise NotImplementedError

    # -- retrying send ----------------------------------------------------------
    def send(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """:meth:`call` plus transient-fault retries.

        Only the codes in ``RETRYABLE_ERROR_CODES`` are retried: a worker
        that died (``worker_unavailable``) has provably *not* applied a
        mutating request (the journal admits acknowledged mutations only),
        and a shed request (``overloaded``) was never admitted at all — so
        resending either is safe.  Anything else, including
        ``deadline_exceeded``, returns to the caller untouched.
        """
        if self.retry_policy is None:
            self.retry_policy = RetryPolicy()
        policy = self.retry_policy
        attempt = 0
        while True:
            envelope = self.call(payload)
            code = envelope.get("error_code") \
                if isinstance(envelope, dict) else None
            if code not in RETRYABLE_ERROR_CODES:
                return envelope
            if attempt >= policy.attempts:
                policy.exhausted += 1
                return envelope
            policy.note(code)
            time.sleep(policy.delay_seconds(attempt))
            attempt += 1

    def retry_stats(self) -> Dict[str, Any]:
        """Counters of the transient-fault retries this client performed."""
        if self.retry_policy is None:
            return {"attempts": 0, "retries_by_code": {}, "retries": 0,
                    "exhausted": 0}
        return self.retry_policy.stats()

    def close(self) -> None:
        """Release the transport (terminate subprocesses, close sockets)."""

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- generic checked request ------------------------------------------------
    def request(self, op: str, *, id: Any = None,
                **fields: Any) -> Dict[str, Any]:
        """One checked request; returns the successful envelope or raises
        :class:`~repro.service.protocol.ServiceError` with its stable code.

        ``fields`` are the op's wire fields (see ``protocol.OPS``); the
        envelope must carry every response field the op declares.
        """
        return check_response(self.send(make_request(op, id=id, **fields)),
                              op)


class InProcessClient(ServiceClient):
    """The session API behind the same protocol the remote transports speak."""

    def __init__(self, store: Any = None) -> None:
        from .session import AnalysisSession

        self._session = AnalysisSession(store)

    def call(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return handle_payload(self._session, payload)


class DaemonClient(ServiceClient):
    """Drives a real daemon subprocess over line-delimited JSON."""

    def __init__(self) -> None:
        self._process = subprocess.Popen(
            [sys.executable, "-m", "repro.service"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=subprocess_env())

    def call(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        assert self._process.stdin is not None and self._process.stdout is not None
        self._process.stdin.write(json.dumps(payload) + "\n")
        self._process.stdin.flush()
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError("daemon closed its stdout mid-conversation")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.request("shutdown")
        except (ServiceError, RuntimeError, BrokenPipeError, OSError):
            self._process.kill()  # pragma: no cover - shutdown fallback
        self._process.wait(timeout=30)


class SocketClient(ServiceClient):
    """Drives the concurrent TCP server (:mod:`repro.service.server`).

    The server subprocess announces its ephemeral port on stdout; the
    client then speaks the identical line protocol over one connection.
    """

    def __init__(self, workers: int = 1) -> None:
        self._process = subprocess.Popen(
            [sys.executable, "-m", "repro.service.server",
             "--port", "0", "--workers", str(workers)],
            stdout=subprocess.PIPE, text=True, env=subprocess_env())
        assert self._process.stdout is not None
        banner = self._process.stdout.readline()
        match = re.search(r":(\d+) ", banner)
        if not match:
            self._process.kill()
            raise RuntimeError(f"no port in server banner: {banner!r}")
        self._socket = socket.create_connection(
            ("127.0.0.1", int(match.group(1))), timeout=60)
        self._file = self._socket.makefile("rw", encoding="utf-8", newline="\n")

    def call(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self._file.write(json.dumps(payload) + "\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise RuntimeError("server closed the connection mid-conversation")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.request("shutdown")
        except (ServiceError, RuntimeError, BrokenPipeError, OSError):
            self._process.kill()  # pragma: no cover - shutdown fallback
        finally:
            self._socket.close()
        self._process.wait(timeout=30)
