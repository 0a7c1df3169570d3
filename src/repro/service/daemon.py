"""The analysis daemon: the service protocol over stdin/stdout.

Each request is one JSON object per line; each response is one JSON object
per line, in request order.  The wire contract — versioning (``"v"``),
request-``id`` echo, structured ``error_code`` envelopes, the access-size
schema — is defined once in :mod:`repro.service.protocol`; this module is
only the stdio transport around :func:`repro.service.protocol.handle_payload`
(the daemon never dies on a bad request — only on EOF or ``shutdown``).

The ops and their fields are those of ``protocol.OPS``;
``python -m repro.service --help`` lists them.

Requests must carry ``"v"`` (protocol version; omissions and mismatches
are rejected with ``error_code: "protocol_mismatch"``) and may carry
``"id"`` (an arbitrary correlation token echoed verbatim on the
response).  Failures are structured::

    {"ok": false, "v": 1, "id": .., "error_code": "unknown_op",
     "message": "..."}

where ``error_code`` is one of ``protocol.ERROR_CODES`` (the deprecated
pre-v1 free-form ``"error"`` string has completed its removal cycle):

======================  =====================================================
``protocol_mismatch``   ``"v"`` missing or unsupported — fix, don't retry
``bad_request``         malformed payload (missing/ill-typed field, bad size
                        word, bad ``timeout_ms``) or a request the service
                        rejects (bad source, unknown suite program) — fix,
                        don't retry
``unknown_op``          ``op`` not in ``protocol.OPS`` — fix, don't retry
``unknown_module``      module not resident — load it, don't retry
``unknown_function``    no such function in the module
``unknown_value``       no such SSA value name in the function
``unknown_analysis``    analysis key not registered
``edit_rejected``       edited source failed the frontend; resident module
                        untouched
``internal_error``      unexpected exception while serving a valid request
                        (a bug, never the client's); type and text in
                        ``message``
``worker_unavailable``  pool front end only: the owning worker died with
                        this request in flight.  **Retryable.**  Read-only
                        requests are already retried transparently by the
                        supervisor; a mutating request (``load`` / ``edit``
                        / ``unload``) is *never* half-applied — an
                        unacknowledged mutation is excluded from the replay
                        journal, so resending applies it exactly once.
``deadline_exceeded``   the request's ``timeout_ms`` budget expired — either
                        the worker abandoned the solve cooperatively or the
                        front end's wall-clock backstop fired.  **Not
                        retryable blindly**: a backstopped mutating request
                        may still have applied.
``overloaded``          pool front end only: the shard is at its in-flight
                        bound and shed the request unstarted.  **Retryable**
                        after backoff.
======================  =====================================================

The retry contract is machine-readable: ``protocol.RETRYABLE_ERROR_CODES``
(= ``{worker_unavailable, overloaded}``) is exactly the set a client may
resend without idempotency reasoning; ``ServiceClient.send`` does so with
seeded-jitter exponential backoff (``repro.service.client.RetryPolicy``).
Requests may carry an additive ``timeout_ms`` field (non-negative integer;
``0`` expires immediately); it bounds only non-mutating evaluation —
mutating requests ignore the budget rather than risk a torn edit.

Sizes (``size_a``/``size_b`` and 4-element ``query_many`` pairs): omit or
``"default"`` for the pointee-size default; ``null`` or ``"unknown"`` for
an unknown (unbounded) access extent; a non-negative integer for a byte
count.  :func:`repro.service.protocol.coerce_size` is the single source of
truth, so the schema round-trips identically through the in-process
session, this daemon, and the socket server.

Usage::

    python -m repro.service.daemon [--store DIR]   # or: python -m repro.service

``--store`` backs the session with a persistent content-addressed result
store (:mod:`repro.service.store`): deterministic answers are reused across
restarts and module loads stay lazy while the store can answer.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, IO, Optional

from .protocol import (BAD_REQUEST, OPS, error_envelope, handle_payload,
                       request_id_of)
from .session import AnalysisSession
from .store import ResultStore

__all__ = ["main", "op_table", "serve"]


def serve(stdin: Optional[IO[str]] = None,
          stdout: Optional[IO[str]] = None,
          session: Optional[AnalysisSession] = None) -> int:
    """Run the request loop until EOF or a ``shutdown`` request."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    session = session if session is not None else AnalysisSession()
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            request: Any = json.loads(line)
        except ValueError as error:
            response = error_envelope(BAD_REQUEST,
                                      f"invalid JSON: {error}", None)
        else:
            response = handle_payload(session, request)
            # handle_payload never raises; a failure is already an envelope
            # with the request id echoed for pipelined correlation.
            assert "ok" in response, request_id_of(request)
        stdout.write(json.dumps(response, sort_keys=True) + "\n")
        stdout.flush()
        if response.get("shutdown"):
            return 0
    return 0


def op_table() -> str:
    """One line per op of ``protocol.OPS``: its name, its request fields
    (optional ones in brackets) and what it does."""
    lines = ["ops:"]
    for spec in OPS.values():
        fields = ", ".join(name if kind in ("str", "pairs") else f"[{name}]"
                           for name, kind in spec.fields)
        text = f"{{{fields}}} — {spec.doc}" if fields else spec.doc
        lines.append(f"  {spec.name:<16}{text}")
    return "\n".join(lines)


def main(argv: Optional[list] = None) -> int:  # pragma: no cover - subprocess
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="line-delimited JSON analysis daemon over stdin/stdout",
        epilog=op_table(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="back the session with a persistent "
                             "content-addressed result store at DIR")
    options = parser.parse_args(argv)
    store = ResultStore(options.store) if options.store else None
    return serve(session=AnalysisSession(store=store))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
