"""The analysis daemon: the service protocol over stdin/stdout.

Each request is one JSON object per line; each response is one JSON object
per line, in request order.  The wire contract — versioning (``"v"``),
request-``id`` echo, structured ``error_code`` envelopes (each code is
documented beside ``protocol.ERROR_CODES``; the retryable ones are
``protocol.RETRYABLE_ERROR_CODES``), the ``timeout_ms`` budget and the
access-size schema (beside ``protocol.coerce_size``) — is defined once in
:mod:`repro.service.protocol`; this module is only the stdio transport
around :func:`repro.service.protocol.handle_payload` (the daemon never
dies on a bad request — only on EOF or ``shutdown``).

The ops and their fields are those of ``protocol.OPS``;
``python -m repro.service --help`` lists them.

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
