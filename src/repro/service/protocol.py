"""One service protocol, every transport: the op table, dispatch, envelopes.

Every entry point into the analysis service — the in-process
:class:`~repro.service.session.AnalysisSession`, the stdin/stdout daemon
(:mod:`repro.service.daemon`) and the concurrent socket server
(:mod:`repro.service.server`) — speaks the contract defined here, so a
request behaves identically no matter which transport carries it.

Wire shape
----------

A request is one JSON object: ``{"op": <name>, "v": <version>,
"id": <any>, ...fields}``.  ``v`` is the protocol version and is
**required**: a request omitting it or carrying a different version is
rejected with a structured ``protocol_mismatch`` error (the pre-versioned
grace period ended after one release).  ``id`` is an arbitrary
client-chosen correlation token echoed verbatim on the response, which is
what makes pipelined and multiplexed traffic attributable.

A response is one JSON object: ``{"ok": true, "v": 1, "id": ..,
...result}`` on success, and on failure::

    {"ok": false, "v": 1, "id": .., "error_code": "<stable code>",
     "message": "<human text>"}

``error_code`` is machine-readable and stable (see :data:`ERROR_CODES`).
The pre-v1 free-form ``"error"`` string rode along for one deprecation
release and is gone — clients match on ``error_code``.

Access sizes
------------

``size_a``/``size_b`` (and the optional third/fourth elements of a
``query_many`` pair) accept exactly three spellings, normalised in one
place (:func:`coerce_size`) for every transport:

* omitted or the string ``"default"`` — the access covers the pointee
  size (:data:`DEFAULT_SIZE`);
* ``null`` or the string ``"unknown"`` — unbounded access extent;
* a non-negative integer — that many bytes.

Ops
---

Every op is declared once, as one :class:`OpSpec` in :data:`OPS`: its
typed fields, routing field, ``mutating`` flag, the
:class:`~repro.service.session.AnalysisSession` method it calls, its
response fields and, for a read the result store keeps, the store kind
and type of its values.  The single :class:`Request` class parses, validates,
routes and applies every op from that table, and the client checks
response envelopes against it.  :func:`handle_payload` is the
single entry point transports call: parse, dispatch, envelope — it never
raises.
"""

from __future__ import annotations

import enum
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "PROTOCOL_VERSION",
    "ERROR_CODES",
    "RETRYABLE_ERROR_CODES",
    "PROTOCOL_MISMATCH",
    "BAD_REQUEST",
    "UNKNOWN_OP",
    "UNKNOWN_MODULE",
    "UNKNOWN_FUNCTION",
    "UNKNOWN_VALUE",
    "UNKNOWN_ANALYSIS",
    "EDIT_REJECTED",
    "INTERNAL_ERROR",
    "WORKER_UNAVAILABLE",
    "DEADLINE_EXCEEDED",
    "OVERLOADED",
    "ServiceError",
    "DEFAULT_SIZE",
    "UNKNOWN_SIZE",
    "coerce_size",
    "encode_size",
    "OpSpec",
    "OPS",
    "Request",
    "parse_request",
    "envelope_in_time",
    "handle_payload",
    "success_envelope",
    "error_envelope",
    "make_request",
    "check_response",
    "encode_line",
    "decode_line",
]

#: The protocol version every transport speaks.  Bump on wire-incompatible
#: changes; requests carrying another version are rejected with
#: ``protocol_mismatch`` instead of being half-understood.
PROTOCOL_VERSION = 1

# -- stable machine-readable error codes --------------------------------------

PROTOCOL_MISMATCH = "protocol_mismatch"
BAD_REQUEST = "bad_request"
UNKNOWN_OP = "unknown_op"
UNKNOWN_MODULE = "unknown_module"
UNKNOWN_FUNCTION = "unknown_function"
UNKNOWN_VALUE = "unknown_value"
UNKNOWN_ANALYSIS = "unknown_analysis"
EDIT_REJECTED = "edit_rejected"
INTERNAL_ERROR = "internal_error"
#: The addressed worker process died before answering (PR 10).  The
#: supervisor respawns the shard and replays its journal, so the request
#: is *safely retryable*: reads are side-effect free and the journal only
#: records mutations the dead worker acknowledged — an unacknowledged
#: load/edit was never applied to the state a respawn rebuilds.
WORKER_UNAVAILABLE = "worker_unavailable"
#: The request's ``timeout_ms`` budget expired (PR 10): either the worker
#: abandoned its fixed point cooperatively (solver budget hook) or the
#: front end's wall-clock backstop fired while the worker was wedged.  Not
#: blindly retryable — for a mutating op the effect may still apply.
DEADLINE_EXCEEDED = "deadline_exceeded"
#: The addressed shard is at its in-flight bound and shed the request
#: instead of queueing it (PR 10).  Nothing was executed; safely retryable
#: with backoff for every op.
OVERLOADED = "overloaded"

#: The closed set of error codes clients may match on.  Codes are part of
#: the protocol contract: adding one is fine, renaming or removing one is a
#: wire-incompatible change (bump :data:`PROTOCOL_VERSION`).
ERROR_CODES = frozenset({
    PROTOCOL_MISMATCH,
    BAD_REQUEST,
    UNKNOWN_OP,
    UNKNOWN_MODULE,
    UNKNOWN_FUNCTION,
    UNKNOWN_VALUE,
    UNKNOWN_ANALYSIS,
    EDIT_REJECTED,
    INTERNAL_ERROR,
    WORKER_UNAVAILABLE,
    DEADLINE_EXCEEDED,
    OVERLOADED,
})

#: Codes a client may retry *blindly* (same payload, any op): the request
#: provably did not execute (``overloaded`` sheds before dispatch) or did
#: not commit (``worker_unavailable`` — the per-shard journal records a
#: mutation only once its worker acknowledged it, so a failed-over request
#: left no trace in the state the respawned worker rebuilds).
#: ``deadline_exceeded`` is deliberately absent: a backstopped mutating op
#: may still have applied inside the wedged worker.
RETRYABLE_ERROR_CODES = frozenset({WORKER_UNAVAILABLE, OVERLOADED})


class ServiceError(ValueError):
    """A request the service cannot serve, carrying its stable error code."""

    def __init__(self, message: str, code: str = BAD_REQUEST):
        super().__init__(message)
        self.code = code if code in ERROR_CODES else BAD_REQUEST


# -- access-size schema --------------------------------------------------------

class _DefaultSize(enum.Enum):
    """Singleton marker: access size defaults to the pointee size (an enum
    member, so it stays one object across copies and pickling)."""

    DEFAULT_SIZE = "default"


#: Schema-level default: the access covers the pointee size.
DEFAULT_SIZE = _DefaultSize.DEFAULT_SIZE

#: Wire spelling of an unknown (unbounded) access size.
UNKNOWN_SIZE = "unknown"

#: Wire spelling of the pointee-size default inside ``query_many`` pairs,
#: where positional encoding cannot express omission.
_DEFAULT_SIZE_WORD = "default"


def coerce_size(raw: Any) -> Any:
    """Normalise any accepted size spelling to ``DEFAULT_SIZE | None | int``.

    ``None`` is the normalised unknown (unbounded) extent.  Everything else
    is rejected with ``bad_request`` — this is the one place the size
    schema is defined, so all transports round-trip identically.
    """
    if raw is DEFAULT_SIZE or raw == _DEFAULT_SIZE_WORD:
        return DEFAULT_SIZE
    if raw is None or raw == UNKNOWN_SIZE:
        return None
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ServiceError(
            f"bad access size {raw!r}: expected a non-negative integer, "
            f"null/{UNKNOWN_SIZE!r}, or omission/{_DEFAULT_SIZE_WORD!r}")
    if raw < 0:
        raise ServiceError(f"bad access size {raw}: must be non-negative")
    return raw


def encode_size(size: Any) -> Any:
    """The canonical wire spelling of a normalised size."""
    if size is DEFAULT_SIZE:
        return _DEFAULT_SIZE_WORD
    return size  # None (unknown) or int


# -- field kinds ---------------------------------------------------------------

def _parse_str(payload: Dict[str, Any], key: str) -> str:
    if key not in payload:
        raise ServiceError(f"missing required field {key!r}")
    value = payload[key]
    if not isinstance(value, str):
        raise ServiceError(
            f"field {key!r} must be a string, got {type(value).__name__}")
    return value


def _optional(expected: type, noun: str) -> Callable[[Dict[str, Any], str], Any]:
    """Parser of an optional (absent or null) field of type ``expected``."""
    def parse(payload: Dict[str, Any], key: str) -> Any:
        value = payload.get(key)
        if value is not None and (isinstance(value, bool)
                                  or not isinstance(value, expected)):
            raise ServiceError(f"field {key!r} must be {noun} or null, "
                               f"got {type(value).__name__}")
        return value
    return parse


def _parse_size(payload: Dict[str, Any], key: str) -> Any:
    return coerce_size(payload[key]) if key in payload else DEFAULT_SIZE


def _parse_pairs(payload: Dict[str, Any],
                 key: str) -> List[Tuple[str, str, Any, Any]]:
    raw = payload.get(key)
    if not isinstance(raw, list):
        raise ServiceError(f"field {key!r} must be a list of [a, b] or "
                           "[a, b, size_a, size_b] entries")
    pairs: List[Tuple[str, str, Any, Any]] = []
    for entry in raw:
        if not isinstance(entry, (list, tuple)) or len(entry) not in (2, 4):
            raise ServiceError("each pair must be [a, b] or [a, b, sa, sb]")
        a, b = entry[0], entry[1]
        if not isinstance(a, str) or not isinstance(b, str):
            raise ServiceError("pair value names must be strings")
        if len(entry) == 2:
            pairs.append((a, b, DEFAULT_SIZE, DEFAULT_SIZE))
        else:
            pairs.append((a, b, coerce_size(entry[2]), coerce_size(entry[3])))
    return pairs


#: Field kind -> parser.  A parser validates one field of a raw payload and
#: returns its normalised value.  This is the only place request fields are
#: checked.
FIELD_KINDS: Dict[str, Callable[[Dict[str, Any], str], Any]] = {
    "str": _parse_str,
    "opt_str": _optional(str, "a string"),
    "opt_int": _optional(int, "an integer"),
    "size": _parse_size,
    "pairs": _parse_pairs,
}


# -- the op table --------------------------------------------------------------

@dataclass(frozen=True)
class OpSpec:
    """The one declaration of a service op.

    ``method`` names the :class:`~repro.service.session.AnalysisSession`
    method the op calls with its fields as keyword arguments; a method
    answering a bare value (not a dict) fills the op's single response
    field.  Ops without a method touch no session and acknowledge by
    setting each response field to ``true``.
    """

    name: str
    #: ``(field name, kind)`` pairs; kinds are keys of :data:`FIELD_KINDS`.
    fields: Tuple[Tuple[str, str], ...]
    method: Optional[str]
    response: Tuple[str, ...]
    doc: str
    #: The field that addresses a resident module (``None`` for module-less
    #: ops) — the socket front end shards on it.
    route: Optional[str] = None
    #: Whether the op changes session state.  Mutating requests are
    #: journaled by the supervisor (for crash replay) and are *not* retried
    #: transparently on worker death — the client gets ``worker_unavailable``
    #: and may safely retry, because an unacknowledged mutation was never
    #: journaled.  They also skip the cooperative solver budget: aborting an
    #: in-place incremental refresh would corrupt retained fixed points.
    mutating: bool = False
    #: For a read whose answers the result store keeps: the store kind of
    #: its values and their type (``None`` for every other op).  How the
    #: values are keyed and answered derives from ``fields`` and
    #: ``response`` (:class:`repro.service.store.StoredRead`).
    stored: Optional[Tuple[str, type]] = None


def _op(name: str, fields: str, method: Optional[str], response: str,
        doc: str, route: Optional[str] = None, mutating: bool = False,
        stored: Optional[Tuple[str, type]] = None) -> OpSpec:
    """One table entry; ``fields`` is ``"name[:kind] ..."`` (kind ``str``
    when omitted), ``response`` a space-separated field list."""
    declared = []
    for entry in fields.split():
        field_name, _, kind = entry.partition(":")
        kind = kind or "str"
        if kind not in FIELD_KINDS:
            raise ValueError(f"op {name!r}: unknown field kind {kind!r}")
        declared.append((field_name, kind))
    return OpSpec(name=name, fields=tuple(declared), method=method,
                  response=tuple(response.split()), doc=doc, route=route,
                  mutating=mutating, stored=stored)


_LOADED = "module functions instructions"
_REPORT = "module function functions summary"

#: op name -> spec: every op the service speaks, declared exactly once as
#: ``_op(name, fields, session method, response fields, doc, route,
#: mutating, stored)``.  ``query`` and ``query_many`` store their verdicts
#: under one kind, so each finds the other's.
OPS: Dict[str, OpSpec] = {spec.name: spec for spec in (
    _op("ping", "", None, "pong",
        'liveness check; answers ``{"pong": true}``'),
    _op("load", "name source", "load_source", _LOADED,
        "compile and hold resident", route="name", mutating=True),
    _op("load_program", "name", "load_program", _LOADED,
        "generate + compile a named suite program", route="name",
        mutating=True),
    _op("edit", "name source", "edit_source",
        "module changed reloaded impacts",
        "incremental function-granular edit", route="name", mutating=True),
    _op("query", "module analysis function a b size_a:size size_b:size",
        "query", "module analysis function a b result",
        "one alias verdict between two SSA values", route="module",
        stored=("pair", str)),
    _op("query_many", "module analysis function pairs:pairs", "query_many",
        "module analysis function results",
        "alias verdicts for ``[a, b]`` or ``[a, b, size_a, size_b]`` pairs",
        route="module", stored=("pair", str)),
    _op("query_function",
        "module analysis function:opt_str max_pairs:opt_int",
        "query_function",
        "module analysis function queries no_alias no_alias_indices",
        "the harness pair sweep of one function or the whole module",
        route="module", stored=("query_function", dict)),
    _op("check_bounds", "module function:opt_str", "check_bounds", _REPORT,
        "per-access out-of-bounds verdicts (``safe`` / ``maybe-oob`` / "
        "``definitely-oob``)", route="module",
        stored=("check_bounds", dict)),
    _op("parallel_loops", "module function:opt_str", "parallel_loops",
        _REPORT, "per-loop parallelizability with the first blocking reason",
        route="module", stored=("parallel_loops", dict)),
    _op("values", "module function", "values", "module function values",
        "queryable SSA value names", route="module",
        stored=("values", list)),
    _op("range", "module function value", "range_of",
        "module function value range",
        "symbolic interval of one integer SSA value", route="module",
        stored=("range", str)),
    _op("stats", "module", "stats",
        "module edits materialized solver_steps solver_steps_by_analysis "
        "incremental engine memos symbolic_caches",
        "solver steps, cache + Figure-14 counters", route="module"),
    _op("modules", "", "modules", "modules", "list resident modules"),
    _op("unload", "name", "unload", "module unloaded",
        "drop a resident module", route="name", mutating=True),
    _op("shutdown", "", None, "shutdown", "acknowledge and exit"),
)}


# -- requests ------------------------------------------------------------------

def _parse_timeout_ms(payload: Dict[str, Any]) -> Optional[int]:
    value = payload.get("timeout_ms")
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ServiceError(
            f"field 'timeout_ms' must be a non-negative integer or null, "
            f"got {value!r}")
    return value


@dataclass
class Request:
    """One parsed request: its op's spec and normalised field values.

    ``id`` echoes back on the response.  ``timeout_ms`` is an additive
    deadline in milliseconds; ``None`` means no deadline.
    """

    spec: OpSpec
    args: Dict[str, Any] = field(default_factory=dict)
    id: Any = None
    timeout_ms: Optional[int] = None

    @property
    def op(self) -> str:
        return self.spec.name

    def routing_module(self) -> Optional[str]:
        """The module this request targets (sharding key), if any."""
        route = self.spec.route
        return self.args[route] if route else None

    def apply(self, session: Any) -> Dict[str, Any]:
        spec = self.spec
        if spec.method is None:
            return {name: True for name in spec.response}
        result = getattr(session, spec.method)(**self.args)
        return result if isinstance(result, dict) else {spec.response[0]: result}


# -- parsing and dispatch ------------------------------------------------------

def parse_request(payload: Any) -> Request:
    """Decode one request payload against its op's spec.

    Raises :class:`ServiceError` with ``bad_request`` (not an object /
    malformed fields), ``protocol_mismatch`` (missing or wrong ``v``) or
    ``unknown_op``.
    """
    if not isinstance(payload, dict):
        raise ServiceError("request must be a JSON object")
    if "v" not in payload:
        raise ServiceError(
            f"request is missing the protocol version field 'v' "
            f"(this service speaks v{PROTOCOL_VERSION})", PROTOCOL_MISMATCH)
    version = payload["v"]
    if version != PROTOCOL_VERSION:
        raise ServiceError(
            f"protocol version {version!r} is not supported "
            f"(this service speaks v{PROTOCOL_VERSION})", PROTOCOL_MISMATCH)
    op = payload.get("op")
    if not isinstance(op, str):
        raise ServiceError("request needs a string 'op' field")
    spec = OPS.get(op)
    if spec is None:
        raise ServiceError(
            f"unknown op {op!r} (known: {', '.join(sorted(OPS))})",
            UNKNOWN_OP)
    timeout_ms = _parse_timeout_ms(payload)
    args = {name: FIELD_KINDS[kind](payload, name)
            for name, kind in spec.fields}
    return Request(spec, args, id=payload.get("id"), timeout_ms=timeout_ms)


def request_id_of(payload: Any) -> Any:
    """The correlation id of a raw payload (``None`` if absent/unreadable)."""
    return payload.get("id") if isinstance(payload, dict) else None


def success_envelope(request_id: Any, result: Dict[str, Any]) -> Dict[str, Any]:
    envelope: Dict[str, Any] = {"ok": True, "v": PROTOCOL_VERSION}
    if request_id is not None:
        envelope["id"] = request_id
    envelope.update(result)
    return envelope


def error_envelope(code: str, message: str,
                   request_id: Any = None) -> Dict[str, Any]:
    """The structured failure envelope."""
    if code not in ERROR_CODES:
        code = INTERNAL_ERROR
    envelope: Dict[str, Any] = {
        "ok": False,
        "v": PROTOCOL_VERSION,
        "error_code": code,
        "message": message,
    }
    if request_id is not None:
        envelope["id"] = request_id
    return envelope


def envelope_in_time(request: Request,
                     produce: Callable[[], Dict[str, Any]]) -> Dict[str, Any]:
    """The success envelope of ``produce()``, honouring ``timeout_ms``
    cooperatively.  Raises :class:`ServiceError` (``deadline_exceeded``)
    when the budget runs out.

    Read-only requests run under a solver budget: every fixpoint the engine
    runs on their behalf checks the wall-clock deadline before each
    solver step and abandons the solve the moment it expires (the
    partially built analysis is discarded, never cached — a later request
    rebuilds it cleanly).  Mutating requests deliberately ignore the budget:
    aborting an in-place incremental refresh mid-flight would corrupt the
    retained fixed points, so their only guard is the front end's
    wall-clock backstop.  Workers produce through the session; the socket
    front end produces its store hits through the same call, so a
    ``timeout_ms: 0`` read gets the same answer on either path.
    """
    if request.timeout_ms is None or request.spec.mutating:
        return success_envelope(request.id, produce())
    from ..engine.solver import SolverInterrupted, solver_budget

    deadline = time.monotonic() + request.timeout_ms / 1000.0
    if time.monotonic() >= deadline:  # timeout_ms == 0: already expired
        raise ServiceError(
            f"deadline of {request.timeout_ms} ms expired before evaluation",
            DEADLINE_EXCEEDED)
    try:
        with solver_budget(lambda: time.monotonic() < deadline):
            return success_envelope(request.id, produce())
    except SolverInterrupted as interrupted:
        raise ServiceError(
            f"deadline of {request.timeout_ms} ms exceeded: {interrupted}",
            DEADLINE_EXCEEDED) from interrupted


def handle_payload(session: Any, payload: Any) -> Dict[str, Any]:
    """Parse, dispatch and envelope one request.  Never raises.

    This is the single entry point all three transports route through;
    a malformed request yields the same ``error_code`` envelope (with the
    request id echoed) no matter which transport carried it.  Parse and
    validation failures and explicit :class:`ServiceError` exceptions keep
    their codes; any other exception is a bug and answers ``internal_error``.
    """
    request_id = request_id_of(payload)
    try:
        request = parse_request(payload)
        return envelope_in_time(request, lambda: request.apply(session))
    except ServiceError as error:
        return error_envelope(error.code, str(error), request_id)
    except Exception as error:  # a request bug must not kill the transport
        return error_envelope(INTERNAL_ERROR,
                              f"{type(error).__name__}: {error}", request_id)


# -- client-side helpers -------------------------------------------------------

def make_request(op: str, *, id: Any = None, **fields: Any) -> Dict[str, Any]:
    """A versioned request payload (clients should always stamp ``v``)."""
    payload: Dict[str, Any] = {"op": op, "v": PROTOCOL_VERSION}
    payload.update(fields)
    if id is not None:
        payload["id"] = id
    return payload


def check_response(envelope: Any, op: Optional[str] = None) -> Dict[str, Any]:
    """Return a successful envelope; raise :class:`ServiceError` otherwise.

    Given the request's ``op``, a success must also carry every response
    field :data:`OPS` declares for it.
    """
    if not isinstance(envelope, dict):
        raise ServiceError("response must be a JSON object")
    if not envelope.get("ok"):
        raise ServiceError(str(envelope.get("message") or "request failed"),
                           envelope.get("error_code") or BAD_REQUEST)
    spec = OPS.get(op)
    if spec is not None:
        missing = [name for name in spec.response if name not in envelope]
        if missing:
            raise ServiceError(f"{op} response is missing field(s) "
                               f"{', '.join(missing)}", INTERNAL_ERROR)
    return envelope


def encode_line(payload: Dict[str, Any]) -> str:
    """One line-delimited JSON wire frame."""
    return json.dumps(payload, sort_keys=True) + "\n"


def decode_line(line: str) -> Any:
    return json.loads(line)
