"""Persistent content-addressed analysis-result store.

The corpus manifest (:mod:`repro.benchgen.manifest`) already pins every
program by ``source_sha256`` and a ``GENERATOR_VERSION``; this store turns
those into cache keys for *served answers*.  Every deterministic query
response — alias pair verdicts, function sweeps, value listings, symbolic
ranges, load metadata — is a pure function of the module source, so it is
stored under ``sha256(namespace ‖ source_sha256 ‖ kind ‖ request-parts)``
where the namespace bakes in the result-schema version, the protocol
version and ``GENERATOR_VERSION``.  Bumping any of those silently
invalidates the whole store (old entries simply stop being addressed).

How each read op is addressed — its kind, its parts and how its response
is built around the stored values — is declared once, in :data:`READS`.
The session's store path and the socket front end's hit path
(:mod:`repro.service.server`) both go through it, so an answer read back
from the store is byte-identical to the one that was computed.

A restarted server pointed at a warm store therefore answers its first
query without re-running the compile-and-bootstrap path at all: the
front end answers read-only hits itself, and a session keeps the module
*lazy* (source held, nothing compiled) until a store miss forces
materialisation.  Alias pairs are stored one by one — not per batch — so
the shape of the batch a pair arrived in (one ``query`` or any
``query_many``) never changes what is addressable across restarts.

Entries are one JSON file each under ``root/<key[:2]>/<key>.json``,
written atomically (temp file + ``os.replace``) so shared-nothing workers
can share one store directory without locks.  Entries are immutable once
written (a key names its content), so :meth:`ResultStore.get` remembers
each entry it has read and validated in a bounded in-memory memo
(:data:`READ_MEMO_ENTRIES`) and serves repeats without touching the disk;
``put`` does not fill the memo, so the first read of an entry still
validates the file.  A corrupt or foreign entry is counted, deleted and
bypassed — the session recomputes.  :meth:`ResultStore.put_new` writes an
entry only when its key does not already name a valid one (a corrupt one
is discarded and rewritten).  Counters
(``hits``/``misses``/``bypasses``/``corrupt_entries``/``writes``; memo
hits count as hits) surface through the service ``stats`` op.  ``writes``
counts entry files written: every ``put``, and every ``put_new`` that
found no valid entry; the check a ``put_new`` makes counts as neither a
hit nor a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..benchgen import manifest as _manifest
from ..symbolic.cache import BoundedMemo
from .protocol import DEFAULT_SIZE, PROTOCOL_VERSION, encode_size

__all__ = ["READS", "READ_MEMO_ENTRIES", "RESULT_SCHEMA_VERSION",
           "ResultStore", "StoredRead"]

#: Bump when the shape of stored values changes (invalidates every entry).
RESULT_SCHEMA_VERSION = 1

#: What :meth:`ResultStore._read` gives for a key with no valid entry.
_ABSENT = object()

#: Entries one :class:`ResultStore` keeps in memory after reading them
#: (least recently used first out).  A serve-read run addresses ~1.6k
#: distinct entries; this covers that with room for a few edit states.
READ_MEMO_ENTRIES = 4096


class ResultStore:
    """A content-addressed key/value store of serialized analysis results."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        self.corrupt_entries = 0
        self.writes = 0
        #: key -> pickled value of every entry read and validated; a hit
        #: unpickles a fresh copy, so no reader can change what the next
        #: one gets.
        self._memo = BoundedMemo(READ_MEMO_ENTRIES)

    # -- keys ------------------------------------------------------------------
    def namespace(self) -> List[int]:
        """The version triple every key is scoped under.

        ``GENERATOR_VERSION`` is read at call time, so a bump invalidates
        even a store object that outlives the import.
        """
        return [RESULT_SCHEMA_VERSION, PROTOCOL_VERSION,
                _manifest.GENERATOR_VERSION]

    def key(self, source_sha256: str, kind: str, parts: Any = None) -> str:
        """The content address of one result of ``kind`` for one source."""
        blob = json.dumps([self.namespace(), source_sha256, kind, parts],
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    # -- IO --------------------------------------------------------------------
    def get(self, key: str) -> Optional[Any]:
        """The stored value, or ``None`` (miss / corrupt-entry bypass)."""
        value = self._read(key)
        if value is _ABSENT:
            self.misses += 1
            return None
        self.hits += 1
        return value

    def _read(self, key: str) -> Any:
        """The value of ``key``'s valid entry, else ``_ABSENT`` (a corrupt
        entry is discarded)."""
        remembered = self._memo.get(key)
        if remembered is not None:
            return pickle.loads(remembered)
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            return _ABSENT
        except (OSError, ValueError, UnicodeDecodeError):
            self._discard_corrupt(path)
            return _ABSENT
        if not isinstance(entry, dict) or entry.get("key") != key \
                or "value" not in entry:
            self._discard_corrupt(path)
            return _ABSENT
        self._memo.put(key, pickle.dumps(entry["value"],
                                         protocol=pickle.HIGHEST_PROTOCOL))
        return entry["value"]

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` atomically (safe under concurrent workers)."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        entry = {"schema": RESULT_SCHEMA_VERSION, "key": key, "value": value}
        temporary = f"{path}.tmp.{os.getpid()}"
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump(entry, handle, sort_keys=True, separators=(",", ":"))
        os.replace(temporary, path)
        self.writes += 1

    def put_new(self, key: str, value: Any) -> None:
        """Store ``value`` unless ``key`` already names a valid entry.

        A key is a content address, so a valid entry under it already holds
        ``value``; only a missing or corrupt entry is (re)written.
        """
        if self._read(key) is _ABSENT:
            self.put(key, value)

    def _discard_corrupt(self, path: str) -> None:
        """Count and delete an unreadable entry (a miss recomputes)."""
        self.corrupt_entries += 1
        try:
            os.unlink(path)
        except OSError:
            pass

    # -- telemetry -------------------------------------------------------------
    def note_bypass(self) -> None:
        """Record a request the store cannot serve (non-deterministic op)."""
        self.bypasses += 1

    def stats(self) -> Dict[str, Any]:
        return {
            "root": self.root,
            "namespace": self.namespace(),
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "corrupt_entries": self.corrupt_entries,
            "writes": self.writes,
        }


# -- how each read op is stored ----------------------------------------------

@dataclass(frozen=True)
class StoredRead:
    """How one read request is addressed in the store and answered from it.

    ``parts`` holds the key parts of each stored value the answer is built
    from: one per alias pair for ``query``/``query_many``, one for every
    other read.  :meth:`respond` builds the op's response around the
    values: ``head`` echoes the request, and the values go into ``field``
    (the list of all of them when ``batch``), or, when ``field`` is
    ``None``, the single stored dict is merged in.
    """

    kind: str
    parts: Tuple[Any, ...]
    expected: type
    head: Dict[str, Any]
    field: Optional[str] = None
    batch: bool = False

    def keys(self, store: ResultStore, digest: str) -> List[str]:
        """The content address of each value, for one module source."""
        return [store.key(digest, self.kind, parts) for parts in self.parts]

    def lookup(self, store: ResultStore,
               keys: List[str]) -> List[Optional[Any]]:
        """Each stored value, ``None`` where the store holds none of the
        expected type."""
        values = [store.get(key) for key in keys]
        return [value if isinstance(value, self.expected) else None
                for value in values]

    def respond(self, values: List[Any]) -> Dict[str, Any]:
        if self.field is None:
            return {**self.head, **values[0]}
        return {**self.head,
                self.field: list(values) if self.batch else values[0]}


def _pair_parts(analysis: str, function: str, a: str, b: str,
                size_a: Any, size_b: Any) -> List[Any]:
    return [analysis, function, a, b, encode_size(size_a), encode_size(size_b)]


def _query(module: str, analysis: str, function: str, a: str, b: str,
           size_a: Any = DEFAULT_SIZE, size_b: Any = DEFAULT_SIZE,
           ) -> StoredRead:
    return StoredRead(
        "pair", (_pair_parts(analysis, function, a, b, size_a, size_b),),
        str, {"module": module, "analysis": analysis, "function": function,
              "a": a, "b": b}, "result")


def _query_many(module: str, analysis: str, function: str,
                pairs: List[Tuple[str, str, Any, Any]]) -> StoredRead:
    return StoredRead(
        "pair", tuple(_pair_parts(analysis, function, *pair)
                      for pair in pairs),
        str, {"module": module, "analysis": analysis, "function": function},
        "results", batch=True)


def _query_function(module: str, analysis: str,
                    function: Optional[str] = None,
                    max_pairs: Optional[int] = None) -> StoredRead:
    return StoredRead(
        "query_function", ([analysis, function, max_pairs],), dict,
        {"module": module, "analysis": analysis, "function": function})


def _client_report(kind: str) -> Callable[..., StoredRead]:
    def address(module: str, function: Optional[str] = None) -> StoredRead:
        return StoredRead(kind, ([function],), dict,
                          {"module": module, "function": function})
    return address


def _values(module: str, function: str) -> StoredRead:
    return StoredRead("values", ([function],), list,
                      {"module": module, "function": function}, "values")


def _range(module: str, function: str, value: str) -> StoredRead:
    return StoredRead("range", ([function, value],), str,
                      {"module": module, "function": function,
                       "value": value}, "range")


#: Read op name -> the :class:`StoredRead` of a request, called with the
#: op's normalised fields (``Request.args``) as keyword arguments.
READS: Dict[str, Callable[..., StoredRead]] = {
    "query": _query,
    "query_many": _query_many,
    "query_function": _query_function,
    "check_bounds": _client_report("check_bounds"),
    "parallel_loops": _client_report("parallel_loops"),
    "values": _values,
    "range": _range,
}
