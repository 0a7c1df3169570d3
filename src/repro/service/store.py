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
is built around the stored values — derives from the op's one declaration
in :data:`repro.service.protocol.OPS` (:meth:`StoredRead.of`): the key
parts are its fields but the route, the response echoes the fields it
shares with the request, and the stored values fill the rest.  The
session's store path and the socket front end's hit path
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
from typing import Any, Dict, List, Optional, Tuple

from ..benchgen import manifest as _manifest
from ..symbolic.cache import BoundedMemo
from .protocol import OPS, PROTOCOL_VERSION, OpSpec, encode_size

__all__ = ["READ_MEMO_ENTRIES", "RESULT_SCHEMA_VERSION", "ResultStore",
           "StoredRead"]

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
class _Layout:
    """How one read op is stored, derived from its :class:`OpSpec`."""

    kind: str
    expected: type
    #: The fields a key part is made of: every field but the route, in
    #: declared order, with its kind.
    keyed: Tuple[Tuple[str, str], ...]
    #: The response fields that echo request fields.
    head: Tuple[str, ...]
    #: The one other response field, which the stored values fill; ``None``
    #: when there are several, which the single stored dict holds.
    field: Optional[str]
    #: Whether there is one stored value per entry of a ``pairs`` field.
    batch: bool


def _layout(spec: OpSpec) -> _Layout:
    store_kind, expected = spec.stored
    declared = [name for name, _ in spec.fields]
    rest = [name for name in spec.response if name not in declared]
    return _Layout(
        store_kind, expected,
        tuple(entry for entry in spec.fields if entry[0] != spec.route),
        tuple(name for name in spec.response if name in declared),
        rest[0] if len(rest) == 1 else None,
        any(kind == "pairs" for _, kind in spec.fields))


#: Read op name -> its layout, for every op whose spec declares ``stored``.
_LAYOUTS: Dict[str, _Layout] = {name: _layout(spec)
                                for name, spec in OPS.items() if spec.stored}


@dataclass(frozen=True)
class StoredRead:
    """How one read request is addressed in the store and answered from it.

    ``parts`` holds the key parts of each stored value the answer is built
    from: the request's keyed fields, sizes in their wire spelling, and one
    part per pair for a ``pairs`` field.  :meth:`respond` builds the op's
    response around the values: ``head`` echoes the request, and the values
    go into the layout's ``field`` (the list of all of them for a batch),
    or, when it has none, the single stored dict is merged in.
    """

    layout: _Layout
    parts: Tuple[List[Any], ...]
    head: Dict[str, Any]

    @classmethod
    def of(cls, spec: OpSpec, args: Dict[str, Any]) -> "StoredRead":
        """The stored read of a request for ``spec`` with normalised
        fields ``args`` (``Request.args``)."""
        layout = _LAYOUTS[spec.name]
        parts: List[List[Any]] = [[]]
        for name, kind in layout.keyed:
            value = args[name]
            if kind == "pairs":
                parts = [part + [a, b, encode_size(size_a), encode_size(size_b)]
                         for part in parts for a, b, size_a, size_b in value]
                continue
            if kind == "size":
                value = encode_size(value)
            for part in parts:
                part.append(value)
        return cls(layout, tuple(parts),
                   {name: args[name] for name in layout.head})

    def keys(self, store: ResultStore, digest: str) -> List[str]:
        """The content address of each value, for one module source."""
        kind = self.layout.kind
        return [store.key(digest, kind, parts) for parts in self.parts]

    def lookup(self, store: ResultStore,
               keys: List[str]) -> List[Optional[Any]]:
        """Each stored value, ``None`` where the store holds none of the
        expected type."""
        expected = self.layout.expected
        values = [store.get(key) for key in keys]
        return [value if isinstance(value, expected) else None
                for value in values]

    def respond(self, values: List[Any]) -> Dict[str, Any]:
        layout = self.layout
        if layout.field is None:
            return {**self.head, **values[0]}
        return {**self.head,
                layout.field: list(values) if layout.batch else values[0]}
