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

A restarted server pointed at a warm store therefore answers its first
query without re-running the compile-and-bootstrap path at all: the
session keeps the module *lazy* (source held, nothing compiled) until a
store miss forces materialisation.  Alias pairs are stored one by one —
not per batch — so the shape of the batch a pair arrived in (one ``query``
or any ``query_many``) never changes what is addressable across restarts.

Entries are one JSON file each under ``root/<key[:2]>/<key>.json``,
written atomically (temp file + ``os.replace``) so shared-nothing workers
can share one store directory without locks.  A corrupt or foreign entry
is counted, deleted and bypassed — the session recomputes.  Counters
(``hits``/``misses``/``bypasses``/``corrupt_entries``/``writes``) surface
through the service ``stats`` op.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Optional

from ..benchgen import manifest as _manifest
from .protocol import PROTOCOL_VERSION

__all__ = ["RESULT_SCHEMA_VERSION", "ResultStore"]

#: Bump when the shape of stored values changes (invalidates every entry).
RESULT_SCHEMA_VERSION = 1


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
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, UnicodeDecodeError):
            self._discard_corrupt(path)
            return None
        if not isinstance(entry, dict) or entry.get("key") != key \
                or "value" not in entry:
            self._discard_corrupt(path)
            return None
        self.hits += 1
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

    def _discard_corrupt(self, path: str) -> None:
        """Count, delete and bypass an unreadable entry (a miss recomputes)."""
        self.corrupt_entries += 1
        self.misses += 1
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
