"""Alias query results and query descriptors shared by all analyses."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

from ..ir.values import Value

__all__ = ["AliasResult", "MemoryAccess", "NoAliasClaim"]


class AliasResult(enum.Enum):
    """Outcome of an alias query, ordered from strongest to weakest claim."""

    NO_ALIAS = "no-alias"
    MAY_ALIAS = "may-alias"
    PARTIAL_ALIAS = "partial-alias"
    MUST_ALIAS = "must-alias"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class MemoryAccess:
    """A pointer plus the byte size of the access it performs.

    Alias queries compare two accesses; when the size is unknown (``None``)
    analyses must treat the access as potentially unbounded.
    """

    pointer: Value
    size: Optional[int] = 1

    @classmethod
    def of(cls, pointer: Value, size: Optional[int] = None) -> "MemoryAccess":
        """Build an access, defaulting the size to the pointee size."""
        if size is None:
            pointee = getattr(pointer.type, "pointee", None)
            size = max(1, pointee.size_in_bytes()) if pointee is not None else 1
        return cls(pointer, size)

    @classmethod
    def unknown_extent(cls, pointer: Value) -> "MemoryAccess":
        """An access of *unknown* byte size.

        Analyses must treat the extent as unbounded (``extend_for_access``
        extends the offset interval to ``+inf``); there is deliberately no
        helper that collapses an unknown size to one byte — doing arithmetic
        with 1 in its place once let the disjointness tests prove "no alias"
        for overlapping accesses.
        """
        return cls(pointer, None)


@dataclass(frozen=True)
class NoAliasClaim:
    """The *scope* of one no-alias verdict, for differential validation.

    A no-alias answer is a universally quantified statement, but the
    quantifier's domain differs by disambiguation rule.  The soundness
    oracle (:mod:`repro.evaluation.soundness`) uses this descriptor to
    compare each verdict against exactly the executions it quantifies over:

    * ``"invocation"`` — the sets of concrete regions the two pointers
      reference during one activation of their function are disjoint
      (object-disambiguation rules, RBAA's range tests).
    * ``"same-base"`` — the claim is relative to one dynamic instance of a
      shared base pointer (basic-AA's constant-offset rule): only value
      pairs derived from the same base instance are compared.
    * ``"unchecked"`` — the claim's validity context cannot be
      reconstructed from the trace; the oracle skips (and counts) it.
    """

    scope: str = "invocation"
    #: Values whose per-invocation dynamic instance the claim is relative
    #: to.  For ``"same-base"`` the single shared base; for ``"invocation"``
    #: claims, anchors that must be single-instance in a frame for the
    #: value-set comparison to be licensed (e.g. the load defining a
    #: synthetic LR base).
    anchors: Tuple[Value, ...] = ()
    #: Kernel symbols the claim's symbolic ranges mention; the oracle skips
    #: frames in which any of them was bound to more than one value.
    symbols: FrozenSet[str] = field(default_factory=frozenset)
