"""Alias queries over the GR and LR abstract states (Sections 3.5 and 3.7).

Two complementary disambiguation criteria:

* **Global test** (Proposition 2): two pointers do not alias when their
  abstract address sets cannot overlap — every allocation site they share
  binds provably disjoint offset intervals, and sites they do not share are
  provably distinct objects.
* **Local test** (Proposition 3): two pointers do not alias when they are
  offsets of the *same* local base location with provably disjoint offset
  intervals.

Both tests account for the byte size of the accesses being compared: an
access of ``s`` bytes starting at offset ``o`` touches ``[o, o + s - 1]``.

The tests are pure; RBAA memoizes their :class:`QueryOutcome` per pair in
its :attr:`~repro.aliases.base.AliasAnalysis.pair_memo`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..symbolic import POS_INF, SymbolicInterval
from .domain import PointerAbstractValue
from .local_analysis import LocalAbstractValue
from .locations import MemoryLocation

__all__ = ["QueryOutcome", "DisambiguationReason", "global_test", "local_test",
           "extend_for_access"]


class DisambiguationReason(enum.Enum):
    """Which criterion produced a no-alias answer (drives Figure 14)."""

    GLOBAL_DISJOINT_RANGES = "global-disjoint-ranges"
    GLOBAL_DISTINCT_OBJECTS = "global-distinct-objects"
    LOCAL_DISJOINT_RANGES = "local-disjoint-ranges"
    NOT_DISAMBIGUATED = "not-disambiguated"

    def is_global(self) -> bool:
        return self in (DisambiguationReason.GLOBAL_DISJOINT_RANGES,
                        DisambiguationReason.GLOBAL_DISTINCT_OBJECTS)

    def is_local(self) -> bool:
        return self is DisambiguationReason.LOCAL_DISJOINT_RANGES


@dataclass(frozen=True)
class QueryOutcome:
    """The answer of one test plus the reason it fired."""

    no_alias: bool
    reason: DisambiguationReason

    @classmethod
    def may_alias(cls) -> "QueryOutcome":
        return cls(False, DisambiguationReason.NOT_DISAMBIGUATED)


def extend_for_access(interval: SymbolicInterval,
                      size: Optional[int]) -> SymbolicInterval:
    """Extend an offset interval by the access size: ``[l, u] → [l, u + size - 1]``.

    An *unknown* size (``None``) means the access may touch any suffix of
    the object starting at its offset, so the interval extends to ``+inf``.
    Treating unknown as one byte would let the disjointness tests prove
    "no alias" for accesses whose true extent overlaps — an unsound claim
    the soundness oracle can falsify.
    """
    if interval.is_empty:
        return interval
    if size is None:
        return SymbolicInterval(interval.lower, POS_INF)
    if size <= 1:
        return interval
    return SymbolicInterval(interval.lower, interval.upper + (size - 1))


def _objects_certainly_distinct(a: MemoryLocation, b: MemoryLocation) -> bool:
    """True when two *different* abstract locations denote disjoint objects.

    Heap, stack and global allocation sites are all distinct objects.  A
    parameter or unknown pseudo-location may designate any object, so it is
    never provably distinct from anything else.
    """
    if a is b or a.index == b.index:
        return False
    return a.kind.is_concrete_object() and b.kind.is_concrete_object()


def global_test(gr_a: PointerAbstractValue, gr_b: PointerAbstractValue,
                size_a: Optional[int] = 1, size_b: Optional[int] = 1) -> QueryOutcome:
    """Proposition 2, refined with object-distinctness and access sizes."""
    if gr_a.is_top or gr_b.is_top:
        return QueryOutcome.may_alias()
    if gr_a.is_bottom or gr_b.is_bottom:
        # A pointer with no abstract location (null / freed / unreachable)
        # cannot overlap a valid access in a well-defined execution.
        return QueryOutcome(True, DisambiguationReason.GLOBAL_DISTINCT_OBJECTS)

    shared_any = False
    for location_a, interval_a in gr_a.items():
        for location_b, interval_b in gr_b.items():
            if location_a.index == location_b.index:
                shared_any = True
                extended_a = extend_for_access(interval_a, size_a)
                extended_b = extend_for_access(interval_b, size_b)
                if not extended_a.definitely_disjoint(extended_b):
                    return QueryOutcome.may_alias()
            else:
                if not _objects_certainly_distinct(location_a, location_b):
                    return QueryOutcome.may_alias()
    reason = (DisambiguationReason.GLOBAL_DISJOINT_RANGES if shared_any
              else DisambiguationReason.GLOBAL_DISTINCT_OBJECTS)
    return QueryOutcome(True, reason)


def local_test(lr_a: Optional[LocalAbstractValue], lr_b: Optional[LocalAbstractValue],
               size_a: Optional[int] = 1, size_b: Optional[int] = 1) -> QueryOutcome:
    """Proposition 3: same local base, provably disjoint offset intervals."""
    if lr_a is None or lr_b is None:
        return QueryOutcome.may_alias()
    if lr_a.location.index != lr_b.location.index:
        return QueryOutcome.may_alias()
    extended_a = extend_for_access(lr_a.interval, size_a)
    extended_b = extend_for_access(lr_b.interval, size_b)
    if extended_a.definitely_disjoint(extended_b):
        return QueryOutcome(True, DisambiguationReason.LOCAL_DISJOINT_RANGES)
    return QueryOutcome.may_alias()
