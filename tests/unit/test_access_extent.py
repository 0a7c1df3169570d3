"""The access extent of Propositions 2 and 3 at its boundary bytes.

A ``w``-byte access at offset ``k`` covers bytes ``k .. k + w - 1``.  A
1-byte access at ``k + w - 1`` therefore overlaps it, and one at ``k + w``
does not.  These tests pin both sides of that boundary for ``w`` = 2, 4 and
8, with a constant and with a symbolic ``k``, through ``extend_for_access``,
``SymbolicInterval.definitely_disjoint`` and the global and local tests
built on them.  An unknown size must reach ``+inf``.
"""

import pytest

from repro.core.domain import PointerAbstractValue
from repro.core.local_analysis import LocalAbstractValue
from repro.core.locations import LocationKind, MemoryLocation
from repro.core.queries import extend_for_access, global_test, local_test
from repro.symbolic import POS_INF, SymbolicInterval, sym

WIDTHS = (2, 4, 8)
OFFSETS = (3, sym("k"))


def _point(offset):
    return SymbolicInterval(offset, offset)


@pytest.mark.parametrize("k", OFFSETS, ids=["constant", "symbolic"])
@pytest.mark.parametrize("w", WIDTHS)
class TestBoundary:
    def test_extent_covers_exactly_w_bytes(self, w, k):
        assert extend_for_access(_point(k), w) == SymbolicInterval(k, k + (w - 1))

    def test_last_covered_byte_overlaps(self, w, k):
        wide = extend_for_access(_point(k), w)
        narrow = extend_for_access(_point(k + (w - 1)), 1)
        assert not wide.definitely_disjoint(narrow)
        assert not narrow.definitely_disjoint(wide)

    def test_first_byte_past_the_access_is_disjoint(self, w, k):
        wide = extend_for_access(_point(k), w)
        narrow = extend_for_access(_point(k + w), 1)
        assert wide.definitely_disjoint(narrow)
        assert narrow.definitely_disjoint(wide)

    def test_global_test_at_the_boundary(self, w, k):
        heap = MemoryLocation(0, LocationKind.HEAP, "heap")
        wide = PointerAbstractValue({heap: _point(k)})
        inside = PointerAbstractValue({heap: _point(k + (w - 1))})
        past = PointerAbstractValue({heap: _point(k + w)})
        assert not global_test(wide, inside, w, 1).no_alias
        assert global_test(wide, past, w, 1).no_alias

    def test_local_test_at_the_boundary(self, w, k):
        base = MemoryLocation(0, LocationKind.HEAP, "heap")
        wide = LocalAbstractValue(base, _point(k))
        inside = LocalAbstractValue(base, _point(k + (w - 1)))
        past = LocalAbstractValue(base, _point(k + w))
        assert not local_test(wide, inside, w, 1).no_alias
        assert local_test(wide, past, w, 1).no_alias

    def test_unknown_size_reaches_plus_infinity(self, w, k):
        extended = extend_for_access(_point(k), None)
        assert extended == SymbolicInterval(k, POS_INF)
        assert not extended.definitely_disjoint(
            extend_for_access(_point(k + w), 1))
