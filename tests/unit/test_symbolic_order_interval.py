"""Unit tests for the symbolic partial order and the SymbRanges lattice."""

import pytest

from repro.symbolic import (
    EMPTY_INTERVAL,
    NEG_INF,
    Ordering,
    POS_INF,
    SymbolicInterval,
    TOP_INTERVAL,
    compare,
    sym,
    sym_max,
    sym_min,
)
from repro.symbolic.order import (
    definitely_eq,
    definitely_ge,
    definitely_gt,
    definitely_le,
    definitely_lt,
    definitely_ne,
)

N = sym("N")
M = sym("M")
K = sym("k")


class TestCompare:
    @pytest.mark.parametrize("a, b, expected", [
        (1, 2, Ordering.LESS),
        (2, 1, Ordering.GREATER),
        (3, 3, Ordering.EQUAL),
        (N, N + 1, Ordering.LESS),
        (N + 1, N, Ordering.GREATER),
        (N, N, Ordering.EQUAL),
        (N, M, Ordering.UNKNOWN),
        (N, 0, Ordering.UNKNOWN),
        (2 * N, N, Ordering.UNKNOWN),
        (NEG_INF, N, Ordering.LESS),
        (N, POS_INF, Ordering.LESS),
        (POS_INF, N, Ordering.GREATER),
        (NEG_INF, POS_INF, Ordering.LESS),
    ])
    def test_basic_orderings(self, a, b, expected):
        assert compare(a, b) is expected

    def test_min_below_its_arms(self):
        assert definitely_le(sym_min(N, M), N)
        assert definitely_le(sym_min(N, M), M)

    def test_max_above_its_arms(self):
        assert definitely_ge(sym_max(N, M), N)
        assert definitely_ge(sym_max(N, M), M)

    def test_min_strictly_below_larger_value(self):
        assert definitely_lt(sym_min(N - 1, M), N)

    def test_min_vs_max_through_common_symbol(self):
        # min(N-1, …) <= N-1 < N <= max(N, …)
        assert definitely_lt(sym_min(N - 1, sym_max(0, N + 1)), sym_max(0, N))

    def test_value_below_max_arm(self):
        assert definitely_le(N, sym_max(N, M))
        assert definitely_lt(N - 1, sym_max(N, M))

    def test_value_vs_min_requires_both_arms(self):
        assert not definitely_le(N, sym_min(N + 1, M))  # unknown vs M
        assert definitely_le(N, sym_min(N + 1, N + 2))

    def test_unknown_is_not_a_claim(self):
        assert not definitely_lt(N, M)
        assert not definitely_gt(N, M)
        assert not definitely_eq(N, M)
        assert not definitely_ne(N, M)

    def test_definitely_ne_for_strict_orderings(self):
        assert definitely_ne(N, N + 2)
        assert definitely_ne(1, 2)


class TestIntervalBasics:
    def test_point_interval(self):
        interval = SymbolicInterval.point(N)
        assert interval.lower == N and interval.upper == N
        assert not interval.is_empty

    def test_empty_interval_has_no_bounds(self):
        assert EMPTY_INTERVAL.is_empty
        with pytest.raises(ValueError):
            _ = EMPTY_INTERVAL.lower

    def test_top_interval(self):
        assert TOP_INTERVAL.is_top
        assert TOP_INTERVAL.lower == NEG_INF and TOP_INTERVAL.upper == POS_INF

    def test_is_constant_and_symbolic(self):
        assert SymbolicInterval(0, 5).is_constant()
        assert not SymbolicInterval(0, N).is_constant()
        assert SymbolicInterval(0, N).is_symbolic()
        assert not SymbolicInterval(0, 5).is_symbolic()

    def test_symbols(self):
        assert SymbolicInterval(N, M + 1).symbols() == {"N", "M"}

    def test_equality_and_hash(self):
        assert SymbolicInterval(0, N) == SymbolicInterval(0, N)
        assert hash(SymbolicInterval(0, N)) == hash(SymbolicInterval(0, N))
        assert SymbolicInterval(0, N) != SymbolicInterval(1, N)
        assert EMPTY_INTERVAL == SymbolicInterval.empty()


class TestIntervalLattice:
    def test_join_with_empty_is_identity(self):
        interval = SymbolicInterval(0, N)
        assert EMPTY_INTERVAL.join(interval) == interval
        assert interval.join(EMPTY_INTERVAL) == interval

    def test_join_takes_min_and_max(self):
        joined = SymbolicInterval(0, 3).join(SymbolicInterval(5, 9))
        assert joined == SymbolicInterval(0, 9)

    def test_join_with_top_is_top(self):
        assert SymbolicInterval(0, 1).join(TOP_INTERVAL).is_top

    def test_meet_disjoint_is_empty(self):
        assert SymbolicInterval(0, 3).meet(SymbolicInterval(5, 9)).is_empty
        assert SymbolicInterval(0, N - 1).meet(SymbolicInterval(N, N + K)).is_empty

    def test_meet_overlapping(self):
        met = SymbolicInterval(0, N + 1).meet(SymbolicInterval(1, N + 2))
        assert met == SymbolicInterval(1, N + 1)

    def test_meet_with_top_is_identity(self):
        interval = SymbolicInterval(0, N)
        assert interval.meet(TOP_INTERVAL) == interval
        assert TOP_INTERVAL.meet(interval) == interval

    def test_contains_interval(self):
        assert SymbolicInterval(0, 10).contains_interval(SymbolicInterval(2, 5))
        assert not SymbolicInterval(2, 5).contains_interval(SymbolicInterval(0, 10))
        assert SymbolicInterval(0, N).contains_interval(SymbolicInterval(1, N - 1))

    def test_join_all(self):
        total = SymbolicInterval.join_all(
            [SymbolicInterval(0, 1), SymbolicInterval(4, 5), SymbolicInterval(2, 2)])
        assert total == SymbolicInterval(0, 5)
        assert SymbolicInterval.join_all([]).is_empty


class TestWideningNarrowing:
    def test_widen_identical_is_stable(self):
        interval = SymbolicInterval(0, N)
        assert interval.widen(interval) == interval

    def test_widen_growing_upper_goes_to_infinity(self):
        widened = SymbolicInterval(0, 1).widen(SymbolicInterval(0, 5))
        assert widened == SymbolicInterval(0, POS_INF)

    def test_widen_shrinking_lower_goes_to_minus_infinity(self):
        widened = SymbolicInterval(0, 5).widen(SymbolicInterval(-2, 5))
        assert widened == SymbolicInterval(NEG_INF, 5)

    def test_widen_both_directions(self):
        widened = SymbolicInterval(0, 0).widen(SymbolicInterval(-1, 1))
        assert widened.is_top

    def test_widen_symbolic_upper(self):
        widened = SymbolicInterval(0, N).widen(SymbolicInterval(0, N + 1))
        assert widened == SymbolicInterval(0, POS_INF)

    def test_narrow_refines_infinite_bounds_only(self):
        narrowed = SymbolicInterval(0, POS_INF).narrow(SymbolicInterval(0, N - 1))
        assert narrowed == SymbolicInterval(0, N - 1)
        unchanged = SymbolicInterval(0, 7).narrow(SymbolicInterval(1, 5))
        assert unchanged == SymbolicInterval(0, 7)

    def test_widen_from_empty_adopts_new(self):
        assert EMPTY_INTERVAL.widen(SymbolicInterval(1, 2)) == SymbolicInterval(1, 2)


class TestIntervalArithmetic:
    def test_shift(self):
        assert SymbolicInterval(0, N).shift(2) == SymbolicInterval(2, N + 2)

    def test_add_and_sub(self):
        a = SymbolicInterval(0, 2)
        b = SymbolicInterval(N, N + 1)
        assert a.add(b) == SymbolicInterval(N, N + 3)
        assert b.sub(a) == SymbolicInterval(N - 2, N + 1)

    def test_negate(self):
        assert SymbolicInterval(1, N).negate() == SymbolicInterval(-N, -1)

    def test_scale_positive_and_negative(self):
        assert SymbolicInterval(1, N).scale(4) == SymbolicInterval(4, 4 * N)
        assert SymbolicInterval(1, N).scale(-1) == SymbolicInterval(-N, -1)
        assert SymbolicInterval(1, N).scale(0) == SymbolicInterval(0, 0)

    def test_mul_by_point_interval(self):
        assert SymbolicInterval(1, N).mul(SymbolicInterval.point(3)) == SymbolicInterval(3, 3 * N)

    def test_mul_unknown_is_top(self):
        assert SymbolicInterval(1, N).mul(SymbolicInterval(0, M)).is_top

    def test_clamping(self):
        assert SymbolicInterval(0, POS_INF).clamp_upper(N - 1) == SymbolicInterval(0, N - 1)
        assert SymbolicInterval(NEG_INF, N).clamp_lower(0) == SymbolicInterval(0, N)

    def test_empty_propagates(self):
        assert EMPTY_INTERVAL.shift(3).is_empty
        assert EMPTY_INTERVAL.add(SymbolicInterval(0, 1)).is_empty


class TestDisjointness:
    def test_constant_disjoint(self):
        assert SymbolicInterval(0, 3).definitely_disjoint(SymbolicInterval(4, 9))
        assert not SymbolicInterval(0, 4).definitely_disjoint(SymbolicInterval(4, 9))

    def test_symbolic_disjoint(self):
        first = SymbolicInterval(0, N - 1)
        second = SymbolicInterval(N, N + K)
        assert first.definitely_disjoint(second)
        assert second.definitely_disjoint(first)

    def test_unknown_is_not_disjoint(self):
        assert not SymbolicInterval(0, N).definitely_disjoint(SymbolicInterval(M, M + 1))

    def test_empty_is_disjoint_from_everything(self):
        assert EMPTY_INTERVAL.definitely_disjoint(TOP_INTERVAL)

    def test_contains_value(self):
        # Containment is only reported when provable: N could be negative,
        # so [0, N] cannot even claim to contain 0.
        assert SymbolicInterval(0, 10).contains_value(0)
        assert SymbolicInterval(N, N + 2).contains_value(N + 1)
        assert not SymbolicInterval(0, N).contains_value(0)
        assert not SymbolicInterval(0, N).contains_value(N + 1)

    def test_substitute(self):
        assert SymbolicInterval(0, N).substitute({"N": 5}) == SymbolicInterval(0, 5)

