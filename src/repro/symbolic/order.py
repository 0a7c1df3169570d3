"""Partial-order comparison of symbolic expressions.

The paper orders ``S = SE ∪ {-inf, +inf}`` partially: integers are ordered
as usual, ``N < N + 1`` for any symbol ``N``, but two distinct kernel symbols
(``N`` and ``M``) are incomparable.  Comparisons drive interval emptiness
checks (the disambiguation criteria) and ``min``/``max`` folding, so they are
deliberately *conservative*: the answer :data:`Ordering.UNKNOWN` is always
sound.

Two complementary decision procedures are combined:

* a **difference test** on the canonical linear form — ``a ≤ b`` when
  ``b - a`` simplifies to a non-negative constant (this is what proves
  ``N < N + 1``);
* **structural rules** for ``min``/``max`` — e.g. ``min(x, y) ≤ b`` whenever
  one arm is ``≤ b``, and ``a ≤ max(x, y)`` whenever ``a`` is ``≤`` one arm
  (this is what proves ``min(N - 1, …) < max(N, …)``).

Because expressions are hash-consed (structural equality is identity and
instances are immortal per process), both :func:`compare` and the inner
difference test memoize on ``(id(a), id(b))`` through bounded LRU caches —
the same operand pair recurs thousands of times per fixpoint, and a cache
hit replaces the whole recursive decision procedure with one dict probe.
The caches are transparent: a memoized answer is exactly what the uncached
procedure would return.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional

from .cache import BoundedMemo
from .expr import (
    Constant,
    ExprLike,
    MaxExpr,
    MinExpr,
    NEG_INF,
    POS_INF,
    SymExpr,
    as_expr,
    sym_sub,
)

__all__ = [
    "Ordering",
    "compare",
    "compare_uncached",
    "definitely_lt",
    "definitely_le",
    "definitely_gt",
    "definitely_ge",
    "definitely_eq",
    "definitely_ne",
    "compare_memo_stats",
]

#: Maximum recursion depth of the structural min/max rules.
_MAX_DEPTH = 6


class Ordering(enum.Enum):
    """Result of comparing two symbolic expressions."""

    LESS = "<"
    LESS_EQUAL = "<="
    EQUAL = "=="
    GREATER_EQUAL = ">="
    GREATER = ">"
    UNKNOWN = "?"


#: ``compare(b, a)`` is the mirror of ``compare(a, b)``: one decision
#: procedure run fills both cache directions.
_MIRROR: Dict[Ordering, Ordering] = {
    Ordering.LESS: Ordering.GREATER,
    Ordering.LESS_EQUAL: Ordering.GREATER_EQUAL,
    Ordering.EQUAL: Ordering.EQUAL,
    Ordering.GREATER_EQUAL: Ordering.LESS_EQUAL,
    Ordering.GREATER: Ordering.LESS,
    Ordering.UNKNOWN: Ordering.UNKNOWN,
}

#: Memoized orderings keyed by ``(id(a), id(b))``; safe because interned
#: expressions are immortal, bounded because a long-lived daemon is not.
_COMPARE_MEMO = BoundedMemo(maxsize=1 << 17)

#: Memoized difference bounds keyed the same way (``None`` results included).
_DIFFERENCE_MEMO = BoundedMemo(maxsize=1 << 17)

_MISS = object()


def compare_memo_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss/eviction counters of the order-layer memo caches."""
    return {"compare": _COMPARE_MEMO.stats(),
            "difference": _DIFFERENCE_MEMO.stats()}


def _difference_lower_bound(a: SymExpr, b: SymExpr) -> Optional[int]:
    """A constant ``c`` with ``b - a >= c``, when one is syntactically evident."""
    key = (id(a), id(b))
    cached = _DIFFERENCE_MEMO.get(key, _MISS)
    if cached is not _MISS:
        return cached
    bound = _difference_lower_bound_uncached(a, b)
    _DIFFERENCE_MEMO.put(key, bound)
    return bound


def _difference_lower_bound_uncached(a: SymExpr, b: SymExpr) -> Optional[int]:
    try:
        diff = sym_sub(b, a)
    except ArithmeticError:
        return None
    if isinstance(diff, Constant):
        return diff.value
    if isinstance(diff, MaxExpr):
        # max(x, y) >= x: any constant arm is a lower bound of the difference.
        bounds = [arm.value for arm in (diff.lhs, diff.rhs) if isinstance(arm, Constant)]
        if bounds:
            return max(bounds)
    if isinstance(diff, MinExpr):
        # min(x, y) >= c only when both arms are >= c.
        if isinstance(diff.lhs, Constant) and isinstance(diff.rhs, Constant):
            return min(diff.lhs.value, diff.rhs.value)
    return None


def _le(a: SymExpr, b: SymExpr, depth: int, *, strict: bool) -> bool:
    """Provable ``a <= b`` (or ``a < b`` when ``strict``)."""
    if a is NEG_INF or b is POS_INF:
        # -inf <= anything and anything <= +inf; strictness holds unless equal.
        return not (strict and a is b)
    if a is POS_INF or b is NEG_INF:
        return False
    if not strict and a is b:
        return True
    bound = _difference_lower_bound(a, b)
    if bound is not None and (bound > 0 if strict else bound >= 0):
        return True
    if depth <= 0:
        return False
    # min(x, y) <= b when either arm already is (min is below both arms).
    if isinstance(a, MinExpr):
        if any(_le(arm, b, depth - 1, strict=strict) for arm in (a.lhs, a.rhs)):
            return True
        # ...and also when both arms are (needed when b itself is a min).
        if all(_le(arm, b, depth - 1, strict=strict) for arm in (a.lhs, a.rhs)):
            return True
    # max(x, y) <= b only when both arms are.
    if isinstance(a, MaxExpr):
        if all(_le(arm, b, depth - 1, strict=strict) for arm in (a.lhs, a.rhs)):
            return True
    # a <= max(x, y) when a is below either arm.
    if isinstance(b, MaxExpr):
        if any(_le(a, arm, depth - 1, strict=strict) for arm in (b.lhs, b.rhs)):
            return True
    # a <= min(x, y) only when a is below both arms.
    if isinstance(b, MinExpr):
        if all(_le(a, arm, depth - 1, strict=strict) for arm in (b.lhs, b.rhs)):
            return True
    return False


def compare(a: ExprLike, b: ExprLike) -> Ordering:
    """Compare ``a`` and ``b`` under the symbolic partial order.

    Returns :data:`Ordering.UNKNOWN` whenever the relation cannot be proven
    purely syntactically (after linear canonicalisation).  Answers are
    memoized per identity pair (hash-consing makes that sound) together
    with the mirrored pair.
    """
    a, b = as_expr(a), as_expr(b)
    if a is b:
        return Ordering.EQUAL
    key = (id(a), id(b))
    cached = _COMPARE_MEMO.get(key)
    if cached is not None:
        return cached
    ordering = compare_uncached(a, b)
    _COMPARE_MEMO.put(key, ordering)
    _COMPARE_MEMO.put((id(b), id(a)), _MIRROR[ordering])
    return ordering


def compare_uncached(a: ExprLike, b: ExprLike) -> Ordering:
    """The raw decision procedure behind :func:`compare` (no memo).

    Exposed so tests can check the memoized path against this oracle.
    """
    a, b = as_expr(a), as_expr(b)
    if a is b:
        return Ordering.EQUAL
    if a is NEG_INF or b is POS_INF:
        return Ordering.LESS
    if a is POS_INF or b is NEG_INF:
        return Ordering.GREATER
    if _le(a, b, _MAX_DEPTH, strict=True):
        return Ordering.LESS
    if _le(b, a, _MAX_DEPTH, strict=True):
        return Ordering.GREATER
    a_le_b = _le(a, b, _MAX_DEPTH, strict=False)
    b_le_a = _le(b, a, _MAX_DEPTH, strict=False)
    if a_le_b and b_le_a:
        return Ordering.EQUAL
    if a_le_b:
        return Ordering.LESS_EQUAL
    if b_le_a:
        return Ordering.GREATER_EQUAL
    return Ordering.UNKNOWN


def definitely_lt(a: ExprLike, b: ExprLike) -> bool:
    """True only when ``a < b`` is provable."""
    return compare(a, b) is Ordering.LESS


def definitely_le(a: ExprLike, b: ExprLike) -> bool:
    """True only when ``a <= b`` is provable."""
    return compare(a, b) in (Ordering.LESS, Ordering.LESS_EQUAL, Ordering.EQUAL)


def definitely_gt(a: ExprLike, b: ExprLike) -> bool:
    """True only when ``a > b`` is provable."""
    return compare(a, b) is Ordering.GREATER


def definitely_ge(a: ExprLike, b: ExprLike) -> bool:
    """True only when ``a >= b`` is provable."""
    return compare(a, b) in (Ordering.GREATER, Ordering.GREATER_EQUAL, Ordering.EQUAL)


def definitely_eq(a: ExprLike, b: ExprLike) -> bool:
    """True only when ``a == b`` is provable."""
    return compare(a, b) is Ordering.EQUAL


def definitely_ne(a: ExprLike, b: ExprLike) -> bool:
    """True only when ``a != b`` is provable."""
    return compare(a, b) in (Ordering.LESS, Ordering.GREATER)
