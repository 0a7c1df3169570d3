"""Concrete evaluation of symbolic expressions.

Besides construction-time canonicalisation (:mod:`repro.symbolic.expr`), the
analyses need **concrete evaluation**: replacing every kernel symbol by an
integer and computing the resulting value.  This is how the test-suite
checks that the abstract ranges really enclose the concrete offsets (the
Galois-connection property), and how the benchmark harness concretises
symbolic reports.

No expression-size budget is applied anywhere.  What keeps bounds short —
the premise of Section 3.8's ``O(|V|)`` argument — is the fixed-point
schedule: widening sends a bound that keeps growing at a φ-function to an
infinity, and the descending sequence has a fixed length of two.
"""

from __future__ import annotations

import math
from typing import Mapping, Union

from .expr import (
    Constant,
    DivExpr,
    ExprLike,
    Infinity,
    MaxExpr,
    MinExpr,
    ModExpr,
    ProductExpr,
    SumExpr,
    Symbol,
    as_expr,
)

__all__ = ["evaluate"]

Number = Union[int, float]


def evaluate(expr: ExprLike, env: Mapping[str, int]) -> Number:
    """Evaluate ``expr`` with the concrete symbol assignment ``env``.

    Infinities evaluate to ``math.inf`` / ``-math.inf``.  Division and modulo
    follow C semantics (truncation towards zero), matching
    :func:`repro.symbolic.expr.sym_div`.

    Raises:
        KeyError: if a symbol in ``expr`` is missing from ``env``.
        ZeroDivisionError: on division/modulo by zero.
    """
    expr = as_expr(expr)
    if isinstance(expr, Constant):
        return expr.value
    if isinstance(expr, Infinity):
        return math.inf if expr.sign > 0 else -math.inf
    if isinstance(expr, Symbol):
        return env[expr.name]
    if isinstance(expr, SumExpr):
        total: Number = expr.offset
        for atom, coeff in expr.terms:
            total += coeff * evaluate(atom, env)
        return total
    if isinstance(expr, MinExpr):
        return min(evaluate(expr.lhs, env), evaluate(expr.rhs, env))
    if isinstance(expr, MaxExpr):
        return max(evaluate(expr.lhs, env), evaluate(expr.rhs, env))
    if isinstance(expr, ProductExpr):
        return evaluate(expr.lhs, env) * evaluate(expr.rhs, env)
    if isinstance(expr, DivExpr):
        lhs, rhs = evaluate(expr.lhs, env), evaluate(expr.rhs, env)
        if rhs == 0:
            raise ZeroDivisionError("evaluated symbolic division by zero")
        quotient = abs(lhs) // abs(rhs)
        return -quotient if (lhs < 0) != (rhs < 0) else quotient
    if isinstance(expr, ModExpr):
        lhs, rhs = evaluate(expr.lhs, env), evaluate(expr.rhs, env)
        if rhs == 0:
            raise ZeroDivisionError("evaluated symbolic modulo by zero")
        remainder = abs(lhs) % abs(rhs)
        return -remainder if lhs < 0 else remainder
    raise TypeError(f"cannot evaluate {expr!r}")

