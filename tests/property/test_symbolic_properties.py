"""Property-based tests (hypothesis) for the symbolic substrate.

The key property throughout is *soundness by over-approximation*: whatever
the abstract operators claim must hold for every concrete instantiation of
the kernel symbols.  Concrete instantiation is provided by
:func:`repro.symbolic.evaluate`.
"""


from hypothesis import given, settings, strategies as st

from repro.symbolic import (
    EMPTY_INTERVAL,
    NEG_INF,
    Ordering,
    POS_INF,
    SymbolicInterval,
    compare,
    evaluate,
    sym,
    sym_add,
    sym_max,
    sym_min,
    sym_mul,
    sym_neg,
    sym_sub,
)

SYMBOL_NAMES = ("N", "M", "k")

# -- strategies -------------------------------------------------------------

small_ints = st.integers(min_value=-50, max_value=50)


@st.composite
def symbolic_expressions(draw, depth=2):
    """Random symbolic expressions over a small kernel."""
    if depth == 0:
        choice = draw(st.integers(0, 1))
        if choice == 0:
            return sym_add(0, draw(small_ints))
        return sym(draw(st.sampled_from(SYMBOL_NAMES)))
    left = draw(symbolic_expressions(depth=depth - 1))
    right = draw(symbolic_expressions(depth=depth - 1))
    operator = draw(st.sampled_from(["add", "sub", "min", "max", "mulc"]))
    if operator == "add":
        return sym_add(left, right)
    if operator == "sub":
        return sym_sub(left, right)
    if operator == "min":
        return sym_min(left, right)
    if operator == "max":
        return sym_max(left, right)
    return sym_mul(left, draw(st.integers(min_value=-4, max_value=4)))


environments = st.fixed_dictionaries({name: small_ints for name in SYMBOL_NAMES})


@st.composite
def intervals(draw):
    """Random non-empty symbolic intervals [min(a,b), max(a,b)]."""
    a = draw(symbolic_expressions())
    b = draw(symbolic_expressions())
    return SymbolicInterval(sym_min(a, b), sym_max(a, b))


@st.composite
def maybe_empty_intervals(draw):
    """Like :func:`intervals`, but ``∅`` appears with real probability."""
    if draw(st.integers(0, 4)) == 0:
        return EMPTY_INTERVAL
    return draw(intervals())


# -- expression properties ----------------------------------------------------

@given(symbolic_expressions(), symbolic_expressions(), environments)
@settings(max_examples=150, deadline=None)
def test_addition_matches_concrete_semantics(a, b, env):
    assert evaluate(sym_add(a, b), env) == evaluate(a, env) + evaluate(b, env)


@given(symbolic_expressions(), symbolic_expressions(), environments)
@settings(max_examples=150, deadline=None)
def test_subtraction_matches_concrete_semantics(a, b, env):
    assert evaluate(sym_sub(a, b), env) == evaluate(a, env) - evaluate(b, env)


@given(symbolic_expressions(), environments)
@settings(max_examples=100, deadline=None)
def test_negation_matches_concrete_semantics(a, env):
    assert evaluate(sym_neg(a), env) == -evaluate(a, env)


@given(symbolic_expressions(), symbolic_expressions(), environments)
@settings(max_examples=150, deadline=None)
def test_min_max_match_concrete_semantics(a, b, env):
    assert evaluate(sym_min(a, b), env) == min(evaluate(a, env), evaluate(b, env))
    assert evaluate(sym_max(a, b), env) == max(evaluate(a, env), evaluate(b, env))


@given(symbolic_expressions(), symbolic_expressions(), environments)
@settings(max_examples=200, deadline=None)
def test_compare_claims_hold_concretely(a, b, env):
    """Whatever `compare` claims must hold for every concrete valuation."""
    claim = compare(a, b)
    concrete_a, concrete_b = evaluate(a, env), evaluate(b, env)
    if claim is Ordering.LESS:
        assert concrete_a < concrete_b
    elif claim is Ordering.LESS_EQUAL:
        assert concrete_a <= concrete_b
    elif claim is Ordering.EQUAL:
        assert concrete_a == concrete_b
    elif claim is Ordering.GREATER_EQUAL:
        assert concrete_a >= concrete_b
    elif claim is Ordering.GREATER:
        assert concrete_a > concrete_b


@given(symbolic_expressions(), symbolic_expressions())
@settings(max_examples=100, deadline=None)
def test_compare_is_antisymmetric_in_its_claims(a, b):
    forward = compare(a, b)
    backward = compare(b, a)
    mirrored = {
        Ordering.LESS: Ordering.GREATER,
        Ordering.LESS_EQUAL: Ordering.GREATER_EQUAL,
        Ordering.EQUAL: Ordering.EQUAL,
        Ordering.GREATER_EQUAL: Ordering.LESS_EQUAL,
        Ordering.GREATER: Ordering.LESS,
        Ordering.UNKNOWN: Ordering.UNKNOWN,
    }
    if forward is not Ordering.UNKNOWN and backward is not Ordering.UNKNOWN:
        assert mirrored[forward] is backward or {forward, backward} <= {
            Ordering.LESS_EQUAL, Ordering.GREATER_EQUAL, Ordering.EQUAL}


# -- interval properties ---------------------------------------------------------

def _contains(interval, env, value):
    return (evaluate(interval.lower, env) <= value <= evaluate(interval.upper, env))


@given(intervals(), intervals(), environments, small_ints)
@settings(max_examples=150, deadline=None)
def test_join_over_approximates_both_operands(a, b, env, probe):
    joined = a.join(b)
    for interval in (a, b):
        if _contains(interval, env, probe):
            assert _contains(joined, env, probe)


@given(intervals(), intervals(), environments, small_ints)
@settings(max_examples=150, deadline=None)
def test_meet_under_approximates_the_intersection(a, b, env, probe):
    met = a.meet(b)
    if met.is_empty:
        # Provably disjoint: no value may be in both operands.
        assert not (_contains(a, env, probe) and _contains(b, env, probe))
    elif _contains(a, env, probe) and _contains(b, env, probe):
        assert _contains(met, env, probe)


@given(intervals(), intervals(), environments, small_ints)
@settings(max_examples=150, deadline=None)
def test_widen_over_approximates_join(a, b, env, probe):
    widened = a.widen(b)
    if _contains(a, env, probe) or _contains(b, env, probe):
        lower = evaluate(widened.lower, env)
        upper = evaluate(widened.upper, env)
        assert lower <= probe <= upper


@given(intervals(), intervals(), environments, small_ints)
@settings(max_examples=150, deadline=None)
def test_definitely_disjoint_is_sound(a, b, env, probe):
    if a.definitely_disjoint(b):
        assert not (_contains(a, env, probe) and _contains(b, env, probe))


@given(intervals(), small_ints, environments, small_ints)
@settings(max_examples=100, deadline=None)
def test_shift_translates_membership(interval, delta, env, probe):
    shifted = interval.shift(delta)
    if _contains(interval, env, probe):
        assert _contains(shifted, env, probe + delta)


@given(intervals(), environments, small_ints)
@settings(max_examples=100, deadline=None)
def test_join_with_empty_is_identity(interval, env, probe):
    assert interval.join(EMPTY_INTERVAL) == interval
    assert EMPTY_INTERVAL.join(interval) == interval


@given(intervals(), intervals())
@settings(max_examples=100, deadline=None)
def test_join_is_commutative_up_to_equality(a, b):
    assert a.join(b) == b.join(a)


@given(intervals())
@settings(max_examples=100, deadline=None)
def test_join_is_idempotent(a):
    assert a.join(a) == a


# -- widening / narrowing properties ------------------------------------------

@given(intervals(), intervals(), environments, small_ints)
@settings(max_examples=150, deadline=None)
def test_widening_is_increasing_in_both_arguments(a, b, env, probe):
    """``a ⊑ a∇b`` and ``b ⊑ a∇b``: widening only ever loses precision."""
    widened = a.widen(b)
    for operand in (a, b):
        if _contains(operand, env, probe):
            assert _contains(widened, env, probe)


@given(intervals(), intervals())
@settings(max_examples=150, deadline=None)
def test_widening_stabilises_after_one_application(a, b):
    """``(a∇b)∇b = a∇b`` — the ascending sequence cannot oscillate, which
    is what bounds the solver's widening phase."""
    once = a.widen(b)
    assert once.widen(b) == once


@given(intervals(), intervals())
@settings(max_examples=150, deadline=None)
def test_widening_only_moves_bounds_to_infinity(a, b):
    """Each widened bound is either the old bound or an infinity — the
    paper's ∇ never invents new finite bounds."""
    widened = a.widen(b)
    if a.is_empty or b.is_empty:
        return
    assert widened.lower == a.lower or widened.lower == NEG_INF
    assert widened.upper == a.upper or widened.upper == POS_INF


@given(intervals(), intervals(), environments, small_ints)
@settings(max_examples=150, deadline=None)
def test_narrowing_stays_above_the_refinement(a, b, env, probe):
    """``narrow`` may only replace infinite bounds of ``a`` by bounds of
    ``b``: anything inside both operands survives narrowing."""
    narrowed = a.widen(b).narrow(b)
    if _contains(a, env, probe) and _contains(b, env, probe):
        assert _contains(narrowed, env, probe)


@given(intervals(), intervals())
@settings(max_examples=150, deadline=None)
def test_narrowing_is_monotone_never_widens_bounds(a, b):
    """Narrowing refines: every finite bound of ``a`` is kept verbatim."""
    narrowed = a.narrow(b)
    if a.is_empty or b.is_empty:
        return
    if a.lower != NEG_INF:
        assert narrowed.lower == a.lower
    if a.upper != POS_INF:
        assert narrowed.upper == a.upper


@given(intervals(), intervals())
@settings(max_examples=100, deadline=None)
def test_narrowing_is_idempotent(a, b):
    narrowed = a.narrow(b)
    assert narrowed.narrow(b) == narrowed


@given(maybe_empty_intervals(), maybe_empty_intervals())
@settings(max_examples=200, deadline=None)
def test_narrowing_never_enlarges(a, b):
    """``a.narrow(b) ⊑ a`` over the *whole* lattice, ∅ included.

    ``narrow(∅, other)`` used to return ``other``, letting a descending
    sweep grow a state that had stabilised at the least element; the
    containment check fails on exactly that behaviour."""
    assert a.contains_interval(a.narrow(b))


@given(maybe_empty_intervals())
@settings(max_examples=50, deadline=None)
def test_narrowing_keeps_empty_states_empty(a):
    assert EMPTY_INTERVAL.narrow(a).is_empty
    assert a.narrow(EMPTY_INTERVAL).is_empty


# -- simplification / canonicalisation properties ------------------------------

@given(symbolic_expressions())
@settings(max_examples=150, deadline=None)
def test_canonicalisation_is_idempotent_under_identities(a):
    """Rebuilding an expression through identity operations is a no-op:
    canonical forms are fixed points of the builder functions."""
    assert sym_add(a, 0) == a
    assert sym_sub(a, 0) == a
    assert sym_mul(a, 1) == a
    assert sym_min(a, a) == a
    assert sym_max(a, a) == a
    assert sym_neg(sym_neg(a)) == a


@given(symbolic_expressions(), symbolic_expressions())
@settings(max_examples=150, deadline=None)
def test_canonicalisation_merges_like_terms(a, b):
    """``(a + b) - b`` cancels exactly — the linear fragment is canonical."""
    assert sym_sub(sym_add(a, b), b) == a


