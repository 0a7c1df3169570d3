"""Interning (hash-consing) invariants of the symbolic expression algebra.

Three properties carry the whole refactor:

* **equality is identity** — for any two expressions built through the
  public constructors, ``e1 == e2`` iff ``e1 is e2`` (hypothesis property
  over random expression trees);
* **interning is hash-seed independent** — canonical ordering, reprs and
  folding do not depend on ``PYTHONHASHSEED`` (real subprocesses, in the
  style of the benchgen determinism tests);
* **the compare memo is transparent** — the memoized
  :func:`repro.symbolic.compare` agrees with the unmemoized oracle on
  10k random pairs.
"""

import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

import repro
from repro.symbolic import (
    BoundedMemo,
    Constant,
    Infinity,
    MaxExpr,
    MinExpr,
    NEG_INF,
    POS_INF,
    SumExpr,
    Symbol,
    compare,
    compare_memo_stats,
    compare_uncached,
    intern_table_size,
    sym,
    sym_add,
    sym_max,
    sym_min,
    sym_mul,
    sym_neg,
    sym_sub,
)

_SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)

SYMBOL_NAMES = ("N", "M", "k", "len")


# -- recipe-based expression construction -------------------------------------
#
# Strategies draw *recipes* (plain tuples) rather than expressions, so one
# draw can be materialised twice and the two builds compared for identity.

def _leaf_recipes():
    return st.one_of(
        st.tuples(st.just("const"), st.integers(min_value=-40, max_value=40)),
        st.tuples(st.just("sym"), st.sampled_from(SYMBOL_NAMES)),
    )


def _recipes(depth=3):
    return st.recursive(
        _leaf_recipes(),
        lambda children: st.one_of(
            st.tuples(st.just("add"), children, children),
            st.tuples(st.just("sub"), children, children),
            st.tuples(st.just("min"), children, children),
            st.tuples(st.just("max"), children, children),
            st.tuples(st.just("mulc"), children,
                      st.integers(min_value=-3, max_value=3)),
            st.tuples(st.just("neg"), children),
        ),
        max_leaves=8,
    )


def _build(recipe):
    op = recipe[0]
    if op == "const":
        return Constant(recipe[1])
    if op == "sym":
        return sym(recipe[1])
    if op == "neg":
        return sym_neg(_build(recipe[1]))
    if op == "mulc":
        return sym_mul(_build(recipe[1]), recipe[2])
    left, right = _build(recipe[1]), _build(recipe[2])
    if op == "add":
        return sym_add(left, right)
    if op == "sub":
        return sym_sub(left, right)
    if op == "min":
        return sym_min(left, right)
    return sym_max(left, right)


class TestInterningInvariant:
    @given(_recipes())
    @settings(max_examples=200)
    def test_same_recipe_builds_one_object(self, recipe):
        assert _build(recipe) is _build(recipe)

    @given(_recipes(), _recipes())
    @settings(max_examples=200)
    def test_equality_iff_identity(self, first, second):
        e1, e2 = _build(first), _build(second)
        assert (e1 == e2) == (e1 is e2)
        assert (repr(e1) == repr(e2)) == (e1 is e2)
        if e1 is e2:
            assert hash(e1) == hash(e2)

    @given(_recipes())
    @settings(max_examples=100)
    def test_cached_protocol_matches_recomputation(self, recipe):
        expr = _build(recipe)
        assert expr.sort_key() == expr.sort_key()
        assert expr.complexity() >= 1
        assert expr.symbols() <= set(SYMBOL_NAMES)

    def test_constructors_return_singletons(self):
        assert Constant(7) is Constant(7)
        assert sym("N") is Symbol("N")
        assert sym_add(sym("N"), 1) is sym_add(1, sym("N"))
        assert sym_min(sym("N"), sym("M")) is sym_min(sym("M"), sym("N"))
        assert isinstance(sym_min(sym("N"), sym("M")), MinExpr)
        assert isinstance(sym_max(sym("N"), sym("M")), MaxExpr)
        assert isinstance(sym_add(sym("N"), sym("M")), SumExpr)

    def test_table_growth_is_structural_only(self):
        before = intern_table_size()
        first = sym_add(sym("intern_probe"), 41)
        mid = intern_table_size()
        second = sym_add(41, sym("intern_probe"))
        assert first is second
        assert intern_table_size() == mid > before

    def test_pickle_round_trips_through_the_intern_table(self):
        expr = sym_min(sym_add(sym("N"), 3), sym_mul(sym("M"), 2))
        clone = pickle.loads(pickle.dumps(expr))
        assert clone is expr
        assert pickle.loads(pickle.dumps(POS_INF)) is POS_INF


class TestInfinitySingletons:
    def test_constructor_routes_to_singletons(self):
        assert Infinity(1) is POS_INF
        assert Infinity(-1) is NEG_INF

    def test_negation_is_symmetric(self):
        assert -POS_INF is NEG_INF
        assert -NEG_INF is POS_INF
        assert sym_neg(POS_INF) is NEG_INF
        assert sym_neg(NEG_INF) is POS_INF
        assert sym_mul(POS_INF, -2) is NEG_INF
        assert sym_mul(NEG_INF, -2) is POS_INF


#: Builds a deterministic batch of expressions and prints every canonical
#: artefact interning could disturb: reprs, sort order, fold results.
_HASH_SEED_SCRIPT = """
from repro.symbolic import (Constant, sym, sym_add, sym_max, sym_min,
                            sym_mul, sym_sub)
exprs = []
names = ["N", "M", "k", "len", "cap"]
for i, name in enumerate(names):
    s = sym(name)
    exprs.append(sym_add(sym_mul(s, i + 1), i - 2))
    exprs.append(sym_min(s, sym_add(sym(names[(i + 1) % len(names)]), i)))
    exprs.append(sym_max(Constant(i), sym_sub(s, i)))
    exprs.append(sym_add(exprs[-1], exprs[-2]))
ordered = sorted(exprs, key=lambda e: e.sort_key())
print([repr(e) for e in ordered])
print([sorted(e.symbols()) for e in ordered])
print([e.complexity() for e in ordered])
"""


def _run_under_hash_seed(seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, "-c", _HASH_SEED_SCRIPT],
                            capture_output=True, text=True, env=env, check=True)
    return result.stdout


class TestHashSeedIndependence:
    def test_interned_canonical_forms_match_across_hash_seeds(self):
        first = _run_under_hash_seed("1")
        second = _run_under_hash_seed("2")
        assert first, "intern subprocess produced no output"
        assert first == second


def _expression_pool() -> list:
    """~150 deterministic expressions with plenty of comparable pairs."""
    rng = random.Random(20260726)
    pool = [Constant(value) for value in range(-3, 4)]
    pool += [sym(name) for name in SYMBOL_NAMES]
    pool += [NEG_INF, POS_INF]
    for _ in range(140):
        op = rng.randrange(5)
        a, b = rng.choice(pool), rng.choice(pool)
        try:
            if op == 0:
                pool.append(sym_add(a, b))
            elif op == 1:
                pool.append(sym_sub(a, b))
            elif op == 2:
                pool.append(sym_min(a, b))
            elif op == 3:
                pool.append(sym_max(a, b))
            else:
                pool.append(sym_mul(a, rng.randrange(-3, 4)))
        except ArithmeticError:
            continue  # infinity compositions the algebra rejects
    return pool


class TestCompareMemo:
    def test_memoized_compare_agrees_with_oracle_on_10k_pairs(self):
        pool = _expression_pool()
        rng = random.Random(42)
        for _ in range(10_000):
            a, b = rng.choice(pool), rng.choice(pool)
            assert compare(a, b) is compare_uncached(a, b)

    def test_memo_counters_move(self):
        before = compare_memo_stats()["compare"]
        a = sym_add(sym("memo_probe"), 1)
        b = sym_add(sym("memo_probe"), 2)
        compare(a, b)
        compare(a, b)
        after = compare_memo_stats()["compare"]
        assert after["hits"] > before["hits"]
        assert after["misses"] > before["misses"]


class TestBoundedMemo:
    def test_lru_eviction_order_and_counters(self):
        memo = BoundedMemo(maxsize=2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1          # refreshes "a": now "b" is LRU
        memo.put("c", 3)                   # evicts "b"
        assert memo.get("b") is None
        assert memo.get("a") == 1 and memo.get("c") == 3
        assert memo.evictions == 1
        assert len(memo) == 2
        # A stored ``None`` is a hit, told apart from a miss by the default.
        missing = object()
        memo.put("n", None)
        assert memo.get("n", missing) is None
        assert memo.get("b", missing) is missing
        assert (memo.hits, memo.misses) == (4, 2)

    def test_resize_trims_least_recent(self):
        memo = BoundedMemo(maxsize=4)
        for index in range(4):
            memo.put(index, index)
        memo.get(0)                        # 1 becomes least recent
        memo.resize(2)
        assert 0 in memo and 3 in memo
        assert 1 not in memo and 2 not in memo
        assert memo.evictions == 2
        memo.clear()                       # drops payloads, keeps counters
        assert len(memo) == 0
        assert (memo.hits, memo.misses, memo.evictions) == (1, 0, 2)

    def test_stats_shape(self):
        memo = BoundedMemo(maxsize=8)
        memo.put("x", 1)
        memo.get("x")
        memo.get("y")
        assert memo.stats() == {"size": 1, "maxsize": 8, "hits": 1,
                                "misses": 1, "evictions": 0}
