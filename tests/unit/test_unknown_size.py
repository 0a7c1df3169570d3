"""Unknown access sizes must never behave as one byte.

Regression coverage for the unknown-size soundness fix: two pointers that
are provably disjoint for 1-byte accesses must *not* be disambiguated when
queried at unknown (unbounded) size, across every size-sensitive analysis
and at every layer (interval extension, the GR/LR tests, the memo keys).
"""

import pytest

from repro.aliases.base import PAIR_MEMO_PAYLOADS, AliasAnalysis, pair_key
from repro.aliases.basic import BasicAliasAnalysis
from repro.aliases.results import AliasResult, MemoryAccess
from repro.aliases.scev_aa import SCEVAliasAnalysis
from repro.core import RBAAAliasAnalysis
from repro.core.domain import PointerAbstractValue
from repro.core.locations import LocationKind, MemoryLocation
from repro.core.queries import extend_for_access, global_test, local_test
from repro.frontend import compile_source
from repro.symbolic import POS_INF, SymbolicInterval

ONE_BYTE_DISJOINT = """
void f(char* base) {
  char* head = base;
  char* tail = base + 1;
  *head = 0;
  *tail = 1;
}
int main(int argc, char** argv) {
  int n = atoi(argv[1]);
  char* buf = (char*)malloc(n);
  f(buf);
  return 0;
}
"""


def _disjoint_pair(module):
    fn = module.get_function("f")
    base = fn.args[0]
    tail = next(inst for inst in fn.instructions() if inst.opcode == "ptradd")
    return base, tail


class TestExtendForAccess:
    def test_unknown_size_extends_to_plus_infinity(self):
        interval = SymbolicInterval(0, 0)
        extended = extend_for_access(interval, None)
        assert extended.lower == interval.lower
        assert extended.upper == POS_INF

    def test_known_sizes_unchanged(self):
        interval = SymbolicInterval(0, 0)
        assert extend_for_access(interval, 1) == interval
        assert extend_for_access(interval, 4).upper != interval.upper

    def test_empty_interval_stays_empty(self):
        assert extend_for_access(SymbolicInterval.empty(), None).is_empty


class TestUnknownSizeTests:
    def _values(self):
        loc = MemoryLocation(0, LocationKind.HEAP, "heap")
        a = PointerAbstractValue({loc: SymbolicInterval(0, 0)})
        b = PointerAbstractValue({loc: SymbolicInterval(1, 1)})
        return a, b

    def test_global_test_refuses_unknown_sizes(self):
        a, b = self._values()
        assert global_test(a, b, 1, 1).no_alias
        # The lower access' unknown extent reaches upward over ``b``.
        assert not global_test(a, b, None, 1).no_alias
        assert not global_test(a, b, None, None).no_alias
        # The *higher* access extending upward stays provably disjoint —
        # the fix must not cost precision soundness does not require.
        assert global_test(a, b, 1, None).no_alias

    def test_local_test_refuses_unknown_sizes(self):
        from repro.core import LocalAbstractValue
        base = MemoryLocation(3, LocationKind.SYNTHETIC, "base")
        a = LocalAbstractValue(base, SymbolicInterval.point(0))
        b = LocalAbstractValue(base, SymbolicInterval.point(1))
        assert local_test(a, b, 1, 1).no_alias
        assert not local_test(a, b, None, None).no_alias

    def test_unknown_size_but_distinct_objects_still_disambiguates(self):
        # The fix must not destroy size-insensitive reasoning: distinct
        # concrete objects never overlap whatever the extent.
        loc_a = MemoryLocation(0, LocationKind.HEAP, "a")
        loc_b = MemoryLocation(1, LocationKind.HEAP, "b")
        a = PointerAbstractValue({loc_a: SymbolicInterval(0, 0)})
        b = PointerAbstractValue({loc_b: SymbolicInterval(0, 0)})
        assert global_test(a, b, None, None).no_alias


class TestAnalysesAtUnknownSize:
    def test_rbaa_regression(self):
        module = compile_source(ONE_BYTE_DISJOINT, "regress")
        rbaa = RBAAAliasAnalysis(module)
        base, tail = _disjoint_pair(module)
        assert rbaa.alias(MemoryAccess.of(base, 1),
                          MemoryAccess.of(tail, 1)) is AliasResult.NO_ALIAS
        assert rbaa.alias(
            MemoryAccess.unknown_extent(base),
            MemoryAccess.unknown_extent(tail)) is AliasResult.MAY_ALIAS

    def test_basic_regression(self):
        module = compile_source(ONE_BYTE_DISJOINT, "regress")
        basic = BasicAliasAnalysis(module)
        base, tail = _disjoint_pair(module)
        assert basic.alias(MemoryAccess.of(base, 1),
                           MemoryAccess.of(tail, 1)) is AliasResult.NO_ALIAS
        assert basic.alias(
            MemoryAccess.unknown_extent(base),
            MemoryAccess.unknown_extent(tail)) is AliasResult.MAY_ALIAS

    def test_scev_unknown_size_is_never_no_alias(self):
        module = compile_source("""
        void g(int* v, int n) {
          int i;
          for (i = 0; i + 1 < n; i++) {
            v[i] = v[i + 1];
          }
        }
        """, "scev")
        scev = SCEVAliasAnalysis(module)
        fn = module.get_function("g")
        loads = [inst for inst in fn.instructions() if inst.opcode == "load"]
        stores = [inst for inst in fn.instructions() if inst.opcode == "store"]
        assert loads and stores
        p, q = stores[0].pointer, loads[0].pointer
        sized = scev.alias(MemoryAccess.of(p, 4), MemoryAccess.of(q, 4))
        unknown = scev.alias(MemoryAccess.unknown_extent(p),
                             MemoryAccess.unknown_extent(q))
        assert sized is AliasResult.NO_ALIAS
        assert unknown is AliasResult.MAY_ALIAS

    def test_memo_distinguishes_unknown_from_one_byte(self):
        module = compile_source(ONE_BYTE_DISJOINT, "regress")
        base, tail = _disjoint_pair(module)
        key_sized = pair_key(MemoryAccess.of(base, 1), MemoryAccess.of(tail, 1))
        key_unknown = pair_key(MemoryAccess.unknown_extent(base),
                               MemoryAccess.unknown_extent(tail))
        assert key_sized != key_unknown


class _Scripted(AliasAnalysis):
    """A stub analysis answering each named ask with a scripted payload
    through its pair memo, logging every ask the memo could not answer."""

    name = "scripted"

    def __init__(self, payloads):
        super().__init__(compile_source(ONE_BYTE_DISJOINT, "memo"))
        self.pointer = self.module.get_function("f").pointer_values()[0]
        self.payloads = payloads
        self.names = list(payloads)
        self.decided = []

    def ask(self, name):
        # One pointer, one access size per name: a distinct pair key each.
        access = MemoryAccess.of(self.pointer, self.names.index(name) + 1)
        return self.remembered(access, access, self._decide)

    def _decide(self, a, b):
        name = self.names[a.size - 1]
        self.decided.append(name)
        return self.payloads[name]

    def alias(self, a, b):  # pragma: no cover - not exercised
        return AliasResult.MAY_ALIAS


class TestQueryPairMemoCounters:
    """The counters of an analysis's pair memo, driven via ``remembered``."""

    def test_remembered_none_counts_as_hit_not_miss(self):
        analysis = _Scripted({"pair": None})
        assert analysis.ask("pair") is None
        assert analysis.ask("pair") is None
        assert analysis.ask("pair") is None
        memo = analysis.pair_memo
        assert (memo.hits, memo.misses) == (2, 1)
        assert analysis.decided == ["pair"]

    def test_post_release_lookups_count_misses(self):
        analysis = _Scripted({"pair": None})
        analysis.ask("pair")
        analysis.ask("pair")
        analysis.pair_memo.clear()
        assert len(analysis.pair_memo) == 0
        assert analysis.ask("pair") is None
        assert (analysis.pair_memo.hits, analysis.pair_memo.misses) == (1, 2)

    def test_real_payloads_still_round_trip(self):
        analysis = _Scripted({"pair": "payload"})
        assert analysis.ask("pair") == "payload"
        assert analysis.ask("pair") == "payload"
        assert (analysis.pair_memo.hits, analysis.pair_memo.misses) == (1, 1)


class TestQueryPairMemoBound:
    """The pair memo is an LRU bounded by ``PAIR_MEMO_PAYLOADS``."""

    def test_eviction_is_lru_and_counted(self):
        analysis = _Scripted({"a": 1, "b": 2, "c": 3})
        analysis.pair_memo.resize(2)
        analysis.ask("a")
        analysis.ask("b")
        analysis.ask("a")                  # refresh: "b" is now least recent
        analysis.ask("c")                  # evicts "b"
        assert analysis.pair_memo.evictions == 1
        assert analysis.ask("a") == 1 and analysis.ask("c") == 3
        assert analysis.decided == ["a", "b", "c"]
        assert analysis.ask("b") == 2      # recomputed
        assert analysis.decided == ["a", "b", "c", "b"]

    def test_eviction_only_forces_recompute(self):
        analysis = _Scripted({"a": "payload-a", "b": "payload-b"})
        analysis.pair_memo.resize(1)
        assert analysis.ask("a") == "payload-a"
        assert analysis.ask("b") == "payload-b"   # evicts "a"
        assert analysis.ask("a") == "payload-a"   # same deterministic payload
        assert analysis.decided == ["a", "b", "a"]

    def test_resize_trims_and_counts(self):
        analysis = _Scripted({index: index for index in "wxyz"})
        for name in "wxyz":
            analysis.ask(name)
        analysis.pair_memo.resize(2)
        assert analysis.pair_memo.evictions == 2
        assert len(analysis.pair_memo) == 2
        assert analysis.ask("z") == "z"           # most recent survived
        assert analysis.decided == list("wxyz")

    def test_bound_never_below_one(self):
        analysis = _Scripted({"a": 1})
        assert analysis.pair_memo.maxsize == PAIR_MEMO_PAYLOADS >= 1
        with pytest.raises(ValueError):
            analysis.pair_memo.resize(0)
        assert analysis.ask("a") == 1
        assert len(analysis.pair_memo) == 1


class TestBoundedOutcomeMemoStatistics:
    """Eviction from RBAA's pair memo must never drop Figure-14 counts."""

    def test_memoized_replay_survives_eviction(self):
        from repro.evaluation.harness import enumerate_query_pairs

        module = compile_source(ONE_BYTE_DISJOINT, "m")
        pairs = [(pair.a, pair.b) for pair in enumerate_query_pairs(module)]
        assert len(pairs) >= 2

        reference = RBAAAliasAnalysis(module)
        reference.query_many(pairs)
        reference.query_many(pairs)  # replayed batch

        tiny = RBAAAliasAnalysis(module)
        tiny.pair_memo.resize(1)
        tiny.query_many(pairs)
        tiny.query_many(pairs)
        assert tiny.pair_memo.evictions > 0  # the bound actually bit

        for field in ("queries", "no_alias", "answered_by_global",
                      "answered_by_local", "answered_by_distinct_objects"):
            assert getattr(tiny.statistics, field) \
                == getattr(reference.statistics, field)
