"""Microbenchmark of the batched alias-query path over warm analyses.

``query_many`` is the serving layer's hot loop: the analyses are already
built, so what this measures is pair-key construction, probes of the
analysis's pair memo and the global/local disambiguation tests themselves.
"""

import pytest

from repro.benchgen import build_program
from repro.engine import keys
from repro.engine.manager import AnalysisManager
from repro.evaluation.harness import enumerate_query_pairs

_PROGRAM = "anagram"
_MAX_PAIRS = 200


@pytest.fixture(scope="module")
def warm_rbaa():
    program = build_program(_PROGRAM)
    manager = AnalysisManager(program.module)
    analysis = manager.get(keys.RBAA)
    pairs = [(pair.a, pair.b)
             for pair in enumerate_query_pairs(program.module, _MAX_PAIRS)]
    return analysis, pairs


def test_query_many_batch(benchmark, warm_rbaa):
    analysis, pairs = warm_rbaa

    def run():
        return analysis.query_many(pairs)

    results = benchmark.pedantic(run, iterations=2, rounds=5)
    assert len(results) == len(pairs)


def test_query_many_with_persistent_memo(benchmark, warm_rbaa):
    """The daemon path: the analysis's own pair memo turns repeats into
    dict probes."""
    analysis, pairs = warm_rbaa
    analysis.query_many(pairs)  # warm the memo once
    memo = analysis.pair_memo

    def run():
        return analysis.query_many(pairs)

    results = benchmark.pedantic(run, iterations=2, rounds=5)
    assert len(results) == len(pairs)
    assert memo.hits > 0 and memo.evictions == 0
