"""Query harness: enumerate pointer pairs and tally no-alias answers.

The paper's precision experiment asks, for every benchmark program, which
fraction of pointer-pair queries each analysis answers "no alias"
(Figure 13), and how many of the range-based analysis' answers came from the
global test (Figure 14).  This module provides the shared machinery: pair
enumeration, per-analysis counting and the result records the reporting
layer consumes.  The records hold counts only: wall time is measured by the
repository benchmark (``perfbench``) and by Figure 15's own timer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..aliases.base import AliasAnalysis
from ..aliases.results import AliasResult, MemoryAccess
from ..engine.manager import AnalysisManager
from ..frontend import module_digest, token_stream_digest, tokenize
from ..ir.function import Function
from ..ir.module import Module

__all__ = ["QueryPair", "ProgramResult", "enumerate_query_pairs", "run_queries",
           "AnalysisFactory", "solver_breakdown",
           "frontend_fingerprint"]

#: A callable building an analysis for a module from the run's shared
#: :class:`AnalysisManager` — ``factory(module, manager)``.  Factories that
#: build on cached sub-analyses (RBAA) take them from the manager; the others
#: ignore it.
AnalysisFactory = Callable[[Module, AnalysisManager], AliasAnalysis]


@dataclass(frozen=True)
class QueryPair:
    """One alias query: two pointer accesses from the same function."""

    function: Function
    a: MemoryAccess
    b: MemoryAccess


@dataclass
class ProgramResult:
    """Query statistics for one program."""

    program: str
    queries: int = 0
    #: analysis name -> number of queries answered "no alias".
    no_alias: Dict[str, int] = field(default_factory=dict)
    #: extra per-analysis counters (e.g. rbaa's global-test hits).
    extra: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: engine cache counters of the run's AnalysisManager (hits/misses/
    #: builds/invalidations) — deterministic, hardware-independent.
    engine: Dict[str, int] = field(default_factory=dict)
    #: solver problem name -> {"steps"}: per-analysis cost attribution
    #: collected from every cached analysis that ran the sparse solver.
    solver: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: frontend determinism fingerprint (token count, token-stream digest,
    #: printed-IR digest) — see :func:`frontend_fingerprint`.  Deterministic
    #: and gated by the CI determinism/perf-smoke compare.
    frontend: Dict[str, object] = field(default_factory=dict)

    def percentage(self, analysis_name: str) -> float:
        """Percentage of queries the analysis disambiguated."""
        if not self.queries:
            return 0.0
        return 100.0 * self.no_alias.get(analysis_name, 0) / self.queries


def frontend_fingerprint(source: str, module: Module) -> Dict[str, object]:
    """Deterministic frontend fingerprint of a compiled program.

    Re-lexes ``source`` (cheap after the scanner rewrite) and hashes the
    token stream plus the printed IR.  The digests ride along in the bench
    record under non-volatile keys, so the CI determinism and perf-smoke
    compares gate on them: any frontend change that alters the token stream
    or the produced IR shows up as a digest mismatch, not as a silent
    precision drift.
    """
    tokens = tokenize(source)
    return {
        "tokens": len(tokens),
        "token_digest": token_stream_digest(tokens),
        "ir_digest": module_digest(module),
    }


def enumerate_query_pairs(module: Module,
                          max_pairs_per_function: Optional[int] = None,
                          functions: Optional[Sequence[Function]] = None
                          ) -> Iterator[QueryPair]:
    """All unordered pairs of distinct pointer SSA values, per function.

    This mirrors the paper's experiment, which queries pairs of pointer
    variables within the analysed programs.  Pairs are enumerated in a
    deterministic order; ``max_pairs_per_function`` truncates the quadratic
    blow-up for very large synthetic functions.  ``functions`` restricts the
    enumeration (the analysis service's per-function query path) — the
    default is every defined function of the module.
    """
    targets = functions if functions is not None else module.defined_functions()
    for function in targets:
        pointers = function.pointer_values()
        emitted = 0
        for a, b in itertools.combinations(pointers, 2):
            if max_pairs_per_function is not None and emitted >= max_pairs_per_function:
                break
            emitted += 1
            yield QueryPair(function, MemoryAccess.of(a), MemoryAccess.of(b))


def run_queries(program_name: str, module: Module,
                factories: Sequence[Tuple[str, AnalysisFactory]],
                max_pairs_per_function: Optional[int] = None,
                manager: Optional[AnalysisManager] = None) -> ProgramResult:
    """Build each analysis and run the full query set through it.

    All factories share one :class:`AnalysisManager`, so analyses layered on
    the same inputs (``rbaa`` and ``rbaa + basic``) compute the expensive
    range bootstrap and GR/LR fixed points once per module instead of once
    per factory.
    """
    result = ProgramResult(program=program_name)
    if manager is None:
        manager = AnalysisManager(module)
    analyses: List[Tuple[str, AliasAnalysis]] = []
    for name, factory in factories:
        analyses.append((name, factory(module, manager)))

    pairs = list(enumerate_query_pairs(module, max_pairs_per_function))
    result.queries = len(pairs)
    for name, analysis in analyses:
        answers = analysis.query_many([(pair.a, pair.b) for pair in pairs])
        result.no_alias[name] = sum(1 for answer in answers
                                    if answer is AliasResult.NO_ALIAS)
        extra: Dict[str, int] = {}
        statistics = getattr(analysis, "statistics", None)
        if statistics is not None and hasattr(statistics, "answered_by_global"):
            extra["answered_by_global"] = statistics.answered_by_global
            extra["answered_by_local"] = statistics.answered_by_local
        credit = getattr(analysis, "credit", None)
        if isinstance(credit, dict):
            extra.update({f"credit_{key}": value for key, value in credit.items()})
        if extra:
            result.extra[name] = extra
    result.engine = manager.statistics.as_dict()
    result.solver = solver_breakdown(manager)
    return result


def solver_breakdown(manager: AnalysisManager) -> Dict[str, Dict[str, int]]:
    """Per-problem solver cost of every analysis cached by ``manager``.

    Keys are the sparse problems' names (``symbolic-ranges``,
    ``global-ranges``, …); ``steps`` counts transfer applications.
    """
    breakdown: Dict[str, Dict[str, int]] = {}
    for analysis in manager.cached_values():
        statistics = getattr(analysis, "solver_statistics", None)
        if statistics is None or not getattr(statistics, "problem", ""):
            continue
        entry = breakdown.setdefault(statistics.problem, {"steps": 0})
        entry["steps"] += statistics.steps
    return breakdown
