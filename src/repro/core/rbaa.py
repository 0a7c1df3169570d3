"""The range-based alias analysis (RBAA): the paper's end product.

``RBAAAliasAnalysis`` wires together the whole pipeline of Figure 5 — the
integer symbolic range analysis bootstrap, the global GR analysis, the local
LR analysis — behind the common :class:`~repro.aliases.base.AliasAnalysis`
interface, so it can be compared against and combined with the baseline
analyses.  The pieces are requested from an
:class:`~repro.engine.manager.AnalysisManager`, so two consumers sharing a
manager (say, ``rbaa`` and the chained ``rbaa + basic``) share one range
bootstrap and one GR/LR fixed point.  Every query runs the global test first
and falls back to the local test, and the analysis keeps counters of which
criterion answered each query (the data behind Figure 14); outcomes are
memoized in the analysis's pair memo, and every ask — memoized or not —
updates the counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..aliases.base import AliasAnalysis
from ..aliases.results import AliasResult, MemoryAccess, NoAliasClaim
from ..engine import keys
from ..engine.manager import AnalysisManager
from ..ir.module import Module
from ..rangeanalysis.symbolic_ra import RangeAnalysisOptions
from .domain import PointerAbstractValue
from .global_analysis import GlobalAnalysisOptions
from .local_analysis import LocalAbstractValue
from .queries import DisambiguationReason, QueryOutcome, global_test, local_test

__all__ = ["RBAAOptions", "RBAAStatistics", "RBAAAliasAnalysis"]


@dataclass
class RBAAOptions:
    """Configuration of the full range-based alias analysis."""

    global_options: GlobalAnalysisOptions = field(default_factory=GlobalAnalysisOptions)
    range_options: RangeAnalysisOptions = field(default_factory=RangeAnalysisOptions)
    #: Run the global test (Section 3.4/3.5).
    enable_global_test: bool = True
    #: Run the local test (Section 3.6/3.7).
    enable_local_test: bool = True


@dataclass
class RBAAStatistics:
    """Per-analysis query counters (the raw data of Figure 14).

    Following the paper's accounting, ``answered_by_global`` counts only the
    queries resolved by *range disjointness on a shared location* (the global
    test proper); queries resolved because the two pointers reference
    provably distinct allocation sites are tallied separately in
    ``answered_by_distinct_objects`` ("comparing offsets from different
    locations" in Section 4).
    """

    queries: int = 0
    no_alias: int = 0
    answered_by_global: int = 0
    answered_by_local: int = 0
    answered_by_distinct_objects: int = 0

    def record(self, outcome: QueryOutcome) -> None:
        self.queries += 1
        if not outcome.no_alias:
            return
        self.no_alias += 1
        if outcome.reason is DisambiguationReason.GLOBAL_DISJOINT_RANGES:
            self.answered_by_global += 1
        elif outcome.reason is DisambiguationReason.GLOBAL_DISTINCT_OBJECTS:
            self.answered_by_distinct_objects += 1
        elif outcome.reason.is_local():
            self.answered_by_local += 1


class RBAAAliasAnalysis(AliasAnalysis):
    """The paper's analysis, usable wherever a baseline analysis is."""

    name = "rbaa"

    def __init__(self, module: Module, manager: Optional[AnalysisManager] = None,
                 options: Optional[RBAAOptions] = None):
        super().__init__(module)
        self.options = options or RBAAOptions()
        # The inputs are requested with explicit option objects even at
        # their defaults, so they are cache entries apart from a plain
        # ``get(keys.RANGES)``'s: a second copy of ranges, GR and LR that
        # keying the cache on option values would fold into one.
        manager = AnalysisManager.ensure(module, manager)
        self.ranges = manager.get(keys.RANGES, options=self.options.range_options)
        self.locations = manager.get(keys.LOCATIONS)
        self.global_analysis = manager.get(
            keys.GLOBAL_RANGES,
            options=self.options.global_options,
            range_options=self.options.range_options)
        self.local_analysis = manager.get(
            keys.LOCAL_RANGES, range_options=self.options.range_options)
        self.statistics = RBAAStatistics()

    def refresh_function(self, old_function, new_function, edit) -> None:
        """Function-granular incremental refresh (manager edit hook).

        The function-local inputs (ranges, locations, LR) and the
        interprocedural GR fixed point are the objects this analysis holds,
        and the manager refreshed each in place before this hook runs
        (dependencies-first), so only the pair memo is cleared: its keys are
        pointer identities, and the retired body's ids may be recycled,
        while surviving pairs may sit in the edit's interprocedural cone.
        The cumulative Figure-14 counters survive, so a memoized-then-
        recomputed query is still counted exactly once per ask.
        """
        self.pair_memo.clear()

    # -- introspection helpers ----------------------------------------------------
    def global_state(self, pointer) -> PointerAbstractValue:
        """``GR(pointer)`` — exposed for tests, examples and the census."""
        return self.global_analysis.value_of(pointer)

    def local_state(self, pointer) -> Optional[LocalAbstractValue]:
        """``LR(pointer)`` — exposed for tests and examples."""
        return self.local_analysis.value_of(pointer)

    # -- query API ------------------------------------------------------------------
    def query(self, a: MemoryAccess, b: MemoryAccess) -> QueryOutcome:
        """Run the global then the local test; record which one answered.

        Outcomes are memoized per ``(pointer, size)`` pair.  A memoized
        answer still goes through :meth:`RBAAStatistics.record`: the
        Figure-14 counters tally *queries answered*, so skipping the tests
        must not skip the accounting.
        """
        outcome = self.remembered(a, b, self._run_tests)
        self.statistics.record(outcome)
        return outcome

    def _run_tests(self, a: MemoryAccess, b: MemoryAccess) -> QueryOutcome:
        # Unknown sizes stay ``None``: the tests extend the offset interval
        # to +inf rather than pretending the access spans one byte.
        size_a = a.size
        size_b = b.size
        outcome = QueryOutcome.may_alias()
        if self.options.enable_global_test:
            outcome = global_test(
                self.global_state(a.pointer), self.global_state(b.pointer), size_a, size_b)
        if not outcome.no_alias and self.options.enable_local_test:
            outcome = local_test(
                self.local_state(a.pointer), self.local_state(b.pointer), size_a, size_b)
        return outcome

    def alias(self, a: MemoryAccess, b: MemoryAccess) -> AliasResult:
        if a.pointer is b.pointer:
            return AliasResult.MUST_ALIAS
        outcome = self.query(a, b)
        return AliasResult.NO_ALIAS if outcome.no_alias else AliasResult.MAY_ALIAS

    def no_alias_context(self, a: MemoryAccess, b: MemoryAccess) -> NoAliasClaim:
        """Validity scope of a no-alias verdict (soundness-oracle hook).

        Range-based claims are universally quantified over one valuation of
        the kernel symbols their intervals mention, and — for non-concrete
        base locations — over one dynamic instance of the location's
        defining site.  Both contexts are reported so the oracle compares
        the verdict against exactly the executions it speaks about.
        """
        outcome = self.remembered(a, b, self._run_tests)
        if not outcome.no_alias:
            return NoAliasClaim()
        if outcome.reason is DisambiguationReason.GLOBAL_DISJOINT_RANGES:
            symbols: set = set()
            anchors: set = set()
            anchored = True
            for access in (a, b):
                state = self.global_state(access.pointer)
                for location, interval in state.items():
                    symbols |= interval.symbols()
                    if not location.is_concrete_object():
                        if location.site is not None:
                            anchors.add(location.site)
                        else:
                            anchored = False
            return NoAliasClaim(scope="invocation" if anchored else "unchecked",
                                anchors=tuple(anchors), symbols=frozenset(symbols))
        if outcome.reason is DisambiguationReason.LOCAL_DISJOINT_RANGES:
            lr_a = self.local_state(a.pointer)
            lr_b = self.local_state(b.pointer)
            if lr_a is None or lr_b is None:  # pragma: no cover - defensive
                return NoAliasClaim(scope="unchecked")
            symbols = set(lr_a.interval.symbols()) | set(lr_b.interval.symbols())
            location = lr_a.location
            if location.is_concrete_object():
                return NoAliasClaim(symbols=frozenset(symbols))
            anchor_values: set = set()
            if location.site is not None:
                anchor_values.add(location.site)
            anchor_values |= set(
                self.local_analysis.location_anchors().get(location.index, frozenset()))
            if not anchor_values:
                return NoAliasClaim(scope="unchecked", symbols=frozenset(symbols))
            return NoAliasClaim(scope="same-base", anchors=tuple(anchor_values),
                                symbols=frozenset(symbols))
        # Distinct-objects reasoning: a plain invocation-set claim.
        return NoAliasClaim()
