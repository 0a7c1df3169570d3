"""Construction, caching and invalidation of per-module analyses.

Every consumer used to build its own :class:`SymbolicRangeAnalysis`,
:class:`LocationTable` and friends, so comparing four alias analyses over one
module ran the (by far most expensive) range bootstrap four times.  The
manager memoizes analyses behind typed :class:`AnalysisKey`\\ s:

    manager = AnalysisManager(module)
    ranges = manager.get(keys.RANGES)          # built once
    ranges = manager.get(keys.RANGES)          # cache hit

Requesting them from a manager is the only way an analysis gets its
inputs: a composite analysis takes ``(module, manager=None, <its own
options>)`` and calls :meth:`AnalysisManager.get` for each input, and
``None`` means a private manager (:meth:`AnalysisManager.ensure`).  A key's
factory hands the analysis the manager that is building it, so the manager
records those nested requests as dependency edges and refreshes cached
analyses dependencies-first when a function is edited
(:meth:`AnalysisManager.apply_function_edit`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Set, Tuple


__all__ = ["AnalysisKey", "AnalysisManager", "ManagerStatistics", "EditImpact"]


@dataclass(frozen=True)
class AnalysisKey:
    """Typed handle for one kind of analysis.

    ``factory(module, manager, **params)`` builds the analysis; ``params``
    must be keyword arguments whose ``repr`` is deterministic — they become
    part of the cache key, so two requests with equal parameters share one
    instance.
    """

    name: str
    factory: Callable[..., Any]

    def __repr__(self) -> str:
        return f"AnalysisKey({self.name!r})"


@dataclass
class ManagerStatistics:
    """Cache behaviour counters (asserted by the engine tests).

    The counters are deterministic for a given module and request sequence —
    no wall time, no memory addresses — so the sharded evaluation runner
    ships them across process boundaries and merges them into the benchmark
    record as hardware-independent cost signals.
    """

    hits: int = 0
    misses: int = 0
    builds: int = 0
    invalidations: int = 0
    refreshes: int = 0

    def as_dict(self) -> Dict[str, int]:
        """A plain-dict snapshot (picklable, JSON-ready, stable key order)."""
        return {"hits": self.hits, "misses": self.misses,
                "builds": self.builds, "invalidations": self.invalidations,
                "refreshes": self.refreshes}

    def merge(self, other: "ManagerStatistics") -> None:
        """Accumulate another manager's counters (shard-merge aggregation)."""
        self.hits += other.hits
        self.misses += other.misses
        self.builds += other.builds
        self.invalidations += other.invalidations
        self.refreshes += other.refreshes


class CyclicAnalysisError(RuntimeError):
    """Two analyses requested each other while being built."""


_CacheKey = Tuple[AnalysisKey, Hashable]


@dataclass
class EditImpact:
    """What one function edit did to a manager's cache.

    ``reseeded`` and ``retained`` record, per re-seeded analysis (GR is
    the one), how many nodes the edit re-seeded and how much prior state
    survived it — the per-edit incremental telemetry the service's
    ``stats`` op surfaces (pure counts: deterministic, and untouched by
    ``strip_volatile``).
    """

    function: str
    refreshed: List[str] = field(default_factory=list)
    evicted: List[str] = field(default_factory=list)
    reseeded: Dict[str, int] = field(default_factory=dict)
    retained: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {"function": self.function,
                "refreshed": sorted(self.refreshed),
                "evicted": sorted(self.evicted),
                "reseeded": dict(sorted(self.reseeded.items())),
                "retained": dict(sorted(self.retained.items()))}


class AnalysisManager:
    """Builds, caches and invalidates analyses for one module.

    Managers are cheap to construct and must never cross process boundaries:
    cached analyses hold live IR object graphs, so the parallel evaluation
    runner has each worker construct its own manager per module and ships
    only plain-data results (and :class:`ManagerStatistics` snapshots) back.
    """

    def __init__(self, module):
        self.module = module
        self.statistics = ManagerStatistics()
        self._cache: Dict[_CacheKey, Any] = {}
        #: cache key -> keys that were requested while building it.
        self._dependencies: Dict[_CacheKey, Set[_CacheKey]] = {}
        self._build_stack: List[_CacheKey] = []

    @classmethod
    def ensure(cls, module, manager: Optional["AnalysisManager"]
               ) -> "AnalysisManager":
        """``manager``, or a private manager for ``module`` when it is
        ``None`` (an empty manager is falsy, so ``or`` would not do)."""
        return manager if manager is not None else cls(module)

    # -- cache keys -----------------------------------------------------------
    @staticmethod
    def _cache_key(key: AnalysisKey, params: Dict[str, Any]) -> _CacheKey:
        # ``None`` means "the factory default", so ``get(KEY)`` and
        # ``get(KEY, options=None)`` must share one cache entry.
        filtered = {name: value for name, value in params.items() if value is not None}
        if not filtered:
            return (key, ())
        return (key, tuple(sorted((name, repr(value)) for name, value in filtered.items())))

    # -- retrieval ------------------------------------------------------------
    def get(self, key: AnalysisKey, **params) -> Any:
        """The analysis for ``key`` (and ``params``), building it on a miss."""
        cache_key = self._cache_key(key, params)
        self._record_edge(cache_key)
        if cache_key in self._cache:
            self.statistics.hits += 1
            return self._cache[cache_key]
        if cache_key in self._build_stack:
            cycle = " -> ".join(entry[0].name for entry in self._build_stack)
            raise CyclicAnalysisError(
                f"analysis dependency cycle: {cycle} -> {key.name}")
        self.statistics.misses += 1
        self._build_stack.append(cache_key)
        try:
            value = key.factory(self.module, self, **params)
        finally:
            self._build_stack.pop()
        self.statistics.builds += 1
        self._cache[cache_key] = value
        return value

    def cached(self, key: AnalysisKey, **params) -> Optional[Any]:
        """The cached analysis, or ``None`` without building anything."""
        return self._cache.get(self._cache_key(key, params))

    def cached_values(self) -> List[Any]:
        """Every live cached analysis, in deterministic key order (the
        analysis service aggregates solver-step totals over these)."""
        ordered = sorted(self._cache, key=lambda entry: (entry[0].name,
                                                         repr(entry[1])))
        return [self._cache[cache_key] for cache_key in ordered]

    def cached_items(self) -> List[Tuple[str, Any]]:
        """``(key name, analysis)`` pairs for every live cached entry, in the
        same deterministic order as :meth:`cached_values` (the analysis
        service attributes per-analysis solver-step totals over these)."""
        ordered = sorted(self._cache, key=lambda entry: (entry[0].name,
                                                         repr(entry[1])))
        return [(cache_key[0].name, self._cache[cache_key])
                for cache_key in ordered]

    def _record_edge(self, cache_key: _CacheKey) -> None:
        if not self._build_stack:
            return
        requester = self._build_stack[-1]
        self._dependencies.setdefault(requester, set()).add(cache_key)

    def _evict_entries(self, doomed: Set[_CacheKey]) -> None:
        """Drop the ``doomed`` entries and their dependency edges."""
        for cache_key in doomed:
            self._cache.pop(cache_key, None)
            self._dependencies.pop(cache_key, None)
        for dependencies in self._dependencies.values():
            dependencies.difference_update(doomed)

    # -- function-granular edits ------------------------------------------------
    def apply_function_edit(self, old_function, new_function) -> EditImpact:
        """React to one function edit (``Module.replace_function``).

        Every cached value that implements ``refresh_function(old, new,
        edit)`` is *refreshed in place*; every other entry is evicted and
        rebuilt lazily.  ``edit`` is this :class:`EditImpact`.  A
        function-local analysis ignores it: its hook purges the old
        function's state and re-runs only the new function's nodes.  GR is
        the one fixed point an edit re-seeds: it maps the edit to the nodes
        it can influence and restarts change-driven propagation against the
        retained fixed point (``SparseSolver.resolve_from``), so the edit
        pays for its cone rather than the module, and returns its telemetry
        (``reseeded``/``retained`` counts), recorded on the impact.
        Andersen and Steensgaard rebuild in place with a cold solve over
        the refreshed call graph.

        Refreshes run dependencies-first (the recorded edge order), so a
        hook that holds its inputs (RBAA holds GR) finds them already
        refreshed and only clears its own memos.  The clients have no hook:
        their reports may depend on any function, so they are evicted and
        rebuilt from the refreshed inputs on the next request.
        """
        refresh: List[_CacheKey] = []
        doomed: Set[_CacheKey] = set()
        for cache_key, value in self._cache.items():
            if hasattr(value, "refresh_function"):
                refresh.append(cache_key)
            else:
                doomed.add(cache_key)
        impact = EditImpact(function=new_function.name)
        impact.evicted = sorted({cache_key[0].name for cache_key in doomed})
        self._evict_entries(doomed)
        self.statistics.invalidations += len(doomed)

        for cache_key in self._refresh_order(refresh):
            telemetry = self._cache[cache_key].refresh_function(
                old_function, new_function, impact)
            self.statistics.refreshes += 1
            impact.refreshed.append(cache_key[0].name)
            if isinstance(telemetry, dict):
                name = cache_key[0].name
                if "reseeded" in telemetry:
                    impact.reseeded[name] = int(telemetry["reseeded"])
                if "retained" in telemetry:
                    impact.retained[name] = int(telemetry["retained"])
        return impact

    def _refresh_order(self, entries: List[_CacheKey]) -> List[_CacheKey]:
        """``entries`` sorted dependencies-first along the recorded edges."""
        pending = set(entries)
        ordered: List[_CacheKey] = []
        visiting: Set[_CacheKey] = set()

        def visit(cache_key: _CacheKey) -> None:
            if cache_key not in pending or cache_key in visiting:
                return
            visiting.add(cache_key)
            for dependency in sorted(self._dependencies.get(cache_key, ()),
                                     key=lambda entry: entry[0].name):
                visit(dependency)
            visiting.discard(cache_key)
            pending.discard(cache_key)
            ordered.append(cache_key)

        for cache_key in sorted(entries, key=lambda entry: entry[0].name):
            visit(cache_key)
        return ordered

    def __len__(self) -> int:
        return len(self._cache)
