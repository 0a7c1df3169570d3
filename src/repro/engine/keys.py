"""Standard :class:`~repro.engine.manager.AnalysisKey` definitions.

One key per analysis the repository ships.  Imports of the analysis modules
happen inside the factories so that this module stays import-cycle-free (the
analyses themselves import the engine for the sparse solver).

Analyses that layer on others request their inputs through the manager —
``GLOBAL_RANGES`` asks for ``RANGES``, ``LOCATIONS`` and ``CALLGRAPH`` — so
any two consumers of the same module share one bootstrap range analysis, one
location table, one call graph and one GR/LR fixed point.
"""

from __future__ import annotations

from .manager import AnalysisKey

__all__ = ["RANGES", "LOCATIONS", "CALLGRAPH", "GLOBAL_RANGES", "LOCAL_RANGES",
           "ANDERSEN", "STEENSGAARD", "BASIC", "SCEV", "RBAA",
           "BOUNDS", "PARALLEL"]


def _build_ranges(module, manager, options=None):
    from ..rangeanalysis.symbolic_ra import SymbolicRangeAnalysis
    return SymbolicRangeAnalysis(module, options)


def _build_locations(module, manager):
    from ..core.locations import LocationTable
    return LocationTable(module)


def _build_callgraph(module, manager):
    from ..analysis.callgraph import CallGraph
    return CallGraph(module)


def _build_global_ranges(module, manager, options=None, range_options=None):
    from ..core.global_analysis import GlobalRangeAnalysis
    return GlobalRangeAnalysis(
        module,
        ranges=manager.get(RANGES, options=range_options),
        locations=manager.get(LOCATIONS),
        options=options,
        callgraph=manager.get(CALLGRAPH),
    )


def _build_local_ranges(module, manager, range_options=None):
    from ..core.local_analysis import LocalRangeAnalysis
    return LocalRangeAnalysis(
        module,
        ranges=manager.get(RANGES, options=range_options),
        locations=manager.get(LOCATIONS),
    )


def _build_andersen(module, manager):
    from ..aliases.andersen import AndersenAliasAnalysis
    return AndersenAliasAnalysis(module, callgraph=manager.get(CALLGRAPH))


def _build_steensgaard(module, manager):
    from ..aliases.steensgaard import SteensgaardAliasAnalysis
    return SteensgaardAliasAnalysis(module, callgraph=manager.get(CALLGRAPH))


def _build_basic(module, manager):
    from ..aliases.basic import BasicAliasAnalysis
    return BasicAliasAnalysis(module)


def _build_scev(module, manager):
    from ..aliases.scev_aa import SCEVAliasAnalysis
    return SCEVAliasAnalysis(module)


def _build_rbaa(module, manager, options=None):
    from ..core.rbaa import RBAAAliasAnalysis
    return RBAAAliasAnalysis(module, options, manager=manager)


def _build_bounds(module, manager):
    from ..clients.bounds import BoundsCheckAnalysis
    return BoundsCheckAnalysis(module, manager=manager)


def _build_parallel(module, manager):
    from ..clients.parallelize import LoopParallelismAnalysis
    return LoopParallelismAnalysis(module, manager=manager)


#: The symbolic integer range bootstrap (Blume–Eigenmann style).  The
#: analysis is function-local (interprocedural flows become kernel symbols),
#: so a function edit re-runs only the edited function's nodes.
RANGES = AnalysisKey("symbolic-ranges", _build_ranges)
#: The module's abstract memory locations (``Loc``); allocation sites of an
#: edited function are re-registered in place.
LOCATIONS = AnalysisKey("locations", _build_locations)
#: The direct-call graph: every call-site fact GR, Andersen and Steensgaard
#: read.  It runs no solver; an edit rebuilds it in place before them.
CALLGRAPH = AnalysisKey("callgraph", _build_callgraph)
#: The global symbolic pointer range analysis (GR, Figure 9): the one
#: interprocedural fixed point an edit re-seeds, from the edit's cone.
GLOBAL_RANGES = AnalysisKey("global-ranges", _build_global_ranges)
#: The local symbolic pointer range analysis (LR, Figure 11): one-sweep and
#: per-function, so edits refresh it in place.
LOCAL_RANGES = AnalysisKey("local-ranges", _build_local_ranges)
#: Inclusion-based points-to baseline (whole-module constraint graph); an
#: edit rebuilds it in place with a cold solve.
ANDERSEN = AnalysisKey("andersen", _build_andersen)
#: Unification-based points-to baseline (whole-module constraint drain); an
#: edit rebuilds it in place with a cold solve.
STEENSGAARD = AnalysisKey("steensgaard", _build_steensgaard)
#: The basicaa-style heuristic baseline (stateless; per-function caches).
BASIC = AnalysisKey("basic", _build_basic)
#: The scalar-evolution baseline (lazy per-function engines).
SCEV = AnalysisKey("scev", _build_scev)
#: The paper's complete range-based alias analysis.
RBAA = AnalysisKey("rbaa", _build_rbaa)
#: Out-of-bounds client: per-access safe/maybe-oob/definitely-oob verdicts
#: (per-function report cache, refreshed in place on edits).
BOUNDS = AnalysisKey("check-bounds", _build_bounds)
#: Loop-parallelization client: cross-iteration disjointness per natural loop.
PARALLEL = AnalysisKey("parallel-loops", _build_parallel)
