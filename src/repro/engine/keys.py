"""Standard :class:`~repro.engine.manager.AnalysisKey` definitions.

One key per analysis the repository ships, each stated once beside the
class that builds it.  The classes are imported on first build so that this
module stays import-cycle-free (the analyses import it, and the engine, to
request their inputs).

An analysis that layers on others takes ``(module, manager=None, <its own
options>)`` and requests every input with :meth:`AnalysisManager.get` —
``GLOBAL_RANGES`` asks for ``RANGES``, ``LOCATIONS`` and ``CALLGRAPH`` — so
any two consumers of the same module share one bootstrap range analysis,
one location table, one call graph and one GR/LR fixed point.  A key whose
class reads no other analysis builds it from the module and its options
alone.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable

from .manager import AnalysisKey

__all__ = ["RANGES", "LOCATIONS", "CALLGRAPH", "GLOBAL_RANGES", "LOCAL_RANGES",
           "ANDERSEN", "STEENSGAARD", "BASIC", "SCEV", "RBAA",
           "BOUNDS", "PARALLEL"]


def _built_by(path: str, wired: bool = True) -> Callable[..., Any]:
    """The factory of the class at ``path`` (``package.module:Class``,
    relative to ``repro``).  A ``wired`` class takes the manager and
    requests its inputs from it."""
    module_name, _, class_name = path.partition(":")

    def factory(module, manager, **params):
        cls = getattr(import_module(f"..{module_name}", __package__), class_name)
        if wired:
            return cls(module, manager, **params)
        return cls(module, **params)
    return factory


#: The symbolic integer range bootstrap (Blume–Eigenmann style).  The
#: analysis is function-local (interprocedural flows become kernel symbols),
#: so a function edit re-runs only the edited function's nodes.
RANGES = AnalysisKey("symbolic-ranges", _built_by(
    "rangeanalysis.symbolic_ra:SymbolicRangeAnalysis", wired=False))
#: The module's abstract memory locations (``Loc``); allocation sites of an
#: edited function are re-registered in place.
LOCATIONS = AnalysisKey("locations", _built_by(
    "core.locations:LocationTable", wired=False))
#: The direct-call graph: every call-site fact GR, Andersen and Steensgaard
#: read.  It runs no solver; an edit rebuilds it in place before them.
CALLGRAPH = AnalysisKey("callgraph", _built_by(
    "analysis.callgraph:CallGraph", wired=False))
#: The global symbolic pointer range analysis (GR, Figure 9): the one
#: interprocedural fixed point an edit re-seeds, from the edit's cone.
GLOBAL_RANGES = AnalysisKey("global-ranges", _built_by(
    "core.global_analysis:GlobalRangeAnalysis"))
#: The local symbolic pointer range analysis (LR, Figure 11): one-sweep and
#: per-function, so edits refresh it in place.
LOCAL_RANGES = AnalysisKey("local-ranges", _built_by(
    "core.local_analysis:LocalRangeAnalysis"))
#: Inclusion-based points-to baseline (whole-module constraint graph); an
#: edit rebuilds it in place with a cold solve.
ANDERSEN = AnalysisKey("andersen", _built_by("aliases.andersen:AndersenAliasAnalysis"))
#: Unification-based points-to baseline (whole-module constraint drain); an
#: edit rebuilds it in place with a cold solve.
STEENSGAARD = AnalysisKey("steensgaard", _built_by(
    "aliases.steensgaard:SteensgaardAliasAnalysis"))
#: The basicaa-style heuristic baseline (stateless; per-function caches).
BASIC = AnalysisKey("basic", _built_by("aliases.basic:BasicAliasAnalysis", wired=False))
#: The scalar-evolution baseline (lazy per-function engines).
SCEV = AnalysisKey("scev", _built_by("aliases.scev_aa:SCEVAliasAnalysis", wired=False))
#: The paper's complete range-based alias analysis.
RBAA = AnalysisKey("rbaa", _built_by("core.rbaa:RBAAAliasAnalysis"))
#: Out-of-bounds client: per-access safe/maybe-oob/definitely-oob verdicts.
#: It has no edit hook, so an edit evicts it and the next request rebuilds
#: it from the refreshed (cached) inputs.
BOUNDS = AnalysisKey("check-bounds", _built_by("clients.bounds:BoundsCheckAnalysis"))
#: Loop-parallelization client: cross-iteration disjointness per natural
#: loop; evicted by an edit like ``BOUNDS``.
PARALLEL = AnalysisKey("parallel-loops", _built_by(
    "clients.parallelize:LoopParallelismAnalysis"))
