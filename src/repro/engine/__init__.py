"""The shared analysis engine: sparse fixpoint solving + analysis caching.

* :mod:`repro.engine.solver` — the SCC-ordered sparse worklist fixpoint
  solver every iterative analysis in the repository runs on;
* :mod:`repro.engine.manager` — the :class:`AnalysisManager`, which builds,
  caches and invalidates per-module analyses behind typed keys;
* :mod:`repro.engine.keys` — the standard keys for the repository's
  analyses (``keys.RANGES``, ``keys.GLOBAL_RANGES``, ``keys.RBAA``, …).
"""

from . import keys
from .manager import (
    AnalysisKey,
    AnalysisManager,
    EditImpact,
    ManagerStatistics,
)
from .solver import SolverStatistics, SparseProblem, SparseSolver, condense_sccs

__all__ = [
    "keys",
    "AnalysisKey",
    "AnalysisManager",
    "EditImpact",
    "ManagerStatistics",
    "SolverStatistics",
    "SparseProblem",
    "SparseSolver",
    "condense_sccs",
]
