"""The standard preparation pipeline run before the analyses.

Figure 5 of the paper shows the overall flow: the original program is
bootstrapped by the symbolic range analysis, then renamed (e-SSA / region
renaming) before the global and local pointer analyses run.  This module
bundles the IR-level part of that flow so callers (examples, benchmark
harness, tests) can go from a freshly lowered module to analysis-ready e-SSA
in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..ir.module import Module
from ..ir.verifier import verify_module
from .essa import build_essa
from .mem2reg import promote_allocas
from .region_rename import rename_region_pointers
from .simplify import simplify_module

__all__ = ["PipelineOptions", "PipelineResult", "prepare_module"]


@dataclass
class PipelineOptions:
    """Switches for the optional preparation stages (used by the ablation
    benchmarks).  mem2reg, simplify and the final verify always run."""

    build_essa: bool = True
    rename_region_pointers: bool = False


@dataclass
class PipelineResult:
    """What each pipeline stage did, for logging and tests."""

    promoted_allocas: int = 0
    simplified: int = 0
    sigmas_created: int = 0
    canonical_bases: int = 0
    stages_run: List[str] = field(default_factory=list)


def prepare_module(module: Module, options: PipelineOptions = None) -> PipelineResult:
    """Run the standard preparation pipeline on ``module`` in place."""
    options = options or PipelineOptions()
    result = PipelineResult()
    result.promoted_allocas = promote_allocas(module)
    result.stages_run.append("mem2reg")
    result.simplified = simplify_module(module)
    result.stages_run.append("simplify")
    if options.build_essa:
        result.sigmas_created = build_essa(module)
        result.stages_run.append("essa")
    if options.rename_region_pointers:
        result.canonical_bases = rename_region_pointers(module)
        result.stages_run.append("region-rename")
    verify_module(module)
    result.stages_run.append("verify")
    return result
