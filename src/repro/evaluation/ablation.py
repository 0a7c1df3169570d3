"""Ablation study over the design choices DESIGN.md calls out.

The paper motivates several design decisions without measuring them in
isolation; this experiment quantifies each one on the synthetic suite:

* **global-only vs. local-only vs. both** — how much each test contributes
  (Section 2 argues they are complementary);
* **no descending sequence** — the value of the narrowing steps after
  widening (Section 3.4);
* **intraprocedural only** — the value of binding actuals to formals
  (Section 3.1);
* **no e-SSA** — the value of live-range splitting at conditionals
  (Section 3.8's sparsity argument; without σ nodes the ranges of loop
  pointers never tighten).

Run with ``python -m repro.evaluation ablation``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..benchgen import build_program, select_programs
from ..core import GlobalAnalysisOptions, RBAAAliasAnalysis, RBAAOptions
from ..engine import keys
from ..engine.manager import AnalysisManager
from ..frontend import compile_source
from ..ir.module import Module
from ..transforms import PipelineOptions
from .harness import run_queries
from .parallel import run_sharded
from .reporting import format_table

__all__ = ["AblationVariant", "ABLATION_VARIANTS", "run_ablation", "format_ablation"]


@dataclass(frozen=True)
class AblationVariant:
    """One configuration compared by the ablation study."""

    name: str
    description: str
    #: The RBAA configuration; ``None`` is the default one.
    options: Optional[RBAAOptions] = None
    #: When set, the suite programs are recompiled with these pipeline
    #: options before the analysis runs (used for the "no e-SSA" variant).
    pipeline: Optional[PipelineOptions] = None

    def factory(self, module: Module, manager: AnalysisManager) -> RBAAAliasAnalysis:
        """This variant's RBAA, from the manager the variants share."""
        return manager.get(keys.RBAA, options=self.options)


ABLATION_VARIANTS: List[AblationVariant] = [
    AblationVariant("full", "global + local tests, widening + narrowing"),
    AblationVariant("global-only", "disable the local test",
                    RBAAOptions(enable_local_test=False)),
    AblationVariant("local-only", "disable the global test",
                    RBAAOptions(enable_global_test=False)),
    AblationVariant("no-narrowing", "skip the descending sequence",
                    RBAAOptions(global_options=GlobalAnalysisOptions(descending_passes=0))),
    AblationVariant("intraproc", "no actual-to-formal binding",
                    RBAAOptions(global_options=GlobalAnalysisOptions(interprocedural=False))),
    AblationVariant("no-essa", "skip σ insertion (no live-range splitting)",
                    pipeline=PipelineOptions(build_essa=False)),
]


def _ablation_program(name: str, max_pairs_per_function: Optional[int]
                      ) -> Dict[str, Tuple[int, int]]:
    """All ablation variants over one suite program (one work unit).

    Every non-recompiling variant shares one :class:`AnalysisManager` (one
    range bootstrap and location table) for the module: the variants differ
    only in test selection and GR options.
    """
    program = build_program(name)
    shared_manager = AnalysisManager(program.module)
    per_variant: Dict[str, Tuple[int, int]] = {}
    for variant in ABLATION_VARIANTS:
        module = program.module
        manager = shared_manager
        if variant.pipeline is not None:
            module = compile_source(program.source, name,
                                    pipeline_options=variant.pipeline)
            manager = AnalysisManager(module)
        result = run_queries(name, module, [("rbaa", variant.factory)],
                             max_pairs_per_function, manager=manager)
        per_variant[variant.name] = (result.queries, result.no_alias.get("rbaa", 0))
    return per_variant


def run_ablation(program_names: Optional[Sequence[str]] = None,
                 max_programs: Optional[int] = 6,
                 max_pairs_per_function: Optional[int] = 2000,
                 jobs: int = 1) -> Dict[str, Tuple[int, int]]:
    """Run every variant over (a slice of) the suite.

    Returns ``{variant name: (queries, no-alias answers)}``.  The programs
    are sharded over ``jobs`` worker processes; the totals do not depend on
    ``jobs`` because every (variant, program) cell is computed independently
    and summed in corpus order.
    """
    names = [program.name for program in select_programs(program_names, max_programs)]
    worker = partial(_ablation_program, max_pairs_per_function=max_pairs_per_function)
    per_program = run_sharded(worker, names, jobs)
    return {variant.name: (sum(cells[variant.name][0] for cells in per_program),
                           sum(cells[variant.name][1] for cells in per_program))
            for variant in ABLATION_VARIANTS}


def format_ablation(totals: Dict[str, Tuple[int, int]]) -> str:
    rows = []
    for variant in ABLATION_VARIANTS:
        if variant.name not in totals:
            continue
        queries, no_alias = totals[variant.name]
        percentage = 100.0 * no_alias / queries if queries else 0.0
        rows.append([variant.name, variant.description, queries, no_alias,
                     f"{percentage:.2f}"])
    return format_table(["Variant", "Description", "#Queries", "noalias", "%"],
                        rows, title="Ablation — contribution of each design choice")
