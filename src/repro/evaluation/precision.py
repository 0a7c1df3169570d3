"""Reproduction of the precision experiment (Figures 13 and 14).

For every program of the synthetic evaluation suite the experiment runs the
three analyses the paper compares — ``scev``, ``basic`` and ``rbaa`` — plus
the chained ``rbaa + basic`` combination, over all intraprocedural pointer
pairs, and reports:

* Figure 13: the percentage of queries each analysis answers "no alias";
* Figure 14: how many of rbaa's no-alias answers came from the global test.

Run with ``python -m repro.evaluation bench`` (which also runs Figure 15).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional, Sequence, Tuple

from ..aliases import CombinedAliasAnalysis
from ..benchgen import build_program, select_programs
from ..engine import keys
from ..engine.manager import AnalysisManager
from ..ir.module import Module
from .harness import (AnalysisFactory, ProgramResult, frontend_fingerprint,
                      run_queries, shipped)
from .parallel import run_sharded
from .reporting import format_table

__all__ = ["PrecisionReport", "standard_factories", "run_precision_experiment",
           "figure13_rows", "figure14_rows", "format_figure13", "format_figure14"]

#: Column order of Figure 13.
ANALYSIS_COLUMNS = ("scev", "basic", "rbaa", "r+b")


def _combined(module: Module, manager: AnalysisManager) -> CombinedAliasAnalysis:
    return CombinedAliasAnalysis(
        module, [manager.get(keys.RBAA), manager.get(keys.BASIC)], name="r+b")


def standard_factories() -> List[Tuple[str, AnalysisFactory]]:
    """The four analysis configurations of Figure 13.

    Every analysis comes from the harness' shared :class:`AnalysisManager`,
    so the standalone ``rbaa`` and ``basic`` are the ones inside the chained
    combination, and the module pays for one range bootstrap and one GR/LR
    fixed point.
    """
    return [("scev", shipped(keys.SCEV)), ("basic", shipped(keys.BASIC)),
            ("rbaa", shipped(keys.RBAA)), ("r+b", _combined)]


@dataclass
class PrecisionReport:
    """All per-program results plus aggregate totals."""

    results: List[ProgramResult] = field(default_factory=list)

    def totals(self) -> ProgramResult:
        total = ProgramResult(program="Total")
        for result in self.results:
            total.queries += result.queries
            for name, count in result.no_alias.items():
                total.no_alias[name] = total.no_alias.get(name, 0) + count
            for name, extra in result.extra.items():
                bucket = total.extra.setdefault(name, {})
                for key, value in extra.items():
                    bucket[key] = bucket.get(key, 0) + value
        return total

    def improvement_over_basic(self) -> float:
        """The headline ratio: rbaa no-alias answers / basic no-alias answers."""
        total = self.totals()
        basic = total.no_alias.get("basic", 0)
        rbaa = total.no_alias.get("rbaa", 0)
        return rbaa / basic if basic else float("inf")

    def global_test_fraction(self) -> float:
        """Fraction of rbaa's no-alias answers produced by the global test."""
        total = self.totals()
        rbaa_no_alias = total.no_alias.get("rbaa", 0)
        global_hits = total.extra.get("rbaa", {}).get("answered_by_global", 0)
        return global_hits / rbaa_no_alias if rbaa_no_alias else 0.0


def _precision_program(name: str, max_pairs_per_function: Optional[int]) -> ProgramResult:
    """The Figure 13/14 queries over one suite program (one work unit)."""
    program = build_program(name)
    result = run_queries(name, program.module, standard_factories(), max_pairs_per_function)
    result.frontend = frontend_fingerprint(program.scan, program.module)
    return result


def run_precision_experiment(program_names: Optional[Sequence[str]] = None,
                             max_programs: Optional[int] = None,
                             max_pairs_per_function: Optional[int] = None,
                             jobs: int = 1) -> PrecisionReport:
    """Build the synthetic suite and run the Figure 13/14 experiment.

    The programs are sharded over ``jobs`` worker processes; the report
    lists them in corpus order with the same counts for any ``jobs`` (only
    wall times differ).
    """
    names = [program.name for program in select_programs(program_names, max_programs)]
    worker = partial(_precision_program, max_pairs_per_function=max_pairs_per_function)
    return PrecisionReport(results=run_sharded(worker, names, jobs))


def figure13_rows(report: PrecisionReport) -> List[List[object]]:
    """Rows of the Figure 13 table: program, #queries, %scev, %basic, %rbaa, %r+b."""
    rows: List[List[object]] = []
    for result in report.results + [report.totals()]:
        rows.append([
            result.program,
            result.queries,
            f"{result.percentage('scev'):.2f}",
            f"{result.percentage('basic'):.2f}",
            f"{result.percentage('rbaa'):.2f}",
            f"{result.percentage('r+b'):.2f}",
        ])
    return rows


def figure14_rows(report: PrecisionReport) -> List[List[object]]:
    """Rows of the Figure 14 table: program, noalias count, global-test count."""
    rows: List[List[object]] = []
    for result in report.results + [report.totals()]:
        rbaa_extra = result.extra.get("rbaa", {})
        rows.append([
            result.program,
            result.no_alias.get("rbaa", 0),
            rbaa_extra.get("answered_by_global", 0),
        ])
    return rows


def format_figure13(report: PrecisionReport) -> str:
    return format_table(
        ["Program", "#Queries", "%scev", "%basic", "%rbaa", "%(r+b)"],
        figure13_rows(report),
        title="Figure 13 — no-alias percentage per analysis",
    )


def format_figure14(report: PrecisionReport) -> str:
    return format_table(
        ["Program", "noalias", "global"],
        figure14_rows(report),
        title="Figure 14 — queries solved by the global test",
    )
