"""The symbolic-range census (Section 5's 20.47% statistic).

The paper argues for symbolic (rather than integer) intervals by counting
how many pointers end up with ranges that classic numeric range analysis
could not express: "we found out that 20.47% of the pointers in our three
benchmark suites have exclusively symbolic ranges."

This experiment reruns the GR analysis over the synthetic suite and
classifies every pointer whose abstract state is non-trivial as *numeric*
(all interval bounds are integer constants) or *symbolic* (at least one
bound mentions a kernel symbol).

Run with ``python -m repro.evaluation census``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..benchgen import build_program, select_programs
from ..engine import keys
from ..engine.manager import AnalysisManager
from ..ir.module import Module
from .parallel import run_sharded
from .reporting import format_table

__all__ = ["CensusResult", "census_for_module", "run_census", "format_census"]


@dataclass
class CensusResult:
    """Counts of pointer classifications for one program (or the total)."""

    program: str
    pointers: int = 0
    numeric_only: int = 0
    symbolic: int = 0
    untracked: int = 0  # bottom or top abstract states

    def symbolic_percentage(self) -> float:
        tracked = self.numeric_only + self.symbolic
        return 100.0 * self.symbolic / tracked if tracked else 0.0

    def merged_with(self, other: "CensusResult") -> "CensusResult":
        return CensusResult(
            program=self.program,
            pointers=self.pointers + other.pointers,
            numeric_only=self.numeric_only + other.numeric_only,
            symbolic=self.symbolic + other.symbolic,
            untracked=self.untracked + other.untracked,
        )


def census_for_module(program: str, module: Module) -> CensusResult:
    """Classify every pointer of ``module`` by the nature of its GR ranges."""
    analysis = AnalysisManager(module).get(keys.GLOBAL_RANGES)
    result = CensusResult(program=program)
    for function in module.defined_functions():
        for pointer in function.pointer_values():
            result.pointers += 1
            state = analysis.value_of(pointer)
            if state.is_top or state.is_bottom:
                result.untracked += 1
            elif state.has_symbolic_range():
                result.symbolic += 1
            else:
                result.numeric_only += 1
    return result


def _census_program(name: str) -> CensusResult:
    return census_for_module(name, build_program(name).module)


def run_census(program_names: Optional[Sequence[str]] = None,
               max_programs: Optional[int] = None,
               jobs: int = 1) -> List[CensusResult]:
    """Run the census over the synthetic evaluation suite, sharded over ``jobs``."""
    names = [program.name for program in select_programs(program_names, max_programs)]
    return run_sharded(_census_program, names, jobs)


def total_census(results: Sequence[CensusResult]) -> CensusResult:
    total = CensusResult(program="Total")
    for result in results:
        total = total.merged_with(result)
    return total


def format_census(results: Sequence[CensusResult]) -> str:
    rows = []
    for result in list(results) + [total_census(results)]:
        rows.append([result.program, result.pointers, result.numeric_only,
                     result.symbolic, result.untracked,
                     f"{result.symbolic_percentage():.2f}"])
    table = format_table(
        ["Program", "#Pointers", "numeric", "symbolic", "untracked", "%symbolic"],
        rows, title="Symbolic-range census (paper: 20.47% exclusively symbolic)")
    return table
