"""Reproduction of the scalability experiment (Figure 15).

The paper runs the analysis over the 50 largest programs of the LLVM test
suite (~800k IR instructions, ~242k pointers in total) and shows that
analysis time grows linearly with program size (linear correlation ≈ 0.98
against both instruction and pointer counts).

Here the programs are produced by the synthetic generator at 50 increasing
sizes; for each one the experiment times exactly what the paper times — the
mapping of pointers to ``SymbRanges`` values (the GR + LR fixed points),
excluding query time and excluding the bootstrap integer range analysis —
and reports the same correlation coefficients.  Each point is built
:data:`BUILDS_PER_POINT` times and keeps the fastest build's time, so one
build stalled by another process does not skew the fit.  Alongside wall
time the experiment reports the sparse solver's fixpoint step counts
(scheduled evaluations), a hardware-independent cost measure.

Run with ``python -m repro.evaluation bench`` (which also runs Figures 13/14).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from ..benchgen import GeneratorConfig, generate_module
from ..engine import AnalysisManager, keys
from .parallel import run_sharded
from .reporting import format_table

__all__ = ["ScalabilityPoint", "ScalabilityReport", "scalability_configs",
           "measure_point", "run_scalability_experiment",
           "pearson_correlation", "format_figure15"]

#: GR + LR builds timed per point, each on a fresh manager; the point keeps
#: the fastest.
BUILDS_PER_POINT = 3


@dataclass(frozen=True)
class ScalabilityPoint:
    """One program of the scalability sweep."""

    name: str
    instructions: int
    pointers: int
    analysis_seconds: float
    #: Transfer-function applications of the GR + LR sparse solves.
    solver_steps: int = 0


@dataclass
class ScalabilityReport:
    """All measured points plus the derived statistics of Figure 15."""

    points: List[ScalabilityPoint] = field(default_factory=list)

    def total_instructions(self) -> int:
        return sum(point.instructions for point in self.points)

    def total_pointers(self) -> int:
        return sum(point.pointers for point in self.points)

    def total_seconds(self) -> float:
        return sum(point.analysis_seconds for point in self.points)

    def correlation_time_vs_instructions(self) -> float:
        return pearson_correlation(
            [point.instructions for point in self.points],
            [point.analysis_seconds for point in self.points])

    def correlation_time_vs_pointers(self) -> float:
        return pearson_correlation(
            [point.pointers for point in self.points],
            [point.analysis_seconds for point in self.points])

    def correlation_steps_vs_instructions(self) -> float:
        """Linear correlation of solver steps against program size — the
        deterministic counterpart of the paper's wall-time R: identical on
        every machine and immune to load jitter, so CI can gate on it."""
        return pearson_correlation(
            [point.instructions for point in self.points],
            [point.solver_steps for point in self.points])

    def instructions_per_second(self) -> float:
        seconds = self.total_seconds()
        return self.total_instructions() / seconds if seconds else float("inf")

    def total_solver_steps(self) -> int:
        return sum(point.solver_steps for point in self.points)

    def steps_per_instruction(self) -> float:
        """Fixpoint steps per IR instruction — the sparseness headline: the
        solver should touch each value a small constant number of times."""
        instructions = self.total_instructions()
        return self.total_solver_steps() / instructions if instructions else 0.0


def pearson_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """The linear correlation coefficient R (no numpy needed at this size)."""
    n = len(xs)
    if n < 2 or n != len(ys):
        return 0.0
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    covariance = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    variance_x = sum((x - mean_x) ** 2 for x in xs)
    variance_y = sum((y - mean_y) ** 2 for y in ys)
    if variance_x == 0 or variance_y == 0:
        return 0.0
    return covariance / math.sqrt(variance_x * variance_y)


def scalability_configs(program_count: int = 50,
                        smallest: int = 2,
                        largest: int = 60,
                        seed: int = 7) -> List[GeneratorConfig]:
    """Generator configs of the Figure-15 sweep, in corpus (size) order.

    The sweep and the corpus manifest both enumerate points through this
    helper, so the manifest documents point-for-point what was measured.
    """
    configs: List[GeneratorConfig] = []
    for index in range(program_count):
        if program_count > 1:
            instances = smallest + (largest - smallest) * index // (program_count - 1)
        else:
            instances = largest
        # One shared rng_key: every point draws the same idiom stream, so
        # smaller programs are prefixes of larger ones and the sweep varies
        # size only (composition noise would otherwise drown the R of the
        # linear-scaling claim at quick-mode point counts).
        configs.append(GeneratorConfig(name=f"scale_{index:02d}",
                                       instances=max(1, instances),
                                       seed=seed + index,
                                       rng_key=f"scale:{seed}"))
    return configs


def _timed_build(module) -> Tuple[float, int]:
    """Seconds and solver steps of one GR + LR build on a fresh manager."""
    manager = AnalysisManager(module)
    # The bootstrap range analysis is excluded from the timing, mirroring the
    # paper ("we do not count the time to run the out-of-the-box
    # implementation of range analysis").
    manager.get(keys.RANGES)
    manager.get(keys.LOCATIONS)
    start = time.perf_counter()
    global_analysis = manager.get(keys.GLOBAL_RANGES)
    local_analysis = manager.get(keys.LOCAL_RANGES)
    elapsed = time.perf_counter() - start
    return elapsed, (global_analysis.solver_statistics.steps
                     + local_analysis.solver_statistics.steps)


def measure_point(config: GeneratorConfig) -> ScalabilityPoint:
    """Generate one program and time its GR + LR fixed points (the fastest
    of :data:`BUILDS_PER_POINT` builds, which must agree on solver steps)."""
    module = generate_module(config).module
    builds = [_timed_build(module) for _ in range(BUILDS_PER_POINT)]
    steps = {build_steps for _, build_steps in builds}
    if len(steps) != 1:
        raise RuntimeError(f"{config.name}: GR + LR builds disagree on "
                           f"solver steps: {sorted(steps)}")
    return ScalabilityPoint(
        name=config.name,
        instructions=module.instruction_count(),
        pointers=module.pointer_count(),
        analysis_seconds=min(seconds for seconds, _ in builds),
        solver_steps=steps.pop(),
    )


def run_scalability_experiment(program_count: int = 50,
                               smallest: int = 2,
                               largest: int = 60,
                               seed: int = 7,
                               jobs: int = 1) -> ScalabilityReport:
    """Generate ``program_count`` programs of increasing size and time the analysis.

    The points are sharded over ``jobs`` worker processes; the report
    carries them in size order with the same instruction/pointer/solver-step
    counts for any ``jobs`` (only wall times differ).
    """
    configs = scalability_configs(program_count, smallest, largest, seed)
    return ScalabilityReport(points=run_sharded(measure_point, configs, jobs))


def format_figure15(report: ScalabilityReport) -> str:
    rows = [[point.name, point.instructions, point.pointers,
             f"{point.analysis_seconds * 1000:.2f}", point.solver_steps]
            for point in report.points]
    table = format_table(
        ["Program", "#Instructions", "#Pointers", "Runtime (ms)", "Fixpoint steps"],
        rows, title="Figure 15 — analysis runtime vs. program size")
    summary = (
        f"\nTotal: {report.total_instructions()} instructions, "
        f"{report.total_pointers()} pointers, {report.total_seconds():.2f} s, "
        f"{report.total_solver_steps()} fixpoint steps\n"
        f"R(time, instructions) = {report.correlation_time_vs_instructions():.3f} "
        f"(paper: 0.982)\n"
        f"R(time, pointers)     = {report.correlation_time_vs_pointers():.3f} "
        f"(paper: 0.975)\n"
        f"R(steps, instructions) = {report.correlation_steps_vs_instructions():.3f} "
        f"(deterministic)\n"
        f"Throughput: {report.instructions_per_second():,.0f} instructions/second, "
        f"{report.steps_per_instruction():.2f} fixpoint steps/instruction"
    )
    return table + summary
