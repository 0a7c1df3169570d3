"""Benchmark E3 — Figure 15: analysis runtime vs. program size.

The paper analyses the 50 largest LLVM test-suite programs (~800k
instructions) in 8.36 seconds and reports linear correlation coefficients of
0.982 (time vs. instructions) and 0.975 (time vs. pointers).  This benchmark
sweeps generated programs of increasing size, times the GR + LR fixed points
(excluding the bootstrap integer range analysis and query time, as in the
paper) and checks the linear-scaling claim.
"""

import pytest

from repro.evaluation import format_figure15, run_scalability_experiment


@pytest.fixture(scope="module")
def scalability_report(scalability_points):
    return run_scalability_experiment(program_count=scalability_points)


def test_fig15_scalability_sweep(benchmark, scalability_points):
    report = benchmark.pedantic(
        run_scalability_experiment,
        kwargs={"program_count": scalability_points},
        iterations=1, rounds=1)
    print()
    print(format_figure15(report))
    assert len(report.points) == scalability_points


def test_fig15_linear_correlation(scalability_report):
    """Paper: R ≈ 0.98 against instructions, 0.975 against pointers.

    The strict gate is on the solver-step correlation, which is
    deterministic (no timing involved) and therefore stable on loaded CI
    runners; the wall-time correlations are asserted loosely — they reach
    0.9+ on an idle box but jitter under load.
    """
    assert scalability_report.correlation_steps_vs_instructions() > 0.9
    assert scalability_report.correlation_time_vs_instructions() > 0.5
    assert scalability_report.correlation_time_vs_pointers() > 0.5


def test_fig15_throughput_is_reported(scalability_report):
    """The paper's headline is ~100k instructions/second on an i7; a pure
    Python interpreter is slower, but throughput must be finite and stable."""
    assert scalability_report.instructions_per_second() > 1000


def test_fig15_solver_steps_are_reported(scalability_report):
    """Every point carries the sparse solver's fixpoint step count, and the
    solver stays sparse: a bounded number of transfer applications per
    instruction (a dense schedule would re-evaluate every value each pass)."""
    assert all(point.solver_steps > 0 for point in scalability_report.points)
    assert scalability_report.total_solver_steps() > 0
    assert scalability_report.steps_per_instruction() < 10.0


def test_fig15_single_program_analysis_time(benchmark):
    """Micro-benchmark: GR+LR fixed point on one mid-sized program."""
    from repro import AnalysisManager, keys
    from repro.benchgen import GeneratorConfig, generate_module

    program = generate_module(GeneratorConfig(name="fig15_micro", instances=20, seed=3))
    module = program.module

    def bootstrapped():
        manager = AnalysisManager(module)
        manager.get(keys.RANGES)
        return (manager,), {}

    def analyse(manager):
        manager.get(keys.GLOBAL_RANGES)
        manager.get(keys.LOCAL_RANGES)

    benchmark.pedantic(analyse, setup=bootstrapped, rounds=5)
