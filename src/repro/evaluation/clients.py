"""Corpus-wide differential evaluation of the client analyses.

For every corpus program this runner computes both client reports — the
out-of-bounds verdict table (:mod:`repro.clients.bounds`) and the
loop-parallelization table (:mod:`repro.clients.parallelize`) — executes
the program under the concrete interpreter, and replays the observed
accesses against the verdicts through :mod:`repro.clients.validate`:

* an observed out-of-extent access at a load/store classified ``safe``
  is a violation (and an in-extent access at ``definitely-oob``,
  symmetrically);
* an observed cross-iteration overlapping access pair (store involved)
  inside a loop reported parallelizable is a violation.

Every violation carries a replayable ``(program, seed, access)`` triple.
The runner shards over worker processes like every experiment (workers
regenerate their programs; IR never crosses process boundaries), and the
emitted ``BENCH_clients.json`` is canonical JSON — byte-identical across
``--jobs`` counts and ``PYTHONHASHSEED`` values once the volatile
wall-time fields are stripped.

Run with ``python -m repro.evaluation clients --quick --jobs 2 --check
--min-programs 50``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..benchgen import (
    GENERATOR_VERSION,
    GeneratorConfig,
    generate_module,
    stable_seed,
    suite_configs,
)
from ..clients.validate import ClientViolation, validate_bounds, validate_loops
from ..engine import keys
from ..engine.manager import AnalysisManager
from ..interp import InterpreterLimits
from .differential import DifferentialReport, ExecutedCheck, execute
from .harness import shipped
from .parallel import run_sharded

__all__ = [
    "ClientCheck",
    "ClientsReport",
    "CLIENT_MIX",
    "clients_corpus",
    "check_clients_program",
    "run_clients",
]

#: Extra generated programs in the quick corpus (on top of the 22 suite
#: programs): 22 + 34 = 56 ≥ the CI gate of 50.
QUICK_EXTRA_PROGRAMS = 34

#: The fuzz slice's idiom mix, weighted toward the shapes the clients
#: classify non-trivially: provably-safe walks, off-by-one windows,
#: disjoint and overlapping cross-iteration loops.
CLIENT_MIX: Dict[str, float] = {
    "bounded_walk": 3.0,
    "off_by_one_window": 3.0,
    "disjoint_tiles": 3.0,
    "overlapping_shift": 3.0,
    "mixed_width_stride": 3.0,
    "strided": 1.0,
    "matrix": 1.0,
    "split_halves": 1.0,
    "double_buffer": 1.0,
    "allocator": 1.0,
    "local_scratch": 1.0,
}


def clients_corpus(extra: int = QUICK_EXTRA_PROGRAMS,
                   seed: int = 17) -> List[GeneratorConfig]:
    """The runner's corpus: every suite program plus ``extra`` fuzz programs.

    The fuzz slice draws from :data:`CLIENT_MIX` with sizes cycling 3..8
    idiom instances, seeded via :func:`stable_seed` so the corpus is
    identical in every process and under every ``PYTHONHASHSEED``.
    """
    configs = suite_configs()
    for index in range(max(0, extra)):
        name = f"client_{index:02d}"
        configs.append(GeneratorConfig(
            name=name,
            instances=3 + (index % 6),
            seed=stable_seed(f"clients:{seed}:{name}", 1_000_000),
            mix=dict(CLIENT_MIX),
        ))
    return configs


# -- result records -----------------------------------------------------------


@dataclass
class ClientCheck(ExecutedCheck):
    """Differential outcome for one corpus program (pure data, picklable)."""

    #: The bounds report's verdict counts (safe / maybe_oob /
    #: definitely_oob / accesses).
    bounds_summary: Dict[str, int] = field(default_factory=dict)
    bounds_events_checked: int = 0
    oob_events_observed: int = 0
    loops: int = 0
    parallel_loops: int = 0
    loop_frames_checked: int = 0
    loop_frames_skipped: int = 0
    #: Claimed loop headers absent from the recomputed LoopInfo (stale
    #: report vs. module) — counted per claim, not per frame.
    loop_claims_stale: int = 0
    violations: List[ClientViolation] = field(default_factory=list)


@dataclass
class ClientsReport(DifferentialReport):
    """Aggregated differential results over a corpus."""

    SUMMED = ("bounds_events_checked", "oob_events_observed", "loops",
              "parallel_loops", "loop_frames_checked", "loop_frames_skipped",
              "loop_claims_stale")

    def totals(self) -> Dict[str, int]:
        summary = {name: sum(c.bounds_summary.get(key, 0) for c in self.checks)
                   for name, key in (("accesses_classified", "accesses"),
                                     ("safe", "safe"),
                                     ("maybe_oob", "maybe_oob"),
                                     ("definitely_oob", "definitely_oob"))}
        return {**summary, **super().totals()}

    def as_record(self, run_info: Optional[Dict[str, Any]] = None
                  ) -> Dict[str, Any]:
        return {**super().as_record(run_info),
                "generator_version": GENERATOR_VERSION}


# -- per-program driver --------------------------------------------------------


def check_clients_program(program, *, detector_factory=shipped(keys.BOUNDS),
                          checker_factory=shipped(keys.PARALLEL),
                          limits: Optional[InterpreterLimits] = None
                          ) -> ClientCheck:
    """Run the full differential check of both clients for one program.

    ``detector_factory`` / ``checker_factory`` take ``(module, manager)``
    and are injectable so the test-suite can feed deliberately broken
    clients through the validator and assert they are caught.
    """
    config = program.config
    module = program.module
    check = ClientCheck(program=config.name, seed=config.seed)
    manager = AnalysisManager(module)
    detector = detector_factory(module, manager)
    checker = checker_factory(module, manager)
    bounds_report = detector.module_report()
    loops_report = checker.module_report()
    check.bounds_summary = dict(bounds_report["summary"])
    check.loops = loops_report["summary"]["loops"]
    check.parallel_loops = loops_report["summary"]["parallel"]

    trace, replay = execute(check, config, module, limits)
    check.oob_events_observed = sum(
        1 for event in trace.accesses if not event.in_extent)

    events_checked, bounds_violations = validate_bounds(
        config.name, trace, bounds_report, replay)
    check.bounds_events_checked = events_checked
    check.violations.extend(bounds_violations)

    frames_checked, frames_skipped, claims_stale, loop_violations = \
        validate_loops(config.name, module, trace, loops_report, replay)
    check.loop_frames_checked = frames_checked
    check.loop_frames_skipped = frames_skipped
    check.loop_claims_stale = claims_stale
    check.violations.extend(loop_violations)
    return check


# -- sharded corpus driver -----------------------------------------------------


def _check_config(config: GeneratorConfig) -> ClientCheck:
    """Check one corpus program (one work unit)."""
    return check_clients_program(generate_module(config))


def run_clients(configs: Optional[Sequence[GeneratorConfig]] = None,
                jobs: int = 1) -> ClientsReport:
    """Run the differential check over a corpus, sharded like the oracle."""
    configs = list(configs if configs is not None else clients_corpus())
    return ClientsReport(checks=run_sharded(_check_config, configs, jobs))
