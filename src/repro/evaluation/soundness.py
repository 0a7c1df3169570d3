"""Differential soundness oracle: analyses versus concrete executions.

The paper's headline claim is *soundness*: RBAA may only answer
"no-alias" when the two accesses truly never touch the same memory.
This module checks that claim — and the baselines' and the bootstrap
range analysis' claims — against ground truth produced by the concrete
interpreter (:mod:`repro.interp`):

* every **no-alias verdict** (RBAA, basic, Andersen, Steensgaard) is
  compared against the provenance-carrying pointer values the program
  actually held, scoped by the verdict's
  :class:`~repro.aliases.results.NoAliasClaim` (invocation value sets,
  same-base instances, or skipped when the claim's context cannot be
  reconstructed);
* every **symbolic-RA interval** is compared against every integer value
  observed for the SSA name, after binding the kernel symbols the bounds
  mention to their concretely observed values.

Violations are reported with a replayable ``(program, seed, query)``
triple.  The oracle shards over worker processes like every experiment
(workers regenerate their programs; IR never crosses process boundaries).

Run with ``python -m repro.evaluation soundness --quick --jobs 2
--min-programs 50``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..aliases.results import MemoryAccess, NoAliasClaim
from ..benchgen import GeneratorConfig, generate_module, stable_seed, suite_configs
from ..core import RBAAAliasAnalysis
from ..engine import keys
from ..engine.manager import AnalysisManager
from ..interp import ExecutionTrace, InterpreterLimits, Pointer
from ..interp.trace import FrameTrace
from ..ir.function import Function
from ..ir.values import Value
from ..symbolic import evaluate
from .differential import DifferentialReport, ExecutedCheck, execute
from .harness import AnalysisFactory, QueryPair, enumerate_query_pairs, shipped
from .parallel import run_sharded

__all__ = [
    "Violation",
    "ProgramCheck",
    "SoundnessReport",
    "soundness_corpus",
    "soundness_factories",
    "unknown_size_pairs",
    "check_program",
    "run_soundness",
]

#: Default cap on enumerated pointer pairs per function (oracle workload).
DEFAULT_MAX_PAIRS = 120

#: Extra generated programs in the quick corpus (on top of the 22 suite
#: programs): 22 + 34 = 56 ≥ the CI gate of 50.
QUICK_EXTRA_PROGRAMS = 34

#: Guard against quadratic blow-up when sweeping value-window pairs.
_MAX_WINDOW_PRODUCT = 250_000

#: Per function, how many enumerated pairs are re-queried at *unknown*
#: access size (regression coverage for the unknown-size soundness fix:
#: an analysis that treats an unknown extent as one byte produces
#: falsifiable claims here).
UNKNOWN_SIZE_PAIRS_PER_FUNCTION = 8


def soundness_factories() -> List[Tuple[str, AnalysisFactory]]:
    """The four analyses whose no-alias verdicts the oracle validates."""
    return [("rbaa", shipped(keys.RBAA)), ("basic", shipped(keys.BASIC)),
            ("andersen", shipped(keys.ANDERSEN)),
            ("steensgaard", shipped(keys.STEENSGAARD))]


def soundness_corpus(extra: int = QUICK_EXTRA_PROGRAMS,
                     seed: int = 11) -> List[GeneratorConfig]:
    """The oracle's corpus: every suite program plus ``extra`` fuzz programs.

    The fuzz programs draw from the full idiom pool (uniform mix) with
    sizes cycling 3..8 idiom instances, seeded via :func:`stable_seed` so
    the corpus is identical in every process and under every
    ``PYTHONHASHSEED`` — a violation's ``(program, seed)`` pair replays
    exactly.
    """
    configs = suite_configs()
    for index in range(max(0, extra)):
        name = f"sound_{index:02d}"
        configs.append(GeneratorConfig(
            name=name,
            instances=3 + (index % 6),
            seed=stable_seed(f"soundness:{seed}:{name}", 1_000_000),
        ))
    return configs


# -- result records -----------------------------------------------------------


@dataclass
class Violation:
    """One falsified claim, with everything needed to replay it."""

    kind: str                 # "no-alias" | "range"
    program: str
    analysis: str
    function: str
    query: str
    detail: str
    replay: Dict[str, Any] = field(default_factory=dict)


@dataclass
class ProgramCheck(ExecutedCheck):
    """Oracle outcome for one corpus program (pure data, picklable)."""

    queries: int = 0
    #: analysis name -> number of no-alias verdicts it produced.
    no_alias_claims: Dict[str, int] = field(default_factory=dict)
    claims_checked: int = 0
    claims_skipped: int = 0
    range_values_checked: int = 0
    range_values_skipped: int = 0
    violations: List[Violation] = field(default_factory=list)


@dataclass
class SoundnessReport(DifferentialReport):
    """Aggregated oracle results over a corpus."""

    SUMMED = ("claims_checked", "claims_skipped", "range_values_checked",
              "range_values_skipped")


# -- ground-truth helpers ------------------------------------------------------


def _regions_overlap(pa: Pointer, pb: Pointer,
                     size_a: Optional[int], size_b: Optional[int]) -> bool:
    """Provenance-exact region intersection of two access footprints.

    An unknown size (``None``) is an unbounded extent: the claim quantifies
    over accesses of *any* size, so two same-object footprints overlap as
    soon as either extent is unknown and reaches the other's offset.
    """
    if pa.is_null() or pb.is_null():
        return False
    if pa.obj is not pb.obj:
        return False
    reaches_a = size_b is None or pa.offset < pb.offset + size_b
    reaches_b = size_a is None or pb.offset < pa.offset + size_a
    return reaches_a and reaches_b


def _alive_at(pointer: Pointer, step: int) -> bool:
    """False once the object was freed before ``step`` (accesses would be UB)."""
    freed_at = pointer.obj.freed_at
    return freed_at is None or step < freed_at


class _SymbolTable:
    """Concrete observations of every kernel symbol across the whole trace."""

    def __init__(self, bindings: Dict[str, Value], trace: ExecutionTrace):
        self.bindings = bindings
        observed: Dict[Value, set] = {value: set()
                                      for value in bindings.values()}
        for frame in trace.frames:
            # frame.events is insertion-ordered; iterating it (rather than
            # a set intersection) keeps the sweep hash-order independent.
            for value in frame.events:
                if value in observed:
                    observed[value].update(
                        concrete for concrete in frame.observed(value)
                        if isinstance(concrete, int))
        self._global_values: Dict[str, List[int]] = {
            name: sorted(observed[value]) for name, value in bindings.items()}

    def globally_stable(self, name: str) -> bool:
        """At most one distinct value observed program-wide."""
        return len(self._global_values.get(name, [])) <= 1

    def frame_env(self, frame: FrameTrace) -> Tuple[Dict[str, int], set]:
        """``symbol → concrete value`` for one frame, plus the unusable set.

        Frame-local observations win (parameters, loads of this
        activation); symbols from other activations fall back to their
        program-wide binding when it is unique.  Symbols observed with
        several values — here or globally — are *unstable*: claims whose
        bounds mention them are not quantified over a single valuation and
        are skipped.
        """
        env: Dict[str, int] = {}
        unusable: set = set()
        for name, value in self.bindings.items():
            local = [concrete for concrete in frame.observed(value)
                     if isinstance(concrete, int)]
            if local:
                if len(set(local)) == 1:
                    env[name] = local[0]
                else:
                    unusable.add(name)
                continue
            observed = self._global_values.get(name, [])
            if len(observed) == 1:
                env[name] = observed[0]
            elif len(observed) > 1:
                unusable.add(name)
            else:
                unusable.add(name)  # never executed: no binding to check against
        return env, unusable


def _value_label(value: Value) -> str:
    return value.short_name()


def _pointer_windows(frame: FrameTrace, value: Value) -> List[Tuple[int, int, Pointer]]:
    return [(start, end, concrete) for start, end, concrete in frame.windows(value)
            if isinstance(concrete, Pointer)]


def _anchor_is_single_instance(frame: FrameTrace, trace: ExecutionTrace,
                               anchor: Value) -> bool:
    """True when ``anchor`` held at most one distinct value in context."""
    if anchor in frame.events:
        return frame.distinct_count(anchor) <= 1
    # Anchors defined in other functions (interprocedural GR locations):
    # require a unique program-wide instance.
    distinct: set = set()
    for other in trace.frames:
        for concrete in other.observed(anchor):
            distinct.add(concrete if not isinstance(concrete, float) else ("f", concrete))
            if len(distinct) > 1:
                return False
    return True


# -- the two check passes ------------------------------------------------------


def _check_alias_claim(frame: FrameTrace, trace: ExecutionTrace,
                       a: MemoryAccess, b: MemoryAccess,
                       claim: NoAliasClaim,
                       symbols: _SymbolTable) -> Tuple[bool, Optional[str]]:
    """Check one no-alias claim against one frame.

    Returns ``(checked, detail)``: ``checked`` is False when the frame had
    to be skipped (unstable symbol / repeated anchor instance); ``detail``
    describes the first observed overlap, if any.
    """
    if claim.scope == "unchecked":
        return False, None
    if frame.truncated:
        # A truncated event log would mis-pair anchor instances and could
        # hide reassignments; never judge claims against partial windows.
        return False, None
    for name in claim.symbols:
        if not symbols.globally_stable(name):
            return False, None
    windows_a = _pointer_windows(frame, a.pointer)
    windows_b = _pointer_windows(frame, b.pointer)
    if not windows_a or not windows_b:
        return True, None
    size_a, size_b = a.size, b.size

    if claim.scope == "invocation":
        # The claim: the *sets* of regions the two pointers reference during
        # this activation are disjoint.  Every observed value pair is
        # compared — no temporal-coexistence filter — except pairs whose
        # object was already freed when the later value was assigned
        # (referencing freed memory is outside any analysis' contract).
        for anchor in claim.anchors:
            if not _anchor_is_single_instance(frame, trace, anchor):
                return False, None
        if len(windows_a) * len(windows_b) > _MAX_WINDOW_PRODUCT:
            return False, None
        for start_a, _end_a, pa in windows_a:
            for start_b, _end_b, pb in windows_b:
                if not _regions_overlap(pa, pb, size_a, size_b):
                    continue
                if not _alive_at(pa, max(start_a, start_b)):
                    continue
                return True, (f"{_value_label(a.pointer)}={pa!r} overlaps "
                              f"{_value_label(b.pointer)}={pb!r} "
                              f"(steps {start_a} and {start_b})")
        return True, None

    # scope == "same-base": only value pairs derived from the same dynamic
    # instance of every anchor are quantified over by the claim.
    if len(windows_a) * len(windows_b) > _MAX_WINDOW_PRODUCT:
        return False, None
    for start_a, _end_a, pa in windows_a:
        for start_b, _end_b, pb in windows_b:
            consistent = all(
                frame.window_index_at(anchor, start_a)
                == frame.window_index_at(anchor, start_b)
                for anchor in claim.anchors)
            if not consistent:
                continue
            if not _regions_overlap(pa, pb, size_a, size_b):
                continue
            if not _alive_at(pa, max(start_a, start_b)):
                continue
            return True, (f"{_value_label(a.pointer)}={pa!r} overlaps "
                          f"{_value_label(b.pointer)}={pb!r} "
                          f"(same base instance)")
    return True, None


def _check_ranges(function: Function, frame: FrameTrace, range_oracle,
                  symbols: _SymbolTable, check: ProgramCheck,
                  replay: Dict[str, Any]) -> None:
    """Compare computed intervals against every observed integer value."""
    if frame.truncated:
        # Partial event logs could hide the later values of a symbol's
        # defining instruction; don't bind symbols against them.
        return
    env, unusable = symbols.frame_env(frame)
    for value in range_oracle.integer_values(function):
        observed = [v for v in frame.observed(value) if isinstance(v, int)]
        if not observed:
            continue
        interval = range_oracle.range_of(value)
        if interval.is_empty or interval.is_top:
            continue
        mentioned = interval.symbols()
        if mentioned & unusable or any(name not in env and name in
                                       symbols.bindings for name in mentioned):
            check.range_values_skipped += 1
            continue
        try:
            lower = evaluate(interval.lower, env)
            upper = evaluate(interval.upper, env)
        except (ArithmeticError, KeyError, TypeError):
            check.range_values_skipped += 1
            continue
        check.range_values_checked += 1
        for concrete in observed:
            if lower <= concrete <= upper:
                continue
            check.violations.append(Violation(
                kind="range",
                program=check.program,
                analysis="symbolic-ra",
                function=function.name,
                query=_value_label(value),
                detail=(f"observed {concrete}, claimed "
                        f"[{interval.lower!r}, {interval.upper!r}] "
                        f"= [{lower}, {upper}] under {env!r}"),
                replay=dict(replay),
            ))
            break


def unknown_size_pairs(pairs: Sequence[QueryPair],
                       per_function: int = UNKNOWN_SIZE_PAIRS_PER_FUNCTION
                       ) -> List[QueryPair]:
    """The first ``per_function`` pairs of each function at unknown size.

    These ride along with the sized queries so the corpus sweep also
    falsifies claims made about accesses of unbounded extent — the class of
    bug where an unknown size silently behaved as one byte.
    """
    emitted: Dict[Function, int] = {}
    extra: List[QueryPair] = []
    for pair in pairs:
        count = emitted.get(pair.function, 0)
        if count >= per_function:
            continue
        emitted[pair.function] = count + 1
        extra.append(QueryPair(pair.function,
                               MemoryAccess.unknown_extent(pair.a.pointer),
                               MemoryAccess.unknown_extent(pair.b.pointer)))
    return extra


# -- per-program driver --------------------------------------------------------


def check_program(program, *,
                  factories: Optional[Sequence[Tuple[str, AnalysisFactory]]] = None,
                  range_oracle=None,
                  max_pairs_per_function: Optional[int] = DEFAULT_MAX_PAIRS,
                  limits: Optional[InterpreterLimits] = None) -> ProgramCheck:
    """Run the full differential check for one generated program.

    ``factories`` (``factory(module, manager)``) and ``range_oracle`` are
    injectable so the test-suite can feed deliberately broken analyses
    through the oracle and assert they are caught.
    """
    config = program.config
    module = program.module
    check = ProgramCheck(program=config.name, seed=config.seed)
    manager = AnalysisManager(module)
    analyses = [(name, factory(module, manager))
                for name, factory in (factories or soundness_factories())]
    if range_oracle is None:
        for name, analysis in analyses:
            if isinstance(analysis, RBAAAliasAnalysis):
                range_oracle = analysis.ranges
                break
        else:
            range_oracle = manager.get(keys.RANGES)

    pairs = list(enumerate_query_pairs(module, max_pairs_per_function))
    pairs.extend(unknown_size_pairs(pairs))
    check.queries = len(pairs)
    claims: List[Tuple[str, Any, NoAliasClaim]] = []
    for name, analysis in analyses:
        accesses = [(pair.a, pair.b) for pair in pairs]
        indices = analysis.no_alias_pairs(accesses)
        check.no_alias_claims[name] = len(indices)
        for index in indices:
            pair = pairs[index]
            claims.append((name, pair, analysis.no_alias_context(pair.a, pair.b)))

    trace, replay = execute(check, config, module, limits)
    symbols = _SymbolTable(range_oracle.kernel_bindings(), trace)

    for name, pair, claim in claims:
        claim_checked = False
        for frame in trace.frames_of(pair.function):
            checked, detail = _check_alias_claim(frame, trace, pair.a, pair.b,
                                                 claim, symbols)
            claim_checked = claim_checked or checked
            if detail is not None:
                check.violations.append(Violation(
                    kind="no-alias",
                    program=config.name,
                    analysis=name,
                    function=pair.function.name,
                    query=(f"{_value_label(pair.a.pointer)} vs "
                           f"{_value_label(pair.b.pointer)}"),
                    detail=detail,
                    replay=dict(replay),
                ))
                break
        if claim_checked:
            check.claims_checked += 1
        else:
            check.claims_skipped += 1

    for function in module.defined_functions():
        for frame in trace.frames_of(function):
            _check_ranges(function, frame, range_oracle, symbols, check, replay)
    return check


# -- sharded corpus driver -----------------------------------------------------


def _check_config(config: GeneratorConfig,
                  max_pairs_per_function: Optional[int]) -> ProgramCheck:
    """Check one corpus program (one work unit)."""
    return check_program(generate_module(config),
                         max_pairs_per_function=max_pairs_per_function)


def run_soundness(configs: Optional[Sequence[GeneratorConfig]] = None,
                  jobs: int = 1,
                  max_pairs_per_function: Optional[int] = DEFAULT_MAX_PAIRS
                  ) -> SoundnessReport:
    """Run the oracle over a corpus, sharded over ``jobs`` worker processes."""
    configs = list(configs if configs is not None else soundness_corpus())
    worker = partial(_check_config, max_pairs_per_function=max_pairs_per_function)
    return SoundnessReport(checks=run_sharded(worker, configs, jobs))
