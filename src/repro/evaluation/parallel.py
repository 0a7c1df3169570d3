"""Sharded evaluation and the records it produces.

The paper's evaluation is embarrassingly parallel: every benchmark program
is generated, compiled and analysed independently, and only the final
tables aggregate across programs.  Every experiment therefore has one code
path — a per-program worker mapped through :func:`run_sharded`, which
partitions the corpus into deterministic round-robin shards, fans each
shard out to a ``multiprocessing`` worker (workers regenerate their
programs and build their own :class:`~repro.engine.manager.AnalysisManager`
per module, since IR object graphs never cross process boundaries) and
merges the results back into corpus order.  With ``jobs=1`` the same path
runs in process, without a pool.

Determinism contract: any ``jobs`` produces the same results modulo
wall-time fields.  Query counts, no-alias counts, solver-step totals and
engine cache counters are computed per program and merged in corpus order,
so they cannot depend on scheduling.  :func:`strip_volatile` removes
exactly the wall-time-derived fields; ``python -m repro.evaluation compare``
diffs what remains.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..engine.manager import ManagerStatistics
from .reporting import to_canonical_json

if TYPE_CHECKING:  # record builders only read the reports
    from .harness import ProgramResult
    from .precision import PrecisionReport
    from .scalability import ScalabilityReport

__all__ = [
    "partition",
    "merge_indexed",
    "map_shards",
    "run_sharded",
    "bench_record",
    "strip_volatile",
    "diff_records",
    "compare_bench_files",
    "write_json",
]

T = TypeVar("T")
R = TypeVar("R")


def partition(items: Sequence[T], shards: int) -> List[List[T]]:
    """Split ``items`` into at most ``shards`` deterministic round-robin shards.

    Shard ``i`` receives ``items[i::n]``.  Round-robin (rather than
    contiguous blocks) balances the Figure-15 sweep, whose program sizes
    grow monotonically with index; no shard is ever empty.
    """
    if not items:
        return []
    count = max(1, min(int(shards), len(items)))
    return [list(items[index::count]) for index in range(count)]


def merge_indexed(shard_results: Sequence[Sequence[Tuple[int, R]]]) -> List[R]:
    """Flatten per-shard ``(corpus_index, value)`` pairs back into corpus order."""
    merged = [pair for shard in shard_results for pair in shard]
    merged.sort(key=lambda pair: pair[0])
    return [value for _, value in merged]


def map_shards(worker: Callable[[T], R], payloads: Sequence[T],
               jobs: int = 1) -> List[R]:
    """``[worker(p) for p in payloads]``, fanned out over ``jobs`` processes.

    Results come back in payload order (``Pool.map`` preserves it); with
    ``jobs=1`` or a single payload no pool is created at all.
    """
    payloads = list(payloads)
    if jobs <= 1 or len(payloads) <= 1:
        return [worker(payload) for payload in payloads]
    with multiprocessing.get_context().Pool(processes=min(jobs, len(payloads))) as pool:
        return pool.map(worker, payloads)


def _run_shard(worker: Callable[[T], R],
               shard: Sequence[Tuple[int, T]]) -> List[Tuple[int, R]]:
    return [(index, worker(item)) for index, item in shard]


def run_sharded(worker: Callable[[T], R], items: Sequence[T],
                jobs: int = 1) -> List[R]:
    """``[worker(item) for item in items]`` over ``jobs`` round-robin shards.

    ``worker`` must be picklable (a module-level function, or a
    :func:`functools.partial` of one) when ``jobs > 1``.  Results come back
    in item order whatever the shard layout.
    """
    shards = partition(list(enumerate(items)), max(1, jobs))
    return merge_indexed(map_shards(functools.partial(_run_shard, worker),
                                    shards, jobs))


# -- benchmark records --------------------------------------------------------

#: Keys whose values derive from wall time (stripped before determinism diffs).
_VOLATILE_KEY_SUFFIXES = ("_seconds", "_per_second")
_VOLATILE_KEYS = frozenset({"run", "correlations"})


def _program_result_record(result: ProgramResult) -> Dict[str, Any]:
    return {
        "program": result.program,
        "queries": result.queries,
        "no_alias": dict(result.no_alias),
        "extra": {name: dict(extra) for name, extra in result.extra.items()},
        "engine": dict(result.engine),
        "solver": {name: dict(entry) for name, entry in result.solver.items()},
        # Token/IR digests: non-volatile by design, so the determinism gate
        # and the perf-smoke compare fail on any frontend output change.
        "frontend": dict(result.frontend),
    }


def bench_record(precision: Optional[PrecisionReport] = None,
                 scalability: Optional[ScalabilityReport] = None,
                 run_info: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """One JSON-ready record of an evaluation run.

    Wall-time-derived values live only under keys :func:`strip_volatile`
    removes (``*_seconds``, ``*_per_second``, ``correlations``, ``run``);
    everything else — query counts, no-alias counts, solver steps, engine
    cache counters — is deterministic and gated on in CI.
    """
    record: Dict[str, Any] = {"schema": 1}
    if precision is not None:
        totals = precision.totals()
        engine_totals = ManagerStatistics()
        solver_totals: Dict[str, Dict[str, int]] = {}
        for result in precision.results:
            if result.engine:
                engine_totals.merge(ManagerStatistics(**result.engine))
            for problem, entry in result.solver.items():
                bucket = solver_totals.setdefault(problem, {})
                for counter, value in entry.items():
                    bucket[counter] = bucket.get(counter, 0) + value
        record["precision"] = {
            "programs": [_program_result_record(result) for result in precision.results],
            "totals": {
                "queries": totals.queries,
                "no_alias": dict(totals.no_alias),
                "extra": {name: dict(extra) for name, extra in totals.extra.items()},
                "engine": engine_totals.as_dict(),
                "solver": solver_totals,
            },
        }
    if scalability is not None:
        record["scalability"] = {
            "points": [{
                "name": point.name,
                "instructions": point.instructions,
                "pointers": point.pointers,
                "solver_steps": point.solver_steps,
                "analysis_seconds": point.analysis_seconds,
            } for point in scalability.points],
            "totals": {
                "instructions": scalability.total_instructions(),
                "pointers": scalability.total_pointers(),
                "solver_steps": scalability.total_solver_steps(),
                "analysis_seconds": scalability.total_seconds(),
            },
            "steps_per_instruction": scalability.steps_per_instruction(),
            "steps_correlation": scalability.correlation_steps_vs_instructions(),
            "correlations": {
                "time_vs_instructions": scalability.correlation_time_vs_instructions(),
                "time_vs_pointers": scalability.correlation_time_vs_pointers(),
            },
            "instructions_per_second": scalability.instructions_per_second(),
        }
    if run_info is not None:
        record["run"] = dict(run_info)
    return record


def strip_volatile(payload: Any) -> Any:
    """Recursively drop every wall-time-derived field of a bench record."""
    if isinstance(payload, dict):
        return {key: strip_volatile(value) for key, value in payload.items()
                if key not in _VOLATILE_KEYS
                and not key.endswith(_VOLATILE_KEY_SUFFIXES)}
    if isinstance(payload, list):
        return [strip_volatile(value) for value in payload]
    return payload


def diff_records(a: Any, b: Any, path: str = "$") -> List[str]:
    """Human-readable paths where two (stripped) records disagree."""
    if isinstance(a, dict) and isinstance(b, dict):
        diffs: List[str] = []
        for key in sorted(set(a) | set(b)):
            if key not in a:
                diffs.append(f"{path}.{key}: only in second")
            elif key not in b:
                diffs.append(f"{path}.{key}: only in first")
            else:
                diffs.extend(diff_records(a[key], b[key], f"{path}.{key}"))
        return diffs
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{path}: list length {len(a)} != {len(b)}"]
        diffs = []
        for index, (left, right) in enumerate(zip(a, b)):
            diffs.extend(diff_records(left, right, f"{path}[{index}]"))
        return diffs
    if a != b:
        return [f"{path}: {a!r} != {b!r}"]
    return []


def compare_bench_files(path_a: str, path_b: str) -> List[str]:
    """Differences between two bench JSON files, ignoring wall-time fields."""
    with open(path_a, "r", encoding="utf-8") as handle:
        record_a = json.load(handle)
    with open(path_b, "r", encoding="utf-8") as handle:
        record_b = json.load(handle)
    return diff_records(strip_volatile(record_a), strip_volatile(record_b))


def write_json(path: str, payload: Any) -> None:
    """Write ``payload`` as canonical JSON (byte-stable across runs)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_canonical_json(payload))
