"""Cold-build vs warm-incremental service benchmark (``BENCH_service.json``).

For each benchmark program an edit scenario
(:func:`repro.benchgen.editscript.edit_scenario`) is replayed two ways:

* **warm** — one resident session (in process, or behind a real daemon or
  socket server subprocess with ``--transport``) absorbs every edit through the
  function-granular incremental path and answers the query sweep from warm
  analysis state;
* **cold** — every step rebuilds the module and all analyses from scratch,
  exactly what every request paid before the service layer existed.

Per step the record carries both paths' *solver steps* (the deterministic,
hardware-independent cost measure reported next to wall time everywhere
else in the repository) plus wall seconds under ``*_seconds`` keys, which
``strip_volatile`` removes for determinism diffs.  The step records also
split out the **callgraph-scoped** steps (GR + Andersen + Steensgaard) and
carry each edit's incremental-impact telemetry (re-seeded node counts,
retained-state sizes), so the re-seed path is auditable per edit.

``--check`` turns the benchmark into a gate: warm and cold answers must be
identical at every step, the warm path must re-run strictly fewer solver
steps than a cold rebuild on every edit, and — the incremental
interprocedural gate — every edit step must re-solve strictly fewer
*callgraph* solver steps than the cold interprocedural fixed points cost.

All transports go through the :mod:`repro.service.client` API, so the
benchmark exercises the same versioned wire contract as every other
consumer; ``--transport daemon`` swaps the warm path onto a real
stdin/stdout daemon subprocess and ``--transport socket`` onto the
concurrent TCP server (default ``inprocess``).

Command line::

    python -m repro.service.bench --quick --transport daemon --check \
        --out BENCH_service.json
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from ..benchgen import edit_scenario
from ..benchgen.suites import SUITE_PROGRAMS
from ..evaluation.reporting import to_canonical_json
from .client import DaemonClient, InProcessClient, ServiceClient, SocketClient

__all__ = ["DaemonClient", "InProcessClient", "SocketClient", "bench_program",
           "run_bench", "main"]

#: Analyses swept at every step of every scenario.
BENCH_ANALYSES = ("rbaa", "basic", "andersen", "steensgaard")

#: The callgraph-scoped (interprocedural) fixed points, by engine-key name —
#: the analyses whose per-edit re-seed the incremental gate measures.
CALLGRAPH_ANALYSES = ("global-ranges", "andersen", "steensgaard")

#: Quick-mode corpus: small enough for a CI smoke job, big enough that the
#: warm/cold gap is unambiguous.
QUICK_PROGRAMS = ("allroots", "fixoutput", "anagram", "ft")
QUICK_EDITS = 3
QUICK_MAX_PAIRS = 120

#: ``--transport`` / ``bench_program(transport=...)`` choices.
TRANSPORTS = {
    "inprocess": InProcessClient,
    "daemon": DaemonClient,
    "socket": SocketClient,
}


def _sweep(client: ServiceClient, module: str,
           max_pairs: Optional[int]) -> Dict[str, Any]:
    """The per-step query sweep: every analysis over every enumerated pair."""
    queries = 0
    no_alias: Dict[str, int] = {}
    outcomes: Dict[str, List[int]] = {}
    for analysis in BENCH_ANALYSES:
        response = client.request("query_function", module=module,
                                  analysis=analysis, max_pairs=max_pairs)
        queries = response["queries"]
        no_alias[analysis] = response["no_alias"]
        outcomes[analysis] = response["no_alias_indices"]
    return {"queries": queries, "no_alias": no_alias, "outcomes": outcomes}


def _callgraph_steps(stats: Dict[str, Any]) -> int:
    """Solver steps spent on the interprocedural fixed points so far."""
    by_analysis = stats.get("solver_steps_by_analysis", {})
    return sum(by_analysis.get(name, 0) for name in CALLGRAPH_ANALYSES)


def bench_program(name: str, edits: int, max_pairs: Optional[int],
                  seed: int = 0, transport: str = "inprocess") -> Dict[str, Any]:
    """Replay one program's edit scenario warm and cold; return the record.

    ``transport`` picks the warm path's client (``inprocess`` / ``daemon``
    / ``socket``).
    """
    config = next(p for p in SUITE_PROGRAMS if p.name == name).config()
    scenario = edit_scenario(config, edits=edits, seed=seed)

    warm_client = TRANSPORTS[transport]()
    steps: List[Dict[str, Any]] = []
    try:
        started = time.perf_counter()
        warm_client.request("load", name=name, source=scenario.steps[0].source)
        load_seconds = time.perf_counter() - started
        previous_steps = 0
        previous_callgraph = 0
        for step in scenario.steps:
            impacts: List[Dict[str, Any]] = []
            warm_started = time.perf_counter()
            if step.index > 0:
                edited = warm_client.request("edit", name=name,
                                             source=step.source)
                if edited["reloaded"] or edited["changed"] != [step.function]:
                    raise RuntimeError(
                        f"scenario step {step.index} of {name!r} did not take "
                        f"the incremental path: {edited}")
                impacts = edited["impacts"]
            warm_sweep = _sweep(warm_client, name, max_pairs)
            warm_seconds = time.perf_counter() - warm_started
            warm_stats = warm_client.request("stats", module=name)
            total = warm_stats["solver_steps"]
            warm_steps = total - previous_steps
            previous_steps = total
            callgraph_total = _callgraph_steps(warm_stats)
            warm_callgraph = callgraph_total - previous_callgraph
            previous_callgraph = callgraph_total

            cold_started = time.perf_counter()
            cold_client = InProcessClient()
            cold_client.request("load", name=name, source=step.source)
            cold_sweep = _sweep(cold_client, name, max_pairs)
            cold_stats = cold_client.request("stats", module=name)
            cold_seconds = time.perf_counter() - cold_started

            steps.append({
                "index": step.index,
                "function": step.function,
                "queries": warm_sweep["queries"],
                "no_alias": warm_sweep["no_alias"],
                "identical": warm_sweep["outcomes"] == cold_sweep["outcomes"],
                "warm_solver_steps": warm_steps,
                "cold_solver_steps": cold_stats["solver_steps"],
                "warm_callgraph_steps": warm_callgraph,
                "cold_callgraph_steps": _callgraph_steps(cold_stats),
                "impacts": impacts,
                "warm_seconds": warm_seconds,
                "cold_seconds": cold_seconds,
            })
    finally:
        warm_client.close()

    edit_steps = [step for step in steps if step["index"] > 0]
    return {
        "program": name,
        "edits": len(edit_steps),
        "steps": steps,
        "totals": {
            "identical": all(step["identical"] for step in steps),
            "warm_solver_steps": sum(s["warm_solver_steps"] for s in steps),
            "cold_solver_steps": sum(s["cold_solver_steps"] for s in steps),
            "warm_edit_solver_steps": sum(s["warm_solver_steps"]
                                          for s in edit_steps),
            "cold_edit_solver_steps": sum(s["cold_solver_steps"]
                                          for s in edit_steps),
            "warm_edit_callgraph_steps": sum(s["warm_callgraph_steps"]
                                             for s in edit_steps),
            "cold_edit_callgraph_steps": sum(s["cold_callgraph_steps"]
                                             for s in edit_steps),
            "load_seconds": load_seconds,
        },
    }


def run_bench(programs: Sequence[str], edits: int,
              max_pairs: Optional[int], seed: int = 0,
              transport: str = "inprocess") -> Dict[str, Any]:
    records = [bench_program(name, edits, max_pairs, seed=seed,
                             transport=transport)
               for name in programs]
    return {
        "schema": 2,
        "programs": records,
        "totals": {
            "identical": all(r["totals"]["identical"] for r in records),
            "warm_solver_steps": sum(r["totals"]["warm_solver_steps"]
                                     for r in records),
            "cold_solver_steps": sum(r["totals"]["cold_solver_steps"]
                                     for r in records),
            "warm_edit_callgraph_steps": sum(
                r["totals"]["warm_edit_callgraph_steps"] for r in records),
            "cold_edit_callgraph_steps": sum(
                r["totals"]["cold_edit_callgraph_steps"] for r in records),
        },
    }


def check_record(record: Dict[str, Any]) -> List[str]:
    """Gate violations: outcome mismatches and non-wins on edit steps.

    Two step-cost gates per edit step: the warm path overall, and the
    callgraph-scoped (interprocedural) subset — the latter is what the
    re-seed API must win, since before it every edit paid full GR /
    Andersen / Steensgaard rebuilds.
    """
    problems: List[str] = []
    for program in record["programs"]:
        for step in program["steps"]:
            where = f"{program['program']} step {step['index']}"
            if not step["identical"]:
                problems.append(f"{where}: warm and cold answers differ")
            if step["index"] == 0:
                continue
            if step["warm_solver_steps"] >= step["cold_solver_steps"]:
                problems.append(
                    f"{where}: warm path re-ran {step['warm_solver_steps']} "
                    f"solver steps, cold rebuild {step['cold_solver_steps']}")
            if step["warm_callgraph_steps"] >= step["cold_callgraph_steps"]:
                problems.append(
                    f"{where}: incremental interprocedural path re-ran "
                    f"{step['warm_callgraph_steps']} callgraph solver steps, "
                    f"cold fixed points {step['cold_callgraph_steps']}")
    return problems


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.bench",
        description="Cold-build vs warm-incremental analysis service benchmark.")
    parser.add_argument("--quick", action="store_true",
                        help=f"CI smoke corpus: {', '.join(QUICK_PROGRAMS)}")
    parser.add_argument("--programs", nargs="*", default=None, metavar="NAME")
    parser.add_argument("--edits", type=int, default=None,
                        help=f"edit steps per program (default {QUICK_EDITS})")
    parser.add_argument("--max-pairs", type=int, default=None,
                        help="cap on enumerated pointer pairs per function")
    parser.add_argument("--seed", type=int, default=0,
                        help="edit scenario seed")
    parser.add_argument("--transport", choices=sorted(TRANSPORTS),
                        default="inprocess",
                        help="client of the warm path: in process, a real "
                             "daemon subprocess or the concurrent TCP server "
                             "subprocess (end-to-end)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless warm ≡ cold everywhere and the "
                             "warm path (overall and callgraph-scoped) wins "
                             "every edit step")
    parser.add_argument("--out", default="BENCH_service.json")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    programs = args.programs
    if not programs:
        programs = list(QUICK_PROGRAMS)
    edits = args.edits if args.edits is not None else QUICK_EDITS
    max_pairs = args.max_pairs
    if args.quick and max_pairs is None:
        max_pairs = QUICK_MAX_PAIRS

    started = time.perf_counter()
    record = run_bench(programs, edits, max_pairs, seed=args.seed,
                       transport=args.transport)
    elapsed = time.perf_counter() - started
    record["run"] = {
        "transport": args.transport,
        "quick": bool(args.quick),
        "python": sys.version.split()[0],
        "total_wall_seconds": elapsed,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(to_canonical_json(record))
    totals = record["totals"]
    print(f"wrote {args.out}: {len(record['programs'])} programs, "
          f"warm {totals['warm_solver_steps']} vs cold "
          f"{totals['cold_solver_steps']} solver steps "
          f"(callgraph on edits: warm {totals['warm_edit_callgraph_steps']} "
          f"vs cold {totals['cold_edit_callgraph_steps']}), "
          f"identical={totals['identical']} ({elapsed:.2f}s wall)")

    if args.check:
        problems = check_record(record)
        for problem in problems:
            print(f"  CHECK FAILED: {problem}")
        if problems:
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
