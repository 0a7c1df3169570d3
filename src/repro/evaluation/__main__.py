"""The evaluation driver: ``python -m repro.evaluation <experiment>``.

Experiments (each writes one canonical-JSON record to ``--out``):

* ``bench`` — Figures 13/14 (precision) and 15 (scalability); prints the
  tables and writes ``BENCH_eval.json``; ``--manifest PATH`` also writes
  the corpus manifest;
* ``soundness`` — the differential soundness oracle
  (``SOUNDNESS_REPORT.json``);
* ``clients`` — the bounds and loop-parallelization clients versus the
  interpreter (``BENCH_clients.json``);
* ``ablation`` — the design-choice sweep (``BENCH_ablation.json``);
* ``census`` — the symbolic-range census (``BENCH_census.json``);
* ``compare A B`` — diff two records, ignoring wall-time fields.

Shared flags: ``--quick`` (the CI corpus), ``--jobs N`` (worker processes),
``--out PATH``, ``--min-programs N`` and ``--check``.  Exit codes: ``0``
success; ``1`` a falsified claim (soundness, clients) or a difference
(compare); ``2`` fewer than ``--min-programs`` programs evaluated or, with
``--check``, a corpus program that did not execute to completion.

Examples::

    python -m repro.evaluation bench --quick --jobs 2 \\
        --out BENCH_eval.json --manifest CORPUS_MANIFEST.json
    python -m repro.evaluation soundness --quick --jobs 2 --min-programs 50
    python -m repro.evaluation compare A.json B.json
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..benchgen import corpus_manifest, select_programs, suite_configs
from .ablation import format_ablation, run_ablation
from .census import format_census, run_census, total_census
from .clients import QUICK_EXTRA_PROGRAMS as CLIENTS_QUICK_EXTRA
from .clients import clients_corpus, run_clients
from .parallel import bench_record, compare_bench_files, write_json
from .precision import format_figure13, format_figure14, run_precision_experiment
from .scalability import format_figure15, run_scalability_experiment, scalability_configs
from .soundness import QUICK_EXTRA_PROGRAMS as SOUNDNESS_QUICK_EXTRA
from .soundness import run_soundness, soundness_corpus

#: Quick (CI) corpus of ``bench``, ``ablation`` and ``census``: small suite
#: programs plus a 12-point Figure-15 sweep — big enough that sharding pays
#: off, small enough to finish in seconds.
QUICK_PROGRAMS = ("allroots", "fixoutput", "anagram", "ft",
                  "compiler", "ks", "gnugo", "loader")
QUICK_MAX_PAIRS = 500
QUICK_SCALABILITY_POINTS = 12
SCALABILITY_POINTS = 50

#: The full ablation runs the first six suite programs at 2000 pairs per
#: function.
ABLATION_PROGRAMS = 6
ABLATION_MAX_PAIRS = 2000

@dataclass
class Outcome:
    """What one experiment run hands back to the driver."""

    record: Dict[str, Any]
    #: Tables / summary printed after the run.
    report: str
    #: Programs in the corpus and programs evaluated (executed to
    #: completion, for the interpreter-backed experiments).
    programs: int
    evaluated: int
    violations: List[str] = field(default_factory=list)


def _bench(args: argparse.Namespace) -> Outcome:
    """Figures 13/14 (precision) and 15 (scalability)."""
    programs = list(QUICK_PROGRAMS) if args.quick else None
    max_pairs = QUICK_MAX_PAIRS if args.quick else None
    points = QUICK_SCALABILITY_POINTS if args.quick else SCALABILITY_POINTS
    precision = run_precision_experiment(programs, max_pairs_per_function=max_pairs,
                                         jobs=args.jobs)
    scalability = run_scalability_experiment(points, jobs=args.jobs)
    if args.manifest:
        configs = suite_configs(programs) + scalability_configs(points)
        write_json(args.manifest, corpus_manifest(configs))
        print(f"wrote {args.manifest} ({len(configs)} programs)")
    report = "\n\n".join([
        format_figure13(precision),
        format_figure14(precision),
        f"rbaa / basic improvement: {precision.improvement_over_basic():.2f}x "
        f"(paper: 1.35x)\nglobal-test fraction of rbaa answers: "
        f"{100 * precision.global_test_fraction():.2f}% (paper: 18.52%)",
        format_figure15(scalability),
    ])
    count = len(precision.results) + len(scalability.points)
    return Outcome(bench_record(precision, scalability), report, count, count)


def _soundness(args: argparse.Namespace) -> Outcome:
    """The differential soundness oracle."""
    extra = SOUNDNESS_QUICK_EXTRA if args.quick else 3 * SOUNDNESS_QUICK_EXTRA
    report = run_soundness(soundness_corpus(extra=extra), jobs=args.jobs)
    record = report.as_record()
    totals = record["totals"]
    executed = report.programs_executed()
    violations = [f"[{v.kind}] {v.program}/{v.function} {v.analysis}: "
                  f"{v.query} — {v.detail}" for v in report.violations()]
    summary = (f"{executed}/{len(report.checks)} programs executed, "
               f"{totals['claims_checked']} claims and "
               f"{totals['range_values_checked']} ranges checked, "
               f"{len(violations)} violation(s)")
    return Outcome(record, summary, len(report.checks), executed, violations)


def _clients(args: argparse.Namespace) -> Outcome:
    """The client analyses versus the interpreter."""
    extra = CLIENTS_QUICK_EXTRA if args.quick else 3 * CLIENTS_QUICK_EXTRA
    report = run_clients(clients_corpus(extra=extra), jobs=args.jobs)
    record = report.as_record()
    totals = record["totals"]
    executed = report.programs_executed()
    violations = [f"[{v.kind}] {v.program}/{v.function} {v.query} — {v.detail}"
                  for v in report.violations()]
    summary = (f"{executed}/{len(report.checks)} programs executed, "
               f"{totals['accesses_classified']} accesses classified "
               f"({totals['safe']} safe / {totals['maybe_oob']} maybe / "
               f"{totals['definitely_oob']} definite), "
               f"{totals['parallel_loops']}/{totals['loops']} loops parallel, "
               f"{totals['bounds_events_checked']} events and "
               f"{totals['loop_frames_checked']} loop frames checked, "
               f"{len(violations)} violation(s)")
    return Outcome(record, summary, len(report.checks), executed, violations)


def _ablation(args: argparse.Namespace) -> Outcome:
    """The design-choice sweep."""
    names = (list(QUICK_PROGRAMS) if args.quick
             else [program.name for program in select_programs(None, ABLATION_PROGRAMS)])
    max_pairs = QUICK_MAX_PAIRS if args.quick else ABLATION_MAX_PAIRS
    totals = run_ablation(names, max_programs=None, max_pairs_per_function=max_pairs,
                          jobs=args.jobs)
    record = {"schema": 1, "programs": names,
              "variants": {name: {"queries": queries, "no_alias": no_alias}
                           for name, (queries, no_alias) in totals.items()}}
    return Outcome(record, format_ablation(totals), len(names), len(names))


def _census(args: argparse.Namespace) -> Outcome:
    """The symbolic-range census."""
    results = run_census(list(QUICK_PROGRAMS) if args.quick else None, jobs=args.jobs)
    record = {"schema": 1, "programs": [asdict(result) for result in results],
              "totals": asdict(total_census(results))}
    return Outcome(record, format_census(results), len(results), len(results))


#: Experiment name -> (runner, default ``--out``).
EXPERIMENTS: Dict[str, Tuple[Callable[[argparse.Namespace], Outcome], str]] = {
    "bench": (_bench, "BENCH_eval.json"),
    "soundness": (_soundness, "SOUNDNESS_REPORT.json"),
    "clients": (_clients, "BENCH_clients.json"),
    "ablation": (_ablation, "BENCH_ablation.json"),
    "census": (_census, "BENCH_census.json"),
}


def _parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--quick", action="store_true",
                        help="the CI corpus (seconds instead of minutes)")
    shared.add_argument("--jobs", type=int, default=1,
                        help="worker processes (results do not depend on it)")
    shared.add_argument("--out", default=None,
                        help="record path (default: per experiment)")
    shared.add_argument("--min-programs", type=int, default=0,
                        help="exit 2 unless at least this many programs were evaluated")
    shared.add_argument("--check", action="store_true",
                        help="exit 2 unless every corpus program executed to completion")
    parser = argparse.ArgumentParser(prog="python -m repro.evaluation",
                                     description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="experiment", required=True)
    for name, (run, _) in EXPERIMENTS.items():
        command = commands.add_parser(name, parents=[shared], help=run.__doc__)
        if name == "bench":
            command.add_argument("--manifest", metavar="PATH", default=None,
                                 help="also write the corpus manifest to PATH")
    compare = commands.add_parser("compare", help="diff two records, ignoring wall time")
    compare.add_argument("a")
    compare.add_argument("b")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.experiment == "compare":
        diffs = compare_bench_files(args.a, args.b)
        if diffs:
            print(f"{len(diffs)} non-wall-time difference(s):")
            for line in diffs:
                print(f"  {line}")
            return 1
        print("identical modulo wall-time fields")
        return 0

    started = time.perf_counter()
    run, default_out = EXPERIMENTS[args.experiment]
    outcome = run(args)
    elapsed = time.perf_counter() - started
    record = dict(outcome.record, run={
        "experiment": args.experiment,
        "jobs": args.jobs,
        "quick": args.quick,
        "python": sys.version.split()[0],
        "total_wall_seconds": elapsed,
    })
    out = args.out or default_out
    write_json(out, record)
    print(outcome.report)
    print(f"wrote {out} ({elapsed:.2f}s wall, jobs={args.jobs})")
    for line in outcome.violations[:20]:
        print(f"  {line}")
    if outcome.violations:
        return 1
    if outcome.evaluated < args.min_programs:
        print(f"only {outcome.evaluated} programs evaluated "
              f"(< --min-programs {args.min_programs})")
        return 2
    if args.check and outcome.evaluated < outcome.programs:
        print(f"--check: {outcome.programs - outcome.evaluated} corpus program(s) "
              f"did not execute to completion")
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
