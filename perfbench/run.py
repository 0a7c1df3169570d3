"""The repository's benchmark: one command per workload, checked outputs.

Usage::

    python3 perfbench/run.py --workload batch-cold --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload serve-read --seed 1 --trace 1
    python3 perfbench/run.py --workload serve-edit --seed 3 --write-reference

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1`` (see
``BENCHMARK.json`` and ``perfbench/README.md``).  ``--write-reference``
records the expected outputs for ``--seed`` instead of measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import common

WORKLOADS = ("batch-cold", "serve-read", "serve-edit")


def _declared_layers():
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        return {entry["name"]: entry["unit"]
                for entry in json.load(handle)["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the expected outputs for --seed")
    options = parser.parse_args(argv)
    common.require_source_tree()

    import batch
    import serve

    try:
        if options.write_reference:
            if options.workload == "batch-cold":
                entry = batch.reference_entry(options.seed)
            else:
                entry = serve.reference_entry(options.workload, options.seed)
            path = common.store_reference(options.workload, options.seed, entry)
            print(f"wrote {os.path.relpath(path, common.ROOT)} "
                  f"[{options.seed}]")
            return 0
        if options.workload == "batch-cold":
            run = batch.run_workload(options.seed, options.seconds,
                                     bool(options.trace))
            attempted, failed = run["attempted"], run["failed"]
            if options.trace:
                values = batch.layer_values(run["passes"])
            else:
                metrics = batch.end_to_end(run)
        elif options.trace:
            checker, values = serve.run_traced(options.workload, options.seed,
                                               options.seconds)
            attempted, failed = checker.attempted, checker.failed
        else:
            checker, metrics = serve.run_untraced(
                options.workload, options.seed, options.seconds)
            attempted, failed = checker.attempted, checker.failed
    finally:
        common.remove_work_dirs()

    if options.trace:
        # Every declared layer metric appears; a layer that does no work on
        # this workload reports 0.
        metrics = {name: common.metric(float(values.get(name, 0)), unit)
                   for name, unit in _declared_layers().items()}
    common.emit(failed == 0, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
