#!/usr/bin/env python3
"""Whole-program alias-analysis report for a C file or a synthetic benchmark.

Usage::

    python examples/alias_report.py                # report on a built-in benchmark
    python examples/alias_report.py my_program.c   # report on your own mini-C file
    python examples/alias_report.py --program bc   # one of the 22 suite programs

For every defined function the script enumerates all pointer pairs, queries
the four analyses of the paper's evaluation (scev, basic, rbaa, rbaa+basic)
and prints a per-function and whole-program summary — a miniature Figure 13
for a single program.
"""

import argparse
import sys

from repro import compile_source
from repro.benchgen import build_program
from repro.evaluation import enumerate_query_pairs, format_table, run_queries
from repro.evaluation.precision import standard_factories


def load_module(args):
    if args.source is not None:
        with open(args.source, "r", encoding="utf-8") as handle:
            return compile_source(handle.read(), args.source), args.source
    program = build_program(args.program)
    return program.module, f"synthetic benchmark {args.program!r}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("source", nargs="?", default=None,
                        help="a mini-C source file to analyse")
    parser.add_argument("--program", default="anagram",
                        help="name of a built-in synthetic suite program")
    parser.add_argument("--max-pairs", type=int, default=5000,
                        help="cap on pointer pairs per function")
    args = parser.parse_args(argv)

    module, description = load_module(args)
    print(f"Analysing {description}: {module.instruction_count()} instructions, "
          f"{module.pointer_count()} pointer values\n")

    result = run_queries(module.name, module, standard_factories(),
                         max_pairs_per_function=args.max_pairs)

    rows = []
    for name in ("scev", "basic", "rbaa", "r+b"):
        rows.append([name, result.no_alias.get(name, 0),
                     f"{result.percentage(name):.2f}"])
    print(format_table(
        ["Analysis", "no-alias", "% of queries"],
        rows, title=f"{result.queries} pointer-pair queries"))

    rbaa_extra = result.extra.get("rbaa", {})
    if rbaa_extra:
        print()
        print("rbaa breakdown: "
              f"{rbaa_extra.get('answered_by_global', 0)} by the global test, "
              f"{rbaa_extra.get('answered_by_local', 0)} by the local test, "
              f"rest by distinct allocation sites")

    # Per-function detail for the five functions with the most pointers.
    per_function = []
    for function in sorted(module.defined_functions(),
                           key=lambda f: len(f.pointer_values()), reverse=True)[:5]:
        pairs = list(enumerate_query_pairs_single(module, function, args.max_pairs))
        per_function.append([function.name, len(function.pointer_values()), len(pairs)])
    print()
    print(format_table(["Function", "#pointers", "#queries"], per_function,
                       title="Largest functions"))
    return 0


def enumerate_query_pairs_single(module, function, cap):
    for pair in enumerate_query_pairs(module, cap):
        if pair.function is function:
            yield pair


if __name__ == "__main__":
    sys.exit(main())
