"""The ``batch-cold`` workload: the paper's evaluation, once per fresh process.

Run as a script this file is the *child*: a fresh interpreter that imports
the package, reports ``ready``, waits for ``go`` on standard input, then
compiles every program of the corpus from source, builds every analysis of
``repro.engine.keys`` and runs ``query_many`` over all per-function pointer
pairs for ``rbaa`` and ``basic``.  It prints one JSON line with its timings,
its outputs (checked against the reference by the parent) and, when traced,
the per-layer costs, each layer timed around the calls into that layer's
public functions.

Usage (child; normally started by ``run.py``)::

    python3 perfbench/batch.py CORPUS.json --trace=0|1
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import common

#: Analyses built per module, in this order: every key of
#: ``repro.engine.keys`` except CALLGRAPH and SCEV, which analyses request
#: for themselves.
KEY_NAMES = ("RANGES", "LOCATIONS", "GLOBAL_RANGES", "LOCAL_RANGES",
             "ANDERSEN", "STEENSGAARD", "BASIC", "RBAA", "BOUNDS", "PARALLEL")
#: Layer bucket each key's build time is charged to when traced.
KEY_LAYERS = {"RANGES": "rangeanalysis.symbolic_ranges_ms",
              "LOCATIONS": "core.locations_ms",
              "GLOBAL_RANGES": "core.gr_ms",
              "LOCAL_RANGES": "core.lr_ms",
              "ANDERSEN": "aliases.andersen_ms",
              "STEENSGAARD": "aliases.steensgaard_ms",
              "RBAA": "core.rbaa_build_ms",
              "BOUNDS": "clients.bounds_ms",
              "PARALLEL": "clients.parallel_ms"}
#: Fresh children started at once (one per core of a two-core machine).
CHILDREN = 2
#: Fewest rounds of children per run, whatever ``--seconds`` says.
MIN_ROUNDS = 2


# -- child ---------------------------------------------------------------------

def _module_outputs(module, manager, rbaa_no_alias: int,
                    basic_no_alias: int, bounds: Dict, loops: Dict) -> Dict:
    """The checked outputs of one program (computed outside the timing)."""
    from repro.evaluation.harness import solver_breakdown
    from repro.frontend import module_digest

    return {"ir": module_digest(module)[:16],
            "rbaa": rbaa_no_alias, "basic": basic_no_alias,
            "bounds": [bounds["safe"], bounds["maybe_oob"],
                       bounds["definitely_oob"]],
            "loops": [loops["loops"], loops["parallel"]],
            "steps": {problem: cost["steps"] for problem, cost
                      in sorted(solver_breakdown(manager).items())}}


def _no_alias_count(answers) -> int:
    from repro.aliases import AliasResult

    return sum(1 for answer in answers if answer is AliasResult.NO_ALIAS)


def _pairs_of(module, function) -> List[Tuple[Any, Any]]:
    from repro.evaluation.harness import enumerate_query_pairs

    return [(pair.a, pair.b) for pair
            in enumerate_query_pairs(module, functions=[function])]


def run_untraced(corpus: List[Tuple[str, str]]) -> Dict[str, Any]:
    """One cold pass, timing each library call (the batch user's view)."""
    from repro import AnalysisManager, compile_source, keys

    key_objects = [getattr(keys, name) for name in KEY_NAMES]
    calls: List[float] = []
    clock = time.perf_counter

    def call(function, *args):
        started = clock()
        result = function(*args)
        calls.append(clock() - started)
        return result

    outputs: Dict[str, Any] = {}
    for name, source in corpus:
        module = call(compile_source, source, name)
        manager = AnalysisManager(module)
        for key in key_objects:
            call(manager.get, key)
        bounds = call(manager.get(keys.BOUNDS).module_report)["summary"]
        loops = call(manager.get(keys.PARALLEL).module_report)["summary"]
        rbaa = manager.get(keys.RBAA)
        basic = manager.get(keys.BASIC)
        rbaa_no_alias = basic_no_alias = 0
        for function in module.defined_functions():
            pairs = call(_pairs_of, module, function)
            if not pairs:
                continue
            rbaa_no_alias += _no_alias_count(call(rbaa.query_many, pairs))
            basic_no_alias += _no_alias_count(call(basic.query_many, pairs))
        outputs[name] = _module_outputs(module, manager, rbaa_no_alias,
                                        basic_no_alias, bounds, loops)
    return {"calls_s": calls, "outputs": outputs}


def run_traced(corpus: List[Tuple[str, str]]) -> Dict[str, Any]:
    """One cold pass calling each layer's public functions one at a time."""
    from repro import AnalysisManager, keys
    from repro.evaluation.harness import solver_breakdown
    from repro.frontend import Parser, analyze, lower_translation_unit, tokenize
    from repro.ir.verifier import verify_module
    from repro.symbolic import intern_table_size
    from repro.transforms import build_essa, promote_allocas, simplify_module

    clock = time.perf_counter
    layers: Dict[str, float] = {}
    counts: Dict[str, int] = {}

    def timed(bucket: str, function, *args):
        started = clock()
        result = function(*args)
        layers[bucket] = layers.get(bucket, 0.0) + (clock() - started) * 1e3
        return result

    def count(name: str, amount: int) -> None:
        counts[name] = counts.get(name, 0) + amount

    wall = 0.0
    rbaa_query_s = basic_query_s = 0.0
    outputs: Dict[str, Any] = {}
    for name, source in corpus:
        started = clock()
        tokens = timed("frontend.lex_ms", tokenize, source)
        unit = timed("frontend.parse_ms",
                     Parser(tokens).parse_translation_unit)
        info = timed("frontend.sema_ms", analyze, unit)
        module = timed("frontend.lower_ms", lower_translation_unit,
                       unit, name, info)
        # prepare_module's order with its default options.
        promoted = timed("transforms.mem2reg_ms", promote_allocas, module)
        timed("transforms.simplify_ms", simplify_module, module)
        sigmas = timed("transforms.essa_ms", build_essa, module)
        timed("transforms.verify_ms", verify_module, module)
        manager = AnalysisManager(module)
        for key_name in KEY_NAMES:
            key = getattr(keys, key_name)
            if key_name in KEY_LAYERS:
                timed(KEY_LAYERS[key_name], manager.get, key)
            else:
                manager.get(key)
        bounds = timed("clients.bounds_ms",
                       manager.get(keys.BOUNDS).module_report)["summary"]
        loops = timed("clients.parallel_ms",
                      manager.get(keys.PARALLEL).module_report)["summary"]
        rbaa = manager.get(keys.RBAA)
        basic = manager.get(keys.BASIC)
        rbaa_no_alias = basic_no_alias = 0
        pairs_total = 0
        for function in module.defined_functions():
            pairs = _pairs_of(module, function)
            if not pairs:
                continue
            pairs_total += len(pairs)
            query_started = clock()
            answers = rbaa.query_many(pairs)
            rbaa_query_s += clock() - query_started
            rbaa_no_alias += _no_alias_count(answers)
            query_started = clock()
            answers = basic.query_many(pairs)
            basic_query_s += clock() - query_started
            basic_no_alias += _no_alias_count(answers)
        wall += clock() - started

        count("frontend.tokens", len(tokens))
        count("frontend.instructions", module.instruction_count())
        count("transforms.promoted_allocas", promoted)
        count("transforms.sigmas", sigmas)
        steps = {problem: cost["steps"]
                 for problem, cost in solver_breakdown(manager).items()}
        count("rangeanalysis.steps", steps.get("symbolic-ranges", 0))
        count("core.gr_steps", steps.get("global-ranges", 0))
        count("core.lr_steps", steps.get("local-ranges", 0))
        count("aliases.andersen_steps", steps.get("andersen", 0))
        count("aliases.steensgaard_steps", steps.get("steensgaard", 0))
        count("core.pairs", pairs_total)
        count("core.rbaa_no_alias", rbaa_no_alias)
        count("clients.accesses", bounds["accesses"])
        count("clients.loops", loops["loops"])
        count("engine.builds", manager.statistics.builds)
        count("engine.hits", manager.statistics.hits)
        count("engine.distinct_analyses",
              len({key_name for key_name, _ in manager.cached_items()}))
        outputs[name] = _module_outputs(module, manager, rbaa_no_alias,
                                        basic_no_alias, bounds, loops)
    pairs = max(1, counts.get("core.pairs", 0))
    layers["core.rbaa_query_us_per_pair"] = rbaa_query_s * 1e6 / pairs
    layers["aliases.basic_query_us_per_pair"] = basic_query_s * 1e6 / pairs
    counts["symbolic.intern_table_size"] = intern_table_size()
    return {"wall_s": wall, "layers": layers, "counts": counts,
            "outputs": outputs}


def child_main(argv: List[str]) -> int:
    import resource

    corpus_path, trace = argv[0], argv[1] == "--trace=1"
    # Set-up: the package imports every batch user pays before any work.
    from repro import AnalysisManager, compile_source, keys  # noqa: F401
    from repro.evaluation.harness import enumerate_query_pairs  # noqa: F401

    with open(corpus_path, "r", encoding="utf-8") as handle:
        corpus = [tuple(entry) for entry in json.load(handle)]
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    result = run_traced(corpus) if trace else run_untraced(corpus)
    result["rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


# -- parent --------------------------------------------------------------------

class ChildFailed(RuntimeError):
    """A batch child died or answered something unreadable."""


def run_pass(corpus_path: str, trace: bool,
             go: bool = True) -> Tuple[float, Optional[Dict[str, Any]]]:
    """Start one fresh child; returns (set-up seconds, its result)."""
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), corpus_path,
         f"--trace={int(trace)}"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=common.child_env(), cwd=common.ROOT)
    try:
        ready = process.stdout.readline()
        setup = time.perf_counter() - started
        if ready.strip() != "ready":
            raise ChildFailed(f"batch child did not start: {ready!r}")
        process.stdin.write("go\n" if go else "quit\n")
        process.stdin.flush()
        line = process.stdout.readline()
        process.wait(timeout=120)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if not go:
        return setup, None
    if process.returncode != 0 or not line.strip():
        raise ChildFailed(f"batch child exited {process.returncode}")
    return setup, json.loads(line)


def write_corpus(seed: int, directory: str) -> Tuple[str, List[str]]:
    from repro.benchgen import generate_source

    corpus = [(config.name, generate_source(config))
              for config in common.batch_configs(seed)]
    path = os.path.join(directory, "corpus.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(corpus, handle)
    return path, [name for name, _ in corpus]


def count_failures(outputs: Dict[str, Any], expected: Dict[str, Any],
                   names: List[str]) -> int:
    return sum(1 for name in names if outputs.get(name) != expected.get(name))


def run_round(corpus_path: str, trace: bool) -> List[Any]:
    """``CHILDREN`` fresh children at once: (set-up, result) or the error."""
    outcomes: List[Any] = [None] * CHILDREN

    def one(index: int) -> None:
        try:
            outcomes[index] = run_pass(corpus_path, trace)
        except ChildFailed as error:
            outcomes[index] = error

    threads = [threading.Thread(target=one, args=(index,))
               for index in range(CHILDREN)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def run_workload(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    directory = common.work_dir("batch")
    corpus_path, names = write_corpus(seed, directory)
    expected = common.load_reference("batch-cold").get(str(seed))
    if expected is None:
        # No committed reference for this seed: check against the other
        # code path (stage-by-stage calls vs compile_source) run in a
        # separate process, i.e. under another hash seed as well.
        expected = run_pass(corpus_path, not trace)[1]["outputs"]
    # Untimed first start: fills the bytecode cache a user's install has.
    run_pass(corpus_path, trace, go=False)

    passes: List[Dict[str, Any]] = []
    setups: List[float] = []
    attempted = failed = rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        rounds += 1
        for outcome in run_round(corpus_path, trace):
            attempted += len(names)
            if isinstance(outcome, ChildFailed):
                failed += len(names)
                continue
            setup, result = outcome
            setups.append(setup)
            passes.append(result)
            failed += count_failures(result["outputs"], expected, names)
    if not passes:
        raise ChildFailed("every batch-cold pass failed")
    return {"passes": passes, "setups": setups,
            "attempted": attempted, "failed": failed}


def end_to_end(run: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Each library call's fastest time across the run's passes (the
    processor's speed drifts; see README); ``wall_s`` is their sum."""
    passes = run["passes"]
    calls_s = [min(times)
               for times in zip(*(result["calls_s"] for result in passes))]
    wall = sum(calls_s)
    calls_ms = [seconds * 1e3 for seconds in calls_s]
    return {
        "setup_s": common.metric(common.median(run["setups"]), "s"),
        "wall_s": common.metric(wall, "s"),
        "req_per_s": common.metric(len(calls_s) / wall, "1/s"),
        "p50_ms": common.metric(common.percentile(calls_ms, 50), "ms"),
        "p99_ms": common.metric(common.percentile(calls_ms, 99), "ms"),
        "peak_rss_mb": common.metric(
            common.median([result["rss_mb"] for result in passes]), "MB"),
    }


def layer_values(passes: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer best-of-passes times (counts come from the first pass)."""
    values: Dict[str, float] = {}
    for bucket in passes[0]["layers"]:
        values[bucket] = min(result["layers"].get(bucket, 0.0)
                             for result in passes)
    values.update(passes[0]["counts"])
    values["trace.wall_s"] = min(result["wall_s"] for result in passes)
    return values


def reference_entry(seed: int) -> Dict[str, Any]:
    """The outputs to commit as the batch-cold reference for ``seed``."""
    directory = common.work_dir("batch-reference")
    corpus_path, _ = write_corpus(seed, directory)
    first = run_pass(corpus_path, False)[1]["outputs"]
    second = run_pass(corpus_path, True)[1]["outputs"]
    if first != second:
        raise SystemExit("batch-cold: traced and untraced outputs differ")
    return first


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
