"""Shared pieces of the benchmark: paths, seeded corpora, statistics, output.

Every input is a pure function of the workload seed: corpora come from
``repro.benchgen`` configs whose seeds are derived from ``--seed``, and every
random choice the benchmark makes flows from ``random.Random`` instances
seeded from it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
import sys
from typing import Any, Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for one run (stores, corpus files); ignored by git.
WORK_ROOT = os.path.join(ROOT, ".perfbench_run")
REFERENCE_DIR = os.path.join(HERE, "reference")

#: Figure-15 sweep range (idiom instances per program), as in
#: ``repro.evaluation.scalability.scalability_configs``.
FIG15_SMALLEST = 2
FIG15_LARGEST = 60
#: Programs in one batch-cold corpus, sizes spread evenly over the range.
BATCH_PROGRAMS = 14
#: Serve corpus: (module name, idiom instances).  The names fix the shard
#: placement (stable name hash); the sizes are arranged so both shards of a
#: two-worker server hold a similar amount of code.
SERVE_MODULES = (("s0", 7), ("s1", 4), ("s2", 10),
                 ("s3", 17), ("s4", 14), ("s5", 20))


def require_source_tree() -> None:
    """Exit non-zero unless the package under test is present."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def work_dir(name: str) -> str:
    """A fresh, empty scratch directory for this run."""
    path = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_work_dirs() -> None:
    """Delete this run's scratch directories (and the root once empty)."""
    if not os.path.isdir(WORK_ROOT):
        return
    suffix = f"-{os.getpid()}"
    for entry in os.listdir(WORK_ROOT):
        if entry.endswith(suffix):
            shutil.rmtree(os.path.join(WORK_ROOT, entry), ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)
    except OSError:
        pass


def suite_mixes() -> List[Dict[str, float]]:
    """The idiom mixes of the paper's three suites, in suite-name order."""
    from repro.benchgen import SUITE_PROGRAMS

    mixes: Dict[str, Dict[str, float]] = {}
    for program in SUITE_PROGRAMS:
        mixes.setdefault(program.suite, program.config().mix)
    return [mixes[suite] for suite in sorted(mixes)]


def batch_configs(seed: int):
    """The batch-cold corpus: suite mixes in turn, sizes over Figure 15."""
    from repro.benchgen import GeneratorConfig

    mixes = suite_mixes()
    rng = random.Random(f"perfbench/batch/{seed}")
    offset = rng.randrange(len(mixes))
    span = FIG15_LARGEST - FIG15_SMALLEST
    configs = []
    for index in range(BATCH_PROGRAMS):
        instances = FIG15_SMALLEST + span * index // (BATCH_PROGRAMS - 1)
        configs.append(GeneratorConfig(
            name=f"b{index:02d}", instances=instances,
            seed=rng.randrange(1 << 30),
            mix=mixes[(index + offset) % len(mixes)]))
    return configs


def serve_configs(seed: int):
    """The serve corpus: six modules, suite mixes in turn."""
    from repro.benchgen import GeneratorConfig

    mixes = suite_mixes()
    rng = random.Random(f"perfbench/serve/{seed}")
    return [GeneratorConfig(name=name, instances=instances,
                            seed=rng.randrange(1 << 30),
                            mix=mixes[index % len(mixes)])
            for index, (name, instances) in enumerate(SERVE_MODULES)]


def canonical_digest(value: Any) -> str:
    """Short stable digest of a JSON-ready value."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return float(ordered[min(rank, len(ordered)) - 1])


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def load_reference(workload: str) -> Dict[str, Any]:
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def store_reference(workload: str, seed: int, entry: Any) -> str:
    """Record ``entry`` as the expected output of ``workload`` at ``seed``."""
    reference = load_reference(workload)
    reference[str(seed)] = entry
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    lines = [f"{json.dumps(key)}:"
             f"{json.dumps(value, sort_keys=True, separators=(',', ':'))}"
             for key, value in sorted(reference.items(),
                                      key=lambda item: int(item[0]))]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    return path


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, Dict[str, Any]]) -> None:
    """The result line (always the last line of standard output)."""
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
