"""Deterministic synthetic-program generator.

Given a size budget and an idiom mix, the generator emits a mini-C source
composed of independently generated functions plus a ``main`` that allocates
shared buffers and calls every generated routine.  The same
``(name, seed, size)`` triple always produces the same program — bit for
bit, in any interpreter process, under any ``PYTHONHASHSEED`` — so
benchmark results are reproducible run to run.

Determinism contract: all randomness flows from one ``random.Random``
seeded via :func:`stable_seed` (a SHA-256 digest, never the builtin
``hash``), idiom pools and mixes are iterated in sorted order, and idiom
templates draw their per-instance variation from the explicitly threaded
rng rather than from any ambient state.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..frontend import UnitScan, compile_bodies
from ..ir.module import Module
from .idioms import IDIOMS, Idiom, get_idiom

__all__ = ["GeneratorConfig", "GeneratedProgram", "generate_source", "generate_module",
           "stable_seed", "source_digest", "ExecutionInputs", "execution_inputs"]


def stable_seed(text: str, modulus: Optional[int] = None) -> int:
    """A hash-order-independent integer seed for ``text``.

    The builtin ``hash`` of a string changes with ``PYTHONHASHSEED``; this
    digest does not, so program shapes derived from it are identical in
    every interpreter process.
    """
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    value = int.from_bytes(digest[:8], "big")
    return value % modulus if modulus else value


def source_digest(source: str) -> str:
    """SHA-256 hex digest of a generated source (manifest / replay identity)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


_MAIN_PREAMBLE = """
int main(int argc, char** argv) {
  int n = atoi(argv[1]);
  char* bytes = (char*)malloc(n);
  char* text = argv[2];
  int* ints = (int*)malloc(n * 4);
  float* floats = (float*)malloc(n * 4);
  double* doubles = (double*)malloc(n * 8);
"""

_MAIN_EPILOGUE = """  return 0;
}
"""


@dataclass(frozen=True)
class GeneratorConfig:
    """What to generate."""

    name: str
    #: Number of idiom instances (roughly proportional to program size).
    instances: int = 10
    #: Random seed; combined with the name so every program is unique.
    seed: int = 0
    #: Idiom mix: mapping idiom name -> relative weight (unlisted idioms get
    #: weight 0).  ``None`` means the uniform mix over all idioms.
    mix: Optional[Dict[str, float]] = None
    #: Override of the rng derivation label (default ``"{name}:{seed}"``).
    #: Programs sharing one ``rng_key`` draw the same idiom selection stream
    #: and the same per-instance template constants (each instance's render
    #: rng is derived from ``(rng_key, index)``), so a size sweep over them
    #: varies *size only* — a smaller program's functions are exactly the
    #: first functions of a larger one, which is what makes the Figure-15
    #: scaling measurement compare like with like.
    rng_key: Optional[str] = None


@dataclass
class GeneratedProgram:
    """A generated source's compiled module and the scan it was compiled
    from (source text and tokens)."""

    config: GeneratorConfig
    module: Module
    scan: UnitScan

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def source(self) -> str:
        return self.scan.source


def _rng_label(config: GeneratorConfig) -> str:
    return config.rng_key if config.rng_key is not None else f"{config.name}:{config.seed}"


def _derive_rng(config: GeneratorConfig) -> random.Random:
    """The rng the idiom *selection* stream flows from."""
    return random.Random(stable_seed(_rng_label(config)))


def _instance_rng(config: GeneratorConfig, index: int) -> random.Random:
    """The rng instance ``index``'s template constants flow from.

    Keyed by ``(label, index)`` rather than drawn from the selection stream:
    this keeps instance ``i``'s rendered body independent of how many
    instances the program has, so configs sharing an ``rng_key`` produce
    programs that are literal prefixes of one another.
    """
    return random.Random(stable_seed(f"{_rng_label(config)}#{index}"))


def _pick_idioms(config: GeneratorConfig, rng: random.Random) -> List[Idiom]:
    if config.mix:
        # Sorted so the selection sequence is independent of mix insertion
        # (and of any future mapping type whose iteration order varies).
        names = sorted(name for name, weight in config.mix.items() if weight > 0)
        weights = [config.mix[name] for name in names]
        pool = [get_idiom(name) for name in names]
    else:
        pool = list(IDIOMS)
        weights = [1.0] * len(pool)
    return [pool[rng.choices(range(len(pool)), weights=weights)[0]]
            for _ in range(config.instances)]


def _compose_source(config: GeneratorConfig, chosen: List[Idiom],
                    rendered: List[str]) -> str:
    """Assemble the final source from already-rendered idiom pieces.

    Shared by :func:`generate_source` and the edit-scenario generator
    (:mod:`repro.benchgen.editscript`), which re-renders single pieces to
    produce sources differing in exactly one function body.
    """
    pieces: List[str] = [f"/* synthetic program {config.name!r} "
                         f"({config.instances} idiom instances, seed {config.seed}) */"]
    calls: List[str] = []
    for index, idiom in enumerate(chosen):
        pieces.append(rendered[index])
        calls.append(f"  {idiom.call(index)}")
    pieces.append(_MAIN_PREAMBLE)
    pieces.extend(calls)
    pieces.append(_MAIN_EPILOGUE)
    return "\n".join(pieces)


def generate_source(config: GeneratorConfig) -> str:
    """Emit the mini-C source for ``config``."""
    rng = _derive_rng(config)
    chosen = _pick_idioms(config, rng)
    rendered = [idiom.render(index, _instance_rng(config, index))
                for index, idiom in enumerate(chosen)]
    return _compose_source(config, chosen, rendered)


def generate_module(config: GeneratorConfig) -> GeneratedProgram:
    """Generate and compile one synthetic program."""
    compiled = compile_bodies(generate_source(config), config.name)
    return GeneratedProgram(config=config, module=compiled.module, scan=compiled.scan)


@dataclass(frozen=True)
class ExecutionInputs:
    """Concrete ``main`` inputs for interpreting one generated program.

    Every generated ``main`` reads its workload from ``argv``:
    ``n = atoi(argv[1])`` sizes the shared buffers and bounds every loop,
    and ``argv[2]`` is the text payload.  Keeping ``n`` small and the text
    shorter than ``n`` makes execution terminate quickly and keeps
    string-copy loops inside the buffers ``main`` allocates.
    """

    n: int
    text: str
    argv0: str = "bench"

    def argv(self) -> List[str]:
        return [self.argv0, str(self.n), self.text]


def execution_inputs(config: GeneratorConfig) -> ExecutionInputs:
    """Deterministic bounded inputs for ``config`` (seeded like the source).

    Derived from the same :func:`stable_seed` scheme as program generation,
    so a ``(name, seed)`` pair pins both the program *and* its concrete
    execution — the replay identity the soundness oracle reports.
    """
    rng = random.Random(stable_seed(f"{_rng_label(config)}::inputs"))
    n = 8 + rng.randrange(5)
    letters = "abcdefghijklmnopqrstuvwxyz"
    text = "".join(rng.choice(letters) for _ in range(max(1, n - 2)))
    return ExecutionInputs(n=n, text=text)
