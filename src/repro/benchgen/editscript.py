"""Seeded edit scenarios: sequences of single-function body mutations.

The analysis service's incremental path is exercised by *edit scripts*: a
program plus a sequence of sources, each differing from its predecessor in
exactly one function body.  This module derives such scripts from the same
deterministic substrate as the corpus itself — all randomness flows from
:func:`~repro.benchgen.generator.stable_seed`, so a scenario is a pure
function of ``(config, edits, seed)`` and replays byte-identically in any
process under any ``PYTHONHASHSEED``.

Two mutation strategies, tried in order per edit:

1. **Template re-render** — the chosen idiom instance is re-rendered with a
   variant rng, producing the kind of change a developer edit makes
   (different strides, markers, sentinel bytes).  Accepted only when the
   change is *function-local*: the piece's prelude (struct declarations,
   file-scope arrays) and the function header must survive verbatim,
   because the service's function-granular invalidation requires globals
   and signatures to be stable.
2. **Literal bump** — many idiom bodies are rng-free; for those a drawn
   integer literal of the body is perturbed.  The mutation never touches
   the prelude or header, so it is function-local by construction.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .generator import (
    GeneratorConfig,
    _compose_source,
    _derive_rng,
    _instance_rng,
    _pick_idioms,
    _rng_label,
    stable_seed,
)

__all__ = ["EditStep", "EditScenario", "edit_scenario"]

#: Variant renders tried per chosen instance before falling back to a
#: literal bump.
_RENDER_ATTEMPTS = 6

#: Matches a function header line: ``ret name_3(...) {`` (the capture is the
#: identifier directly before the parameter list).
_HEADER_RE = re.compile(r"^[A-Za-z_][\w \t*]*?[ \t*]([A-Za-z_]\w*)\s*\(.*\{\s*$")

#: Matches a standalone integer literal (not part of an identifier).
_LITERAL_RE = re.compile(r"(?<![\w.])(\d+)(?![\w.])")


@dataclass(frozen=True)
class EditStep:
    """One state of an edit script.

    ``index`` 0 is the unedited program; step ``k`` differs from step
    ``k - 1`` in exactly the body of ``function``.
    """

    index: int
    #: Mutated function name (``""`` for the initial step).
    function: str
    #: Idiom-instance index the mutation targeted (``-1`` initially).
    instance: int
    #: Full program source after this step.
    source: str


@dataclass(frozen=True)
class EditScenario:
    """A program plus a seeded sequence of single-function edits."""

    config: GeneratorConfig
    steps: Tuple[EditStep, ...]

    @property
    def name(self) -> str:
        return self.config.name


def _split_piece(piece: str) -> Optional[Tuple[List[str], str, List[str]]]:
    """Split a rendered idiom piece into ``(prelude, header, body)`` lines."""
    lines = piece.splitlines()
    for position, line in enumerate(lines):
        if _HEADER_RE.match(line):
            return lines[:position], line, lines[position + 1:]
    return None


def _function_name(header: str) -> str:
    match = _HEADER_RE.match(header)
    assert match is not None
    return match.group(1)


def _function_local_change(old_piece: str, new_piece: str) -> Optional[str]:
    """The mutated function's name when the change is function-local.

    Function-local means: identical prelude (struct/global declarations),
    identical header (name + signature), different body.  Returns ``None``
    when the mutation leaks outside the body or changes nothing.
    """
    old_parts = _split_piece(old_piece)
    new_parts = _split_piece(new_piece)
    if old_parts is None or new_parts is None:
        return None
    old_prelude, old_header, old_body = old_parts
    new_prelude, new_header, new_body = new_parts
    if old_prelude != new_prelude or old_header != new_header:
        return None
    if old_body == new_body:
        return None
    return _function_name(new_header)


def _bump_literal(piece: str, rng: random.Random) -> Optional[str]:
    """Perturb one drawn integer literal of the piece's function body."""
    parts = _split_piece(piece)
    if parts is None:
        return None
    prelude, header, body = parts
    positions = [(line_index, match)
                 for line_index, line in enumerate(body)
                 for match in _LITERAL_RE.finditer(line)]
    if not positions:
        return None
    line_index, match = positions[rng.randrange(len(positions))]
    delta = 1 + rng.randrange(7)
    replacement = str(int(match.group(1)) + delta)
    line = body[line_index]
    body[line_index] = line[:match.start(1)] + replacement + line[match.end(1):]
    return "\n".join(prelude + [header] + body)


def _mutate_instance(config: GeneratorConfig, idiom, instance: int,
                     current_piece: str, edit_index: int,
                     rng: random.Random) -> Optional[Tuple[str, str]]:
    """One function-local mutation of ``instance``: ``(new piece, fn name)``."""
    for attempt in range(_RENDER_ATTEMPTS):
        label = f"{_rng_label(config)}#{instance}~edit{edit_index}.{attempt}"
        candidate = idiom.render(instance, random.Random(stable_seed(label)))
        name = _function_local_change(current_piece, candidate)
        if name is not None:
            return candidate, name
    candidate = _bump_literal(current_piece, rng)
    if candidate is None:
        return None
    name = _function_local_change(current_piece, candidate)
    if name is None:
        return None
    return candidate, name


def edit_scenario(config: GeneratorConfig, edits: int = 3,
                  seed: int = 0) -> EditScenario:
    """Derive a deterministic edit script for ``config``.

    Step 0 is byte-identical to :func:`~repro.benchgen.generator
    .generate_source` for the same config, so a scenario slots into any
    corpus manifest; each subsequent step mutates one function body chosen
    by the scenario rng.
    """
    scenario_rng = random.Random(
        stable_seed(f"editscript:{_rng_label(config)}:{seed}"))
    chosen = _pick_idioms(config, _derive_rng(config))
    rendered = [idiom.render(index, _instance_rng(config, index))
                for index, idiom in enumerate(chosen)]
    steps: List[EditStep] = [
        EditStep(0, "", -1, _compose_source(config, chosen, rendered))]

    for edit_index in range(1, max(0, edits) + 1):
        order = list(range(len(chosen)))
        scenario_rng.shuffle(order)
        mutation: Optional[Tuple[int, str, str]] = None
        for instance in order:
            result = _mutate_instance(config, chosen[instance], instance,
                                      rendered[instance], edit_index,
                                      scenario_rng)
            if result is not None:
                mutation = (instance, result[0], result[1])
                break
        if mutation is None:
            raise ValueError(
                f"no function-local mutation found for {config.name!r} "
                f"(edit {edit_index})")
        instance, piece, function_name = mutation
        rendered[instance] = piece
        steps.append(EditStep(edit_index, function_name, instance,
                              _compose_source(config, chosen, rendered)))
    return EditScenario(config=config, steps=tuple(steps))
