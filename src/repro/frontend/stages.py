"""Explicit frontend stages: scan → parse → analyze → lower → prepare.

The compile pipeline is staged the way production toolchains stage theirs
(AST → HIR → MIR-style): each stage has one narrow entry point, consumes
exactly the previous stage's output, and reports failure through one typed
exception —

=========  ==========================================  =====================
Stage      API                                         Error type
=========  ==========================================  =====================
scan       :func:`repro.frontend.lexer.tokenize`       ``LexerError``
parse      :class:`repro.frontend.cparser.Parser`      ``ParseError``
analyze    :func:`repro.frontend.sema.analyze`         ``SemanticError``
lower      :func:`~repro.frontend.lowering.            ``LoweringError``
           lower_translation_unit`
prepare    :func:`repro.transforms.pipeline.           —
           prepare_module`
=========  ==========================================  =====================

All four error types carry source position context and are the only
exceptions a well-behaved stage may raise on bad input; the serving layer
maps them to ``bad_request`` envelopes (anything else is a frontend bug and
surfaces as ``internal_error``).

This module adds the one cross-cutting facility the stages themselves stay
free of: **digests**.  :func:`token_stream_digest` and :func:`module_digest`
hash a token stream / printed module to a stable hex digest.  Evaluation
records embed them per program, so the determinism gate's compare proves
the frontend byte-identical across runs and hash seeds; per-stage timings
come from the repository benchmark (``perfbench --trace 1``), which times
each stage's public entry point.

:func:`parse_unit` runs scan → parse → analyze and also returns the unit's
:class:`UnitDigests`: one position-free digest per function body plus one
context digest over the rest.  An edit compares them with the previous
source's to find the bodies it must lower again
(:func:`repro.frontend.driver.compile_bodies`).
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from typing import Dict, List, Sequence, Tuple

from ..ir.module import Module
from ..ir.printer import print_module
from ..ir.types import VOID
from .ast_nodes import CompoundStmt, TranslationUnit
from .cparser import Parser
from .lexer import Token, tokenize
from .lowering import function_string_literals
from .sema import SemanticInfo, analyze

__all__ = ["UnitDigests", "module_digest", "parse_unit", "token_stream_digest"]


def token_stream_digest(tokens: Sequence[Token]) -> str:
    """Stable hex digest of a token stream (kind, text, position, value)."""
    hasher = sha256()
    update = hasher.update
    for token in tokens:
        update(f"{token.kind}\x1f{token.text}\x1f{token.line}\x1f"
               f"{token.column}\x1f{token.value!r}\x1e".encode())
    return hasher.hexdigest()


def module_digest(module: Module) -> str:
    """Stable hex digest of a module's printed IR."""
    return sha256(print_module(module).encode()).hexdigest()


@dataclass(frozen=True)
class UnitDigests:
    """Position-free digests of one translation unit.

    ``bodies`` maps each function definition, in module order, to the
    digest of its body's tokens.  ``context`` digests everything outside
    the bodies: structs, globals, prototypes and function headers, then
    each definition's name and string-literal count in module order (a
    literal's ``.str.N`` name depends on every literal before it).  Tokens
    enter as kind and text only, so moving code or editing whitespace and
    comments changes no digest.
    """

    context: str
    bodies: Dict[str, str]

    def changed_bodies(self, previous: "UnitDigests") -> List[str]:
        """The bodies an edit from ``previous`` must lower again, in module
        order: those whose digest differs, or all of them when the context
        differs."""
        if self.context != previous.context:
            return list(self.bodies)
        return [name for name, digest in self.bodies.items()
                if previous.bodies.get(name) != digest]


class _SpanParser(Parser):
    """A parser that also records each function body's token span."""

    def __init__(self, tokens: List[Token]):
        super().__init__(tokens)
        self.body_spans: List[Tuple[int, int]] = []
        self._depth = 0

    def _parse_compound(self) -> CompoundStmt:
        start = self._position
        self._depth += 1
        body = super()._parse_compound()
        self._depth -= 1
        if not self._depth:
            # Only a function body is a compound statement at top level.
            self.body_spans.append((start, self._position))
        return body


def _tokens_digest(tokens: Sequence[Token]) -> str:
    # Length-prefixed texts: a string literal may hold any character.
    text = "".join(f"{token.kind}{len(token.text)}:{token.text}"
                   for token in tokens)
    return sha256(text.encode()).hexdigest()


def parse_unit(source: str) -> Tuple[TranslationUnit, SemanticInfo, UnitDigests]:
    """Scan, parse and analyze ``source``; also digest it for edits."""
    tokens = tokenize(source)
    parser = _SpanParser(tokens)
    unit = parser.parse_translation_unit()
    info = analyze(unit)
    definitions = [decl for decl in unit.functions if decl.body is not None]
    spans = dict(zip((decl.name for decl in definitions), parser.body_spans))
    context: List[Token] = []
    position = 0
    for start, end in parser.body_spans:
        context.extend(tokens[position:start])
        position = end
    context.extend(tokens[position:])
    bodies: Dict[str, str] = {}
    layout: List[str] = []
    for name, decl in info.function_decls.items():
        if decl.body is None:
            continue
        start, end = spans[name]
        bodies[name] = _tokens_digest(tokens[start:end])
        returns_void = info.function_types[name].return_type == VOID
        layout.append(f"{name}:{len(function_string_literals(decl, returns_void))}")
    text = _tokens_digest(context) + "\x1d" + "\x1d".join(layout)
    return unit, info, UnitDigests(sha256(text.encode()).hexdigest(), bodies)
