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
records embed them per program (:func:`frontend_fingerprint`), so the
determinism gate's compare proves the frontend byte-identical across runs
and hash seeds; per-stage timings come from the repository benchmark
(``perfbench --trace 1``), which times each stage's public entry point.

:func:`parse_unit` runs scan → parse → analyze and also returns the unit's
:class:`UnitScan`: the source, its tokens, each function body's token span
and the :class:`UnitDigests` — one position-free digest per function body
plus one context digest over the rest.  Every compile runs through it
(:func:`repro.frontend.driver.compile_bodies`), so every compiled source
has a scan for its next edit.  An edit passes the previous scan in: only
the changed span of the source is scanned again
(:func:`~repro.frontend.lexer.retokenize`), bodies outside that span are
neither parsed nor digested again, and comparing the digests with the
previous source's finds the bodies to lower again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import sha256
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..ir.module import Module
from ..ir.printer import print_module
from .ast_nodes import CompoundStmt, FunctionDecl, TranslationUnit, TypeSpec
from .cparser import Parser
from .lexer import Relex, Token, retokenize, tokenize
from .sema import SemanticInfo, analyze

__all__ = ["UnitDigests", "UnitScan", "frontend_fingerprint", "module_digest",
           "parse_unit", "token_stream_digest"]


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


def frontend_fingerprint(scan: UnitScan, module: Module) -> Dict[str, object]:
    """Deterministic frontend fingerprint of a compiled program: the token
    count and digests of the token stream ``module`` was compiled from
    (``scan``, as :func:`parse_unit` returned it) and of ``module``'s
    printed IR.  Bench records carry it under non-volatile keys, so a
    frontend change that alters either shows up as a digest mismatch in
    the CI compares, not as a silent precision drift."""
    tokens = scan.tokens
    return {
        "tokens": len(tokens),
        "token_digest": token_stream_digest(tokens),
        "ir_digest": module_digest(module),
    }


@dataclass(frozen=True)
class UnitDigests:
    """Position-free digests of one translation unit.

    ``bodies`` maps each function definition, in module order, to the
    digest of its body's tokens.  ``context`` digests everything outside
    the bodies: structs, globals, prototypes and function headers.  So an
    edit outside the bodies changes the context, and all bodies are
    lowered again.  (An edit inside a body that changes the string-literal
    globals shows only once the body is lowered; see
    :func:`~repro.frontend.driver.compile_bodies`.)  Tokens enter as kind
    and text only, so moving code or editing whitespace and comments
    changes no digest.
    """

    context: str
    bodies: Dict[str, str]

    def changed_bodies(self, previous: Optional["UnitDigests"]) -> List[str]:
        """The bodies an edit from ``previous`` must lower again, in module
        order: those whose digest differs, or all of them when the context
        differs or there is no ``previous``."""
        if previous is None or self.context != previous.context:
            return list(self.bodies)
        return [name for name, digest in self.bodies.items()
                if previous.bodies.get(name) != digest]


@dataclass(frozen=True)
class UnitScan:
    """One source as scanned for edits: what the next edit starts from.

    ``spans`` maps each function definition to its body's token span in
    ``tokens`` (from the ``{`` to just past the ``}``).  ``literals`` maps
    each definition to the lengths of the string literals its lowering
    interned, in order; :func:`~repro.frontend.driver.compile_bodies` fills
    it in, because only lowering knows them, and an edit's compile interns
    them for each body it does not lower again.
    """

    source: str
    tokens: List[Token]
    spans: Dict[str, Tuple[int, int]]
    digests: UnitDigests
    literals: Dict[str, List[int]] = field(default_factory=dict)


class _SpanParser(Parser):
    """A parser that also records each function body's token span.

    A body at its span in ``unmoved`` (the previous scan's tokens, reused
    unchanged) is not parsed: it is left an empty block and its name is
    added to ``skipped``.
    """

    def __init__(self, tokens: List[Token],
                 unmoved: Dict[str, Tuple[int, int]]):
        super().__init__(tokens)
        self.body_spans: List[Tuple[int, int]] = []
        self.skipped: Set[str] = set()
        self._unmoved = unmoved
        self._function = ""
        self._depth = 0

    def _parse_function_rest(self, return_type: TypeSpec,
                             name: str) -> FunctionDecl:
        self._function = name
        return super()._parse_function_rest(return_type, name)

    def _parse_compound(self) -> CompoundStmt:
        start = self._position
        # Only a function body is a compound statement at top level.
        if not self._depth:
            span = self._unmoved.get(self._function)
            if span is not None and span[0] == start:
                self.body_spans.append(span)
                self.skipped.add(self._function)
                self._position = span[1]
                return CompoundStmt([])
        self._depth += 1
        body = super()._parse_compound()
        self._depth -= 1
        if not self._depth:
            self.body_spans.append((start, self._position))
        return body


def _tokens_digest(tokens: Sequence[Token]) -> str:
    # Length-prefixed texts: a string literal may hold any character.
    text = "".join(f"{token.kind}{len(token.text)}:{token.text}"
                   for token in tokens)
    return sha256(text.encode()).hexdigest()


def parse_unit(source: str, previous: Optional[UnitScan] = None,
               ) -> Tuple[TranslationUnit, SemanticInfo, UnitScan]:
    """Scan, parse and analyze ``source``; also digest it for edits.

    Given the ``previous`` source's scan, only the span of ``source`` that
    differs is scanned again (:func:`~repro.frontend.lexer.retokenize`).  A
    body wholly outside the re-scanned span is not parsed again: it is
    skipped by its known span, it is an empty block in the returned unit,
    and its digest comes from ``previous``.  A body inside the
    span is parsed and digested; the caller lowers it only if its digest
    changed.  When the context changed, every body must be lowered, so
    every body is parsed after all, from the tokens already scanned.
    """
    if previous is None:
        return _parse_tokens(source, tokenize(source), None, {})
    relex = retokenize(previous.source, previous.tokens, source)
    return _parse_tokens(source, relex.tokens, previous,
                         _unmoved_bodies(previous.spans, relex))


def _unmoved_bodies(spans: Dict[str, Tuple[int, int]],
                    relex: Relex) -> Dict[str, Tuple[int, int]]:
    """The previous bodies whose tokens ``relex`` reused, at their new
    spans."""
    moved = relex.tail - relex.old_tail
    unmoved: Dict[str, Tuple[int, int]] = {}
    for name, (start, end) in spans.items():
        if end <= relex.head:
            unmoved[name] = (start, end)
        elif start >= relex.old_tail:
            unmoved[name] = (start + moved, end + moved)
    return unmoved


def _parse_tokens(source: str, tokens: List[Token],
                  previous: Optional[UnitScan],
                  unmoved: Dict[str, Tuple[int, int]],
                  ) -> Tuple[TranslationUnit, SemanticInfo, UnitScan]:
    parser = _SpanParser(tokens, unmoved)
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
    for name, decl in info.function_decls.items():
        if decl.body is None:
            continue
        if name in parser.skipped:
            bodies[name] = previous.digests.bodies[name]
        else:
            start, end = spans[name]
            bodies[name] = _tokens_digest(tokens[start:end])
    digests = UnitDigests(_tokens_digest(context), bodies)
    if parser.skipped and digests.context != previous.digests.context:
        return _parse_tokens(source, tokens, None, {})
    return unit, info, UnitScan(source, tokens, spans, digests)
