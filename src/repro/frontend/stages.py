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
(:func:`~repro.frontend.lexer.retokenize`), bodies whose tokens did not
change are neither parsed nor digested again, and comparing the digests
with the previous source's finds the bodies to lower again.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..ir.module import Module
from ..ir.printer import print_module
from ..ir.types import VOID
from .ast_nodes import CompoundStmt, FunctionDecl, TranslationUnit, TypeSpec
from .cparser import Parser
from .lexer import Relex, Token, TokenKind, retokenize, tokenize
from .lowering import function_string_literals
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
    the bodies: structs, globals, prototypes and function headers, then
    each definition's name and string-literal lengths in module order (a
    literal's ``.str.N`` name depends on every literal before it, and its
    length is its global's type).  So every edit the function-granular
    contract cannot express changes the context, and all bodies are
    lowered again.  Tokens enter as kind and text only, so moving code or
    editing whitespace and comments changes no digest.  ``literals`` holds
    each body's string literals in lowering order: what lowering interns
    for a body it skips.
    """

    context: str
    bodies: Dict[str, str]
    literals: Dict[str, Tuple[str, ...]]

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
    ``tokens`` (from the ``{`` to just past the ``}``).
    """

    source: str
    tokens: List[Token]
    spans: Dict[str, Tuple[int, int]]
    digests: UnitDigests


class _SpanParser(Parser):
    """A parser that also records each function body's token span.

    A body at its span in ``unmoved`` (the previous scan's tokens, reused
    unchanged) is not parsed: it is left an empty block and its name is
    added to ``skipped``.  So is any other body whose tokens digest to
    ``reuse[name]``; the digests this check computes stay in ``digested``.
    """

    def __init__(self, tokens: List[Token], reuse: Dict[str, str],
                 unmoved: Dict[str, Tuple[int, int]]):
        super().__init__(tokens)
        self.body_spans: List[Tuple[int, int]] = []
        self.skipped: Set[str] = set()
        self.digested: Dict[Tuple[int, int], str] = {}
        self._reuse = reuse
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
                return self._skip(span)
            if self._function in self._reuse:
                end = _block_end(self._tokens, start)
                if end is not None:
                    digest = _tokens_digest(self._tokens[start:end])
                    if digest == self._reuse[self._function]:
                        return self._skip((start, end))
                    self.digested[start, end] = digest
        self._depth += 1
        body = super()._parse_compound()
        self._depth -= 1
        if not self._depth:
            self.body_spans.append((start, self._position))
        return body

    def _skip(self, span: Tuple[int, int]) -> CompoundStmt:
        self.body_spans.append(span)
        self.skipped.add(self._function)
        self._position = span[1]
        return CompoundStmt([])


def _block_end(tokens: Sequence[Token], start: int) -> Optional[int]:
    """The index after the ``}`` closing the block that opens at ``start``
    (``None`` when no block opens there or it never closes)."""
    depth = 0
    for index in range(start, len(tokens)):
        token = tokens[index]
        if token.kind == TokenKind.PUNCT:
            if token.text == "{":
                depth += 1
            elif token.text == "}":
                depth -= 1
                if not depth:
                    return index + 1
        if not depth:
            return None
    return None


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
    body whose tokens did not change is not parsed again: it is an empty
    block in the returned unit, and its digest and literals come from
    ``previous``.  A body wholly outside the re-scanned span is skipped by
    its known span, without even finding its end or digesting it.  When
    the context changed, every body must be lowered, so every body is
    parsed after all, from the tokens already scanned.
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
    parser = _SpanParser(tokens, previous.digests.bodies if previous else {},
                         unmoved)
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
    literals: Dict[str, Tuple[str, ...]] = {}
    layout: List[str] = []
    for name, decl in info.function_decls.items():
        if decl.body is None:
            continue
        if name in parser.skipped:
            bodies[name] = previous.digests.bodies[name]
            literals[name] = previous.digests.literals[name]
        else:
            start, end = spans[name]
            digest = parser.digested.get((start, end))
            bodies[name] = digest if digest is not None \
                else _tokens_digest(tokens[start:end])
            returns_void = info.function_types[name].return_type == VOID
            literals[name] = tuple(function_string_literals(decl, returns_void))
        layout.append(f"{name}:" + ",".join(str(len(text))
                                            for text in literals[name]))
    text = _tokens_digest(context) + "\x1d" + "\x1d".join(layout)
    digests = UnitDigests(sha256(text.encode()).hexdigest(), bodies, literals)
    if parser.skipped and digests.context != previous.digests.context:
        return _parse_tokens(source, tokens, None, {})
    return unit, info, UnitScan(source, tokens, spans, digests)
