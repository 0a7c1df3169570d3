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
free of: **determinism digests**.  :func:`token_stream_digest` and
:func:`module_digest` hash a token stream / printed module to a stable hex
digest.  Evaluation records embed them per program, so the determinism
gate's compare proves the frontend byte-identical across runs and hash
seeds; per-stage timings come from the repository benchmark
(``perfbench --trace 1``), which times each stage's public entry point.
"""

from __future__ import annotations

from hashlib import sha256
from typing import Sequence

from ..ir.module import Module
from ..ir.printer import print_module
from .lexer import Token

__all__ = ["token_stream_digest", "module_digest"]


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
