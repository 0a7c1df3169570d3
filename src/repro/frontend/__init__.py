"""Mini-C frontend: lexer, parser, semantic analysis and lowering to IR.

The frontend exists so the reproduction can run the paper's motivating C
programs (Figures 1, 3 and 10) and realistic benchmark idioms end-to-end,
playing the role clang plays in the original LLVM-based implementation.
"""

from .cparser import ParseError, Parser, parse
from .driver import BodyCompile, compile_bodies, compile_source
from .lexer import LexerError, Token, TokenKind, retokenize, tokenize
from .lowering import LoweringError, lower_translation_unit
from .sema import SemanticError, SemanticInfo, analyze
from .stages import (UnitDigests, UnitScan, frontend_fingerprint,
                     module_digest, parse_unit, token_stream_digest)

__all__ = [
    "ParseError",
    "Parser",
    "parse",
    "BodyCompile",
    "compile_bodies",
    "compile_source",
    "LexerError",
    "Token",
    "TokenKind",
    "retokenize",
    "tokenize",
    "LoweringError",
    "lower_translation_unit",
    "SemanticError",
    "SemanticInfo",
    "analyze",
    "UnitDigests",
    "UnitScan",
    "frontend_fingerprint",
    "module_digest",
    "parse_unit",
    "token_stream_digest",
]
