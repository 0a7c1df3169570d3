"""Tokenizer for the mini-C frontend.

The frontend accepts the C subset the paper's benchmarks exercise: scalar
and pointer types, arrays, structs, pointer arithmetic, loops and calls to a
handful of library routines.  The lexer is a single-pass hand-written scanner
producing a flat token list consumed by the recursive-descent parser.

Scanner shape (the cold-load hot path, so it is written for speed):

* one position loop, :func:`_scan`, with ``line``/``line_start``
  bookkeeping — a column is ``position - line_start + 1``, so nothing
  recounts characters;
* punctuators dispatch through 3/2/1-character tables (maximal munch without
  a longest-first linear scan);
* token texts are interned, so keyword checks and parser punctuator
  comparisons degenerate to pointer comparisons.

:func:`tokenize` runs that loop from offset 0.  :func:`retokenize` is the
edit path (incremental lexing in the manner of Wagner & Graham, "Efficient
and Flexible Incremental Parsing", TOPLAS 1998): it keeps the previous
token list's tokens that end safely before the first changed character,
re-runs the same loop from the last of them, and stops at the first token
start that is also an old token start inside the unchanged tail of the
source.  From there the old tokens are reused, their line and column
shifted only where the edit moved them.  Both give the same tokens and
raise the same errors.

Every rejection — malformed literal, unknown escape, unterminated construct,
stray character — raises :class:`LexerError` carrying line/column.  Bare
``ValueError`` must never escape ``tokenize``: the serving layer maps
``LexerError`` to a ``bad_request`` envelope and anything else to
``internal_error``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from sys import intern
from typing import Dict, List, NamedTuple, Optional, Tuple

__all__ = ["Token", "TokenKind", "LexerError", "Relex", "tokenize",
           "retokenize", "KEYWORDS"]


class TokenKind:
    """Token categories (plain strings keep the parser readable)."""

    IDENT = "ident"
    KEYWORD = "keyword"
    INT = "int"
    FLOAT = "float"
    CHAR = "char"
    STRING = "string"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = frozenset({
    "int", "char", "float", "double", "void", "long", "short", "unsigned", "signed",
    "struct", "typedef", "sizeof",
    "if", "else", "while", "for", "do", "return", "break", "continue",
    "const", "static", "extern", "NULL",
})

# Punctuator dispatch tables: maximal munch tries the 3-char slice, then the
# 2-char slice, then the single character.  The mapped values are the
# canonical interned spellings shared by every emitted token.
_PUNCT3 = {p: intern(p) for p in ("<<=", ">>=", "...")}
_PUNCT2 = {p: intern(p) for p in (
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
)}
_PUNCT1 = {p: intern(p) for p in "+-*/%=<>!&|^~(){}[];,.?:"}

_DIGITS = frozenset("0123456789")
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CHARS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")
_INT_SUFFIXES = frozenset("uUlL")
_NUM_SUFFIXES = frozenset("uUlLfF")


class LexerError(Exception):
    """Raised on malformed input, with line/column context."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class Token:
    """One lexical token (slotted: tokens dominate cold-compile allocation)."""

    __slots__ = ("kind", "text", "line", "column", "value")

    def __init__(self, kind: str, text: str, line: int, column: int,
                 value: Optional[object] = None):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column
        self.value = value

    def is_punct(self, text: str) -> bool:
        return self.kind == TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind == TokenKind.KEYWORD and self.text == text

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Token):
            return NotImplemented
        return (self.kind == other.kind and self.text == other.text
                and self.line == other.line and self.column == other.column
                and self.value == other.value)

    def __hash__(self) -> int:
        return hash((self.kind, self.text, self.line, self.column, self.value))

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r})"


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\", "'": "'", '"': '"'}


def tokenize(source: str) -> List[Token]:
    """Convert ``source`` into a token list terminated by an EOF token."""
    return _scan(source, 0, 1, 0, None)[0]


def _scan(source: str, position: int, line: int, line_start: int,
          sync: Optional[Dict[int, int]],
          ) -> Tuple[List[Token], Optional[Tuple[int, int, int]]]:
    """The scanner loop: tokens of ``source`` from offset ``position``.

    ``position`` must be a token boundary on scanner line ``line``, which
    starts at offset ``line_start``.  Without ``sync`` the scan runs to the
    end and returns the tokens (EOF last) and ``None``.  ``sync`` maps
    offsets to indices of a previous token list; the scan then stops at the
    first boundary it reaches that ``sync`` names and returns the tokens
    before it with ``(index, line, column)`` of that boundary.
    """
    tokens: List[Token] = []
    append = tokens.append
    length = len(source)

    KW = KEYWORDS
    IDENT = TokenKind.IDENT
    KEYWORD = TokenKind.KEYWORD
    INT = TokenKind.INT
    FLOAT = TokenKind.FLOAT
    PUNCT = TokenKind.PUNCT

    while position < length:
        char = source[position]
        # Whitespace.
        if char == " " or char == "\t" or char == "\r":
            position += 1
            continue
        if char == "\n":
            position += 1
            line += 1
            line_start = position
            continue
        if sync is not None and position in sync:
            return tokens, (sync[position], line, position - line_start + 1)
        start_line = line
        start_column = position - line_start + 1
        # Identifiers / keywords (most common token class first).
        if char in _IDENT_START:
            end = position + 1
            while end < length and source[end] in _IDENT_CHARS:
                end += 1
            text = intern(source[position:end])
            append(Token(KEYWORD if text in KW else IDENT, text, start_line, start_column))
            position = end
            continue
        # Punctuators (second most common; 3/2/1-char table dispatch).
        if char in _PUNCT1:
            chunk = source[position:position + 3]
            text = _PUNCT3.get(chunk)
            if text is None:
                text = _PUNCT2.get(chunk[:2])
            if text is None:
                # Comments win over "/" division.
                if char == "/" and chunk[1:2] in ("/", "*"):
                    if chunk[1] == "/":
                        newline = source.find("\n", position + 2)
                        position = length if newline < 0 else newline
                        continue
                    end = source.find("*/", position + 2)
                    if end < 0:
                        raise LexerError("unterminated block comment",
                                         start_line, start_column)
                    newlines = source.count("\n", position, end)
                    if newlines:
                        line += newlines
                        line_start = source.rindex("\n", position, end) + 1
                    position = end + 2
                    continue
                text = _PUNCT1[char]
            append(Token(PUNCT, text, start_line, start_column))
            position += len(text)
            continue
        # Numbers.
        if char in _DIGITS:
            end = position + 1
            if char == "0" and end < length and (source[end] == "x" or source[end] == "X"):
                end += 1
                digits_start = end
                while end < length and source[end] in _HEX_DIGITS:
                    end += 1
                if end == digits_start:
                    raise LexerError(
                        f"malformed hex literal {source[position:end]!r}: "
                        "expected at least one hex digit",
                        start_line, start_column)
                value = int(source[digits_start:end], 16)
                # Suffixes (U, L) are accepted and ignored, on hex too.
                while end < length and source[end] in _INT_SUFFIXES:
                    end += 1
                append(Token(INT, intern(source[position:end]),
                             start_line, start_column, value))
                position = end
                continue
            dots = 0
            while end < length:
                nxt = source[end]
                if nxt in _DIGITS:
                    end += 1
                elif nxt == ".":
                    dots += 1
                    end += 1
                else:
                    break
            is_float = dots > 0
            # Suffixes (L, U, f) are accepted and ignored.
            numeric_end = end
            while end < length and source[end] in _NUM_SUFFIXES:
                if source[end] == "f" or source[end] == "F":
                    is_float = True
                end += 1
            text = source[position:end]
            if dots > 1:
                raise LexerError(f"malformed number literal {text!r}",
                                 start_line, start_column)
            numeric = source[position:numeric_end]
            try:
                value = float(numeric) if is_float else int(numeric, 10)
            except ValueError:
                raise LexerError(f"malformed number literal {text!r}",
                                 start_line, start_column) from None
            append(Token(FLOAT if is_float else INT, intern(text),
                         start_line, start_column, value))
            position = end
            continue
        # Preprocessor lines (skipped: headers are implicit).
        if char == "#":
            newline = source.find("\n", position + 1)
            position = length if newline < 0 else newline
            continue
        # Character literals.
        if char == "'":
            end = position + 1
            if end < length and source[end] == "\\":
                escape = source[end + 1] if end + 1 < length else ""
                if escape and escape not in _ESCAPES:
                    raise LexerError(f"unknown escape sequence '\\{escape}'",
                                     start_line, start_column)
                value = ord(_ESCAPES[escape]) if escape else 0
                end += 2
            elif end < length and source[end] == "\n":
                # C11 6.4.4.4: a c-char is any character but ', \ and new-line.
                raise LexerError("newline in character literal",
                                 start_line, start_column)
            else:
                value = ord(source[end]) if end < length else 0
                end += 1
            if end >= length or source[end] != "'":
                raise LexerError("unterminated character literal",
                                 start_line, start_column)
            end += 1
            append(Token(TokenKind.CHAR, source[position:end],
                         start_line, start_column, value))
            position = end
            continue
        # String literals.
        if char == '"':
            end = position + 1
            chars: List[str] = []
            while end < length and source[end] != '"':
                if source[end] == "\\" and end + 1 < length:
                    escape = source[end + 1]
                    mapped = _ESCAPES.get(escape)
                    if mapped is None:
                        raise LexerError(f"unknown escape sequence '\\{escape}'",
                                         start_line, start_column)
                    chars.append(mapped)
                    end += 2
                else:
                    chars.append(source[end])
                    end += 1
            if end >= length:
                raise LexerError("unterminated string literal",
                                 start_line, start_column)
            end += 1
            newlines = source.count("\n", position, end)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", position, end) + 1
            append(Token(TokenKind.STRING, source[position:end],
                         start_line, start_column, "".join(chars)))
            position = end
            continue
        raise LexerError(f"unexpected character {char!r}", start_line, start_column)

    tokens.append(Token(TokenKind.EOF, "", line, length - line_start + 1))
    return tokens, None


class Relex(NamedTuple):
    """What :func:`retokenize` kept of the previous token list.

    ``tokens[:head]`` are the old list's first ``head`` tokens, and
    ``tokens[tail:]`` are ``old_tokens[old_tail:]`` with the same kinds,
    texts and values (their positions may have moved).  Only
    ``tokens[head:tail]`` were scanned again.
    """

    tokens: List[Token]
    head: int
    tail: int
    old_tail: int


#: Old token starts past an edit that a re-scan may resynchronise on.  An
#: edit whose effect on token boundaries reaches further (an opened comment
#: or string) re-scans to the end of the source.
_SYNC_CANDIDATES = 64


def retokenize(old_source: str, old_tokens: List[Token],
               source: str) -> Relex:
    """Tokenize ``source``, an edit of ``old_source`` whose tokens
    (:func:`tokenize`) are ``old_tokens``, scanning only what changed.

    The tokens are exactly :func:`tokenize`'s, and so is any
    :class:`LexerError`.  Tokens of the common prefix are kept while the
    scanner's look-ahead past them (at most two characters) stays inside
    it; the scan restarts after the last one kept and stops at the first
    token boundary that is an old token start in the common suffix.
    """
    old_length, length = len(old_source), len(source)
    prefix = _common_prefix(old_source, source)
    suffix = min(_common_prefix(old_source[::-1], source[::-1]),
                 min(old_length, length) - prefix)
    head, position, line, line_start = _restart(old_source, old_tokens,
                                                prefix - 2)
    sync = _sync_points(old_source, old_tokens, head, old_length - suffix,
                        length - old_length)
    fresh, resume = _scan(source, position, line, line_start, sync)
    tokens = old_tokens[:head]
    tokens.extend(fresh)
    if resume is None:
        return Relex(tokens, head, len(tokens), len(old_tokens))
    old_tail, line, column = resume
    tail = len(tokens)
    _extend_moved(tokens, old_tokens, old_tail, line, column)
    return Relex(tokens, head, tail, old_tail)


def _restart(old_source: str, old_tokens: List[Token],
             boundary: int) -> Tuple[int, int, int, int]:
    """How many old tokens end at or before offset ``boundary``, and the
    scanner state (offset, line, line start) just past the last of them."""
    if boundary <= 0:
        return 0, 0, 1, 0
    boundary_line, line_start = _line_of(old_source, boundary)
    head = bisect_right(old_tokens,
                        (boundary_line, boundary - line_start + 1),
                        0, len(old_tokens) - 1, key=_token_end)
    if not head:
        return 0, 0, 1, 0
    line, column = _token_end(old_tokens[head - 1])
    for _ in range(boundary_line - line):
        line_start = old_source.rfind("\n", 0, line_start - 1) + 1
    return head, line_start + column - 1, line, line_start


def _sync_points(old_source: str, old_tokens: List[Token], head: int,
                 tail_start: int, shift: int) -> Dict[int, int]:
    """The first old token starts at or after offset ``tail_start`` (none
    of the first ``head`` tokens, nor EOF), keyed by the offset each has in
    the edited source, ``shift`` characters further on."""
    last = len(old_tokens) - 1
    line, line_start = _line_of(old_source, tail_start)
    first = bisect_left(old_tokens, (line, tail_start - line_start + 1),
                        head, last, key=_token_start)
    sync: Dict[int, int] = {}
    for index in range(first, min(first + _SYNC_CANDIDATES, last)):
        token = old_tokens[index]
        while line < token.line:
            line_start = old_source.find("\n", line_start) + 1
            line += 1
        sync[line_start + token.column - 1 + shift] = index
    return sync


def _extend_moved(tokens: List[Token], old_tokens: List[Token], index: int,
                  line: int, column: int) -> None:
    """Append ``old_tokens[index:]``, moved so the first starts at
    ``line``/``column``: tokens on its line shift by both, later ones by
    the line difference only."""
    first = old_tokens[index]
    lines, columns = line - first.line, column - first.column
    count = len(old_tokens)
    if columns:
        old_line = first.line
        while index < count and old_tokens[index].line == old_line:
            token = old_tokens[index]
            tokens.append(Token(token.kind, token.text, line,
                                token.column + columns, token.value))
            index += 1
    if lines:
        tokens.extend([Token(token.kind, token.text, token.line + lines,
                             token.column, token.value)
                       for token in old_tokens[index:]])
    else:
        tokens.extend(old_tokens[index:])


def _common_prefix(a: str, b: str) -> int:
    """Length of the longest common prefix of ``a`` and ``b``."""
    low, high = 0, min(len(a), len(b))
    while low < high:
        middle = (low + high + 1) // 2
        if a.startswith(b[low:middle], low):
            low = middle
        else:
            high = middle - 1
    return low


def _line_of(source: str, offset: int) -> Tuple[int, int]:
    """The scanner line holding ``offset`` and the offset it starts at."""
    return source.count("\n", 0, offset) + 1, source.rfind("\n", 0, offset) + 1


def _token_start(token: Token) -> Tuple[int, int]:
    return token.line, token.column


def _token_end(token: Token) -> Tuple[int, int]:
    """Line and column just past ``token`` (a string may span lines)."""
    text = token.text
    newlines = text.count("\n")
    if newlines:
        return token.line + newlines, len(text) - text.rindex("\n")
    return token.line, token.column + len(text)
