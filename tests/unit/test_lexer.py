"""Malformed-input behaviour of the single-pass scanner.

Every rejection the lexer can produce must be a positioned
:class:`~repro.frontend.lexer.LexerError` — never a bare ``ValueError``
escaping from ``int()``/``float()`` conversions.  The second half checks the
contract end to end: a bad source reaching the serving layer comes back as a
``bad_request`` envelope, never ``internal_error``.
"""

import pytest

from repro.frontend.lexer import KEYWORDS, LexerError, TokenKind, tokenize
from repro.service.protocol import handle_payload, make_request
from repro.service.session import AnalysisSession


def _lex_error(source: str) -> LexerError:
    with pytest.raises(LexerError) as excinfo:
        tokenize(source)
    return excinfo.value


class TestMalformedLiterals:
    """The three literal-lexing crash bugs, now positioned LexerErrors."""

    def test_hex_literal_without_digits(self):
        # Used to raise bare ValueError from int("0x", 16).
        error = _lex_error("int x = 0x;")
        assert (error.line, error.column) == (1, 9)
        assert "0x" in str(error)

    def test_hex_literal_without_digits_before_suffix(self):
        error = _lex_error("int x = 0xUL;")
        assert (error.line, error.column) == (1, 9)

    def test_multi_dot_float(self):
        # Used to raise bare ValueError from float("1.2.3").
        error = _lex_error("float f = 1.2.3;")
        assert (error.line, error.column) == (1, 11)
        assert "1.2.3" in str(error)

    def test_unknown_escape_in_char_literal(self):
        # Used to be silently accepted as the raw character.
        error = _lex_error(r"char c = '\q';")
        assert (error.line, error.column) == (1, 10)
        assert r"\q" in str(error)

    def test_unknown_escape_in_string_literal(self):
        error = _lex_error(r'char *s = "a\qb";')
        assert (error.line, error.column) == (1, 11)
        assert r"\q" in str(error)

    def test_error_position_tracks_lines(self):
        error = _lex_error("int a;\nint b;\nint c = 0x;\n")
        assert (error.line, error.column) == (3, 9)

    @pytest.mark.parametrize("source", [
        "int x = 0x;", "float f = 1.2.3;", r"char c = '\q';",
        r'char *s = "\m";', "int x = 0xUL;",
    ])
    def test_rejections_are_lexer_errors_not_value_errors(self, source):
        # LexerError does not derive from ValueError: a bare conversion
        # error escaping the scanner would fail this raises() check.
        assert not issubclass(LexerError, ValueError)
        with pytest.raises(LexerError):
            tokenize(source)


class TestUnterminatedConstructs:
    """Already-handled rejections keep their positioned errors."""

    @pytest.mark.parametrize("source, line, column", [
        ("/* never closed", 1, 1),
        ("int a;\n/* still open\n", 2, 1),
        ("char c = 'a", 1, 10),
        ('char *s = "abc', 1, 11),
        ("char c = '\\", 1, 10),
    ])
    def test_unterminated(self, source, line, column):
        error = _lex_error(source)
        assert (error.line, error.column) == (line, column)

    def test_unexpected_character(self):
        error = _lex_error("int a;\nint @;")
        assert (error.line, error.column) == (2, 5)


class TestWellFormedLexing:
    """Behaviour the scanner rewrite must preserve (and the suffix fix)."""

    def test_hex_literal_consumes_integer_suffixes(self):
        # 0x10UL used to lex as INT(0x10) + IDENT(UL).
        tokens = tokenize("int x = 0x10UL;")
        kinds = [token.kind for token in tokens]
        assert kinds == [TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.PUNCT,
                         TokenKind.INT, TokenKind.PUNCT, TokenKind.EOF]
        literal = tokens[3]
        assert literal.text == "0x10UL"
        assert literal.value == 0x10

    def test_hex_digits_may_spell_f(self):
        # f/F are hex digits, not float suffixes, inside a hex literal.
        tokens = tokenize("int x = 0x1f;")
        assert tokens[3].kind == TokenKind.INT
        assert tokens[3].value == 0x1F

    def test_decimal_suffixes_and_float_suffix(self):
        tokens = tokenize("long a = 10L; float b = 2.5f; int c = 7u;")
        values = [t.value for t in tokens if t.kind in (TokenKind.INT, TokenKind.FLOAT)]
        assert values == [10, 2.5, 7]

    def test_known_escapes(self):
        tokens = tokenize(r"""char a = '\n'; char b = '\0'; char *s = "hi\t";""")
        char_values = [t.value for t in tokens if t.kind == TokenKind.CHAR]
        assert char_values == [ord("\n"), 0]
        (string,) = [t for t in tokens if t.kind == TokenKind.STRING]
        assert string.value == "hi\t"

    def test_punctuator_maximal_munch(self):
        source = "a <<= b >>= c ... -> ++ -- << >> <= >= == != && || += <"
        texts = [t.text for t in tokenize(source) if t.kind == TokenKind.PUNCT]
        assert texts == ["<<=", ">>=", "...", "->", "++", "--", "<<", ">>",
                        "<=", ">=", "==", "!=", "&&", "||", "+=", "<"]

    def test_positions_are_one_based_per_line(self):
        tokens = tokenize("int a;\n  int b;")
        ident_a = tokens[1]
        ident_b = tokens[4]
        assert (ident_a.line, ident_a.column) == (1, 5)
        assert (ident_b.line, ident_b.column) == (2, 7)

    def test_eof_token_position(self):
        tokens = tokenize("int a;\n")
        eof = tokens[-1]
        assert eof.kind == TokenKind.EOF
        assert (eof.line, eof.column) == (2, 1)

    def test_keywords_and_identifier_interning(self):
        tokens = tokenize("int foo; int foo;")
        assert tokens[0].kind == TokenKind.KEYWORD
        assert "int" in KEYWORDS
        first, second = tokens[1], tokens[4]
        # Interned spellings: repeated identifiers share one string object.
        assert first.text is second.text

    def test_comments_and_preprocessor_lines_skipped(self):
        tokens = tokenize("#include <x.h>\n// line\n/* block\nstill */ int a;")
        assert [t.kind for t in tokens] == [TokenKind.KEYWORD, TokenKind.IDENT,
                                            TokenKind.PUNCT, TokenKind.EOF]
        assert tokens[0].line == 4


class TestServiceErrorContract:
    """A bad source at the serving layer: bad_request, never internal_error."""

    @pytest.mark.parametrize("source", [
        "int x = 0x;",
        "float f = 1.2.3;",
        r"char c = '\q';",
    ])
    def test_load_with_crashing_source_is_bad_request(self, source):
        session = AnalysisSession()
        envelope = handle_payload(
            session, make_request("load", id=1, name="bad", source=source))
        assert envelope["ok"] is False
        assert envelope["error_code"] == "bad_request"
        assert envelope["error_code"] != "internal_error"
        # The envelope carries the positioned compile diagnostic.
        assert "LexerError" in envelope["message"]
        assert "line" in envelope["message"]

    def test_load_with_parse_error_is_bad_request(self):
        session = AnalysisSession()
        envelope = handle_payload(
            session, make_request("load", id=2, name="bad", source="int main( {"))
        assert envelope["ok"] is False
        assert envelope["error_code"] == "bad_request"

    def test_load_with_unknown_struct_field_is_bad_request(self):
        session = AnalysisSession()
        envelope = handle_payload(session, make_request(
            "load", id=4, name="bad",
            source="struct P { int x; int y; };\n"
                   "int f(struct P* p) { return p->z; }"))
        assert envelope["ok"] is False
        assert envelope["error_code"] == "bad_request"
        assert "LoweringError" in envelope["message"]
        assert "line 2" in envelope["message"]

    def test_well_formed_load_still_succeeds(self):
        session = AnalysisSession()
        envelope = handle_payload(
            session,
            make_request("load", id=3, name="ok",
                         source="int main(void) { return 0; }"))
        assert envelope["ok"] is True
