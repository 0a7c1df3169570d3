"""Differential oracle: re-scanning an edit equals scanning it whole.

``retokenize(old_source, tokenize(old_source), source)`` must give exactly
``tokenize(source)`` — every token's kind, text, line, column and value —
or raise the same :class:`LexerError` (message and position).  Inputs are
every edit-script step pair of the suite programs (both directions) for
several script seeds, seeded random character edits of generated sources,
and hand-picked edges: edits inside comments and strings, edits that leave
one unterminated, the first and last character, added and removed
newlines, column shifts on the line where the scan resynchronises, empty
and identical sources.
"""

import random

import pytest

from repro.benchgen import edit_scenario
from repro.benchgen.suites import SUITE_PROGRAMS, build_program
from repro.frontend.lexer import LexerError, retokenize, tokenize

#: Script seeds of the edit-script pairs.
SCRIPT_SEEDS = (1, 2, 3, 7919)
#: Random character edits per generated source.
RANDOM_EDITS = 60
#: Characters a random edit inserts: token starts, separators, comment and
#: string delimiters, escapes and newlines.
ALPHABET = ("a", "b", "_", "1", "0x", ".", " ", "\t", "\n", "\n\n", ";", "{",
            "}", "(", ")", "*", "/", "/*", "*/", "//", '"', "'", "\\", "#",
            "+", "-", "<", "=", ">", "&", "|", "'\n'")


def _lexed(scan):
    """Every token as a tuple, or the error's message and position."""
    try:
        tokens = scan()
    except LexerError as error:
        return ("error", str(error), error.line, error.column)
    return [(token.kind, token.text, token.line, token.column, token.value)
            for token in tokens]


def _check(old, new):
    old_tokens = tokenize(old)
    expected = _lexed(lambda: tokenize(new))
    assert _lexed(lambda: retokenize(old, old_tokens, new).tokens) == expected
    if expected[0] == "error":
        return
    relex = retokenize(old, old_tokens, new)
    # The head is the old tokens themselves; the tail has the old texts.
    assert all(token is old_token for token, old_token
               in zip(relex.tokens[:relex.head], old_tokens))
    assert [(token.kind, token.text) for token in relex.tokens[relex.tail:]] \
        == [(token.kind, token.text) for token in old_tokens[relex.old_tail:]]


def _script_pairs():
    for seed in SCRIPT_SEEDS:
        for program in SUITE_PROGRAMS:
            steps = edit_scenario(program.config(), edits=3, seed=seed).steps
            for before, after in zip(steps, steps[1:]):
                yield before.source, after.source


def test_edit_script_pairs_match_a_whole_scan():
    pairs = list(_script_pairs())
    assert len(pairs) == len(SCRIPT_SEEDS) * len(SUITE_PROGRAMS) * 3
    for before, after in pairs:
        _check(before, after)
        _check(after, before)


def _random_edit(source, rng):
    for _ in range(rng.randint(1, 3)):
        start = rng.randint(0, len(source))
        end = min(len(source), start + rng.randint(0, 8))
        inserted = "".join(rng.choice(ALPHABET)
                           for _ in range(rng.randint(0, 4)))
        source = source[:start] + inserted + source[end:]
    return source


@pytest.mark.parametrize("program", ["allroots", "anagram", "bc", "ft"])
def test_random_character_edits_match_a_whole_scan(program):
    rng = random.Random(f"relex/{program}")
    source = build_program(program).source
    errors = 0
    for _ in range(RANDOM_EDITS):
        edited = _random_edit(source, rng)
        _check(source, edited)
        if _lexed(lambda: tokenize(edited))[0] == "error":
            errors += 1
        else:  # an edit of the edited source, which scans
            _check(edited, _random_edit(edited, rng))
    # The edits reach both outcomes: some sources scan, some are rejected.
    assert 0 < errors < RANDOM_EDITS


BASE = """\
/* header comment
   over two lines */
int data[4];
char *name = "ab\\"c";
int f(int x) {
  // a line comment
  return x + 0x1F; /* tail */
}
int main() { return f('q') + f('\\n'); }
"""


#: A closed comment, many tokens, then another comment.
LONG = "int a; /* x */ " + "int b; " * 40 + "/* y */ int c;\n"


@pytest.mark.parametrize("old, new", [
    # Inside a block comment, a string and a line comment.
    (BASE, BASE.replace("over two", "over 2")),
    (BASE, BASE.replace("over two lines", "over\n\nmore lines")),
    (BASE, BASE.replace('"ab', '"xyz ab')),
    (BASE, BASE.replace("a line comment", "a longer line comment")),
    # Edits that leave a comment, a string or a character unterminated.
    (BASE, BASE.replace("lines */", "lines")),
    (BASE, BASE.replace("/* tail */", "/* tail")),
    (BASE, BASE.replace('c";', 'c;')),
    (BASE, BASE.replace("'q'", "'q")),
    # Edits that open or close a comment across other tokens.
    (BASE, BASE.replace("return x", "/* return x")),
    (BASE, BASE.replace("// a line", "a line")),
    # A comment that now reaches past every resynchronisation candidate.
    (LONG, LONG.replace("x */", "x ", 1)),
    # The first and the last character.
    (BASE, "x" + BASE),
    (BASE, BASE[1:]),
    (BASE, BASE[:-1]),
    (BASE, BASE + "int tail;"),
    (BASE, BASE[:-1] + "}"),
    # Inserted and deleted newlines; a column shift on the sync line.
    (BASE, BASE.replace("int f(int x) {", "int f(int x)\n{")),
    (BASE, BASE.replace("{\n  // a line", "{  // a line")),
    (BASE, BASE.replace("x + 0x1F", "x + 12345 + 0x1F")),
    (BASE, BASE.replace("x + 0x1F", "x+0x1F")),
    (BASE, BASE.replace("f('q')", "f(7)")),
    # Changes at token boundaries: a token grows, splits or merges.
    (BASE, BASE.replace("data[4]", "data2[4]")),
    (BASE, BASE.replace("x + 0x1F", "x ++ 0x1F")),
    (BASE, BASE.replace("x + 0x1F", "x +0x1F")),
    (BASE, BASE.replace("<", "<<")),
    (BASE, BASE.replace("return x + ", "return x +=")),
    (BASE, BASE.replace("0x1F", "0x")),
    (BASE, BASE.replace("0x1F", "1.2.3")),
    # A raw newline in a character literal (rejected by both scans): a
    # literal replaced, a newline inserted into one, an escape made raw.
    (BASE, BASE.replace("'q'", "'\n'")),
    (BASE, BASE.replace("'q'", "'\nq'")),
    (BASE, BASE.replace("'\\n'", "'\n'")),
    # Empty and identical sources.
    ("", ""),
    ("", BASE),
    (BASE, ""),
    (BASE, BASE),
    ("a", "b"),
    ("int x;", "int x;\n"),
])
def test_edge_cases_match_a_whole_scan(old, new):
    _check(old, new)


def test_identical_source_keeps_every_token():
    tokens = tokenize(BASE)
    relex = retokenize(BASE, tokens, BASE)
    assert relex.tokens == tokens


def test_an_edit_scans_only_around_the_change():
    source = build_program("bc").source
    edited = source.replace("0", "9", 1)
    old_tokens = tokenize(source)
    relex = retokenize(source, old_tokens, edited)
    assert relex.tail - relex.head < 8
    assert len(relex.tokens) - relex.tail == len(old_tokens) - relex.old_tail
