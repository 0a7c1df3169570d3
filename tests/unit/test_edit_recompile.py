"""An edit recompiles only the changed bodies, and the result is exact.

``AnalysisSession.edit_source`` lowers and prepares only the function bodies
whose token digest changed (all of them when the context digest changed).
Every test here holds the resident module against a whole-module compile of
the same source: the edit's ``changed``/``reloaded`` answer, every
function's printed IR, the module digest and the kind of every call's callee
operand (``Function`` or name) must be what a cold compile gives.
"""

import gc
import subprocess
import sys
from pathlib import Path

import pytest

from repro.benchgen import edit_scenario
from repro.benchgen.suites import SUITE_PROGRAMS
from repro.engine import keys
from repro.frontend import (
    compile_bodies,
    compile_source,
    lower_bodies,
    module_digest,
    parse_unit,
)
from repro.frontend import lowering, stages
from repro.frontend import lexer
from repro.frontend.lexer import Token, tokenize
from repro.ir.function import Function
from repro.ir.instructions import CallInst, Instruction
from repro.ir.printer import print_function
from repro.service import AnalysisSession
from repro.service.store import ResultStore
from repro.transforms import mem2reg

REPO_ROOT = Path(__file__).resolve().parents[2]

BASE = """\
struct pt { int x; int y; };
int total;
int ext(int v);

int fact(int n) {
  if (n < 2) return 1;
  return n * fact(n - 1);
}

int first(int *p, int n) {
  int s = 0;
  int i;
  for (i = 0; i < n; i = i + 1) { s = s + p[i]; }
  puts("first");
  return s;
}

int middle(int *p, int n) {
  int a = first(p, n);
  int b = last(p, n);
  puts("mid");
  return a + b + 16;
}

int last(int *p, int n) {
  puts("last");
  return p[n - 1] + fact(3);
}

int main() {
  struct pt q;
  int *p = malloc(40);
  q.x = 1;
  q.y = 2;
  total = middle(p, 10) + q.y + ext(3);
  puts("main");
  return 0;
}
"""


def _edited(old, new, source=BASE):
    assert old in source
    return source.replace(old, new, 1)


def _callee_kinds(module):
    return {fn.name: [isinstance(inst.callee, Function)
                      for inst in fn.instructions()
                      if isinstance(inst, CallInst)]
            for fn in module.defined_functions()}


def _shape(module):
    return (list(module.struct_types.items()),
            [(g.name, g.value_type) for g in module.globals],
            [(fn.name, fn.function_type, fn.is_declaration(),
              [arg.name for arg in fn.args] if fn.is_declaration() else None)
             for fn in module.functions])


def _whole_module_answer(before, after):
    """The edit answer that two whole-module compiles imply."""
    current, donor = compile_source(before, "m"), compile_source(after, "m")
    if _shape(current) != _shape(donor):
        return [], True
    return [fn.name for fn in donor.defined_functions()
            if print_function(fn) != print_function(current.get_function(fn.name))], False


def _assert_matches(resident, cold):
    assert [print_function(fn) for fn in resident.functions] == \
        [print_function(fn) for fn in cold.functions]
    assert module_digest(resident) == module_digest(cold)
    assert _callee_kinds(resident) == _callee_kinds(cold)
    assert list(resident.struct_types.items()) == list(cold.struct_types.items())


def _edit_and_check(session, before, after, work=None):
    """Apply one edit and hold it against whole-module compiles, which run
    first: afterwards ``work`` (the fixture below) holds the edit's own."""
    expected, cold = _whole_module_answer(before, after), compile_source(after, "m")
    for done in (work or {}).values():
        done.clear()
    answer = session.edit_source("m", after)
    assert (answer["changed"], answer["reloaded"]) == expected
    _assert_matches(session._modules["m"].module, cold)
    return answer


@pytest.fixture
def work(monkeypatch):
    """Names of the functions lowered and prepared (mem2reg) per call."""
    done = {"lowered": [], "prepared": []}
    lower = lowering._FunctionLowerer.lower
    promote = mem2reg.promote_allocas_in_function

    def counting_lower(self):
        done["lowered"].append(self.function.name)
        return lower(self)

    def counting_promote(function):
        done["prepared"].append(function.name)
        return promote(function)

    monkeypatch.setattr(lowering._FunctionLowerer, "lower", counting_lower)
    monkeypatch.setattr(mem2reg, "promote_allocas_in_function",
                        counting_promote)
    return done


@pytest.fixture
def whole_scans(monkeypatch):
    """The sources the scanner ran over from offset 0, in call order."""
    sources = []
    scan = lexer._scan

    def counting_scan(source, position, *rest):
        if position == 0:
            sources.append(source)
        return scan(source, position, *rest)

    monkeypatch.setattr(lexer, "_scan", counting_scan)
    return sources


def _session(source=BASE):
    session = AnalysisSession()
    session.load_source("m", source)
    return session


@pytest.mark.parametrize("program", ["allroots", "anagram", "fixoutput", "bc"])
def test_edit_scenarios_match_whole_module_compile(program):
    config = next(p for p in SUITE_PROGRAMS if p.name == program).config()
    steps = edit_scenario(config, edits=3).steps
    session = _session(steps[0].source)
    # Forward through the script and back to the start, as serve-edit does.
    order = [1, 2, 3, 2, 1, 0]
    before = steps[0].source
    for index in order:
        answer = _edit_and_check(session, before, steps[index].source)
        assert answer["reloaded"] is False
        before = steps[index].source


def test_one_body_edit_lowers_and_prepares_one_function(work):
    session = _session()
    answer = _edit_and_check(
        session, BASE, _edited("a + b + 16", "a + b + 17"), work)
    assert (answer["changed"], answer["reloaded"]) == (["middle"], False)
    assert work == {"lowered": ["middle"], "prepared": ["middle"]}


def test_whitespace_and_comment_edit_changes_nothing(work):
    session = _session()
    after = _edited("int middle(", "/* moved */\n\n\nint   middle(")
    after = _edited("puts(\"mid\");", "puts(\"mid\");  // a comment\n", after)
    answer = _edit_and_check(session, BASE, after, work)
    assert (answer["changed"], answer["reloaded"]) == ([], False)
    assert work == {"lowered": [], "prepared": []}


def test_comment_edit_inside_a_body_parses_it_and_lowers_nothing(work):
    after = _edited("puts(\"mid\");", "puts(\"mid\"); /* a comment */")
    _, _, base = parse_unit(BASE)
    unit, _, scan = parse_unit(after, base)
    # The body is in the re-scanned span, so it is parsed again; its
    # digest, like every other, is unchanged.
    assert [decl.name for decl in unit.functions
            if decl.body is not None and decl.body.statements] == ["middle"]
    assert scan.digests == base.digests
    session = _session()
    answer = _edit_and_check(session, BASE, after, work)
    assert (answer["changed"], answer["reloaded"]) == ([], False)
    assert work == {"lowered": [], "prepared": []}


def test_token_change_with_identical_ir(work):
    session = _session()
    answer = _edit_and_check(
        session, BASE, _edited("a + b + 16", "a + b + 0x10"), work)
    assert (answer["changed"], answer["reloaded"]) == ([], False)
    assert work == {"lowered": ["middle"], "prepared": ["middle"]}


def test_calls_to_earlier_later_and_same_function_keep_their_kind():
    session = _session()
    kinds = _callee_kinds(session._modules["m"].module)
    # first is earlier (Function), last is later (name), fact calls itself.
    assert kinds["middle"] == [True, False, False]
    assert kinds["fact"] == [True]
    before = BASE
    for after in (_edited("a + b + 16", "b + a + 16", before),
                  _edited("fact(n - 1)", "fact(n - 2)", before),
                  _edited("p[n - 1] + fact(3)", "p[n - 2] + fact(4)", before)):
        _edit_and_check(session, before, after)
        before = after
    assert _callee_kinds(session._modules["m"].module) == kinds


@pytest.mark.parametrize("old, new", [
    # Literals before and after the edited body keep their .str.N names.
    ("p[n - 1] + fact(3)", "p[n - 1] + fact(5)"),
    # Same length, new text: the IR names .str.N only, nothing changes.
    ('puts("mid")', 'puts("MID")'),
    # A literal of a new length changes a global's type: reload.
    ('puts("mid")', 'puts("middle")'),
    # One more literal renumbers every later one: reload.
    ('puts("first");', 'puts("first"); puts("again");'),
])
def test_string_literals_before_and_after_the_edited_function(old, new):
    _edit_and_check(_session(), BASE, _edited(old, new))


def test_literal_length_change_in_one_body_reloads(work):
    # Only lowering "middle" shows that its literal's global changes type:
    # the candidate is lowered, then the whole unit is compiled.
    session = _session()
    after = _edited('puts("mid")', 'puts("middle")')
    answer = _edit_and_check(session, BASE, after, work)
    assert (answer["changed"], answer["reloaded"]) == ([], True)
    bodies = ["fact", "first", "middle", "last", "main"]
    assert work == {"lowered": ["middle"] + bodies, "prepared": bodies}
    assert session._modules["m"].scan.literals == \
        compile_bodies(after).scan.literals


def test_literal_text_change_of_the_same_length_stays_incremental(work):
    session = _session()
    after = _edited('puts("mid")', 'puts("MID")')
    answer = _edit_and_check(session, BASE, after, work)
    assert (answer["changed"], answer["reloaded"]) == ([], False)
    assert work == {"lowered": ["middle"], "prepared": ["middle"]}
    assert session._modules["m"].scan.literals == \
        compile_bodies(after).scan.literals


def test_prototype_change_is_structural():
    for after in (_edited("int ext(int v);", "int ext(int w);"),
                  _edited("int ext(int v);", "int ext(int v);\nint last(int *p, int n);"),
                  _edited("int ext(int v);", "int ext(char v);")):
        session = _session()
        answer = _edit_and_check(session, BASE, after)
        assert answer["reloaded"] is True


def test_first_edit_after_a_load_does_not_rescan_the_old_source(
        work, whole_scans):
    session = _session()
    after = _edited("a + b + 16", "a + b + 17")
    _edit_and_check(session, BASE, after, {**work, "scans": whole_scans})
    assert whole_scans == []
    assert work == {"lowered": ["middle"], "prepared": ["middle"]}


@pytest.mark.parametrize("old, new", [
    ("struct pt { int x; int y; };", "struct pt { int y; int x; };"),
    ("int total;", "int total;\nint extra;"),
])
def test_structural_edit_lowers_each_body_once(work, old, new):
    session = _session()
    answer = _edit_and_check(session, BASE, _edited(old, new), work)
    assert answer["reloaded"] is True
    bodies = ["fact", "first", "middle", "last", "main"]
    assert work == {"lowered": bodies, "prepared": bodies}
    resident = session._modules["m"]
    assert (resident.edits, resident.impacts) == (0, [])
    assert resident.scan.source is resident.source


def test_lazy_resident_first_edit_compiles_its_source_once(
        tmp_path, work, whole_scans):
    root = str(tmp_path / "store")
    AnalysisSession(store=ResultStore(root)).load_source("m", BASE)
    session = AnalysisSession(store=ResultStore(root))
    session.load_source("m", BASE)
    assert not session._modules["m"].materialized
    after = _edited("a + b + 16", "a + b + 17")
    _edit_and_check(session, BASE, after, {**work, "scans": whole_scans})
    assert whole_scans == [BASE]
    bodies = ["fact", "first", "middle", "last", "main"]
    assert work == {"lowered": bodies + ["middle"],
                    "prepared": bodies + ["middle"]}


def test_struct_change_reloads_and_updates_struct_types():
    session = _session()
    after = _edited("struct pt { int x; int y; };", "struct pt { int y; int x; };")
    answer = session.edit_source("m", after)
    assert (answer["changed"], answer["reloaded"]) == ([], True)
    module = session._modules["m"].module
    assert module.struct_types["pt"] == compile_source(after).struct_types["pt"]
    _assert_matches(module, compile_source(after, "m"))


def test_skipped_bodies_keep_string_numbering():
    source = """\
int g(char *s) { return 0; }
void v() { return "dropped"; }
int f(char *p, int n) {
  int i;
  for (i = 0; i < n; i = i + g("step")) { g("body"); }
  "abc"[0] += "de"[1];
  return sizeof("sized") + g("last");
}
"""
    unit, info, _ = parse_unit(source)
    whole, literals = lower_bodies(unit, info, "m")
    # "abc" is interned twice: a compound assignment lowers its target twice.
    assert literals == {"g": [], "v": [], "f": [4, 4, 3, 3, 2, 5, 4]}
    for bodies in ((), ("f",), ("v",)):
        skipped = {name: lengths for name, lengths in literals.items()
                   if name not in bodies}
        skeleton, recorded = lower_bodies(unit, info, "m", skipped)
        assert recorded == literals
        assert [(g.name, g.value_type) for g in skeleton.globals] == \
            [(g.name, g.value_type) for g in whole.globals]
        for name in bodies:
            assert print_function(skeleton.get_function(name)) == \
                print_function(whole.get_function(name))


def test_digests_ignore_positions():
    digests = parse_unit(BASE)[2].digests
    moved = parse_unit("\n\n" + BASE.replace("  ", "\t"))[2].digests
    assert moved == digests
    edited = parse_unit(_edited("a + b + 16", "a + b + 17"))[2].digests
    assert edited.context == digests.context
    assert edited.changed_bodies(digests) == ["middle"]


def test_an_edit_parses_only_the_bodies_that_changed():
    def parsed(unit):
        return [decl.name for decl in unit.functions
                if decl.body is not None and decl.body.statements]

    _, _, base = parse_unit(BASE)
    after = _edited("a + b + 16", "a + b + 17")
    unit, _, scan = parse_unit(after, base)
    assert parsed(unit) == ["middle"]
    # The edit's scan record is the one a whole scan of ``after`` gives.
    assert scan.digests == parse_unit(after)[2].digests
    assert scan == parse_unit(after)[2]
    # A changed context needs every body lowered, so every body is parsed.
    after = _edited("struct pt { int x; int y; };",
                    "struct pt { int y; int x; };")
    unit, _, scan = parse_unit(after, base)
    assert parsed(unit) == parsed(parse_unit(BASE)[0])
    assert scan.digests == parse_unit(after)[2].digests
    assert scan == parse_unit(after)[2]


def test_a_one_body_edit_digests_only_the_rescanned_body(monkeypatch):
    _, _, base = parse_unit(BASE)
    digested = []
    tokens_digest = stages._tokens_digest

    def counting_digest(tokens):
        digested.append(len(tokens))
        return tokens_digest(tokens)

    monkeypatch.setattr(stages, "_tokens_digest", counting_digest)
    after = _edited("a + b + 16", "a + b + 17")
    _, _, scan = parse_unit(after, base)
    start, end = scan.spans["middle"]
    context = len(scan.tokens) - sum(end - start
                                     for start, end in scan.spans.values())
    # The edited body is digested once; every other body is skipped by its
    # known span; the context is digested once.
    assert digested == [end - start, context]
    monkeypatch.undo()
    assert scan.digests == parse_unit(after)[2].digests
    assert scan == parse_unit(after)[2]


def test_digest_code_passes_the_determinism_lint():
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "lint_determinism.py"),
         str(REPO_ROOT / "src" / "repro" / "frontend" / "stages.py"),
         str(REPO_ROOT / "src" / "repro" / "frontend" / "driver.py")],
        capture_output=True, text=True, cwd=REPO_ROOT)
    assert result.returncode == 0, result.stdout


def _live_instructions():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Instruction))


def _live_tokens():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Token))


def test_memory_is_bounded_across_edit_cycles():
    config = next(p for p in SUITE_PROGRAMS if p.name == "anagram").config()
    steps = edit_scenario(config, edits=3).steps
    session = _session(steps[0].source)
    resident = session._modules["m"]

    def cycle():
        for index in (1, 2, 3, 2, 1, 0):
            session.edit_source("m", steps[index].source)
            session.query_function("m", "rbaa")
            session.check_bounds("m")
            session.parallel_loops("m")

    cycle()
    baseline = (_live_instructions(), len(resident.manager.get(keys.LOCATIONS)),
                _live_tokens())
    for _ in range(2):
        cycle()
        assert (_live_instructions(), len(resident.manager.get(keys.LOCATIONS)),
                _live_tokens()) == baseline
    # The kept scan is the current source's, replaced by every edit.
    scans = []
    for index in (1, 0):
        session.edit_source("m", steps[index].source)
        assert resident.scan.source is resident.source
        assert resident.scan.tokens == tokenize(resident.source)
        scans.append(resident.scan)
    assert scans[0] is not scans[1]
