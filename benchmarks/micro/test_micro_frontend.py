"""Microbenchmarks of the frontend cold-compile stages.

PR 5's profiler showed cold loads dominated by the frontend; the staged
scanner/IR-builder rewrite attacks exactly these three kernels, so each
gets its own operation-level record: scanning a realistic source, parsing
its token stream, and lowering the AST to IR.  A fourth record times one
``edit_source`` step, which recompiles only the edited function body, a
fifth a load followed by its first edit, and a sixth the re-scan of that
step's source against the previous tokens.
The asserted invariants keep the benchmarks honest — token counts, stream
digests, instruction counts and the edit's ``changed`` list are all
deterministic — and the timings land in the pytest-benchmark report
uploaded by the perf-smoke CI job (reported, never gated).
"""

from repro.benchgen import build_suite, edit_scenario
from repro.benchgen.suites import SUITE_PROGRAMS
from repro.frontend import (
    Parser,
    analyze,
    lower_translation_unit,
    retokenize,
    token_stream_digest,
    tokenize,
)
from repro.service import AnalysisSession

#: Two small suite programs: enough tokens that per-token costs dominate,
#: small enough that a benchmark round stays in the milliseconds.
_PROGRAMS = ("allroots", "anagram")


def _sources():
    suite = build_suite(_PROGRAMS)
    return [(name, program.source) for name, program in suite.items()]


def test_lex_single_pass_scanner(benchmark):
    sources = _sources()

    def run():
        return [tokenize(source) for _, source in sources]

    streams = benchmark.pedantic(run, iterations=10, rounds=5)
    # The scanner is deterministic: same sources, same streams.
    digests = [token_stream_digest(stream) for stream in streams]
    assert digests == [token_stream_digest(tokenize(source))
                       for _, source in sources]
    assert all(stream[-1].kind == "eof" for stream in streams)


def test_parse_token_stream(benchmark):
    streams = [(name, tokenize(source)) for name, source in _sources()]

    def run():
        return [Parser(stream).parse_translation_unit() for _, stream in streams]

    units = benchmark.pedantic(run, iterations=10, rounds=5)
    assert all(unit.functions for unit in units)


def test_lower_to_ir(benchmark):
    units = [(name, Parser(tokenize(source)).parse_translation_unit())
             for name, source in _sources()]
    infos = [(name, unit, analyze(unit)) for name, unit in units]

    def run():
        return [lower_translation_unit(unit, name, info)
                for name, unit, info in infos]

    modules = benchmark.pedantic(run, iterations=5, rounds=5)
    counts = [module.instruction_count() for module in modules]
    # Lowering is deterministic: a fresh run emits identical counts.
    assert counts == [lower_translation_unit(unit, name, info).instruction_count()
                      for name, unit, info in infos]
    assert all(count > 0 for count in counts)


def test_edit_source_one_step(benchmark):
    config = next(p for p in SUITE_PROGRAMS if p.name == _PROGRAMS[0]).config()
    start, step = edit_scenario(config, edits=1).steps
    session = AnalysisSession()
    session.load_source("m", start.source)

    def reset():
        # Untimed: put the resident back on the unedited source.
        session.edit_source("m", start.source)

    def run():
        return session.edit_source("m", step.source)

    answer = benchmark.pedantic(run, setup=reset, iterations=1, rounds=10)
    assert answer["changed"] == [step.function]
    assert answer["reloaded"] is False


def test_first_edit_after_load(benchmark):
    config = next(p for p in SUITE_PROGRAMS if p.name == _PROGRAMS[0]).config()
    start, step = edit_scenario(config, edits=1).steps

    def load():
        # Untimed: a fresh resident, which has never been edited.
        session = AnalysisSession()
        session.load_source("m", start.source)
        return (session,), {}

    def run(session):
        # The first edit starts from the scan the load kept.
        return session.edit_source("m", step.source)

    answer = benchmark.pedantic(run, setup=load, iterations=1, rounds=10)
    assert answer["changed"] == [step.function]
    assert answer["reloaded"] is False


def test_retokenize_one_step(benchmark):
    config = next(p for p in SUITE_PROGRAMS if p.name == _PROGRAMS[0]).config()
    start, step = edit_scenario(config, edits=1).steps
    old_tokens = tokenize(start.source)

    def run():
        return retokenize(start.source, old_tokens, step.source)

    relex = benchmark.pedantic(run, iterations=10, rounds=5)
    assert token_stream_digest(relex.tokens) == \
        token_stream_digest(tokenize(step.source))
    # Only the edited span is scanned again.
    assert relex.tail - relex.head < len(relex.tokens) // 4
