"""Deliberately broken analyses must be caught by the oracle.

The zero-violation corpus sweep only means something if the oracle can
actually falsify wrong claims.  Each mutant here injects a specific,
realistic bug class — claim-everything, an off-by-access-size constant
offset rule, and an interval that forgets widening — and the oracle must
flag every one of them on programs whose executions disprove the claim.
"""

from repro.aliases.basic import BasicAliasAnalysis
from repro.aliases.base import AliasAnalysis
from repro.aliases.results import AliasResult, MemoryAccess
from repro.benchgen import GeneratedProgram, GeneratorConfig, build_program
from repro.core import RBAAAliasAnalysis
from repro.engine import keys
from repro.engine.manager import AnalysisManager
from repro.evaluation.soundness import check_program
from repro.frontend import compile_bodies
from repro.symbolic import SymbolicInterval


def _unmanaged(cls):
    """An oracle factory ``(module, manager)`` for an analysis class."""
    return lambda module, manager: cls(module)


def _managed(cls):
    return lambda module, manager: cls(module, manager=manager)


def crafted(name, source):
    config = GeneratorConfig(name=name, instances=1, seed=0)
    compiled = compile_bodies(source, name)
    return GeneratedProgram(config=config, module=compiled.module, scan=compiled.scan)


class AlwaysNoAliasAnalysis(AliasAnalysis):
    """The maximally unsound analysis: every pair is declared disjoint."""

    name = "always-no-alias"

    def alias(self, a, b):
        if a.pointer is b.pointer:
            return AliasResult.MUST_ALIAS
        return AliasResult.NO_ALIAS


class OffBySizeBasicAnalysis(BasicAliasAnalysis):
    """basicaa with the constant-offset overlap test off by an access size.

    ``low + low_size <= high`` becomes ``low <= high``: two accesses at
    overlapping constant offsets from the same base are wrongly declared
    disjoint — exactly the class of bug the same-base instance pairing
    must catch.
    """

    name = "basic-off-by-size"

    def classify(self, a, b):
        result, claim = super().classify(a, b)
        if result is AliasResult.PARTIAL_ALIAS and claim.scope == "same-base":
            return AliasResult.NO_ALIAS, claim
        return result, claim


class CollapsedRangeOracle:
    """A range analysis that forgot to widen: every interval is [0, 0]."""

    def __init__(self, real):
        self._real = real

    def kernel_bindings(self):
        return self._real.kernel_bindings()

    def integer_values(self, function):
        return self._real.integer_values(function)

    def range_of(self, value):
        return SymbolicInterval.point(0)


class UnknownSizeAsByteRBAA(RBAAAliasAnalysis):
    """RBAA with the pre-fix unknown-size behaviour: ``None`` sizes run the
    range tests as one-byte accesses.

    This is the exact bug ``MemoryAccess.bounded_size()`` used to bake in:
    two pointers one byte apart were "provably disjoint" even for queries
    about accesses of unbounded extent.  The oracle's unknown-size query
    augmentation must falsify it.
    """

    name = "rbaa-unknown-as-byte"

    def _run_tests(self, a, b):
        return super()._run_tests(
            MemoryAccess(a.pointer, a.size if a.size is not None else 1),
            MemoryAccess(b.pointer, b.size if b.size is not None else 1))


def test_always_no_alias_mutant_is_caught_on_corpus_program():
    check = check_program(build_program("allroots"),
                          factories=[("always-no-alias", _unmanaged(AlwaysNoAliasAnalysis))])
    violations = [v for v in check.violations if v.kind == "no-alias"]
    assert violations, "oracle failed to falsify an always-no-alias analysis"
    assert all(v.analysis == "always-no-alias" for v in violations)
    # Replay triple: enough to regenerate the program and re-ask the query.
    replay = violations[0].replay
    assert replay["program"] == "allroots"
    assert "seed" in replay and "argv" in replay
    assert violations[0].query


def test_off_by_size_constant_offset_rule_is_caught():
    source = """
    int main(int argc, char** argv) {
      int* data = (int*)malloc(32);
      char* raw = (char*)data;
      int* skewed = (int*)(raw + 2);
      *data = 5;
      *skewed = 7;
      return *data;
    }
    """
    program = crafted("offsets", source)
    healthy = check_program(program, factories=[("basic", _unmanaged(BasicAliasAnalysis))])
    assert healthy.violations == []
    broken = check_program(program,
                           factories=[("basic-off-by-size", _unmanaged(OffBySizeBasicAnalysis))])
    violations = [v for v in broken.violations if v.kind == "no-alias"]
    assert violations, "off-by-size constant-offset rule escaped the oracle"
    assert any("same base instance" in v.detail for v in violations)


def test_unknown_size_as_one_byte_mutant_is_caught():
    """The registered oracle case for the unknown-size soundness fix.

    ``head`` and ``tail`` are provably 1-byte-disjoint (offsets 0 and 1 of
    one allocation), and both are concretely held during execution, so any
    no-alias claim about their *unknown-size* accesses is falsifiable: an
    unbounded access through ``head`` reaches ``tail``'s byte.
    """
    source = """
    int main(int argc, char** argv) {
      int n = atoi(argv[1]);
      char* buf = (char*)malloc(n);
      char* head = buf;
      char* tail = buf + 1;
      *head = 1;
      *tail = 2;
      return *head;
    }
    """
    program = crafted("unknown_size", source)
    healthy = check_program(program, factories=[("rbaa", _managed(RBAAAliasAnalysis))])
    assert healthy.violations == []
    broken = check_program(
        program, factories=[("rbaa-unknown-as-byte", _managed(UnknownSizeAsByteRBAA))])
    violations = [v for v in broken.violations if v.kind == "no-alias"]
    assert violations, "unknown-size-as-1-byte escaped the oracle"
    assert all(v.analysis == "rbaa-unknown-as-byte" for v in violations)


def test_collapsed_range_mutant_is_caught():
    program = build_program("fixoutput")
    real = AnalysisManager(program.module).get(keys.RANGES)
    check = check_program(program, range_oracle=CollapsedRangeOracle(real))
    violations = [v for v in check.violations if v.kind == "range"]
    assert violations, "oracle failed to falsify collapsed intervals"
    assert all(v.analysis == "symbolic-ra" for v in violations)
    assert any("observed" in v.detail for v in violations)


def test_healthy_analyses_survive_the_crafted_program():
    source = """
    void mix(int* data, int n) {
      int* lo = data;
      int* hi = data + n;
      int i;
      for (i = 0; i < n; i++) {
        lo[i] = i;
        hi[i] = 0 - i;
      }
    }
    int main(int argc, char** argv) {
      int n = atoi(argv[1]);
      int* xs = (int*)malloc(n * 8);
      mix(xs, n);
      return 0;
    }
    """
    check = check_program(crafted("halves", source))
    assert check.executed
    assert check.violations == []
    assert check.claims_checked > 0
