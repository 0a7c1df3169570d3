"""Deliberately broken client analyses must be caught by the validator.

The zero-violation client sweep only means something if the differential
validator can actually falsify wrong verdicts.  Two mutants inject the
canonical bug class of each client — a bounds detector that calls every
access safe, and a parallelization checker that calls every loop
parallelizable — and the validator must flag both, on crafted programs
and on the quick corpus's client-heavy fuzz slice.
"""

from dataclasses import replace

from repro.benchgen import GeneratedProgram, GeneratorConfig, generate_module
from repro.clients.bounds import BoundsCheckAnalysis, SAFE
from repro.clients.parallelize import LoopParallelismAnalysis
from repro.evaluation.clients import check_clients_program, clients_corpus
from repro.frontend import compile_bodies


def crafted(name, source):
    config = GeneratorConfig(name=name, instances=1, seed=0)
    compiled = compile_bodies(source, name)
    return GeneratedProgram(config=config, module=compiled.module, scan=compiled.scan)


class AlwaysSafeDetector(BoundsCheckAnalysis):
    """The maximally unsound detector: every access is declared in bounds."""

    def classify_access(self, function, index, inst):
        return SAFE, "mutant"


class AlwaysParallelChecker(LoopParallelismAnalysis):
    """The maximally unsound checker: every loop is declared parallelizable."""

    def loop_verdict(self, function, loop, accesses):
        return True, "mutant"


class WidthSwappedLockstepChecker(LoopParallelismAnalysis):
    """Reintroduces the reviewed lockstep bug: the residue condition tested
    the access widths in the wrong positions (``wa <= r <= s - wb`` instead
    of ``wb <= r <= s - wa``), wrongly proving mixed-width strided pairs
    independent."""

    def _lockstep_independent(self, a, b, loop):
        return super()._lockstep_independent(
            replace(a, width=b.width), replace(b, width=a.width), loop)


OFF_BY_ONE = """
int main(int argc, char** argv) {
  int n = atoi(argv[1]);
  int* buf = (int*)malloc(n * 4);
  int i;
  for (i = 0; i < n; i++) {
    buf[i] = i;
  }
  buf[n] = 7;
  free(buf);
  return 0;
}
"""

SHIFT = """
int main(int argc, char** argv) {
  int n = atoi(argv[1]);
  int* a = (int*)malloc(n * 4 + 4);
  int i;
  for (i = 0; i < n; i++) {
    a[i] = i;
  }
  a[n] = 0;
  for (i = 0; i < n; i++) {
    a[i] = a[i + 1];
  }
  free(a);
  return 0;
}
"""


MIXED_WIDTH = """
int main(int argc, char** argv) {
  int n = atoi(argv[1]);
  char* buf = (char*)malloc(n * 8 + 16);
  int i;
  for (i = 0; i < n * 8; i = i + 8) {
    *(int*)(buf + i) = 7;
    buf[i + 10] = 1;
  }
  free(buf);
  return 0;
}
"""


def safe_detector(module, manager):
    return AlwaysSafeDetector(module, manager=manager)


def parallel_checker(module, manager):
    return AlwaysParallelChecker(module, manager=manager)


def width_swapped_checker(module, manager):
    return WidthSwappedLockstepChecker(module, manager=manager)


class TestCraftedPrograms:
    def test_always_safe_detector_caught_on_off_by_one(self):
        check = check_clients_program(crafted("offbyone", OFF_BY_ONE),
                                      detector_factory=safe_detector)
        assert check.executed
        assert check.oob_events_observed >= 1
        kinds = {violation.kind for violation in check.violations}
        assert "oob" in kinds
        violation = next(v for v in check.violations if v.kind == "oob")
        assert violation.replay["program"] == "offbyone"
        assert violation.replay["seed"] == 0
        assert violation.replay["access"]["function"] == "main"

    def test_always_parallel_checker_caught_on_shift(self):
        check = check_clients_program(crafted("shift", SHIFT),
                                      checker_factory=parallel_checker)
        assert check.executed
        kinds = {violation.kind for violation in check.violations}
        assert "parallel" in kinds
        violation = next(v for v in check.violations if v.kind == "parallel")
        assert violation.replay["program"] == "shift"
        assert "iterations" in violation.replay["access"]

    def test_width_swapped_lockstep_caught_on_mixed_width(self):
        check = check_clients_program(crafted("mixedwidth", MIXED_WIDTH),
                                      checker_factory=width_swapped_checker)
        assert check.executed
        kinds = {violation.kind for violation in check.violations}
        assert "parallel" in kinds

    def test_true_clients_are_clean_on_crafted_programs(self):
        sources = [("offbyone", OFF_BY_ONE), ("shift", SHIFT),
                   ("mixedwidth", MIXED_WIDTH)]
        for name, source in sources:
            check = check_clients_program(crafted(name, source))
            assert check.executed
            assert check.violations == []


class TestQuickCorpus:
    """Both mutants must be caught on the quick corpus's fuzz slice.

    The client-heavy mix makes off-by-one windows and overlapping shifts
    near-certain within a few programs; scanning a fixed prefix keeps the
    test fast while still exercising generated (not crafted) shapes.
    """

    def corpus_prefix(self, count=6):
        return [config for config in clients_corpus()
                if config.name.startswith("client_")][:count]

    def test_always_safe_detector_caught_on_corpus(self):
        caught = 0
        for config in self.corpus_prefix():
            program = generate_module(config)
            check = check_clients_program(program,
                                          detector_factory=safe_detector)
            caught += sum(1 for v in check.violations if v.kind == "oob")
        assert caught >= 1

    def test_always_parallel_checker_caught_on_corpus(self):
        caught = 0
        for config in self.corpus_prefix():
            program = generate_module(config)
            check = check_clients_program(program,
                                          checker_factory=parallel_checker)
            caught += sum(1 for v in check.violations if v.kind == "parallel")
        assert caught >= 1

    def test_width_swapped_lockstep_caught_on_corpus(self):
        # The mixed_width_stride idiom guarantees corpus programs carrying
        # it contain a loop whose byte store overlaps the next iteration's
        # int store — exactly what the width-swapped rule misproves.
        caught = 0
        for config in self.corpus_prefix():
            program = generate_module(config)
            check = check_clients_program(
                program, checker_factory=width_swapped_checker)
            caught += sum(1 for v in check.violations if v.kind == "parallel")
        assert caught >= 1

    def test_true_clients_clean_on_corpus_prefix(self):
        for config in self.corpus_prefix(4):
            program = generate_module(config)
            check = check_clients_program(program)
            assert check.violations == []
