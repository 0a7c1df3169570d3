"""Each transfer reads only the operands its rule declares.

A descending solver step reuses a node's last transfer result when none of
the node's declared dependencies was written since (``SparseProblem``), so
a transfer that reads a node it does not declare can return a stale value.
These tests record every entry of an analysis' own state table (``_ranges``,
``_gr``, ``_lr``) that each ``transfer`` reads, on every suite program, and
check that each entry read that is a node of the problem is among the
transferred node's ``dependencies``.  They also hold every rule table to one
entry per value-producing IR class.
"""

import pytest

from repro.benchgen import SUITE_PROGRAMS, build_suite
from repro.core import global_analysis, local_analysis
from repro.core.global_analysis import _GlobalRangeProblem
from repro.core.local_analysis import _LocalRangeProblem
from repro.engine import AnalysisManager, keys
from repro.ir import instructions
from repro.ir.values import Argument
from repro.rangeanalysis import symbolic_ra
from repro.rangeanalysis.symbolic_ra import _IntegerRangeProblem

#: Instruction classes that produce no value and so are never nodes.
VOID_KINDS = {instructions.StoreInst, instructions.BranchInst,
              instructions.ReturnInst, instructions.UnreachableInst}


class _RecordingState(dict):
    """A state table that logs the keys read while ``reads`` is a list."""

    reads = None

    def get(self, key, default=None):
        if self.reads is not None:
            self.reads.append(key)
        return super().get(key, default)

    def __getitem__(self, key):
        if self.reads is not None:
            self.reads.append(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        if self.reads is not None:
            self.reads.append(key)
        return super().__contains__(key)


def _record_transfers(monkeypatch, problem_class, state_attribute):
    """Patch ``problem_class.transfer`` to log, per call, the problem, the
    node and the entries of the analysis' ``state_attribute`` it read."""
    log = []
    transfer = problem_class.transfer

    def recording(problem, node):
        analysis = problem._analysis
        state = getattr(analysis, state_attribute)
        if not isinstance(state, _RecordingState):
            state = _RecordingState(state)
            setattr(analysis, state_attribute, state)
        state.reads = []
        try:
            return transfer(problem, node)
        finally:
            log.append((problem, node, state.reads))
            state.reads = None

    monkeypatch.setattr(problem_class, "transfer", recording)
    return log


def _undeclared_reads(log):
    """``(node, read)`` pairs where a transfer read an in-problem node its
    rule does not list among the operands."""
    undeclared = []
    members = {}
    for problem, node, reads in log:
        nodes = members.get(id(problem))
        if nodes is None:
            nodes = members[id(problem)] = set(problem.nodes())
        declared = set(problem.dependencies(node))
        undeclared.extend((node, read) for read in reads
                          if read in nodes and read not in declared)
    return undeclared


@pytest.fixture(scope="module")
def suite():
    programs = build_suite()
    assert len(programs) == len(SUITE_PROGRAMS) == 22
    return programs


@pytest.mark.parametrize("problem_class, state_attribute, key", [
    (_IntegerRangeProblem, "_ranges", keys.RANGES),
    (_GlobalRangeProblem, "_gr", keys.GLOBAL_RANGES),
    (_LocalRangeProblem, "_lr", keys.LOCAL_RANGES),
], ids=["symbolic-ranges", "global-ranges", "local-ranges"])
def test_transfers_read_only_declared_operands(monkeypatch, suite, problem_class,
                                               state_attribute, key):
    log = _record_transfers(monkeypatch, problem_class, state_attribute)
    for program in suite.values():
        AnalysisManager(program.module).get(key)
    assert len({id(problem) for problem, _, _ in log}) == len(suite)
    # The recorder sees the operand reads, so a pass is not vacuous.
    in_problem = sum(1 for problem, node, reads in log
                     if set(reads) & set(problem.dependencies(node)))
    assert in_problem > 100
    assert _undeclared_reads(log) == []


@pytest.mark.parametrize("module, extra", [
    (symbolic_ra, set()),
    (global_analysis, {Argument}),
    (local_analysis, set()),
], ids=["symbolic-ranges", "global-ranges", "local-ranges"])
def test_one_rule_per_value_producing_class(module, extra):
    value_kinds = {cls for cls in vars(instructions).values()
                   if isinstance(cls, type) and issubclass(cls, instructions.Instruction)
                   and cls is not instructions.Instruction and cls not in VOID_KINDS}
    assert set(module._RULES) == value_kinds | extra
