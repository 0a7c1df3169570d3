"""Structural invariants of e-SSA construction (:mod:`repro.transforms.essa`).

After σ insertion, the IR must satisfy the properties every sparse
analysis relies on: each renamed use is dominated by its σ definition,
σs sit on single-predecessor edges right after the φs, and the renaming
never leaks a σ to a path its guarding branch does not dominate.
"""

import pytest

from repro.benchgen import build_program
from repro.frontend import compile_source
from repro.ir.instructions import PhiInst, SigmaInst
from repro.ir.verifier import verify_module

LOOP_SOURCE = """
int clamp_sum(int* data, int n, int limit) {
  int i;
  int total = 0;
  for (i = 0; i < n; i++) {
    if (data[i] < limit) {
      total += data[i];
    }
  }
  return total;
}

int main(int argc, char** argv) {
  int n = atoi(argv[1]);
  int* xs = (int*)malloc(n * 4);
  return clamp_sum(xs, n, 100);
}
"""


def sigma_functions(module):
    for function in module.defined_functions():
        if any(isinstance(inst, SigmaInst) for inst in function.instructions()):
            yield function


def assert_essa_invariants(module):
    """All e-SSA structural invariants, applied to every σ of a module."""
    saw_sigma = False
    for function in module.defined_functions():
        cfg = function.cfg()
        dom_tree = cfg.dom_tree
        for block in function.blocks:
            # σs appear only in the φ/σ prefix of a block.
            prefix = True
            for inst in block.instructions:
                if isinstance(inst, (PhiInst, SigmaInst)):
                    assert prefix, (
                        f"{inst!r} appears after ordinary instructions "
                        f"in {block.label()}")
                else:
                    prefix = False
            for inst in block.instructions:
                if not isinstance(inst, SigmaInst):
                    continue
                saw_sigma = True
                # σ lives at the top of a single-predecessor edge target.
                predecessors = cfg.predecessors[block]
                assert len(predecessors) == 1, (
                    f"{inst!r} sits in {block.label()} with "
                    f"{len(predecessors)} predecessors")
                # The branch block that created the σ is the predecessor.
                if inst.origin_block is not None:
                    assert predecessors == [inst.origin_block]
                # Every use of the σ is dominated by its definition.
                for use in inst.uses:
                    user = use.user
                    if isinstance(user, PhiInst):
                        incoming = user.incoming_blocks[use.index]
                        assert dom_tree.dominates(block, incoming), (
                            f"φ use of {inst!r} via {incoming.label()} "
                            f"is not dominated by {block.label()}")
                    else:
                        assert user.parent is not None
                        assert dom_tree.dominates(block, user.parent), (
                            f"use of {inst!r} in {user.parent.label()} "
                            f"is not dominated by {block.label()}")
                # The σ still renames a value of the same type.
                assert inst.source.type == inst.type
    return saw_sigma


def test_loop_program_satisfies_essa_invariants():
    module = compile_source(LOOP_SOURCE, "essa-loop")
    assert assert_essa_invariants(module), "expected σs in the loop program"


def test_sigma_sources_dominate_their_sigmas():
    """The renamed value is available on every path into the σ's block."""
    module = compile_source(LOOP_SOURCE, "essa-loop")
    checked = 0
    for function in sigma_functions(module):
        dom_tree = function.cfg().dom_tree
        for inst in function.instructions():
            if not isinstance(inst, SigmaInst):
                continue
            source_block = getattr(inst.source, "parent", None)
            if isinstance(source_block, type(inst.parent)):
                checked += 1
                assert dom_tree.dominates(source_block, inst.parent), (
                    f"{inst!r} renames a value defined in "
                    f"{source_block.label()} that does not dominate it")
    assert checked > 0


@pytest.mark.parametrize("name", ["allroots", "fixoutput", "ft", "ks", "anagram"])
def test_corpus_programs_satisfy_essa_invariants(name):
    module = build_program(name).module
    assert assert_essa_invariants(module)
    assert verify_module(module, raise_on_error=False) == []


def test_sigma_count_matches_transform_report():
    from repro.transforms.essa import build_essa
    from repro.transforms.pipeline import PipelineOptions

    source = LOOP_SOURCE
    module = compile_source(source, "essa-count",
                            pipeline_options=PipelineOptions(build_essa=False))
    created = build_essa(module)
    found = sum(1 for inst in module.instructions() if isinstance(inst, SigmaInst))
    assert created == found > 0
    assert assert_essa_invariants(module)
