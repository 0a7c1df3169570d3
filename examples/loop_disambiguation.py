#!/usr/bin/env python3
"""The paper's Figures 3 and 4: the local test on strided loop accesses.

Run with::

    python examples/loop_disambiguation.py

``accelerate`` updates ``p[i]`` and ``p[i+1]`` in a loop that advances ``i``
by two.  The *global* ranges of the two addresses overlap (``[0, N+1]`` vs
``[1, N+2]``), so the global test cannot separate them; but at any given
iteration both are constant offsets of the same base address ``p + i``, and
the *local* test — the paper's pointer renaming of Figure 4 — proves they
never collide at the same moment.  That is exactly the fact a vectoriser
needs to keep both updates in one loop body.
"""

from repro import BasicAliasAnalysis, RBAAAliasAnalysis, SCEVAliasAnalysis
from repro.aliases import MemoryAccess
from repro.benchgen import FIGURE3_SOURCE, compile_figure3
from repro.core import global_test
from repro.ir.instructions import StoreInst


def main() -> None:
    print("=== Source (paper, Figure 3) ===")
    print(FIGURE3_SOURCE)

    module = compile_figure3()
    rbaa = RBAAAliasAnalysis(module)

    accelerate = module.get_function("accelerate")
    stores = [inst for inst in accelerate.instructions() if isinstance(inst, StoreInst)]
    p_i, p_i1 = stores

    print("=== Global states: ranges overlap, the global test fails ===")
    state_a = rbaa.global_state(p_i.pointer)
    state_b = rbaa.global_state(p_i1.pointer)
    print(f"  GR(p[i])   = {state_a}")
    print(f"  GR(p[i+1]) = {state_b}")
    print(f"  global test says no-alias: {global_test(state_a, state_b, 4, 4).no_alias}")

    print()
    print("=== Local states: one shared base, disjoint constant offsets ===")
    print(f"  LR(p[i])   = {rbaa.local_state(p_i.pointer)}")
    print(f"  LR(p[i+1]) = {rbaa.local_state(p_i1.pointer)}")
    outcome = rbaa.query(MemoryAccess.of(p_i.pointer), MemoryAccess.of(p_i1.pointer))
    print(f"  rbaa verdict: no-alias={outcome.no_alias} (criterion: {outcome.reason.value})")

    print()
    print("=== Baselines on the same query ===")
    print(f"  basic: {BasicAliasAnalysis(module).alias_pointers(p_i.pointer, p_i1.pointer)}")
    print(f"  scev : {SCEVAliasAnalysis(module).alias_pointers(p_i.pointer, p_i1.pointer)}")


if __name__ == "__main__":
    main()
