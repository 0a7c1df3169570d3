"""Loop parallelization: proving cross-iteration memory accesses disjoint.

The checker reports a natural loop *parallelizable* when no two memory
accesses executed in different iterations (of one execution of the loop)
can touch the same byte with at least one of them writing.  That is a
universally quantified claim over concrete executions, so the
differential validator replays it against the interpreter's iteration-
segmented access trace.

A pair of accesses (at least one store) is proven independent across
iterations by the first rule that applies:

1. **iteration-fresh** — every object both sides can reference is
   allocated by a ``malloc`` *inside* the loop: different iterations
   allocate different concrete objects, so only same-iteration overlap
   (harmless for parallelization) is possible;
2. **distinct-objects** — basicaa identifies both underlying-object sets
   and they share no allocation site;
3. **lockstep-strides** — both pointers are affine recurrences of this
   loop advancing in lock-step (SCEV-AA's model); with step ``s`` and
   same-iteration distance ``d = a - b``, a pair of iterations overlaps
   exactly when some lattice element ``d + s*k`` lands in the open
   interval ``(-wa, wb)``, so no iteration pair can overlap when
   ``wb <= d mod |s| <= |s| - wa``;
4. **footprint-disjoint** — RBAA (or basicaa) proves the *whole value
   sets* of the two pointers reference disjoint regions.  The no-alias
   claim is only accepted when every anchor value it is relative to is
   defined outside the loop — an in-loop anchor changes instances between
   iterations, which is exactly the quantifier the claim does not cover.

Everything unproven is reported non-parallelizable with the first
blocking reason — conservative by construction, like the analyses it is
built on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..aliases.results import AliasResult, MemoryAccess, NoAliasClaim
from ..analysis.loops import Loop
from ..engine import keys
from ..engine.manager import AnalysisManager
from ..interp.trace import access_width, memory_access_table
from ..ir.function import Function
from ..ir.instructions import (
    CallInst,
    FreeInst,
    Instruction,
    MallocInst,
    StoreInst,
)
from ..ir.module import Module
from ..ir.values import Value

__all__ = ["LoopParallelismAnalysis", "LoopAccess"]

#: Loops with more accesses than this are reported non-parallelizable
#: (never silently sampled: the cap itself is the reported reason).
MAX_LOOP_ACCESSES = 48


@dataclass(frozen=True)
class LoopAccess:
    """One load/store inside a loop body."""

    index: int                # stable access index (memory_access_table)
    inst: Instruction
    pointer: Value
    width: int
    is_store: bool


class LoopParallelismAnalysis:
    """The loop-parallelization client (Section 1's second motivating client)."""

    name = "parallel-loops"

    def __init__(self, module: Module, manager: Optional[AnalysisManager] = None):
        self.module = module
        manager = AnalysisManager.ensure(module, manager)
        self.rbaa = manager.get(keys.RBAA)
        self.basic = manager.get(keys.BASIC)
        self.scev = manager.get(keys.SCEV)
        self._reports: Dict[Function, Dict] = {}

    # -- pair independence ----------------------------------------------------
    def _defined_outside(self, value: Value, loop: Loop) -> bool:
        if isinstance(value, Instruction):
            return value.parent is None or value.parent not in loop.blocks
        return True

    def _allocated_inside(self, site: Value, loop: Loop) -> bool:
        """An allocation whose every execution mints a fresh per-iteration
        object.  Restricted to ``malloc`` — allocas are normally hoisted to
        the entry block, and a hoisted slot is *not* iteration-fresh."""
        return isinstance(site, MallocInst) and site.parent is not None \
            and site.parent in loop.blocks

    def _iteration_fresh(self, access: LoopAccess, loop: Loop) -> bool:
        view = self.basic.underlying_objects(access.pointer)
        if not view.all_identified or view.includes_null or not view.objects:
            return False
        return all(self._allocated_inside(site, loop) for site in view.objects)

    def _claim_covers_iterations(self, claim: NoAliasClaim, loop: Loop) -> bool:
        """A no-alias claim extends across the iterations of one loop
        execution only when every anchor is fixed across them."""
        if claim.scope == "unchecked":
            return False
        return all(self._defined_outside(anchor, loop)
                   for anchor in claim.anchors)

    def _lockstep_independent(self, a: LoopAccess, b: LoopAccess,
                              loop: Loop) -> bool:
        rec_a = self.scev.evolution_of(a.pointer)
        rec_b = self.scev.evolution_of(b.pointer)
        if rec_a is None or rec_b is None:
            return False
        if rec_a.loop is not loop or rec_b.loop is not loop:
            return False
        distance = rec_a.constant_distance_from(rec_b)
        if distance is None or rec_a.step == 0:
            return False
        # Addresses a_i - b_j = distance + step*(i-j): some iteration pair
        # overlaps iff an element of that lattice lands in (-wa, wb).
        modulus = abs(rec_a.step)
        residue = distance % modulus
        return b.width <= residue <= modulus - a.width

    def _self_independent(self, access: LoopAccess, loop: Loop) -> bool:
        """One store against its own other-iteration executions."""
        rec = self.scev.evolution_of(access.pointer)
        if rec is not None and rec.loop is loop \
                and rec.step != 0 and abs(rec.step) >= access.width:
            return True
        return self._iteration_fresh(access, loop)

    def _pair_independent(self, a: LoopAccess, b: LoopAccess,
                          loop: Loop) -> bool:
        if a.pointer is b.pointer:
            return self._self_independent(a, loop) if a.width >= b.width \
                else self._self_independent(b, loop)
        if self._iteration_fresh(a, loop) and self._iteration_fresh(b, loop):
            return True
        view_a = self.basic.underlying_objects(a.pointer)
        view_b = self.basic.underlying_objects(b.pointer)
        if view_a.all_identified and view_b.all_identified \
                and not view_a.includes_null and not view_b.includes_null:
            shared = view_a.objects & view_b.objects
            if not shared:
                return True
            # A shared allocation site being in-loop is NOT enough: a
            # loop-carried pointer (p = phi [g, entry], [node, latch]) can
            # reference the *previous* iteration's malloc'd object, so
            # freshness is only sound when BOTH full object sets are
            # iteration-fresh — which rule 1 above already covers.
        if self._lockstep_independent(a, b, loop):
            return True
        access_a = MemoryAccess(a.pointer, a.width)
        access_b = MemoryAccess(b.pointer, b.width)
        for analysis in (self.rbaa, self.basic):
            if analysis.alias(access_a, access_b) is AliasResult.NO_ALIAS:
                claim = analysis.no_alias_context(access_a, access_b)
                if self._claim_covers_iterations(claim, loop):
                    return True
        return False

    # -- loop verdicts ---------------------------------------------------------
    def _loop_accesses(self, function: Function,
                       loop: Loop) -> List[LoopAccess]:
        accesses = []
        for index, inst in enumerate(memory_access_table(function)):
            if inst.parent is not None and inst.parent in loop.blocks:
                accesses.append(LoopAccess(
                    index=index, inst=inst, pointer=inst.pointer,
                    width=access_width(inst),
                    is_store=isinstance(inst, StoreInst)))
        return accesses

    def loop_verdict(self, function: Function, loop: Loop,
                     accesses: List[LoopAccess]) -> Tuple[bool, str]:
        """``(parallelizable, reason)`` for one loop.

        Override point for the mutant fixtures.  The verdict claims exactly
        memory independence: no cross-iteration overlapping access pair
        with a write.  (Loop-carried *register* dependences — reduction
        φs — are a separate obstacle to actual parallelization; the report
        surfaces them as ``carried_phis`` without affecting the verdict.)
        """
        stores = [access for access in accesses if access.is_store]
        # Scan in function instruction order (loop.blocks is a set; its
        # iteration order must never reach the report).
        for inst in function.instructions():
            if inst.parent not in loop.blocks:
                continue
            if isinstance(inst, FreeInst):
                return False, "frees-memory"
            if isinstance(inst, CallInst):
                name = inst.callee_name()
                if name is not None \
                        and self.basic.callee_accesses_no_memory(name):
                    continue
                if not stores and name is not None \
                        and self.basic.callee_is_readonly(name):
                    continue
                return False, f"calls:{name or 'indirect'}"
        if not stores:
            return True, "read-only"
        if len(accesses) > MAX_LOOP_ACCESSES:
            return False, "too-many-accesses"
        for i, a in enumerate(accesses):
            for b in accesses[i:]:
                if not a.is_store and not b.is_store:
                    continue
                if not self._pair_independent(a, b, loop):
                    return False, (f"dependent:{a.index}x{b.index}")
        return True, "proven-disjoint"

    # -- reports -------------------------------------------------------------
    def function_report(self, function: Function) -> Dict:
        cached = self._reports.get(function)
        if cached is not None:
            return cached
        loops = []
        for loop in sorted(function.cfg().loops, key=lambda l: l.header.label()):
            accesses = self._loop_accesses(function, loop)
            parallel, reason = self.loop_verdict(function, loop, accesses)
            loops.append({
                "header": loop.header.label(),
                "depth": loop.depth(),
                "blocks": len(loop.blocks),
                "accesses": len(accesses),
                "carried_phis": len(loop.header_phis()),
                "parallel": parallel,
                "reason": reason,
            })
        report = {"function": function.name, "loops": loops,
                  "summary": {"loops": len(loops),
                              "parallel": sum(1 for l in loops
                                              if l["parallel"])}}
        self._reports[function] = report
        return report

    def module_report(self, function: Optional[str] = None) -> Dict:
        names = sorted(f.name for f in self.module.defined_functions()
                       if function is None or f.name == function)
        functions = [self.function_report(self.module.get_function(name))
                     for name in names]
        summary = {"loops": 0, "parallel": 0}
        for report in functions:
            summary["loops"] += report["summary"]["loops"]
            summary["parallel"] += report["summary"]["parallel"]
        return {"functions": functions, "summary": summary}
