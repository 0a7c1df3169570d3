"""Extended SSA (e-SSA) construction: live-range splitting after conditionals.

Following Bodik, Gupta and Sarkar's ABCD representation (which the paper
adopts), every conditional branch on a comparison ``a <op> b`` defines new
names for ``a`` and ``b`` on each out-edge, constrained by the comparison:

    if (a < b)  →  true edge : a' = a ∩ [-inf, b-1],  b' = b ∩ [a+1, +inf]
                   false edge: a' = a ∩ [b, +inf],     b' = b ∩ [-inf, a]

The new names are :class:`~repro.ir.instructions.SigmaInst` instructions
placed at the top of the edge's target block; uses of the original value
dominated by that block are rewritten to the σ.  Critical edges are split
first so that each σ is guaranteed to apply only on its own path.

e-SSA is what makes both range analyses *sparse*: the information "i < e
holds here" becomes ordinary data flow attached to a fresh variable name.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..analysis.cfg import CFGInfo
from ..analysis.dominance import DominatorTree
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    BranchInst,
    ICmpInst,
    Instruction,
    PhiInst,
    SigmaInst,
)
from ..ir.module import Module
from ..ir.values import Argument, Value

__all__ = ["build_essa_function", "build_essa", "split_critical_edges"]


def _needs_split(cfg: CFGInfo, source: BasicBlock, target: BasicBlock) -> bool:
    """A critical edge: the source has several successors and the target several predecessors."""
    return len(cfg.successors[source]) > 1 and len(cfg.predecessors[target]) > 1


def split_critical_edges(function: Function) -> int:
    """Split every critical edge by inserting a forwarding block.

    Returns the number of edges split.  φ-functions in the old target are
    updated to route the incoming value through the new block.  Splitting
    an edge keeps the degrees of both its endpoints, so the CFG facts read
    before the first split decide every edge.
    """
    cfg = function.cfg()
    split_count = 0
    for block in list(function.blocks):
        terminator = block.terminator
        if not isinstance(terminator, BranchInst) or not terminator.is_conditional():
            continue
        for target in list(terminator.targets()):
            if not _needs_split(cfg, block, target):
                continue
            middle = function.append_block(f"{block.name}.{target.name}.split")
            middle_branch = BranchInst(target)
            middle.append(middle_branch)
            terminator.replace_target(target, middle)
            for phi in target.phis():
                for position, incoming_block in enumerate(phi.incoming_blocks):
                    if incoming_block is block:
                        phi.incoming_blocks[position] = middle
            split_count += 1
    return split_count


#: For a predicate that holds, the constraints on (lhs, rhs):
#: each entry is (lower_bound_source, lower_adjust, upper_bound_source, upper_adjust)
#: where the bound source is "other" (the opposite operand) or None (unbounded).
_TRUE_EDGE_CONSTRAINTS: Dict[str, Tuple[Tuple, Tuple]] = {
    # lhs constraint, rhs constraint
    "slt": ((None, 0, "other", -1), ("other", +1, None, 0)),
    "sle": ((None, 0, "other", 0), ("other", 0, None, 0)),
    "sgt": (("other", +1, None, 0), (None, 0, "other", -1)),
    "sge": (("other", 0, None, 0), (None, 0, "other", 0)),
    "eq": (("other", 0, "other", 0), ("other", 0, "other", 0)),
    "ne": ((None, 0, None, 0), (None, 0, None, 0)),
}


def _constraints_for(predicate: str, on_true_edge: bool) -> Optional[Tuple[Tuple, Tuple]]:
    """Constraints for (lhs, rhs) on the given edge of a branch on ``predicate``."""
    if on_true_edge:
        return _TRUE_EDGE_CONSTRAINTS.get(predicate)
    inverse = ICmpInst._INVERSES.get(predicate)
    if inverse is None:
        return None
    return _TRUE_EDGE_CONSTRAINTS.get(inverse)


def _is_renameable(value: Value) -> bool:
    """σs are only created for SSA variables (not constants)."""
    return isinstance(value, (Instruction, Argument))


def _rewrite_dominated_uses(value: Value, replacement: SigmaInst, block: BasicBlock,
                            dom_tree: DominatorTree) -> None:
    """Redirect uses of ``value`` that are dominated by ``block`` to ``replacement``.

    For φ uses, domination is checked against the incoming edge's source
    block rather than the φ's own block.
    """
    for use in list(value.uses):
        user = use.user
        if user is replacement:
            continue
        if isinstance(user, SigmaInst) and user.parent is block and user.source is value:
            continue
        if isinstance(user, PhiInst):
            incoming_block = user.incoming_blocks[use.index]
            if dom_tree.dominates(block, incoming_block):
                user.set_operand(use.index, replacement)
            continue
        if user.parent is None:
            continue
        if user.parent is block:
            # Same block: only instructions after the σ region are dominated.
            if not isinstance(user, (PhiInst, SigmaInst)):
                user.set_operand(use.index, replacement)
            continue
        if dom_tree.dominates(block, user.parent):
            user.set_operand(use.index, replacement)


def build_essa_function(function: Function) -> int:
    """Insert σ instructions for every conditional branch on a comparison.

    Returns the number of σs created.  The function is left in valid e-SSA
    form: σs appear after the φs of their block and all dominated uses are
    renamed.
    """
    if function.is_declaration():
        return 0
    split_critical_edges(function)
    cfg = function.cfg()
    created = 0
    for block in list(function.blocks):
        terminator = block.terminator
        if not isinstance(terminator, BranchInst) or not terminator.is_conditional():
            continue
        condition = terminator.condition
        if not isinstance(condition, ICmpInst):
            continue
        lhs, rhs = condition.lhs, condition.rhs
        for target, on_true_edge in ((terminator.true_target, True),
                                     (terminator.false_target, False)):
            if target is None or len(cfg.predecessors[target]) != 1:
                continue
            constraints = _constraints_for(condition.predicate, on_true_edge)
            if constraints is None:
                continue
            for operand, other, spec in ((lhs, rhs, constraints[0]), (rhs, lhs, constraints[1])):
                if not _is_renameable(operand):
                    continue
                lower_source, lower_adjust, upper_source, upper_adjust = spec
                lower = other if lower_source == "other" else None
                upper = other if upper_source == "other" else None
                if lower is None and upper is None:
                    continue
                sigma = SigmaInst(
                    operand,
                    lower=lower,
                    upper=upper,
                    lower_adjust=lower_adjust if lower is not None else 0,
                    upper_adjust=upper_adjust if upper is not None else 0,
                    origin_block=block,
                    name=function.uniquify_name(f"{operand.name or 'v'}.s"),
                )
                target.insert_sigma(sigma)
                created += 1
                _rewrite_dominated_uses(operand, sigma, target, cfg.dom_tree)
    return created


def build_essa(module: Module) -> int:
    """Run e-SSA construction over every function of ``module``."""
    return sum(build_essa_function(function) for function in module.defined_functions())
