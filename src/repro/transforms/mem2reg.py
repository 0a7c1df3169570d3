"""Promotion of stack slots to SSA registers (``mem2reg``).

The mini-C frontend lowers every local variable to an ``alloca`` plus
loads/stores, which keeps lowering simple and mirrors what clang emits at
``-O0``.  This pass promotes the promotable slots to SSA values with
φ-functions placed on iterated dominance frontiers (Cytron et al.), which is
a precondition for every sparse analysis in the repository.

A slot is promotable when its address is only ever used directly by loads
and stores (it never escapes through a call, a store *of* the pointer,
pointer arithmetic, or a cast) and it holds a scalar (integer, float or
pointer).
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..analysis.dominance import DominatorTree, dominance_frontiers
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import AllocaInst, Instruction, LoadInst, PhiInst, StoreInst
from ..ir.module import Module
from ..ir.values import ConstantInt, UndefValue, Value

__all__ = ["promote_allocas_in_function", "promote_allocas", "is_promotable"]


def is_promotable(alloca: AllocaInst) -> bool:
    """True when every use of the slot is a direct scalar load or store."""
    if alloca.allocated_type.is_aggregate():
        return False
    if not isinstance(alloca.count, ConstantInt) or alloca.count.value != 1:
        return False
    for use in alloca.uses:
        user = use.user
        if isinstance(user, LoadInst):
            continue
        if isinstance(user, StoreInst) and user.pointer is alloca and user.value is not alloca:
            continue
        return False
    return True


def _defining_blocks(alloca: AllocaInst) -> List[BasicBlock]:
    blocks: List[BasicBlock] = []
    for use in alloca.uses:
        user = use.user
        if isinstance(user, StoreInst) and user.pointer is alloca and user.parent is not None:
            if user.parent not in blocks:
                blocks.append(user.parent)
    return blocks


def _place_phis(function: Function, alloca: AllocaInst,
                frontiers: Dict[BasicBlock, Set[BasicBlock]]) -> Dict[BasicBlock, PhiInst]:
    """Insert φs for one slot on the iterated dominance frontier of its stores."""
    phis: Dict[BasicBlock, PhiInst] = {}
    worklist = list(_defining_blocks(alloca))
    processed: Set[BasicBlock] = set(worklist)
    while worklist:
        block = worklist.pop()
        for frontier_block in frontiers.get(block, ()):  # type: ignore[arg-type]
            if frontier_block in phis:
                continue
            phi = PhiInst(alloca.allocated_type,
                          function.uniquify_name(f"{alloca.name}.phi"))
            frontier_block.insert_phi(phi)
            phis[frontier_block] = phi
            if frontier_block not in processed:
                processed.add(frontier_block)
                worklist.append(frontier_block)
    return phis


def _rename(function: Function, dom_tree: DominatorTree,
            allocas: List[AllocaInst],
            phis: Dict[AllocaInst, Dict[BasicBlock, PhiInst]]) -> None:
    """Walk the dominator tree, tracking the reaching definition of every slot."""
    phi_owner: Dict[PhiInst, AllocaInst] = {}
    for alloca, block_map in phis.items():
        for phi in block_map.values():
            phi_owner[phi] = alloca

    initial: Dict[AllocaInst, Value] = {
        alloca: UndefValue(alloca.allocated_type) for alloca in allocas
    }

    entry = function.entry_block
    if entry is None:
        return
    # Explicit work stack (block, reaching definitions at its entry) so deep
    # dominator trees from generated programs cannot overflow Python's stack.
    stack = [(entry, initial)]
    while stack:
        block, reaching = stack.pop()
        current = dict(reaching)
        for inst in list(block.instructions):
            if isinstance(inst, PhiInst) and inst in phi_owner:
                current[phi_owner[inst]] = inst
            elif isinstance(inst, LoadInst) and isinstance(inst.pointer, AllocaInst) \
                    and inst.pointer in current:
                inst.replace_all_uses_with(current[inst.pointer])
                inst.erase_from_parent()
            elif isinstance(inst, StoreInst) and isinstance(inst.pointer, AllocaInst) \
                    and inst.pointer in current:
                current[inst.pointer] = inst.value
                inst.erase_from_parent()
        for successor in block.successors():
            for phi, owner in phi_owner.items():
                if phi.parent is successor:
                    phi.add_incoming(current[owner], block)
        for child in dom_tree.children(block):
            stack.append((child, current))


def promote_allocas_in_function(function: Function) -> int:
    """Promote every promotable slot of ``function``; returns how many were promoted."""
    if function.is_declaration():
        return 0
    allocas = [inst for inst in function.instructions()
               if isinstance(inst, AllocaInst) and is_promotable(inst)]
    if not allocas:
        return 0
    dom_tree = DominatorTree.compute(function)
    frontiers = dominance_frontiers(function, dom_tree)
    phis: Dict[AllocaInst, Dict[BasicBlock, PhiInst]] = {
        alloca: _place_phis(function, alloca, frontiers) for alloca in allocas
    }
    _rename(function, dom_tree, allocas, phis)
    for alloca in allocas:
        # All loads/stores are gone; the slot itself can be dropped.
        if not alloca.uses:
            alloca.erase_from_parent()
    _prune_dead_phis(function, dom_tree)
    return len(allocas)


def _available_at(value: Value, phi: PhiInst, dom_tree: DominatorTree) -> bool:
    """Whether ``value`` may replace ``phi`` without breaking SSA dominance.

    Non-instructions are available everywhere; an instruction must be a φ
    of the same block or live in a block that strictly dominates ``phi``'s.
    """
    if not isinstance(value, Instruction):
        return True
    if value.parent is phi.parent:
        return isinstance(value, PhiInst)
    return dom_tree.dominates(value.parent, phi.parent)


def _prune_dead_phis(function: Function, dom_tree: DominatorTree) -> None:
    """Remove φs that are unused or trivially redundant (single distinct input).

    Undef inputs do not count as distinct, so φ(undef, x) folds to ``x`` —
    but only where ``x`` is available at the φ: an uninitialised variable
    updated in a loop body reaches the header as φ(undef, x) with ``x``
    defined below it, and folding that φ would use ``x`` before its
    definition.
    """
    changed = True
    while changed:
        changed = False
        for block in function.blocks:
            for phi in list(block.phis()):
                if not phi.uses:
                    phi.erase_from_parent()
                    changed = True
                    continue
                distinct = {value for value in phi.operands
                            if value is not phi and not isinstance(value, UndefValue)}
                if len(distinct) != 1:
                    continue
                value = next(iter(distinct))
                if _available_at(value, phi, dom_tree):
                    phi.replace_all_uses_with(value)
                    phi.erase_from_parent()
                    changed = True


def promote_allocas(module: Module) -> int:
    """Run :func:`promote_allocas_in_function` over every function of ``module``."""
    return sum(promote_allocas_in_function(function)
               for function in module.defined_functions())
