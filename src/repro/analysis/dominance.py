"""Dominator tree (Cooper, Harvey and Kennedy, "A Simple, Fast Dominance
Algorithm", 2001).

Built once per function as part of :class:`~repro.analysis.cfg.CFGInfo`
(read it through ``function.cfg().dom_tree``).  It drives:

* SSA construction (mem2reg places φs on dominance frontiers and renames
  along the tree);
* the e-SSA transformation (σ renaming rewrites the uses a σ dominates);
* the local pointer analysis, which evaluates instructions "in the order
  given by the program's dominance tree" (Section 3.6 of the paper);
* the verifier's definition-dominates-use check.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..ir.basicblock import BasicBlock
from ..ir.function import Function

__all__ = ["DominatorTree"]


class DominatorTree:
    """Immediate-dominator tree for the reachable blocks of a function."""

    def __init__(self, function: Function, idom: Dict[BasicBlock, Optional[BasicBlock]]):
        self.function = function
        self._idom = idom
        # ``idom`` is keyed in reverse post-order, which fixes the child order.
        self._children: Dict[BasicBlock, List[BasicBlock]] = {block: [] for block in idom}
        for block, dominator in idom.items():
            if dominator is not None and block is not dominator:
                self._children[dominator].append(block)
        # Depth is used for fast dominance queries and for ordering.
        self._depth: Dict[BasicBlock, int] = {}
        entry = function.entry_block
        if entry is not None:
            worklist = [(entry, 0)]
            while worklist:
                block, depth = worklist.pop()
                self._depth[block] = depth
                for child in self._children.get(block, []):
                    worklist.append((child, depth + 1))

    # -- construction ---------------------------------------------------------
    @classmethod
    def compute(cls, function: Function, rpo: List[BasicBlock],
                predecessors: Dict[BasicBlock, List[BasicBlock]]) -> "DominatorTree":
        """Immediate dominators of the blocks in ``rpo`` (entry first)."""
        if not rpo:
            return cls(function, {})
        entry = rpo[0]
        order_index = {block: index for index, block in enumerate(rpo)}

        idom: Dict[BasicBlock, Optional[BasicBlock]] = {block: None for block in rpo}
        idom[entry] = entry

        def intersect(a: BasicBlock, b: BasicBlock) -> BasicBlock:
            while a is not b:
                while order_index[a] > order_index[b]:
                    a = idom[a]
                while order_index[b] > order_index[a]:
                    b = idom[b]
            return a

        changed = True
        while changed:
            changed = False
            for block in rpo[1:]:
                candidates = [p for p in predecessors.get(block, []) if idom.get(p) is not None]
                if not candidates:
                    continue
                new_idom = candidates[0]
                for other in candidates[1:]:
                    new_idom = intersect(other, new_idom)
                if idom[block] is not new_idom:
                    idom[block] = new_idom
                    changed = True
        return cls(function, idom)

    # -- queries -----------------------------------------------------------------
    def idom(self, block: BasicBlock) -> Optional[BasicBlock]:
        """Immediate dominator (the entry block is its own idom)."""
        return self._idom.get(block)

    def children(self, block: BasicBlock) -> List[BasicBlock]:
        """Blocks immediately dominated by ``block``."""
        return list(self._children.get(block, []))

    def depth(self, block: BasicBlock) -> int:
        return self._depth.get(block, -1)

    def dominates(self, dominator: BasicBlock, block: BasicBlock) -> bool:
        """True when ``dominator`` dominates ``block`` (reflexively)."""
        if dominator is block:
            return True
        current = block
        while current is not None and current is not self._idom.get(current):
            current = self._idom.get(current)
            if current is dominator:
                return True
        return dominator is self.function.entry_block and block in self._depth

    def preorder(self) -> Iterator[BasicBlock]:
        """Depth-first preorder traversal of the dominator tree."""
        entry = self.function.entry_block
        if entry is None:
            return
        worklist = [entry]
        while worklist:
            block = worklist.pop()
            yield block
            # Reverse so that children are visited in their insertion order.
            worklist.extend(reversed(self._children.get(block, [])))
