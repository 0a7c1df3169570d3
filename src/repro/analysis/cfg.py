"""Per-function CFG facts, built together once and cached by :meth:`Function.cfg`.

mem2reg, e-SSA, the symbolic and global range analyses, the local pointer
analysis, SCEV and the loop-parallelization client all read one
:class:`CFGInfo` per function instead of rebuilding orders and trees of
their own.  The IR operations that change a CFG (adding or removing a block,
retargeting a branch, adding or removing a terminator) drop the cached copy,
so the next ``function.cfg()`` rebuilds it — in the small, what LLVM's
analysis manager does for ``DominatorTreeAnalysis``.  The verifier builds a
fresh copy and reports a cached one that disagrees with it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from .dominance import DominatorTree
from .loops import LoopInfo

__all__ = ["CFGInfo"]


def _reverse_post_order(entry: Optional[BasicBlock],
                        successors: Dict[BasicBlock, List[BasicBlock]]
                        ) -> List[BasicBlock]:
    """Blocks reachable from ``entry`` in reverse post-order."""
    if entry is None:
        return []
    visited: Set[BasicBlock] = {entry}
    order: List[BasicBlock] = []
    # Iterative DFS to avoid recursion limits on generated programs.
    stack: List[Tuple[BasicBlock, int]] = [(entry, 0)]
    while stack:
        block, child_index = stack[-1]
        children = successors.get(block, ())
        if child_index < len(children):
            stack[-1] = (block, child_index + 1)
            child = children[child_index]
            if child not in visited:
                visited.add(child)
                stack.append((child, 0))
        else:
            order.append(block)
            stack.pop()
    order.reverse()
    return order


class CFGInfo:
    """The CFG facts of one function.

    ``successors`` and ``predecessors`` cover every block (predecessor lists
    in block order, each predecessor once); ``rpo`` and ``dom_tree`` cover
    the blocks reachable from the entry.  The loop forest is built on first
    use, since only SCEV and the loop client read it.
    """

    __slots__ = ("function", "successors", "predecessors", "rpo", "dom_tree", "_loops")

    def __init__(self, function: Function):
        self.function = function
        self.successors: Dict[BasicBlock, List[BasicBlock]] = {
            block: block.successors() for block in function.blocks}
        self.predecessors: Dict[BasicBlock, List[BasicBlock]] = {
            block: [] for block in function.blocks}
        for block, successors in self.successors.items():
            for successor in successors:
                self.predecessors.setdefault(successor, []).append(block)
        self.rpo = _reverse_post_order(function.entry_block, self.successors)
        self.dom_tree = DominatorTree.compute(function, self.rpo, self.predecessors)
        self._loops: Optional[LoopInfo] = None

    @property
    def loops(self) -> LoopInfo:
        """The natural-loop forest."""
        if self._loops is None:
            self._loops = LoopInfo.compute(self)
        return self._loops

    def first_difference(self, other: "CFGInfo") -> Optional[str]:
        """Name the first fact on which ``other`` disagrees, or ``None``.

        The loop forest is a function of the facts compared, so equal facts
        mean equal loops.
        """
        if self.successors != other.successors:
            return "successor lists"
        if self.predecessors != other.predecessors:
            return "predecessor lists"
        if self.rpo != other.rpo:
            return "reverse post-order"
        if any(self.dom_tree.idom(block) is not other.dom_tree.idom(block)
               for block in self.rpo):
            return "immediate dominators"
        return None
