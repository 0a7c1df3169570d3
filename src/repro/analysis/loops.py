"""Natural-loop detection.

Loops matter to the reproduction for two reasons: the scalar-evolution
baseline (``scev-aa``) only reasons about pointers indexed by loop induction
variables in closed form, and the local pointer test is most valuable for
pointers renamed at loop headers (which are φ-defining blocks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import PhiInst

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cfg import CFGInfo

__all__ = ["Loop", "LoopInfo"]


@dataclass
class Loop:
    """A natural loop: a header plus the body of blocks that reach the back edge."""

    header: BasicBlock
    blocks: Set[BasicBlock] = field(default_factory=set)
    latches: List[BasicBlock] = field(default_factory=list)
    parent: Optional["Loop"] = None
    children: List["Loop"] = field(default_factory=list)

    def depth(self) -> int:
        """Nesting depth: 1 for top-level loops."""
        depth, current = 1, self.parent
        while current is not None:
            depth += 1
            current = current.parent
        return depth

    def header_phis(self) -> List[PhiInst]:
        """The φ-functions of the header: candidate induction variables."""
        return self.header.phis()

    def __repr__(self) -> str:
        return f"<Loop header={self.header.label()} blocks={len(self.blocks)} depth={self.depth()}>"


class LoopInfo:
    """All natural loops of a function, organised into a nesting forest."""

    def __init__(self, function: Function, loops: List[Loop]):
        self.function = function
        self.loops = loops
        self._loop_of_block: Dict[BasicBlock, Loop] = {}
        # Innermost loop wins: process loops from outermost to innermost.
        for loop in sorted(loops, key=lambda l: len(l.blocks), reverse=True):
            for block in loop.blocks:
                self._loop_of_block[block] = loop

    @classmethod
    def compute(cls, cfg: "CFGInfo") -> "LoopInfo":
        """Find natural loops from back edges (tail dominated by head)."""
        dom_tree, preds = cfg.dom_tree, cfg.predecessors
        loops_by_header: Dict[BasicBlock, Loop] = {}

        for block in cfg.rpo:
            for successor in cfg.successors[block]:
                if not dom_tree.dominates(successor, block):
                    continue
                header = successor
                loop = loops_by_header.setdefault(header, Loop(header=header, blocks={header}))
                loop.latches.append(block)
                # Walk predecessors backwards from the latch up to the header.
                worklist = [block]
                while worklist:
                    current = worklist.pop()
                    if current in loop.blocks:
                        continue
                    loop.blocks.add(current)
                    worklist.extend(preds.get(current, []))

        loops = list(loops_by_header.values())
        # Establish nesting: a loop is a child of the smallest strictly-enclosing loop.
        for loop in loops:
            best_parent: Optional[Loop] = None
            for candidate in loops:
                if candidate is loop:
                    continue
                if loop.header in candidate.blocks and loop.blocks <= candidate.blocks:
                    if best_parent is None or len(candidate.blocks) < len(best_parent.blocks):
                        best_parent = candidate
            loop.parent = best_parent
            if best_parent is not None:
                best_parent.children.append(loop)
        return cls(cfg.function, loops)

    def loop_for_block(self, block: BasicBlock) -> Optional[Loop]:
        """The innermost loop containing ``block``, if any."""
        return self._loop_of_block.get(block)

    def __iter__(self):
        return iter(self.loops)

    def __len__(self) -> int:
        return len(self.loops)
