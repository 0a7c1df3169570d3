"""Basic blocks: straight-line instruction sequences ended by a terminator."""

from __future__ import annotations

from typing import Iterator, List, Optional, TYPE_CHECKING

from .instructions import BranchInst, Instruction, PhiInst, SigmaInst
from .types import LABEL
from .values import Value

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .function import Function

__all__ = ["BasicBlock"]


class BasicBlock(Value):
    """A node of the control-flow graph.

    Successors are derived from the block's terminator; predecessor lists
    live in the function's CFG facts (``function.cfg().predecessors``), which
    adding or removing a terminator drops.  φ and σ instructions must appear
    before any other instruction (σs sit right after the φs, at the point
    where the e-SSA transformation splits live ranges).
    """

    __slots__ = ("parent", "instructions")

    def __init__(self, name: str = "", parent: Optional["Function"] = None):
        super().__init__(LABEL, name)
        self.parent = parent
        self.instructions: List[Instruction] = []

    # -- naming ------------------------------------------------------------
    def label(self) -> str:
        return f"%{self.name}" if self.name else "%<block>"

    # -- instruction management --------------------------------------------
    def append(self, instruction: Instruction) -> Instruction:
        """Append ``instruction`` (must not already belong to a block)."""
        if instruction.parent is not None:
            raise ValueError("instruction already belongs to a block")
        instruction.parent = self
        self.instructions.append(instruction)
        self._terminator_changed(instruction)
        return instruction

    def insert(self, index: int, instruction: Instruction) -> Instruction:
        if instruction.parent is not None:
            raise ValueError("instruction already belongs to a block")
        instruction.parent = self
        self.instructions.insert(index, instruction)
        self._terminator_changed(instruction)
        return instruction

    def insert_phi(self, phi: PhiInst) -> PhiInst:
        """Insert a φ at the top of the block (after existing φs)."""
        index = 0
        while index < len(self.instructions) and isinstance(self.instructions[index], PhiInst):
            index += 1
        self.insert(index, phi)
        return phi

    def insert_sigma(self, sigma: SigmaInst) -> SigmaInst:
        """Insert a σ after the φs and any earlier σs."""
        index = 0
        while index < len(self.instructions) and isinstance(
            self.instructions[index], (PhiInst, SigmaInst)
        ):
            index += 1
        self.insert(index, sigma)
        return sigma

    def remove_instruction(self, instruction: Instruction) -> None:
        self.instructions.remove(instruction)
        instruction.parent = None
        self._terminator_changed(instruction)

    def _terminator_changed(self, instruction: Instruction) -> None:
        """Adding or removing a terminator changes the CFG."""
        if self.parent is not None and instruction.is_terminator():
            self.parent.invalidate_cfg()

    # -- structure -----------------------------------------------------------
    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator():
            return self.instructions[-1]
        return None

    def successors(self) -> List["BasicBlock"]:
        terminator = self.terminator
        if isinstance(terminator, BranchInst):
            # Deduplicate in case both edges point at the same block.
            targets: List[BasicBlock] = []
            for target in terminator.targets():
                if target not in targets:
                    targets.append(target)
            return targets
        return []

    def phis(self) -> List[PhiInst]:
        return [inst for inst in self.instructions if isinstance(inst, PhiInst)]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return f"<BasicBlock {self.label()} ({len(self.instructions)} insts)>"
