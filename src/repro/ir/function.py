"""Functions: argument lists plus a CFG of basic blocks."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, TYPE_CHECKING

from .basicblock import BasicBlock
from .instructions import Instruction
from .types import FunctionType, Type
from .values import Argument, Value

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.cfg import CFGInfo
    from .module import Module

__all__ = ["Function"]


class Function(Value):
    """A function definition (or declaration, when it has no blocks).

    Functions own the name counter used to give every value a unique,
    stable textual name — uniqueness of names is what lets the analyses use
    plain dictionaries keyed by value.

    They also hold their CFG facts (:meth:`cfg`), built on first use and
    dropped by every IR operation that changes the CFG.
    """

    __slots__ = ("parent", "args", "blocks", "_name_counter", "_taken_names", "_cfg")

    def __init__(self, name: str, function_type: FunctionType,
                 arg_names: Optional[Sequence[str]] = None,
                 parent: Optional["Module"] = None):
        super().__init__(function_type, name)
        self.parent = parent
        self.blocks: List[BasicBlock] = []
        self._name_counter = 0
        self._taken_names: Dict[str, int] = {}
        self._cfg: Optional["CFGInfo"] = None
        arg_names = list(arg_names or [])
        while len(arg_names) < len(function_type.param_types):
            arg_names.append(f"arg{len(arg_names)}")
        self.args: List[Argument] = [
            Argument(param_type, arg_name, parent=self, index=index)
            for index, (param_type, arg_name)
            in enumerate(zip(function_type.param_types, arg_names))
        ]
        for arg in self.args:
            self._taken_names[arg.name] = 1

    # -- signature helpers ----------------------------------------------------
    @property
    def function_type(self) -> FunctionType:
        assert isinstance(self.type, FunctionType)
        return self.type

    @property
    def return_type(self) -> Type:
        return self.function_type.return_type

    def is_declaration(self) -> bool:
        """True when the function has no body (external)."""
        return not self.blocks

    # -- block management --------------------------------------------------------
    @property
    def entry_block(self) -> Optional[BasicBlock]:
        return self.blocks[0] if self.blocks else None

    def append_block(self, name: str = "") -> BasicBlock:
        block = BasicBlock(self.uniquify_name(name or "bb"), parent=self)
        self.blocks.append(block)
        self._cfg = None
        return block

    # -- CFG facts -----------------------------------------------------------------
    def cfg(self) -> "CFGInfo":
        """Successors, predecessors, reverse post-order, dominator tree and
        loop forest, built on first use and kept until the CFG changes."""
        info = self._cfg
        if info is None:
            from ..analysis.cfg import CFGInfo  # the analysis layer imports ir
            info = self._cfg = CFGInfo(self)
        return info

    def invalidate_cfg(self) -> None:
        """Drop the cached CFG facts; every CFG-changing IR operation calls this."""
        self._cfg = None

    # -- naming --------------------------------------------------------------------
    def uniquify_name(self, base: str) -> str:
        """Return ``base`` or ``base.N`` such that the result is unused."""
        if base not in self._taken_names:
            self._taken_names[base] = 1
            return base
        while True:
            candidate = f"{base}.{self._taken_names[base]}"
            self._taken_names[base] += 1
            if candidate not in self._taken_names:
                self._taken_names[candidate] = 1
                return candidate

    def next_value_name(self, prefix: str = "v") -> str:
        self._name_counter += 1
        return self.uniquify_name(f"{prefix}{self._name_counter}")

    # -- traversal --------------------------------------------------------------------
    def instructions(self) -> Iterator[Instruction]:
        """All instructions in block order."""
        for block in self.blocks:
            yield from block.instructions

    def values(self) -> Iterator[Value]:
        """All SSA values defined in the function (arguments then results)."""
        yield from self.args
        for instruction in self.instructions():
            if instruction.type.size_in_bytes() != 0 or instruction.type.is_pointer():
                yield instruction

    def pointer_values(self) -> List[Value]:
        """Every pointer-typed SSA value (the query candidates)."""
        return [value for value in self.values() if value.is_pointer()]

    def instruction_count(self) -> int:
        return sum(len(block) for block in self.blocks)

    def short_name(self) -> str:
        return f"@{self.name}"

    def __repr__(self) -> str:
        return f"<Function @{self.name} ({len(self.blocks)} blocks)>"
