"""IRBuilder: convenience API for constructing IR.

The frontend lowering, the synthetic benchmark generator and many tests
build programs through this class.  The builder keeps an insertion point
(a basic block) and hands every created instruction a unique name.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from .basicblock import BasicBlock
from .function import Function
from .instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    FreeInst,
    ICmpInst,
    Instruction,
    LoadInst,
    MallocInst,
    PhiInst,
    PtrAddInst,
    ReturnInst,
    SelectInst,
    SigmaInst,
    StoreInst,
    UnreachableInst,
)
from .types import INT32, INT8, PointerType, Type, VoidType
from .values import NullPointer, UndefValue, Value

__all__ = ["IRBuilder"]


class _BatchScope:
    """Context manager returned by :meth:`IRBuilder.batched`."""

    __slots__ = ("_builder",)

    def __init__(self, builder: "IRBuilder"):
        self._builder = builder

    def __enter__(self) -> "IRBuilder":
        self._builder._batching = True
        return self._builder

    def __exit__(self, *exc_info: object) -> None:
        builder = self._builder
        builder._flush()
        builder._batching = False


class IRBuilder:
    """Builds instructions at an insertion point inside a function.

    The builder has an optional *batched* mode (:meth:`batched`) used by the
    frontend lowering: instead of appending to the insertion block one
    ``BasicBlock.append`` call at a time, instructions accumulate in a
    pending list and land in the block in one ``list.extend`` when the
    insertion point moves (or the batch scope exits).  Inside a batch scope
    use :meth:`is_terminated` rather than peeking at
    ``builder.block.instructions`` — pending instructions are not yet
    visible in the block (reading the :attr:`block` property flushes first,
    so external callers always observe a consistent block).
    """

    __slots__ = ("_block", "_batching", "_pending")

    def __init__(self, block: Optional[BasicBlock] = None):
        self._block = block
        self._batching = False
        self._pending: list = []

    # -- positioning -----------------------------------------------------------
    @property
    def block(self) -> Optional[BasicBlock]:
        if self._pending:
            self._flush()
        return self._block

    @property
    def function(self) -> Optional[Function]:
        return self._block.parent if self._block is not None else None

    def position_at_end(self, block: BasicBlock) -> None:
        if self._pending:
            self._flush()
        self._block = block

    # -- batching --------------------------------------------------------------
    def batched(self) -> _BatchScope:
        """Enter batched insertion: one ``extend`` per block, not one append
        per instruction."""
        return _BatchScope(self)

    def _flush(self) -> None:
        pending = self._pending
        if pending:
            block = self._block
            block.instructions.extend(pending)
            self._pending = []
            if block.parent is not None:  # the batch may end in a terminator
                block.parent.invalidate_cfg()

    def is_terminated(self) -> bool:
        """True when the current block (including pending instructions) ends
        in a terminator."""
        if self._pending:
            return self._pending[-1].is_terminator()
        block = self._block
        if block is None:
            return False
        instructions = block.instructions
        return bool(instructions) and instructions[-1].is_terminator()

    def _insert(self, instruction: Instruction, name_prefix: str) -> Instruction:
        block = self._block
        if block is None:
            raise RuntimeError("IRBuilder has no insertion point")
        if not isinstance(instruction.type, VoidType):
            function = block.parent
            if instruction.name:
                # Caller-provided names are made unique within the function so
                # repeated lowering of the same source name cannot collide.
                instruction.name = function.uniquify_name(instruction.name)
            else:
                instruction.name = function.next_value_name(name_prefix)
        if self._batching:
            if instruction.parent is not None:
                raise ValueError("instruction already belongs to a block")
            instruction.parent = block
            self._pending.append(instruction)
        else:
            block.append(instruction)
        return instruction

    # -- constants -----------------------------------------------------------------
    @staticmethod
    def null(pointer_type: PointerType) -> NullPointer:
        return NullPointer(pointer_type)

    @staticmethod
    def undef(type_: Type) -> UndefValue:
        return UndefValue(type_)

    # -- arithmetic ------------------------------------------------------------------
    def binary(self, opcode: str, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self._insert(BinaryInst(opcode, lhs, rhs, name), name or "t")

    def add(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self.binary("add", lhs, rhs, name)

    def sub(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self.binary("sub", lhs, rhs, name)

    def mul(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self.binary("mul", lhs, rhs, name)

    def sdiv(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self.binary("sdiv", lhs, rhs, name)

    def srem(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self.binary("srem", lhs, rhs, name)

    def icmp(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> ICmpInst:
        return self._insert(ICmpInst(predicate, lhs, rhs, name), name or "cmp")

    def select(self, condition: Value, true_value: Value, false_value: Value,
               name: str = "") -> SelectInst:
        return self._insert(SelectInst(condition, true_value, false_value, name), name or "sel")

    def cast(self, kind: str, value: Value, target_type: Type, name: str = "") -> CastInst:
        return self._insert(CastInst(kind, value, target_type, name), name or "cast")

    # -- memory ------------------------------------------------------------------------
    def alloca(self, allocated_type: Type, count: Optional[Value] = None,
               name: str = "") -> AllocaInst:
        return self._insert(AllocaInst(allocated_type, count, name), name or "a")

    def malloc(self, size: Value, pointee: Type = INT8, name: str = "") -> MallocInst:
        return self._insert(MallocInst(size, pointee, name), name or "m")

    def free(self, pointer: Value, name: str = "") -> FreeInst:
        return self._insert(FreeInst(pointer, name), name or "f")

    def ptradd(self, base: Value, index: Optional[Value] = None, *, scale: int = 1,
               offset: int = 0, result_type: Optional[Type] = None,
               name: str = "") -> PtrAddInst:
        return self._insert(PtrAddInst(base, index, scale=scale, offset=offset,
                                       result_type=result_type, name=name),
                            name or "p")

    def load(self, pointer: Value, result_type: Optional[Type] = None,
             name: str = "") -> LoadInst:
        return self._insert(LoadInst(pointer, result_type, name), name or "ld")

    def store(self, value: Value, pointer: Value) -> StoreInst:
        return self._insert(StoreInst(value, pointer), "st")

    # -- SSA constructs -----------------------------------------------------------------
    def phi(self, type_: Type, name: str = "") -> PhiInst:
        if self._pending:
            # φs insert at the block top: pending appends must land first.
            self._flush()
        phi = PhiInst(type_, name or self._block.parent.next_value_name("phi"))
        self._block.insert_phi(phi)
        phi.parent = self._block  # insert_phi sets parent; keep explicit for clarity
        return phi

    def sigma(self, source: Value, *, lower: Optional[Value] = None,
              upper: Optional[Value] = None, lower_adjust: int = 0,
              upper_adjust: int = 0, name: str = "") -> SigmaInst:
        if self._pending:
            self._flush()
        sigma = SigmaInst(source, lower=lower, upper=upper, lower_adjust=lower_adjust,
                          upper_adjust=upper_adjust, origin_block=self._block,
                          name=name or self._block.parent.next_value_name("sig"))
        self._block.insert_sigma(sigma)
        return sigma

    # -- calls / control flow --------------------------------------------------------------
    def call(self, callee: Union[Function, str], args: Sequence[Value],
             return_type: Type = INT32, name: str = "") -> CallInst:
        if isinstance(callee, Function):
            return_type = callee.return_type
        call = CallInst(callee, args, return_type, name)
        prefix = name or "call"
        return self._insert(call, prefix)

    def branch(self, target: BasicBlock) -> BranchInst:
        return self._insert(BranchInst(target), "br")

    def cond_branch(self, condition: Value, true_target: BasicBlock,
                    false_target: BasicBlock) -> BranchInst:
        return self._insert(
            BranchInst(condition=condition, true_target=true_target, false_target=false_target),
            "br",
        )

    def ret(self, value: Optional[Value] = None) -> ReturnInst:
        return self._insert(ReturnInst(value), "ret")

    def unreachable(self) -> UnreachableInst:
        return self._insert(UnreachableInst(), "unreachable")
