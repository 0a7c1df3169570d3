"""Instruction set of the intermediate representation.

The instruction set is a superset of the paper's core language (Figure 6):

=====================  =====================================================
Paper construct        IR instruction
=====================  =====================================================
``p = malloc(i)``      :class:`MallocInst` (and :class:`AllocaInst` for
                       stack allocations, which are locations too)
``p = free(p1)``       :class:`FreeInst`
``p0 = p1 + i``        :class:`PtrAddInst` with a variable index
``p0 = p1 + c``        :class:`PtrAddInst` with a constant offset
``p0 = p1 ∩ [l, u]``   :class:`SigmaInst` (e-SSA bound intersection)
``p0 = *p1``           :class:`LoadInst`
``*p0 = p1``           :class:`StoreInst`
``p0 = φ(p1, p2)``     :class:`PhiInst`
``bnz(v, l)``          :class:`BranchInst` (conditional)
``jump(l)``            :class:`BranchInst` (unconditional)
=====================  =====================================================

plus the ordinary scalar instructions a realistic frontend needs (binary
arithmetic, comparisons, casts, calls, select, return).

Data-flow operands are tracked through use lists; branch targets and φ
incoming blocks are kept as plain attributes because the analyses only need
the data-flow graph to be sparse.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING, Union

from .types import BOOL, INT32, PointerType, Type, VOID
from .values import ConstantInt, Use, Value

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .basicblock import BasicBlock
    from .function import Function

__all__ = [
    "Instruction",
    "BinaryInst",
    "ICmpInst",
    "CastInst",
    "AllocaInst",
    "MallocInst",
    "FreeInst",
    "PtrAddInst",
    "LoadInst",
    "StoreInst",
    "PhiInst",
    "SigmaInst",
    "CallInst",
    "SelectInst",
    "BranchInst",
    "ReturnInst",
    "UnreachableInst",
    "BINARY_OPCODES",
    "ICMP_PREDICATES",
    "CAST_KINDS",
]

#: Binary opcodes understood by :class:`BinaryInst`.
BINARY_OPCODES = (
    "add", "sub", "mul", "sdiv", "srem",
    "and", "or", "xor", "shl", "ashr",
    "fadd", "fsub", "fmul", "fdiv",
)

#: Comparison predicates understood by :class:`ICmpInst`.
ICMP_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge")

#: Cast kinds understood by :class:`CastInst`.
CAST_KINDS = ("trunc", "sext", "zext", "bitcast", "ptrtoint", "inttoptr", "sitofp", "fptosi")


class Instruction(Value):
    """Base class of all instructions.  An instruction is also a value (its result)."""

    __slots__ = ("opcode", "parent", "_operands")

    def __init__(self, opcode: str, type_: Type, operands: Sequence[Value] = (), name: str = ""):
        # Inlined Value.__init__ plus direct use-list registration: this
        # constructor runs once per IR instruction and is on the cold-compile
        # hot path, so it avoids the append_operand/add_use call chain.
        self.type = type_
        self.name = name
        self.uses: List[Use] = []
        self.opcode = opcode
        self.parent: Optional["BasicBlock"] = None
        self._operands = ops = list(operands)
        for index, operand in enumerate(ops):
            operand.uses.append(Use(self, index))

    # -- operand management ---------------------------------------------------
    @property
    def operands(self) -> Tuple[Value, ...]:
        return tuple(self._operands)

    def append_operand(self, value: Value) -> None:
        index = len(self._operands)
        self._operands.append(value)
        value.add_use(self, index)

    def set_operand(self, index: int, value: Value) -> None:
        old = self._operands[index]
        old.remove_use(self, index)
        self._operands[index] = value
        value.add_use(self, index)

    def operand(self, index: int) -> Value:
        return self._operands[index]

    def drop_all_operands(self) -> None:
        for index, operand in enumerate(self._operands):
            operand.remove_use(self, index)
        self._operands = []

    # -- placement -------------------------------------------------------------
    def erase_from_parent(self) -> None:
        """Remove the instruction from its block and drop its operand uses."""
        if self.parent is not None:
            self.parent.remove_instruction(self)
        self.drop_all_operands()

    @property
    def function(self) -> Optional["Function"]:
        return self.parent.parent if self.parent is not None else None

    # -- classification ----------------------------------------------------------
    def is_terminator(self) -> bool:
        return isinstance(self, (BranchInst, ReturnInst, UnreachableInst))

    def is_allocation_site(self) -> bool:
        """True for instructions that create a fresh memory location."""
        return isinstance(self, (MallocInst, AllocaInst))

    def may_read_memory(self) -> bool:
        return isinstance(self, (LoadInst, CallInst))

    def may_write_memory(self) -> bool:
        return isinstance(self, (StoreInst, CallInst, FreeInst))

    def __repr__(self) -> str:
        operand_text = ", ".join(op.short_name() for op in self._operands)
        if self.type == VOID:
            return f"{self.opcode} {operand_text}"
        return f"{self.short_name()} = {self.opcode} {operand_text}"


class BinaryInst(Instruction):
    """A two-operand arithmetic/bitwise instruction."""

    __slots__ = ()

    def __init__(self, opcode: str, lhs: Value, rhs: Value, name: str = ""):
        if opcode not in BINARY_OPCODES:
            raise ValueError(f"unknown binary opcode {opcode!r}")
        super().__init__(opcode, lhs.type, (lhs, rhs), name)

    @property
    def lhs(self) -> Value:
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        return self.operand(1)


class ICmpInst(Instruction):
    """An integer/pointer comparison producing an ``i1``."""

    __slots__ = ("predicate",)

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in ICMP_PREDICATES:
            raise ValueError(f"unknown icmp predicate {predicate!r}")
        super().__init__("icmp", BOOL, (lhs, rhs), name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        return self.operand(1)

    _INVERSES = {"eq": "ne", "ne": "eq", "slt": "sge", "sle": "sgt", "sgt": "sle", "sge": "slt"}
    _SWAPS = {"eq": "eq", "ne": "ne", "slt": "sgt", "sle": "sge", "sgt": "slt", "sge": "sle"}

    def inverse_predicate(self) -> str:
        """Predicate that holds on the false edge of a branch on this compare."""
        return self._INVERSES[self.predicate]

    def swapped_predicate(self) -> str:
        """Predicate with the operands exchanged."""
        return self._SWAPS[self.predicate]

    def __repr__(self) -> str:
        return (f"{self.short_name()} = icmp {self.predicate} "
                f"{self.lhs.short_name()}, {self.rhs.short_name()}")


class CastInst(Instruction):
    """A value conversion.  Pointer casts preserve the points-to target."""

    __slots__ = ("kind",)

    def __init__(self, kind: str, value: Value, target_type: Type, name: str = ""):
        if kind not in CAST_KINDS:
            raise ValueError(f"unknown cast kind {kind!r}")
        super().__init__(kind, target_type, (value,), name)
        self.kind = kind

    @property
    def value(self) -> Value:
        return self.operand(0)

    def __repr__(self) -> str:
        return (f"{self.short_name()} = {self.kind} {self.value.short_name()} "
                f"to {self.type!r}")


class AllocaInst(Instruction):
    """A stack allocation: an allocation site with a statically known layout.

    ``allocated_type`` is the type of one element and ``count`` the number of
    elements (a constant for scalars/arrays, possibly a variable for VLAs).
    """

    __slots__ = ("allocated_type",)

    def __init__(self, allocated_type: Type, count: Value = None, name: str = ""):
        count = count if count is not None else ConstantInt(1)
        super().__init__("alloca", PointerType(allocated_type), (count,), name)
        self.allocated_type = allocated_type

    @property
    def count(self) -> Value:
        return self.operand(0)

    def allocation_size_bytes(self) -> Optional[int]:
        """Total byte size when the element count is a constant, else ``None``."""
        if isinstance(self.count, ConstantInt):
            return self.allocated_type.size_in_bytes() * self.count.value
        return None

    def __repr__(self) -> str:
        return (f"{self.short_name()} = alloca {self.allocated_type!r}, "
                f"count {self.count.short_name()}")


class MallocInst(Instruction):
    """A heap allocation of ``size`` bytes: the paper's ``p = malloc(i)``."""

    __slots__ = ()

    def __init__(self, size: Value, pointee: Type = None, name: str = ""):
        from .types import INT8  # default to a byte buffer
        pointee = pointee if pointee is not None else INT8
        super().__init__("malloc", PointerType(pointee), (size,), name)

    @property
    def size(self) -> Value:
        return self.operand(0)

    def __repr__(self) -> str:
        return f"{self.short_name()} = malloc {self.size.short_name()}"


class FreeInst(Instruction):
    """Deallocation: the paper's ``p0 = free(p1)``.

    The result value is a pointer bound to *no* location by the analyses
    (an empty abstract state), which is how use-after-free pointers become
    trivially disjoint from everything.
    """

    __slots__ = ()

    def __init__(self, pointer: Value, name: str = ""):
        super().__init__("free", pointer.type, (pointer,), name)

    @property
    def pointer(self) -> Value:
        return self.operand(0)

    def __repr__(self) -> str:
        return f"{self.short_name()} = free {self.pointer.short_name()}"


class PtrAddInst(Instruction):
    """Pointer arithmetic: ``result = base + index * scale + offset`` (bytes).

    This single shape subsumes LLVM's ``getelementptr`` for the purposes of
    the analyses: array indexing uses a variable ``index`` and an element
    ``scale``, struct field selection uses a constant ``offset``, and plain
    pointer increments use ``index = None``.
    """

    __slots__ = ("scale", "offset")

    def __init__(self, base: Value, index: Optional[Value] = None, *,
                 scale: int = 1, offset: int = 0, result_type: Type = None,
                 name: str = ""):
        operands = (base,) if index is None else (base, index)
        super().__init__("ptradd", result_type if result_type is not None else base.type,
                         operands, name)
        self.scale = int(scale)
        self.offset = int(offset)

    @property
    def base(self) -> Value:
        return self.operand(0)

    @property
    def index(self) -> Optional[Value]:
        return self.operand(1) if len(self._operands) > 1 else None

    def constant_byte_offset(self) -> Optional[int]:
        """The total byte offset when it is statically known."""
        if self.index is None:
            return self.offset
        if isinstance(self.index, ConstantInt):
            return self.index.value * self.scale + self.offset
        return None

    def __repr__(self) -> str:
        parts = [self.base.short_name()]
        if self.index is not None:
            parts.append(f"{self.index.short_name()} x {self.scale}")
        if self.offset or self.index is None:
            parts.append(str(self.offset))
        return f"{self.short_name()} = ptradd " + " + ".join(parts)


class LoadInst(Instruction):
    """Memory read: ``result = *pointer``."""

    __slots__ = ()

    def __init__(self, pointer: Value, result_type: Type = None, name: str = ""):
        if result_type is None:
            pointer_type = pointer.type
            result_type = pointer_type.pointee if isinstance(pointer_type, PointerType) else INT32
        super().__init__("load", result_type, (pointer,), name)

    @property
    def pointer(self) -> Value:
        return self.operand(0)

    def __repr__(self) -> str:
        return f"{self.short_name()} = load {self.pointer.short_name()}"


class StoreInst(Instruction):
    """Memory write: ``*pointer = value``."""

    __slots__ = ()

    def __init__(self, value: Value, pointer: Value):
        super().__init__("store", VOID, (value, pointer))

    @property
    def value(self) -> Value:
        return self.operand(0)

    @property
    def pointer(self) -> Value:
        return self.operand(1)

    def __repr__(self) -> str:
        return f"store {self.value.short_name()}, {self.pointer.short_name()}"


class PhiInst(Instruction):
    """An SSA φ-function.  Incoming blocks are kept alongside the operands."""

    __slots__ = ("incoming_blocks",)

    def __init__(self, type_: Type, name: str = ""):
        super().__init__("phi", type_, (), name)
        self.incoming_blocks: List["BasicBlock"] = []

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        self.append_operand(value)
        self.incoming_blocks.append(block)

    def incoming(self) -> List[Tuple[Value, "BasicBlock"]]:
        return list(zip(self._operands, self.incoming_blocks))

    def incoming_value_for(self, block: "BasicBlock") -> Optional[Value]:
        for value, incoming_block in self.incoming():
            if incoming_block is block:
                return value
        return None

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"[{value.short_name()}, {block.label()}]" for value, block in self.incoming()
        )
        return f"{self.short_name()} = phi {pairs}"


class SigmaInst(Instruction):
    """An e-SSA bound intersection: ``result = source ∩ [lower, upper]``.

    The bounds are IR values (or ``None`` for ±infinity) plus small constant
    adjustments, so ``i2 = i1 ∩ [-inf, e-1]`` is represented with
    ``upper=e, upper_adjust=-1``.  A σ lives at the top of one successor of a
    conditional branch; ``origin_block`` records which branch created it.
    """

    __slots__ = ("lower_adjust", "upper_adjust", "_has_lower", "_has_upper", "origin_block")

    def __init__(self, source: Value, *, lower: Optional[Value] = None,
                 upper: Optional[Value] = None, lower_adjust: int = 0,
                 upper_adjust: int = 0, origin_block: "BasicBlock" = None,
                 name: str = ""):
        operands: List[Value] = [source]
        self._has_lower = lower is not None
        self._has_upper = upper is not None
        if lower is not None:
            operands.append(lower)
        if upper is not None:
            operands.append(upper)
        super().__init__("sigma", source.type, operands, name)
        self.lower_adjust = lower_adjust
        self.upper_adjust = upper_adjust
        self.origin_block = origin_block

    @property
    def source(self) -> Value:
        return self.operand(0)

    @property
    def lower(self) -> Optional[Value]:
        return self.operand(1) if self._has_lower else None

    @property
    def upper(self) -> Optional[Value]:
        if not self._has_upper:
            return None
        return self.operand(2 if self._has_lower else 1)

    def __repr__(self) -> str:
        lower_text = (f"{self.lower.short_name()}{self.lower_adjust:+d}".replace("+0", "")
                      if self.lower is not None else "-inf")
        upper_text = (f"{self.upper.short_name()}{self.upper_adjust:+d}".replace("+0", "")
                      if self.upper is not None else "+inf")
        return (f"{self.short_name()} = sigma {self.source.short_name()} "
                f"∩ [{lower_text}, {upper_text}]")


class CallInst(Instruction):
    """A call, either to a function in the module or to an external name.

    External calls (``strlen``, ``atoi``…) produce kernel symbols for the
    range analysis and are handled conservatively by the alias analyses
    unless the callee is a known pure/read-only library routine.
    """

    __slots__ = ("callee",)

    def __init__(self, callee: Union["Function", str], args: Sequence[Value],
                 return_type: Type, name: str = ""):
        super().__init__("call", return_type, tuple(args), name)
        self.callee = callee

    @property
    def args(self) -> Tuple[Value, ...]:
        return self.operands

    def callee_name(self) -> str:
        if isinstance(self.callee, str):
            return self.callee
        return self.callee.name

    def is_external(self) -> bool:
        return isinstance(self.callee, str)

    def __repr__(self) -> str:
        arg_text = ", ".join(arg.short_name() for arg in self.args)
        prefix = f"{self.short_name()} = " if self.type != VOID else ""
        return f"{prefix}call @{self.callee_name()}({arg_text})"


class SelectInst(Instruction):
    """``result = condition ? true_value : false_value``."""

    __slots__ = ()

    def __init__(self, condition: Value, true_value: Value, false_value: Value, name: str = ""):
        super().__init__("select", true_value.type, (condition, true_value, false_value), name)

    @property
    def condition(self) -> Value:
        return self.operand(0)

    @property
    def true_value(self) -> Value:
        return self.operand(1)

    @property
    def false_value(self) -> Value:
        return self.operand(2)


class BranchInst(Instruction):
    """A conditional (``bnz``) or unconditional (``jump``) branch terminator."""

    __slots__ = ("true_target", "false_target")

    def __init__(self, target: "BasicBlock" = None, *, condition: Value = None,
                 true_target: "BasicBlock" = None, false_target: "BasicBlock" = None):
        if condition is None:
            super().__init__("br", VOID, ())
            self.true_target = target if target is not None else true_target
            self.false_target = None
        else:
            super().__init__("br", VOID, (condition,))
            self.true_target = true_target
            self.false_target = false_target

    @property
    def condition(self) -> Optional[Value]:
        return self.operand(0) if self._operands else None

    def is_conditional(self) -> bool:
        return bool(self._operands)

    def targets(self) -> List["BasicBlock"]:
        result = [self.true_target]
        if self.false_target is not None:
            result.append(self.false_target)
        return result

    def replace_target(self, old: "BasicBlock", new: "BasicBlock") -> None:
        if self.true_target is old:
            self.true_target = new
        if self.false_target is old:
            self.false_target = new
        function = self.function
        if function is not None:
            function.invalidate_cfg()

    def __repr__(self) -> str:
        if not self.is_conditional():
            return f"br {self.true_target.label()}"
        return (f"br {self.condition.short_name()}, {self.true_target.label()}, "
                f"{self.false_target.label()}")


class ReturnInst(Instruction):
    """Function return with an optional value."""

    __slots__ = ()

    def __init__(self, value: Optional[Value] = None):
        super().__init__("ret", VOID, (value,) if value is not None else ())

    @property
    def value(self) -> Optional[Value]:
        return self.operand(0) if self._operands else None

    def __repr__(self) -> str:
        if self.value is None:
            return "ret void"
        return f"ret {self.value.short_name()}"


class UnreachableInst(Instruction):
    """Marks a block that can never be executed."""

    __slots__ = ()

    def __init__(self):
        super().__init__("unreachable", VOID, ())

    def __repr__(self) -> str:
        return "unreachable"
