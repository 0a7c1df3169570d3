"""A concrete small-step interpreter for the repro IR.

The interpreter executes analysis-ready modules — the exact IR (post
mem2reg / simplify / e-SSA) the alias and range analyses consume — under
an idealised-but-deterministic semantics:

* **integers are unbounded** (no wrap-around), matching the mathematical
  integer model of the symbolic range analysis;
* **pointers carry provenance** (:class:`~repro.interp.memory.Pointer`),
  so address-overlap questions are exact even for accesses that run past
  an object's nominal size;
* **σ is a copy** — the e-SSA bound intersection holds by construction on
  the edge that created it;
* external calls use the deterministic libc models of
  :mod:`repro.interp.externals`.

Every SSA assignment and every load/store address is logged into an
:class:`~repro.interp.trace.ExecutionTrace`, which is what the soundness
oracle (:mod:`repro.evaluation.soundness`) consumes.  Execution is
bounded by a step budget and a call-depth cap, so the interpreter
terminates on any input program; a budgeted-out run is reported as
incomplete rather than raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
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
from ..ir.module import Module
from ..ir.values import (
    ConstantFloat,
    ConstantInt,
    GlobalVariable,
    NullPointer,
    UndefValue,
    Value,
)
from .externals import ProgramExit, call_external
from .memory import Heap, MemoryError_, Pointer, coerce_int
from .trace import (
    AccessEvent,
    ExecutionTrace,
    FrameTrace,
    access_width,
    memory_access_table,
)

__all__ = ["InterpreterLimits", "InterpreterError", "StepBudgetExceeded", "Interpreter"]


class InterpreterError(Exception):
    """A runtime condition the concrete semantics cannot continue past."""


class StepBudgetExceeded(InterpreterError):
    """The run consumed its step budget (reported, not propagated)."""


@dataclass(frozen=True)
class InterpreterLimits:
    """Resource bounds making every interpretation terminate."""

    max_steps: int = 500_000
    max_call_depth: int = 64


def _c_div(a: int, b: int) -> int:
    """C-style truncating division (matches ``repro.symbolic`` semantics)."""
    if b == 0:
        raise InterpreterError("integer division by zero")
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def _c_rem(a: int, b: int) -> int:
    if b == 0:
        raise InterpreterError("integer remainder by zero")
    remainder = abs(a) % abs(b)
    return -remainder if a < 0 else remainder


class _Frame:
    """One activation: SSA environment plus its trace record."""

    __slots__ = ("function", "env", "trace")

    def __init__(self, function: Function, trace: FrameTrace):
        self.function = function
        self.env: Dict[Value, object] = {}
        self.trace = trace


class Interpreter:
    """Executes one module; reusable only for a single run."""

    def __init__(self, module: Module, limits: Optional[InterpreterLimits] = None):
        self.module = module
        self.limits = limits or InterpreterLimits()
        self.heap = Heap()
        self.trace = ExecutionTrace(module_name=module.name)
        self.steps = 0
        self.unknown_external_calls = 0
        self._globals: Dict[GlobalVariable, Pointer] = {}
        self._frame_count = 0
        #: function -> {load/store instruction -> stable access index}.
        self._access_indices: Dict[Function, Dict[Instruction, int]] = {}
        for variable in module.globals:
            size = variable.value_type.size_in_bytes()
            self._globals[variable] = self.heap.allocate(size, "global", variable.name)

    # -- entry points -------------------------------------------------------
    def run_main(self, argv: Sequence[str]) -> ExecutionTrace:
        """Execute ``main(argc, argv)`` with the given C-style argv strings.

        The argv array and its strings become interpreter-provided objects,
        so input-derived pointers have full provenance like every other
        pointer.  Returns the trace; an aborted run sets ``stop_reason``.
        """
        main = self.module.get_function("main")
        if main is None or main.is_declaration():
            raise InterpreterError("module has no defined main function")
        argv_array = self.heap.allocate(8 * (len(argv) + 1), "input", "argv")
        for index, text in enumerate(argv):
            string = self.heap.allocate(len(text) + 1, "input", f"argv[{index}]")
            self.heap.store_c_string(string, text)
            self.heap.store(argv_array.add(8 * index), string, 8)
        args: List[object] = []
        for argument in main.args:
            if argument.type.is_pointer():
                args.append(argv_array)
            else:
                args.append(len(argv))
        try:
            self._call(main, args)
            self.trace.completed = True
        except ProgramExit:
            self.trace.completed = True
            self.trace.stop_reason = "exit"
        except StepBudgetExceeded:
            self.trace.stop_reason = "step-budget"
        except (InterpreterError, MemoryError_, OverflowError,
                ValueError, ZeroDivisionError) as error:
            # OverflowError/ValueError cover unbounded ints escaping into
            # float conversions (sitofp of a huge int, fptosi of ±inf):
            # report the run as incomplete instead of raising, as the
            # module contract promises.
            self.trace.stop_reason = f"runtime-error: {error}"
        self.trace.steps = self.steps
        return self.trace

    # -- execution core -----------------------------------------------------
    def _call(self, function: Function, args: List[object]) -> object:
        if self._frame_count >= self.limits.max_call_depth:
            raise InterpreterError(f"call depth exceeds {self.limits.max_call_depth}")
        self._frame_count += 1
        frame_trace = FrameTrace(function=function, frame_id=len(self.trace.frames),
                                 start_step=self.steps, arguments=tuple(args))
        self.trace.frames.append(frame_trace)
        frame = _Frame(function, frame_trace)
        for argument, value in zip(function.args, args):
            frame.env[argument] = value
            self._record(frame, argument, value)
        try:
            return self._run_frame(frame)
        finally:
            frame_trace.end_step = self.steps
            self._frame_count -= 1

    def _run_frame(self, frame: _Frame) -> object:
        block = frame.function.entry_block
        predecessor: Optional[BasicBlock] = None
        while True:
            frame.trace.record_block(self.steps, block.label())
            self._enter_block(frame, block, predecessor)
            for inst in block.instructions:
                if isinstance(inst, PhiInst):
                    continue  # evaluated atomically by _enter_block
                self._tick()
                if isinstance(inst, BranchInst):
                    predecessor, block = block, self._branch_target(frame, inst)
                    break
                if isinstance(inst, ReturnInst):
                    if inst.value is None:
                        return None
                    return self._value(frame, inst.value)
                if isinstance(inst, UnreachableInst):
                    raise InterpreterError(
                        f"reached unreachable in @{frame.function.name}")
                self._execute(frame, inst)
            else:
                raise InterpreterError(
                    f"block {block.label()} in @{frame.function.name} fell through")

    def _enter_block(self, frame: _Frame, block: BasicBlock,
                     predecessor: Optional[BasicBlock]) -> None:
        phis = block.phis()
        if not phis:
            return
        # All φs read the predecessor environment simultaneously.
        staged: List[Tuple[PhiInst, object]] = []
        for phi in phis:
            self._tick()
            incoming = phi.incoming_value_for(predecessor) if predecessor else None
            if incoming is None:
                raise InterpreterError(
                    f"phi {phi.short_name()} has no incoming value for "
                    f"{predecessor.label() if predecessor else '<entry>'}")
            staged.append((phi, self._value(frame, incoming)))
        for phi, value in staged:
            self._assign(frame, phi, value)

    def _branch_target(self, frame: _Frame, inst: BranchInst) -> BasicBlock:
        if not inst.is_conditional():
            return inst.true_target
        condition = self._value(frame, inst.condition)
        taken = condition.address if isinstance(condition, Pointer) else condition
        return inst.true_target if taken else inst.false_target

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.limits.max_steps:
            raise StepBudgetExceeded(f"exceeded {self.limits.max_steps} steps")

    # -- values -------------------------------------------------------------
    def _value(self, frame: _Frame, value: Value) -> object:
        if isinstance(value, ConstantInt):
            return value.value
        if isinstance(value, ConstantFloat):
            return value.value
        if isinstance(value, NullPointer):
            return self.heap.null
        if isinstance(value, UndefValue):
            return self._zero_of(value)
        if isinstance(value, GlobalVariable):
            return self._globals[value]
        found = frame.env.get(value)
        if found is None and value not in frame.env:
            raise InterpreterError(
                f"use of undefined value {value.short_name()} in "
                f"@{frame.function.name}")
        return found

    def _zero_of(self, value: Value) -> object:
        if value.type.is_pointer():
            return self.heap.null
        if value.type.is_float():
            return 0.0
        return 0

    def _assign(self, frame: _Frame, target: Value, value: object) -> None:
        frame.env[target] = value
        self._record(frame, target, value)

    def _record(self, frame: _Frame, target: Value, value: object) -> None:
        if isinstance(value, Pointer) or \
                (isinstance(value, int) and target.type.is_integer()):
            frame.trace.record(target, self.steps, value)

    # -- instruction dispatch ----------------------------------------------
    def _execute(self, frame: _Frame, inst: Instruction) -> None:
        value = self._evaluate(frame, inst)
        if not isinstance(inst, StoreInst):
            self._assign(frame, inst, value)

    def _evaluate(self, frame: _Frame, inst: Instruction) -> object:
        if isinstance(inst, BinaryInst):
            return self._binary(frame, inst)
        if isinstance(inst, ICmpInst):
            return self._icmp(frame, inst)
        if isinstance(inst, CastInst):
            return self._cast(frame, inst)
        if isinstance(inst, AllocaInst):
            count = self._value(frame, inst.count)
            size = inst.allocated_type.size_in_bytes() * max(0, self._int(count))
            return self.heap.allocate(size, "stack",
                                      f"{frame.function.name}.{inst.name or 'alloca'}")
        if isinstance(inst, MallocInst):
            size = self._int(self._value(frame, inst.size))
            return self.heap.allocate(size, "heap",
                                      f"{frame.function.name}.{inst.name or 'malloc'}")
        if isinstance(inst, FreeInst):
            pointer = self._value(frame, inst.pointer)
            if isinstance(pointer, Pointer):
                self.heap.free(pointer, self.steps)
                return pointer
            return self.heap.null
        if isinstance(inst, PtrAddInst):
            base = self._value(frame, inst.base)
            if not isinstance(base, Pointer):
                base = self.heap.pointer_for_address(self._int(base))
            delta = inst.offset
            if inst.index is not None:
                delta += self._int(self._value(frame, inst.index)) * inst.scale
            return base.add(delta)
        if isinstance(inst, LoadInst):
            return self._load(frame, inst)
        if isinstance(inst, StoreInst):
            self._store(frame, inst)
            return None
        if isinstance(inst, SigmaInst):
            return self._value(frame, inst.source)
        if isinstance(inst, SelectInst):
            condition = self._value(frame, inst.condition)
            chosen = inst.true_value if self._int(condition) else inst.false_value
            return self._value(frame, chosen)
        if isinstance(inst, CallInst):
            return self._call_inst(frame, inst)
        raise InterpreterError(f"cannot interpret opcode {inst.opcode!r}")

    # -- arithmetic ----------------------------------------------------------
    def _int(self, value: object) -> int:
        return coerce_int(value)

    def _binary(self, frame: _Frame, inst: BinaryInst) -> object:
        lhs = self._value(frame, inst.lhs)
        rhs = self._value(frame, inst.rhs)
        opcode = inst.opcode
        if opcode.startswith("f"):
            a = float(self._int(lhs)) if not isinstance(lhs, float) else lhs
            b = float(self._int(rhs)) if not isinstance(rhs, float) else rhs
            return {"fadd": a + b, "fsub": a - b, "fmul": a * b,
                    "fdiv": a / b if b else 0.0}[opcode]
        a, b = self._int(lhs), self._int(rhs)
        if opcode == "add":
            return a + b
        if opcode == "sub":
            return a - b
        if opcode == "mul":
            return a * b
        if opcode == "sdiv":
            return _c_div(a, b)
        if opcode == "srem":
            return _c_rem(a, b)
        if opcode == "and":
            return a & b
        if opcode == "or":
            return a | b
        if opcode == "xor":
            return a ^ b
        if opcode == "shl":
            return a << b if 0 <= b < 512 else 0
        if opcode == "ashr":
            return a >> b if 0 <= b < 512 else (0 if a >= 0 else -1)
        raise InterpreterError(f"unknown binary opcode {opcode!r}")

    def _icmp(self, frame: _Frame, inst: ICmpInst) -> int:
        lhs = self._value(frame, inst.lhs)
        rhs = self._value(frame, inst.rhs)
        if isinstance(lhs, float) or isinstance(rhs, float):
            a: object = lhs if isinstance(lhs, float) else float(self._int(lhs))
            b: object = rhs if isinstance(rhs, float) else float(self._int(rhs))
        else:
            a, b = self._int(lhs), self._int(rhs)
        table = {"eq": a == b, "ne": a != b, "slt": a < b,
                 "sle": a <= b, "sgt": a > b, "sge": a >= b}
        return 1 if table[inst.predicate] else 0

    def _cast(self, frame: _Frame, inst: CastInst) -> object:
        value = self._value(frame, inst.value)
        kind = inst.kind
        if kind in ("trunc", "sext", "zext"):
            # Unbounded-integer semantics: width changes are value-preserving,
            # mirroring the range analysis' mathematical-integer model.
            return self._int(value)
        if kind == "bitcast":
            return value
        if kind == "ptrtoint":
            return value.address if isinstance(value, Pointer) else self._int(value)
        if kind == "inttoptr":
            if isinstance(value, Pointer):
                return value
            return self.heap.pointer_for_address(self._int(value))
        if kind == "sitofp":
            return float(self._int(value))
        if kind == "fptosi":
            return int(value) if isinstance(value, float) else self._int(value)
        raise InterpreterError(f"unknown cast kind {kind!r}")

    # -- memory ---------------------------------------------------------------
    def _pointer_operand(self, frame: _Frame, value: Value) -> Pointer:
        concrete = self._value(frame, value)
        if isinstance(concrete, Pointer):
            return concrete
        return self.heap.pointer_for_address(self._int(concrete))

    def _access_index(self, frame: _Frame, inst: Instruction) -> int:
        table = self._access_indices.get(frame.function)
        if table is None:
            table = {access: index for index, access
                     in enumerate(memory_access_table(frame.function))}
            self._access_indices[frame.function] = table
        return table.get(inst, -1)

    def _record_memory_access(self, frame: _Frame, inst: Instruction,
                              pointer: Pointer, width: int,
                              opcode: str) -> None:
        in_extent = 0 <= pointer.offset and \
            pointer.offset + width <= pointer.obj.size
        self.trace.record_access(AccessEvent(
            step=self.steps, function=frame.function.name, opcode=opcode,
            object_uid=pointer.obj.uid, object_label=pointer.obj.label,
            offset=pointer.offset, width=width,
            frame_id=frame.trace.frame_id,
            access_index=self._access_index(frame, inst),
            in_extent=in_extent))

    def _load(self, frame: _Frame, inst: LoadInst) -> object:
        pointer = self._pointer_operand(frame, inst.pointer)
        width = access_width(inst)
        self._record_memory_access(frame, inst, pointer, width, "load")
        cell = self.heap.load(pointer)
        if cell is None:
            return self._zero_of(inst)
        if inst.type.is_pointer():
            if isinstance(cell, Pointer):
                return cell
            return self.heap.pointer_for_address(self._int(cell))
        if inst.type.is_float():
            return cell if isinstance(cell, float) else float(self._int(cell))
        return self._int(cell)

    def _store(self, frame: _Frame, inst: StoreInst) -> None:
        pointer = self._pointer_operand(frame, inst.pointer)
        value = self._value(frame, inst.value)
        width = access_width(inst)
        self._record_memory_access(frame, inst, pointer, width, "store")
        self.heap.store(pointer, value, width)

    # -- calls ------------------------------------------------------------------
    def _call_inst(self, frame: _Frame, inst: CallInst) -> object:
        args = [self._value(frame, argument) for argument in inst.args]
        callee = inst.callee
        if not isinstance(callee, str):
            target = callee
            if target.is_declaration():
                return self._external(target.name, args, inst)
            return self._call(target, args)
        target = self.module.get_function(callee)
        if target is not None and not target.is_declaration():
            return self._call(target, args)
        return self._external(callee, args, inst)

    def _external(self, name: str, args: List[object], inst: CallInst) -> object:
        result = call_external(name, args, self.heap)
        if result is NotImplemented:
            self.unknown_external_calls += 1
            return self._zero_of(inst)
        return result
