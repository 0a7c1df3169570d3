"""Lowering of the mini-C AST to the SSA IR.

The lowerer mirrors what clang does at ``-O0``: every local variable becomes
a stack slot (``alloca``) accessed through loads and stores, and the
``mem2reg`` transform later rewrites the scalar slots into SSA registers.
Pointer arithmetic is lowered to :class:`~repro.ir.instructions.PtrAddInst`
with byte scaling, struct field access to constant byte offsets, and
``malloc``/``free`` to the dedicated allocation instructions the pointer
analyses treat as location sites.

Known simplifications (documented, acceptable for static analysis targets):

* ``&&`` and ``||`` are lowered without short-circuiting (both operands are
  evaluated and combined bitwise);
* the conditional operator evaluates both arms and selects;
* struct assignment by value is not supported.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..ir.basicblock import BasicBlock
from ..ir.builder import IRBuilder
from ..ir.function import Function
from ..ir.module import Module
from ..ir.types import (
    ArrayType,
    BOOL,
    DOUBLE,
    FloatType,
    INT32,
    INT64,
    INT8,
    IntType,
    PointerType,
    StructType,
    Type,
    VOID,
)
from ..ir.values import ConstantFloat, ConstantInt, GlobalVariable, NullPointer, Value
from .ast_nodes import (
    ArrayIndex,
    Assignment,
    BinaryOp,
    BreakStmt,
    Call,
    Cast,
    CharLiteral,
    CompoundStmt,
    Conditional,
    ContinueStmt,
    DeclStmt,
    DoWhileStmt,
    EmptyStmt,
    Expr,
    ExprStmt,
    FloatLiteral,
    ForStmt,
    FunctionDecl,
    Identifier,
    IfStmt,
    IntLiteral,
    Member,
    NullLiteral,
    ReturnStmt,
    SizeOf,
    Stmt,
    StringLiteral,
    TranslationUnit,
    UnaryOp,
    WhileStmt,
)
from .sema import SemanticInfo, analyze

__all__ = ["LoweringError", "lower_bodies", "lower_translation_unit"]


class LoweringError(Exception):
    """Raised when the frontend meets a construct it cannot lower."""


def _is_float_type(type_: Type) -> bool:
    return isinstance(type_, FloatType)


# Operator tables hoisted to module level: ``_lower_binary_parts`` runs once
# per binary expression and used to rebuild these dict literals on each call.
_CMP_PREDICATES = {"==": "eq", "!=": "ne", "<": "slt", "<=": "sle",
                   ">": "sgt", ">=": "sge"}
_INT_OPCODES = {
    "+": "add", "-": "sub", "*": "mul", "/": "sdiv", "%": "srem",
    "&": "and", "|": "or", "^": "xor", "<<": "shl", ">>": "ashr",
}
_FLOAT_OPCODES = {
    "+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv", "%": "srem",
    "&": "and", "|": "or", "^": "xor", "<<": "shl", ">>": "ashr",
}


class _FunctionLowerer:
    """Lowers one function body."""

    def __init__(self, module_lowerer: "_ModuleLowerer", decl: FunctionDecl, function: Function):
        self.parent = module_lowerer
        self.info = module_lowerer.info
        self.module = module_lowerer.module
        self.decl = decl
        self.function = function
        self.builder = IRBuilder()
        # Scope stack: name -> (slot address, declared type).
        self.scopes: List[Dict[str, Tuple[Value, Type]]] = []
        # (continue target, break target) for the innermost loops.
        self.loop_stack: List[Tuple[BasicBlock, BasicBlock]] = []

    # -- scope handling ------------------------------------------------------
    def _push_scope(self) -> None:
        self.scopes.append({})

    def _pop_scope(self) -> None:
        self.scopes.pop()

    def _declare_local(self, name: str, slot: Value, declared_type: Type) -> None:
        self.scopes[-1][name] = (slot, declared_type)

    def _lookup(self, name: str) -> Optional[Tuple[Value, Type]]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    # -- entry point -----------------------------------------------------------
    def lower(self) -> None:
        entry = self.function.append_block("entry")
        self.builder.position_at_end(entry)
        self._push_scope()
        # The whole body is lowered inside one batch scope: instructions land
        # in their block in one extend per block instead of one append each.
        with self.builder.batched():
            # Parameters become stack slots so they can be reassigned in the body.
            for arg in self.function.args:
                slot = self.builder.alloca(arg.type, name=f"{arg.name}.addr")
                self.builder.store(arg, slot)
                self._declare_local(arg.name, slot, arg.type)
            assert self.decl.body is not None
            self._lower_compound(self.decl.body)
            self._pop_scope()
        # Outside the batch scope: every block's instruction list is final,
        # so the terminator scan below observes complete blocks.
        self._terminate_open_blocks()

    def _terminate_open_blocks(self) -> None:
        """Give every block a terminator (fall-through returns)."""
        for block in self.function.blocks:
            if block.terminator is not None:
                continue
            self.builder.position_at_end(block)
            return_type = self.function.return_type
            if return_type == VOID:
                self.builder.ret()
            elif return_type.is_pointer():
                self.builder.ret(NullPointer(return_type))
            elif _is_float_type(return_type):
                self.builder.ret(ConstantFloat(0.0, return_type))
            else:
                self.builder.ret(ConstantInt(0, return_type))

    # -- statements --------------------------------------------------------------
    def _current_terminated(self) -> bool:
        # Routed through the builder: inside a batch scope the terminator may
        # still be pending rather than in the block's instruction list.
        return self.builder.is_terminated()

    def _lower_statement(self, stmt: Stmt) -> None:
        if self._current_terminated():
            # Code after return/break/continue: park it in an unreachable block.
            dead = self.function.append_block("dead")
            self.builder.position_at_end(dead)
        # Dispatch on the exact node class (one dict lookup instead of an
        # isinstance chain; AST nodes are never subclassed).
        handler = _STMT_DISPATCH.get(stmt.__class__)
        if handler is None:
            raise LoweringError(f"unsupported statement {type(stmt).__name__}")
        handler(self, stmt)

    def _lower_expr_stmt(self, stmt: ExprStmt) -> None:
        self._lower_rvalue(stmt.expression)

    def _lower_break(self, stmt: BreakStmt) -> None:
        if not self.loop_stack:
            raise LoweringError("break outside of a loop")
        self.builder.branch(self.loop_stack[-1][1])

    def _lower_continue(self, stmt: ContinueStmt) -> None:
        if not self.loop_stack:
            raise LoweringError("continue outside of a loop")
        self.builder.branch(self.loop_stack[-1][0])

    def _lower_empty(self, stmt: EmptyStmt) -> None:
        pass

    def _lower_compound(self, stmt: CompoundStmt) -> None:
        self._push_scope()
        for child in stmt.statements:
            self._lower_statement(child)
        self._pop_scope()

    def _lower_decl(self, stmt: DeclStmt) -> None:
        for decl in stmt.declarations:
            declared_type = self.info.resolve(decl.type_spec)
            slot = self.builder.alloca(declared_type, name=decl.name)
            self._declare_local(decl.name, slot, declared_type)
            if decl.initializer is not None:
                value, value_type = self._lower_rvalue(decl.initializer)
                value = self._convert(value, value_type, declared_type)
                self.builder.store(value, slot)

    def _lower_if(self, stmt: IfStmt) -> None:
        condition = self._lower_condition(stmt.condition)
        then_block = self.function.append_block("if.then")
        merge_block = self.function.append_block("if.end")
        else_block = merge_block
        if stmt.else_branch is not None:
            else_block = self.function.append_block("if.else")
        self.builder.cond_branch(condition, then_block, else_block)

        self.builder.position_at_end(then_block)
        self._lower_statement(stmt.then_branch)
        if not self._current_terminated():
            self.builder.branch(merge_block)

        if stmt.else_branch is not None:
            self.builder.position_at_end(else_block)
            self._lower_statement(stmt.else_branch)
            if not self._current_terminated():
                self.builder.branch(merge_block)

        self.builder.position_at_end(merge_block)

    def _lower_while(self, stmt: WhileStmt) -> None:
        header = self.function.append_block("while.cond")
        body = self.function.append_block("while.body")
        exit_block = self.function.append_block("while.end")
        self.builder.branch(header)

        self.builder.position_at_end(header)
        condition = self._lower_condition(stmt.condition)
        self.builder.cond_branch(condition, body, exit_block)

        self.builder.position_at_end(body)
        self.loop_stack.append((header, exit_block))
        self._lower_statement(stmt.body)
        self.loop_stack.pop()
        if not self._current_terminated():
            self.builder.branch(header)

        self.builder.position_at_end(exit_block)

    def _lower_do_while(self, stmt: DoWhileStmt) -> None:
        body = self.function.append_block("do.body")
        cond_block = self.function.append_block("do.cond")
        exit_block = self.function.append_block("do.end")
        self.builder.branch(body)

        self.builder.position_at_end(body)
        self.loop_stack.append((cond_block, exit_block))
        self._lower_statement(stmt.body)
        self.loop_stack.pop()
        if not self._current_terminated():
            self.builder.branch(cond_block)

        self.builder.position_at_end(cond_block)
        condition = self._lower_condition(stmt.condition)
        self.builder.cond_branch(condition, body, exit_block)

        self.builder.position_at_end(exit_block)

    def _lower_for(self, stmt: ForStmt) -> None:
        self._push_scope()
        if stmt.init is not None:
            self._lower_statement(stmt.init)
        header = self.function.append_block("for.cond")
        body = self.function.append_block("for.body")
        step_block = self.function.append_block("for.inc")
        exit_block = self.function.append_block("for.end")
        self.builder.branch(header)

        self.builder.position_at_end(header)
        if stmt.condition is not None:
            condition = self._lower_condition(stmt.condition)
            self.builder.cond_branch(condition, body, exit_block)
        else:
            self.builder.branch(body)

        self.builder.position_at_end(body)
        self.loop_stack.append((step_block, exit_block))
        self._lower_statement(stmt.body)
        self.loop_stack.pop()
        if not self._current_terminated():
            self.builder.branch(step_block)

        self.builder.position_at_end(step_block)
        if stmt.step is not None:
            self._lower_rvalue(stmt.step)
        self.builder.branch(header)

        self.builder.position_at_end(exit_block)
        self._pop_scope()

    def _lower_return(self, stmt: ReturnStmt) -> None:
        return_type = self.function.return_type
        if stmt.value is None or return_type == VOID:
            self.builder.ret()
            return
        value, value_type = self._lower_rvalue(stmt.value)
        self.builder.ret(self._convert(value, value_type, return_type))

    # -- conditions ----------------------------------------------------------------
    def _lower_condition(self, expr: Expr) -> Value:
        value, value_type = self._lower_rvalue(expr)
        return self._to_bool(value, value_type)

    def _to_bool(self, value: Value, value_type: Type) -> Value:
        if value_type == BOOL:
            return value
        if value_type.is_pointer():
            return self.builder.icmp("ne", value, NullPointer(value_type))
        if _is_float_type(value_type):
            return self.builder.icmp("ne", value, ConstantFloat(0.0, value_type))
        return self.builder.icmp("ne", value, ConstantInt(0, value_type))

    # -- conversions ---------------------------------------------------------------
    def _convert(self, value: Value, from_type: Type, to_type: Type) -> Value:
        if from_type == to_type or to_type == VOID:
            return value
        if from_type.is_pointer() and to_type.is_pointer():
            return self.builder.cast("bitcast", value, to_type)
        if from_type.is_pointer() and to_type.is_integer():
            return self.builder.cast("ptrtoint", value, to_type)
        if from_type.is_integer() and to_type.is_pointer():
            if isinstance(value, ConstantInt) and value.value == 0:
                return NullPointer(to_type)
            return self.builder.cast("inttoptr", value, to_type)
        if from_type.is_integer() and to_type.is_integer():
            if isinstance(value, ConstantInt):
                return ConstantInt(value.value, to_type)
            assert isinstance(from_type, IntType) and isinstance(to_type, IntType)
            kind = "sext" if to_type.bits > from_type.bits else "trunc"
            return self.builder.cast(kind, value, to_type)
        if from_type.is_integer() and _is_float_type(to_type):
            return self.builder.cast("sitofp", value, to_type)
        if _is_float_type(from_type) and to_type.is_integer():
            return self.builder.cast("fptosi", value, to_type)
        if _is_float_type(from_type) and _is_float_type(to_type):
            return self.builder.cast("bitcast", value, to_type)
        return value

    # -- lvalues -----------------------------------------------------------------------
    def _lower_lvalue(self, expr: Expr) -> Tuple[Value, Type]:
        """Return the address of ``expr`` and the type of the object it names."""
        if isinstance(expr, Identifier):
            local = self._lookup(expr.name)
            if local is not None:
                return local
            global_var = self.parent.global_map.get(expr.name)
            if global_var is not None:
                return global_var, global_var.value_type
            raise LoweringError(f"use of undeclared identifier {expr.name!r}")
        if isinstance(expr, UnaryOp) and expr.op == "*":
            pointer, pointer_type = self._lower_rvalue(expr.operand)
            if not pointer_type.is_pointer():
                raise LoweringError("cannot dereference a non-pointer value")
            return pointer, pointer_type.pointee
        if isinstance(expr, ArrayIndex):
            return self._lower_index_address(expr)
        if isinstance(expr, Member):
            return self._lower_member_address(expr)
        raise LoweringError(f"expression is not an lvalue: {type(expr).__name__}")

    def _lower_index_address(self, expr: ArrayIndex) -> Tuple[Value, Type]:
        base_value, base_type = self._lower_rvalue(expr.base)
        if not base_type.is_pointer():
            raise LoweringError("subscripted value is not a pointer or array")
        element_type = base_type.pointee
        index_value, index_type = self._lower_rvalue(expr.index)
        scale = max(1, element_type.size_in_bytes())
        address_type = PointerType(element_type)
        if isinstance(index_value, ConstantInt):
            address = self.builder.ptradd(base_value, offset=index_value.value * scale,
                                          result_type=address_type)
        else:
            address = self.builder.ptradd(base_value, index_value, scale=scale,
                                          result_type=address_type)
        return address, element_type

    def _lower_member_address(self, expr: Member) -> Tuple[Value, Type]:
        if expr.is_arrow:
            base_value, base_type = self._lower_rvalue(expr.base)
            if not base_type.is_pointer() or not isinstance(base_type.pointee, StructType):
                raise LoweringError("arrow access on a non-struct-pointer value")
            struct_type = base_type.pointee
            base_address = base_value
        else:
            base_address, struct_type = self._lower_lvalue(expr.base)
            if not isinstance(struct_type, StructType):
                raise LoweringError("member access on a non-struct value")
        if expr.field_name not in struct_type.field_names():
            raise LoweringError(f"struct {struct_type.name} has no field "
                                f"{expr.field_name!r} (at line {expr.line})")
        offset = struct_type.field_offset(expr.field_name)
        field_type = struct_type.field_type(expr.field_name)
        address = self.builder.ptradd(base_address, offset=offset,
                                      result_type=PointerType(field_type),
                                      name=f"{expr.field_name}.addr")
        return address, field_type

    # -- rvalues ----------------------------------------------------------------------------
    def _lower_rvalue(self, expr: Expr) -> Tuple[Value, Type]:
        # Dispatch on the exact node class; this runs once per expression
        # node and replaced a fourteen-way isinstance chain.
        handler = _RVALUE_DISPATCH.get(expr.__class__)
        if handler is None:
            raise LoweringError(f"unsupported expression {type(expr).__name__}")
        return handler(self, expr)

    def _lower_int_literal(self, expr: IntLiteral) -> Tuple[Value, Type]:
        return ConstantInt(expr.value, INT32), INT32

    def _lower_char_literal(self, expr: CharLiteral) -> Tuple[Value, Type]:
        return ConstantInt(expr.value, INT32), INT32

    def _lower_float_literal(self, expr: FloatLiteral) -> Tuple[Value, Type]:
        return ConstantFloat(expr.value, DOUBLE), DOUBLE

    def _lower_string_literal(self, expr: StringLiteral) -> Tuple[Value, Type]:
        return self.parent.string_literal(len(expr.value))

    def _lower_null_literal(self, expr: NullLiteral) -> Tuple[Value, Type]:
        pointer_type = PointerType(INT8)
        return NullPointer(pointer_type), pointer_type

    def _lower_cast_expr(self, expr: Cast) -> Tuple[Value, Type]:
        value, value_type = self._lower_rvalue(expr.operand)
        target_type = self.info.resolve(expr.target_type)
        return self._convert(value, value_type, target_type), target_type

    def _lower_sizeof(self, expr: SizeOf) -> Tuple[Value, Type]:
        if expr.target_type is not None:
            size = self.info.resolve(expr.target_type).size_in_bytes()
        else:
            assert expr.operand is not None
            _, operand_type = self._lower_rvalue(expr.operand)
            size = operand_type.size_in_bytes()
        return ConstantInt(size, INT32), INT32

    def _load_from_lvalue(self, expr: Expr) -> Tuple[Value, Type]:
        address, object_type = self._lower_lvalue(expr)
        if isinstance(object_type, ArrayType):
            # Array-to-pointer decay: the value of an array is its first element's address.
            return address, PointerType(object_type.element)
        if isinstance(object_type, StructType):
            # Structs are manipulated by address (no by-value copies).
            return address, PointerType(object_type)
        loaded = self.builder.load(address, object_type)
        return loaded, object_type

    def _lower_unary(self, expr: UnaryOp) -> Tuple[Value, Type]:
        if expr.op == "*":
            address, object_type = self._lower_lvalue(expr)
            if isinstance(object_type, (ArrayType, StructType)):
                decayed = (PointerType(object_type.element)
                           if isinstance(object_type, ArrayType) else PointerType(object_type))
                return address, decayed
            return self.builder.load(address, object_type), object_type
        if expr.op == "&":
            address, object_type = self._lower_lvalue(expr.operand)
            return address, PointerType(object_type)
        if expr.op in ("++", "--"):
            return self._lower_incdec(expr)
        value, value_type = self._lower_rvalue(expr.operand)
        if expr.op == "-":
            opcode = "fsub" if _is_float_type(value_type) else "sub"
            zero = (ConstantFloat(0.0, value_type) if _is_float_type(value_type)
                    else ConstantInt(0, value_type))
            return self.builder.binary(opcode, zero, value), value_type
        if expr.op == "!":
            boolean = self._to_bool(value, value_type)
            return self.builder.icmp("eq", boolean, ConstantInt(0, BOOL)), BOOL
        if expr.op == "~":
            return self.builder.binary("xor", value, ConstantInt(-1, value_type)), value_type
        raise LoweringError(f"unsupported unary operator {expr.op!r}")

    def _lower_incdec(self, expr: UnaryOp) -> Tuple[Value, Type]:
        address, object_type = self._lower_lvalue(expr.operand)
        old_value = self.builder.load(address, object_type)
        if object_type.is_pointer():
            element_size = max(1, object_type.pointee.size_in_bytes())
            delta = element_size if expr.op == "++" else -element_size
            new_value = self.builder.ptradd(old_value, offset=delta)
        else:
            one = ConstantInt(1, object_type)
            opcode = "add" if expr.op == "++" else "sub"
            new_value = self.builder.binary(opcode, old_value, one)
        self.builder.store(new_value, address)
        result = old_value if expr.is_postfix else new_value
        return result, object_type

    def _lower_binary(self, expr: BinaryOp) -> Tuple[Value, Type]:
        return self._lower_binary_parts(expr.op, expr.lhs, expr.rhs)

    def _lower_binary_parts(self, op: str, lhs: Expr, rhs: Expr) -> Tuple[Value, Type]:
        """Lower ``lhs op rhs``.

        Split out from :meth:`_lower_binary` so compound assignment can reuse
        it directly instead of allocating a synthetic :class:`BinaryOp` node
        per ``target op= value`` expression.
        """
        if op == ",":
            self._lower_rvalue(lhs)
            return self._lower_rvalue(rhs)
        if op == "&&" or op == "||":
            lhs_value, lhs_type = self._lower_rvalue(lhs)
            rhs_value, rhs_type = self._lower_rvalue(rhs)
            lhs_bool = self._to_bool(lhs_value, lhs_type)
            rhs_bool = self._to_bool(rhs_value, rhs_type)
            opcode = "and" if op == "&&" else "or"
            return self.builder.binary(opcode, lhs_bool, rhs_bool), BOOL
        lhs_value, lhs_type = self._lower_rvalue(lhs)
        rhs_value, rhs_type = self._lower_rvalue(rhs)
        # Pointer arithmetic.
        if (op == "+" or op == "-") and lhs_type.is_pointer() and rhs_type.is_integer():
            element_size = max(1, lhs_type.pointee.size_in_bytes())
            scale = element_size if op == "+" else -element_size
            if isinstance(rhs_value, ConstantInt):
                address = self.builder.ptradd(lhs_value, offset=rhs_value.value * scale)
            else:
                address = self.builder.ptradd(lhs_value, rhs_value, scale=scale)
            return address, lhs_type
        if op == "+" and rhs_type.is_pointer() and lhs_type.is_integer():
            element_size = max(1, rhs_type.pointee.size_in_bytes())
            if isinstance(lhs_value, ConstantInt):
                address = self.builder.ptradd(rhs_value, offset=lhs_value.value * element_size)
            else:
                address = self.builder.ptradd(rhs_value, lhs_value, scale=element_size)
            return address, rhs_type
        if op == "-" and lhs_type.is_pointer() and rhs_type.is_pointer():
            element_size = max(1, lhs_type.pointee.size_in_bytes())
            lhs_int = self.builder.cast("ptrtoint", lhs_value, INT64)
            rhs_int = self.builder.cast("ptrtoint", rhs_value, INT64)
            difference = self.builder.sub(lhs_int, rhs_int)
            if element_size > 1:
                difference = self.builder.sdiv(difference, ConstantInt(element_size, INT64))
            return difference, INT64
        # Comparisons.
        predicate = _CMP_PREDICATES.get(op)
        if predicate is not None:
            rhs_value = self._convert(rhs_value, rhs_type, lhs_type)
            return self.builder.icmp(predicate, lhs_value, rhs_value), BOOL
        # Ordinary arithmetic: unify operand types (prefer float, then wider int).
        result_type = lhs_type
        if _is_float_type(rhs_type) and not _is_float_type(lhs_type):
            result_type = rhs_type
        lhs_value = self._convert(lhs_value, lhs_type, result_type)
        rhs_value = self._convert(rhs_value, rhs_type, result_type)
        opcode_map = _FLOAT_OPCODES if _is_float_type(result_type) else _INT_OPCODES
        opcode = opcode_map.get(op)
        if opcode is None:
            raise LoweringError(f"unsupported binary operator {op!r}")
        return self.builder.binary(opcode, lhs_value, rhs_value), result_type

    def _lower_assignment(self, expr: Assignment) -> Tuple[Value, Type]:
        address, object_type = self._lower_lvalue(expr.target)
        if expr.op:
            # Compound assignment lowers as target = target <op> value (the
            # target is deliberately evaluated twice, matching the previous
            # synthetic-BinaryOp lowering instruction for instruction).
            value, value_type = self._lower_binary_parts(expr.op, expr.target, expr.value)
        else:
            value, value_type = self._lower_rvalue(expr.value)
        stored_type = object_type
        if isinstance(object_type, ArrayType):
            raise LoweringError("cannot assign to an array")
        value = self._convert(value, value_type, stored_type)
        self.builder.store(value, address)
        return value, stored_type

    def _lower_conditional(self, expr: Conditional) -> Tuple[Value, Type]:
        condition = self._lower_condition(expr.condition)
        true_value, true_type = self._lower_rvalue(expr.true_value)
        false_value, false_type = self._lower_rvalue(expr.false_value)
        false_value = self._convert(false_value, false_type, true_type)
        return self.builder.select(condition, true_value, false_value), true_type

    def _lower_call(self, expr: Call) -> Tuple[Value, Type]:
        name = expr.callee
        # Allocation / deallocation primitives get dedicated instructions.
        if name == "malloc" and len(expr.args) == 1:
            size_value, size_type = self._lower_rvalue(expr.args[0])
            size_value = self._convert(size_value, size_type, INT32)
            pointer = self.builder.malloc(size_value)
            return pointer, PointerType(INT8)
        if name == "calloc" and len(expr.args) == 2:
            count_value, count_type = self._lower_rvalue(expr.args[0])
            size_value, size_type = self._lower_rvalue(expr.args[1])
            count_value = self._convert(count_value, count_type, INT32)
            size_value = self._convert(size_value, size_type, INT32)
            total = self.builder.mul(count_value, size_value)
            pointer = self.builder.malloc(total)
            return pointer, PointerType(INT8)
        if name == "free" and len(expr.args) == 1:
            pointer_value, _ = self._lower_rvalue(expr.args[0])
            freed = self.builder.free(pointer_value)
            return freed, PointerType(INT8)

        arg_values: List[Value] = []
        for arg in expr.args:
            value, value_type = self._lower_rvalue(arg)
            arg_values.append(value)

        callee_function = self.module.get_function(name)
        signature = self.info.signature_for_call(name)
        # A callee whose body comes no later in the unit is called through its
        # ``Function``; any other callee by name.  The rule reads the unit
        # order, not the callee's blocks, so a subset lowering (which leaves
        # skipped bodies empty) calls exactly as a whole-module one does.
        if callee_function is not None and name in self.parent.reached:
            call = self.builder.call(callee_function, arg_values, name=f"{name}.ret")
            return call, callee_function.return_type
        return_type = signature.return_type if signature is not None else INT32
        call = self.builder.call(name, arg_values, return_type, name=f"{name}.ret")
        return call, return_type if return_type != VOID else INT32


# Exact-class dispatch tables (built after the class body; AST nodes are
# never subclassed, so ``expr.__class__`` lookups are equivalent to the
# isinstance chains they replaced).
_STMT_DISPATCH = {
    CompoundStmt: _FunctionLowerer._lower_compound,
    DeclStmt: _FunctionLowerer._lower_decl,
    ExprStmt: _FunctionLowerer._lower_expr_stmt,
    IfStmt: _FunctionLowerer._lower_if,
    WhileStmt: _FunctionLowerer._lower_while,
    DoWhileStmt: _FunctionLowerer._lower_do_while,
    ForStmt: _FunctionLowerer._lower_for,
    ReturnStmt: _FunctionLowerer._lower_return,
    BreakStmt: _FunctionLowerer._lower_break,
    ContinueStmt: _FunctionLowerer._lower_continue,
    EmptyStmt: _FunctionLowerer._lower_empty,
}

_RVALUE_DISPATCH = {
    IntLiteral: _FunctionLowerer._lower_int_literal,
    CharLiteral: _FunctionLowerer._lower_char_literal,
    FloatLiteral: _FunctionLowerer._lower_float_literal,
    StringLiteral: _FunctionLowerer._lower_string_literal,
    NullLiteral: _FunctionLowerer._lower_null_literal,
    Identifier: _FunctionLowerer._load_from_lvalue,
    ArrayIndex: _FunctionLowerer._load_from_lvalue,
    Member: _FunctionLowerer._load_from_lvalue,
    UnaryOp: _FunctionLowerer._lower_unary,
    BinaryOp: _FunctionLowerer._lower_binary,
    Assignment: _FunctionLowerer._lower_assignment,
    Conditional: _FunctionLowerer._lower_conditional,
    Call: _FunctionLowerer._lower_call,
    Cast: _FunctionLowerer._lower_cast_expr,
    SizeOf: _FunctionLowerer._lower_sizeof,
}


class _ModuleLowerer:
    """Lowers a translation unit: every body, or a subset of them into the
    full skeleton (every global and every ``Function``)."""

    def __init__(self, unit: TranslationUnit, info: SemanticInfo, name: str,
                 skipped: Optional[Mapping[str, Sequence[int]]] = None):
        self.unit = unit
        self.info = info
        self.module = Module(name)
        self.global_map: Dict[str, GlobalVariable] = {}
        self.skipped = skipped or {}
        #: Functions whose body the walk over the unit has reached.
        self.reached: Set[str] = set()
        #: Each body's string-literal lengths, in the order it interned them.
        self.literals: Dict[str, List[int]] = {}
        self._lengths: List[int] = []
        self._string_count = 0

    def string_literal(self, length: int) -> Tuple[Value, Type]:
        """Intern a string literal of ``length`` characters as a constant
        global byte array (its type is all the IR keeps of it)."""
        name = f".str.{self._string_count}"
        self._string_count += 1
        self._lengths.append(length)
        array_type = ArrayType(INT8, length + 1)
        variable = self.module.create_global(name, array_type, is_constant_data=True)
        return variable, PointerType(INT8)

    def lower(self) -> Module:
        self.module.struct_types.update(self.info.structs)
        for declaration in self.info.global_decls:
            value_type = self.info.resolve(declaration.type_spec)
            variable = self.module.create_global(declaration.name, value_type)
            self.global_map[declaration.name] = variable
        # Create all functions first so that calls can reference them.
        defined: List[Tuple[FunctionDecl, Function]] = []
        for name, decl in self.info.function_decls.items():
            signature = self.info.function_types[name]
            function = self.module.create_function(
                name, signature, [param.name for param in decl.params])
            if decl.body is not None:
                defined.append((decl, function))
        for decl, function in defined:
            self.reached.add(decl.name)
            self._lengths = self.literals[decl.name] = []
            lengths = self.skipped.get(decl.name)
            if lengths is None:
                _FunctionLowerer(self, decl, function).lower()
            else:
                # A skipped body still interns its literals: the ``.str.N``
                # numbering and the global order stay those of the unit.
                for length in lengths:
                    self.string_literal(length)
        return self.module


def lower_bodies(unit: TranslationUnit, info: SemanticInfo,
                 name: str = "module",
                 skipped: Optional[Mapping[str, Sequence[int]]] = None,
                 ) -> Tuple[Module, Dict[str, List[int]]]:
    """Lower ``unit`` but the bodies ``skipped`` names; also give each
    body's string-literal lengths, in the order it interned them.

    ``skipped`` maps the bodies to leave unlowered (default: none) to the
    literal lengths an earlier lowering of each gave, which a skipped body
    interns in place of lowering, so it may be an unparsed placeholder.
    Skipped bodies stay empty ``Function``s, so ``is_declaration()`` is
    true for them, but every global and every lowered body is exactly what
    a whole-module lowering gives as long as those lengths are the ones
    the skipped bodies would intern.
    """
    lowerer = _ModuleLowerer(unit, info, name, skipped)
    return lowerer.lower(), lowerer.literals


def lower_translation_unit(unit: TranslationUnit, name: str = "module",
                           info: Optional[SemanticInfo] = None) -> Module:
    """Lower a parsed translation unit to an IR module (no optimisation)."""
    return lower_bodies(unit, info or analyze(unit), name)[0]
