"""Unit tests for the IR: types, values, instructions, builder, printer, verifier."""

import pytest

from repro.ir import (
    ArrayType,
    BOOL,
    ConstantInt,
    DOUBLE,
    FLOAT,
    FunctionType,
    GlobalVariable,
    INT32,
    INT64,
    INT8,
    IRBuilder,
    IntType,
    Module,
    NullPointer,
    StructType,
    UndefValue,
    VOID,
    pointer_to,
    print_function,
    print_instruction,
    print_module,
    verify_function,
    verify_module,
)
from repro.ir.instructions import (
    BinaryInst,
    BranchInst,
    ICmpInst,
    MallocInst,
    PhiInst,
    PtrAddInst,
    ReturnInst,
    SigmaInst,
    StoreInst,
)
from repro.ir.verifier import IRVerificationFailure


class TestTypes:
    def test_integer_sizes(self):
        assert INT8.size_in_bytes() == 1
        assert INT32.size_in_bytes() == 4
        assert INT64.size_in_bytes() == 8
        assert BOOL.size_in_bytes() == 1

    def test_float_sizes(self):
        assert FLOAT.size_in_bytes() == 4
        assert DOUBLE.size_in_bytes() == 8

    def test_pointer_size_is_fixed(self):
        assert pointer_to(INT8).size_in_bytes() == 8
        assert pointer_to(ArrayType(INT32, 100)).size_in_bytes() == 8

    def test_array_size(self):
        assert ArrayType(INT32, 10).size_in_bytes() == 40
        assert ArrayType(INT8, 0).size_in_bytes() == 0

    def test_struct_layout(self):
        struct = StructType("pair", [("x", INT32), ("y", INT32), ("tag", INT8)])
        assert struct.size_in_bytes() == 9
        assert struct.field_offset("x") == 0
        assert struct.field_offset("y") == 4
        assert struct.field_offset("tag") == 8
        assert struct.field_index("y") == 1
        assert struct.field_type("tag") == INT8
        assert struct.field_offset_by_index(2) == 8

    def test_struct_unknown_field(self):
        struct = StructType("pair", [("x", INT32)])
        with pytest.raises(KeyError):
            struct.field_offset("z")

    def test_type_equality_and_hash(self):
        assert IntType(32) == INT32
        assert hash(pointer_to(INT8)) == hash(pointer_to(INT8))
        assert pointer_to(INT8) != pointer_to(INT32)
        assert FunctionType(VOID, [INT32]) == FunctionType(VOID, [INT32])
        assert FunctionType(VOID, [INT32]) != FunctionType(VOID, [INT32], is_vararg=True)

    def test_predicates(self):
        assert INT32.is_integer() and not INT32.is_pointer()
        assert pointer_to(INT8).is_pointer()
        assert ArrayType(INT8, 4).is_aggregate()
        assert StructType("s", []).is_aggregate()

    def test_invalid_types_rejected(self):
        with pytest.raises(ValueError):
            IntType(0)
        with pytest.raises(ValueError):
            ArrayType(INT8, -1)


@pytest.fixture
def simple_function():
    module = Module("test")
    fn = module.create_function("f", FunctionType(INT32, [INT32, pointer_to(INT8)]), ["n", "p"])
    return module, fn


class TestUseDefAndValues:
    def test_use_lists_track_operands(self, simple_function):
        module, fn = simple_function
        block = fn.append_block("entry")
        builder = IRBuilder(block)
        n, p = fn.args
        doubled = builder.add(n, n)
        assert len(n.uses) == 2
        assert doubled in n.users()

    def test_replace_all_uses_with(self, simple_function):
        module, fn = simple_function
        block = fn.append_block("entry")
        builder = IRBuilder(block)
        n, p = fn.args
        a = builder.add(n, ConstantInt(1))
        b = builder.mul(a, ConstantInt(2))
        replacement = ConstantInt(42)
        a.replace_all_uses_with(replacement)
        assert b.lhs is replacement
        assert not a.uses

    def test_erase_from_parent_drops_uses(self, simple_function):
        module, fn = simple_function
        block = fn.append_block("entry")
        builder = IRBuilder(block)
        n, _ = fn.args
        a = builder.add(n, ConstantInt(1))
        uses_before = len(n.uses)
        a.erase_from_parent()
        assert len(n.uses) == uses_before - 1
        assert a.parent is None
        assert a not in block.instructions

    def test_constants_render_without_percent(self):
        assert ConstantInt(7).short_name() == "7"
        assert NullPointer(pointer_to(INT8)).short_name() == "null"
        assert UndefValue(INT32).short_name() == "undef"

    def test_global_variable_is_pointer_valued(self):
        g = GlobalVariable("table", ArrayType(INT32, 4))
        assert g.type == pointer_to(ArrayType(INT32, 4))
        assert g.short_name() == "@table"


class TestInstructions:
    def test_binary_opcode_validation(self, simple_function):
        _, fn = simple_function
        n, _ = fn.args
        with pytest.raises(ValueError):
            BinaryInst("bogus", n, n)

    def test_icmp_predicates_and_inverse(self, simple_function):
        _, fn = simple_function
        n, _ = fn.args
        cmp = ICmpInst("slt", n, ConstantInt(3))
        assert cmp.type == BOOL
        assert cmp.inverse_predicate() == "sge"
        assert cmp.swapped_predicate() == "sgt"
        with pytest.raises(ValueError):
            ICmpInst("weird", n, n)

    def test_ptradd_constant_byte_offset(self, simple_function):
        _, fn = simple_function
        _, p = fn.args
        assert PtrAddInst(p, offset=12).constant_byte_offset() == 12
        assert PtrAddInst(p, ConstantInt(3), scale=4, offset=2).constant_byte_offset() == 14
        n = fn.args[0]
        assert PtrAddInst(p, n, scale=4).constant_byte_offset() is None

    def test_ptradd_result_type_override(self, simple_function):
        _, fn = simple_function
        _, p = fn.args
        typed = PtrAddInst(p, offset=4, result_type=pointer_to(INT32))
        assert typed.type == pointer_to(INT32)
        default = PtrAddInst(p, offset=4)
        assert default.type == p.type

    def test_malloc_and_alloca_are_allocation_sites(self, simple_function):
        _, fn = simple_function
        n, _ = fn.args
        malloc = MallocInst(n)
        assert malloc.is_allocation_site()
        assert malloc.type.is_pointer()

    def test_phi_incoming_bookkeeping(self, simple_function):
        _, fn = simple_function
        entry = fn.append_block("entry")
        other = fn.append_block("other")
        n, _ = fn.args
        phi = PhiInst(INT32, "x")
        phi.add_incoming(n, entry)
        phi.add_incoming(ConstantInt(0), other)
        assert phi.incoming_value_for(entry) is n
        assert phi.incoming_value_for(other).value == 0
        assert len(phi.incoming()) == 2

    def test_sigma_bounds(self, simple_function):
        _, fn = simple_function
        n, p = fn.args
        sigma = SigmaInst(n, upper=fn.args[0], upper_adjust=-1)
        assert sigma.source is n
        assert sigma.upper is n
        assert sigma.lower is None
        assert sigma.upper_adjust == -1

    def test_store_has_no_result(self, simple_function):
        _, fn = simple_function
        n, p = fn.args
        store = StoreInst(n, p)
        assert store.type == VOID
        assert store.may_write_memory()

    def test_branch_targets(self, simple_function):
        _, fn = simple_function
        a = fn.append_block("a")
        b = fn.append_block("b")
        cond = ICmpInst("eq", fn.args[0], ConstantInt(0))
        branch = BranchInst(condition=cond, true_target=a, false_target=b)
        assert branch.is_conditional()
        assert branch.targets() == [a, b]
        branch.replace_target(b, a)
        # Both edges now reach the same block; successors() deduplicates,
        # raw targets() does not.
        assert branch.targets() == [a, a]
        plain = BranchInst(a)
        assert not plain.is_conditional()


class TestBuilderAndFunction:
    def test_builder_names_are_unique(self, simple_function):
        _, fn = simple_function
        block = fn.append_block("entry")
        builder = IRBuilder(block)
        n, p = fn.args
        first = builder.ptradd(p, offset=1, name="q")
        second = builder.ptradd(p, offset=2, name="q")
        assert first.name != second.name

    def test_builder_requires_position(self):
        with pytest.raises(RuntimeError):
            IRBuilder().add(ConstantInt(1), ConstantInt(2))

    def test_function_value_iteration(self, simple_function):
        _, fn = simple_function
        block = fn.append_block("entry")
        builder = IRBuilder(block)
        n, p = fn.args
        builder.ptradd(p, offset=3)
        builder.ret(n)
        values = list(fn.values())
        assert n in values and p in values
        assert fn.instruction_count() == 2
        assert len(fn.pointer_values()) == 2  # argument p + the ptradd

    def test_module_function_registry(self):
        module = Module("m")
        module.create_function("f", FunctionType(VOID, []))
        assert module.get_function("f") is not None
        assert module.get_function("g") is None
        with pytest.raises(ValueError):
            module.create_function("f", FunctionType(VOID, []))

    def test_module_globals(self):
        module = Module("m")
        module.create_global("g", INT32)
        assert module.get_global("g") is not None
        with pytest.raises(ValueError):
            module.create_global("g", INT32)

    def test_block_successors_and_predecessors(self, simple_function):
        _, fn = simple_function
        entry = fn.append_block("entry")
        exit_block = fn.append_block("exit")
        builder = IRBuilder(entry)
        builder.branch(exit_block)
        IRBuilder(exit_block).ret(ConstantInt(0))
        assert entry.successors() == [exit_block]
        assert fn.cfg().predecessors[exit_block] == [entry]


class TestPrinterAndVerifier:
    def _build_valid(self):
        module = Module("printer")
        fn = module.create_function("f", FunctionType(INT32, [INT32]), ["n"])
        entry = fn.append_block("entry")
        builder = IRBuilder(entry)
        result = builder.add(fn.args[0], ConstantInt(1))
        builder.ret(result)
        return module, fn

    def test_print_round_trip_contains_key_pieces(self):
        module, fn = self._build_valid()
        text = print_module(module)
        assert "define i32 @f(i32 %n)" in text
        assert "add i32 %n, 1" in text
        assert "ret" in text
        assert print_function(fn) in text

    def test_print_instruction_forms(self):
        module, fn = self._build_valid()
        lines = [print_instruction(inst) for inst in fn.instructions()]
        assert any(line.startswith("%") for line in lines)
        assert any(line.startswith("ret") for line in lines)

    def test_verifier_accepts_valid_function(self):
        module, fn = self._build_valid()
        assert verify_module(module) == []
        assert verify_function(fn) == []

    def test_verifier_rejects_missing_terminator(self):
        module = Module("bad")
        fn = module.create_function("f", FunctionType(VOID, []))
        fn.append_block("entry")  # no terminator
        errors = verify_function(fn, raise_on_error=False)
        assert errors and "terminator" in errors[0].message
        with pytest.raises(IRVerificationFailure):
            verify_function(fn)

    def test_verifier_rejects_duplicate_names(self):
        module = Module("bad")
        fn = module.create_function("f", FunctionType(VOID, []))
        entry = fn.append_block("entry")
        a = BinaryInst("add", ConstantInt(1), ConstantInt(2), name="x")
        b = BinaryInst("add", ConstantInt(3), ConstantInt(4), name="x")
        entry.append(a)
        entry.append(b)
        entry.append(ReturnInst())
        errors = verify_function(fn, raise_on_error=False)
        assert any("duplicate value name" in error.message for error in errors)

    def test_verifier_rejects_misplaced_phi(self):
        module = Module("bad")
        fn = module.create_function("f", FunctionType(VOID, []))
        entry = fn.append_block("entry")
        entry.append(BinaryInst("add", ConstantInt(1), ConstantInt(2), name="a"))
        phi = PhiInst(INT32, "p")
        entry.append(phi)  # appended after a non-phi: invalid
        entry.append(ReturnInst())
        errors = verify_function(fn, raise_on_error=False)
        assert any("not at the top" in error.message for error in errors)
