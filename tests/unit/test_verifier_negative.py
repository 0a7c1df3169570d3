"""Failure-path tests for :mod:`repro.ir.verifier`.

The positive path (clean modules verify) is exercised by every pipeline
test; these tests hand-build malformed IR and assert the verifier rejects
it with a diagnostic naming the offending construct.
"""

import pytest

from repro.ir.basicblock import BasicBlock
from repro.ir.instructions import (
    BinaryInst,
    BranchInst,
    LoadInst,
    PhiInst,
    ReturnInst,
    SigmaInst,
    StoreInst,
)
from repro.ir.module import Module
from repro.ir.types import BOOL, FunctionType, INT32, INT64, PointerType, VOID
from repro.ir.values import ConstantInt
from repro.ir.verifier import (
    IRVerificationFailure,
    verify_function,
    verify_module,
)


def fresh_function(name="f", params=(), ret=VOID):
    module = Module("m")
    function = module.create_function(name, FunctionType(ret, list(params)))
    return module, function


def errors_of(function):
    return verify_function(function, raise_on_error=False)


def messages(errors):
    return " | ".join(str(error) for error in errors)


class TestTerminators:
    def test_block_without_terminator_is_rejected(self):
        _, function = fresh_function()
        block = function.append_block("entry")
        block.append(BinaryInst("add", ConstantInt(1), ConstantInt(2), name="x"))
        errors = errors_of(function)
        assert errors and "no terminator" in messages(errors)

    def test_instruction_after_terminator_is_rejected(self):
        _, function = fresh_function()
        block = function.append_block("entry")
        block.append(ReturnInst())
        # Force an instruction after the terminator.
        late = BinaryInst("add", ConstantInt(1), ConstantInt(2), name="late")
        late.parent = block
        block.instructions.append(late)
        errors = errors_of(function)
        assert errors and "misplaced or duplicate terminator" in messages(errors)

    def test_branch_to_foreign_block_is_rejected(self):
        _, function = fresh_function()
        block = function.append_block("entry")
        foreign = BasicBlock("foreign")
        block.append(BranchInst(foreign))
        errors = errors_of(function)
        assert errors and "outside the function" in messages(errors)


class TestMalformedPhis:
    def test_phi_below_ordinary_instruction_is_rejected(self):
        _, function = fresh_function()
        entry = function.append_block("entry")
        target = function.append_block("target")
        entry.append(BranchInst(target))
        target.append(BinaryInst("add", ConstantInt(1), ConstantInt(2), name="x"))
        phi = PhiInst(INT32, name="p")
        phi.add_incoming(ConstantInt(0), entry)
        # Bypass insert_phi to plant the φ *after* an ordinary instruction.
        phi.parent = target
        target.instructions.append(phi)
        target.append(ReturnInst())
        errors = errors_of(function)
        assert errors and "not at the top" in messages(errors)

    def test_phi_with_mismatched_incoming_lists_is_rejected(self):
        _, function = fresh_function()
        entry = function.append_block("entry")
        target = function.append_block("target")
        entry.append(BranchInst(target))
        phi = PhiInst(INT32, name="p")
        phi.add_incoming(ConstantInt(0), entry)
        phi.incoming_blocks.append(entry)  # one value, two blocks
        target.insert_phi(phi)
        target.append(ReturnInst())
        errors = errors_of(function)
        assert errors and "mismatched incoming lists" in messages(errors)

    def test_phi_naming_a_non_predecessor_is_rejected(self):
        _, function = fresh_function()
        entry = function.append_block("entry")
        target = function.append_block("target")
        unrelated = function.append_block("unrelated")
        entry.append(BranchInst(target))
        unrelated.append(ReturnInst())
        phi = PhiInst(INT32, name="p")
        phi.add_incoming(ConstantInt(0), unrelated)
        target.insert_phi(phi)
        target.append(ReturnInst())
        errors = errors_of(function)
        assert errors and "not a predecessor" in messages(errors)


class TestUseBeforeDef:
    def test_same_block_use_before_def_is_rejected(self):
        _, function = fresh_function()
        block = function.append_block("entry")
        first = BinaryInst("add", ConstantInt(1), ConstantInt(2), name="a")
        second = BinaryInst("add", ConstantInt(3), ConstantInt(4), name="b")
        block.append(first)
        block.append(second)
        block.append(ReturnInst())
        # Rewire so the *earlier* instruction uses the later one.
        first.set_operand(0, second)
        errors = errors_of(function)
        assert errors and "before its definition" in messages(errors)

    def test_operand_from_another_function_is_rejected(self):
        module = Module("m")
        provider = module.create_function("provider", FunctionType(VOID, []))
        provider_block = provider.append_block("entry")
        foreign = BinaryInst("add", ConstantInt(1), ConstantInt(2), name="x")
        provider_block.append(foreign)
        provider_block.append(ReturnInst())

        consumer = module.create_function("consumer", FunctionType(VOID, []))
        consumer_block = consumer.append_block("entry")
        consumer_block.append(BinaryInst("add", foreign, ConstantInt(1), name="y"))
        consumer_block.append(ReturnInst())
        errors = verify_function(consumer, raise_on_error=False)
        assert errors and "another function" in messages(errors)

    def _diamond(self):
        """entry branches to ``left`` / ``right``, both jump to ``join``."""
        _, function = fresh_function(params=(BOOL,))
        entry = function.append_block("entry")
        left = function.append_block("left")
        right = function.append_block("right")
        join = function.append_block("join")
        entry.append(BranchInst(condition=function.args[0],
                                true_target=left, false_target=right))
        defined = BinaryInst("add", ConstantInt(1), ConstantInt(2), name="x")
        left.append(defined)
        left.append(BranchInst(join))
        return function, defined, right, join

    def test_use_in_a_sibling_branch_is_rejected(self):
        function, defined, right, join = self._diamond()
        # ``right`` uses %x, which only ``left`` (its sibling) defines.
        right.append(BinaryInst("add", defined, ConstantInt(1), name="y"))
        right.append(BranchInst(join))
        join.append(ReturnInst())
        errors = errors_of(function)
        assert errors and "does not dominate right" in messages(errors)

    def test_phi_incoming_from_the_sibling_branch_is_rejected(self):
        function, defined, right, join = self._diamond()
        right.append(BranchInst(join))
        phi = PhiInst(INT32, name="p")
        phi.add_incoming(defined, function.blocks[1])  # left: dominated, fine
        phi.add_incoming(defined, right)  # right: %x does not dominate it
        join.insert_phi(phi)
        join.append(ReturnInst())
        errors = errors_of(function)
        assert len(errors) == 1
        assert "does not dominate right" in messages(errors)

    def test_use_in_an_unreachable_block_is_exempt(self):
        function, defined, right, join = self._diamond()
        right.append(BranchInst(join))
        join.append(ReturnInst())
        dead = function.append_block("dead")
        dead.append(BinaryInst("add", defined, ConstantInt(1), name="y"))
        dead.append(ReturnInst())
        assert errors_of(function) == []

    def test_duplicate_value_names_are_rejected(self):
        _, function = fresh_function()
        block = function.append_block("entry")
        block.append(BinaryInst("add", ConstantInt(1), ConstantInt(2), name="dup"))
        block.append(BinaryInst("add", ConstantInt(3), ConstantInt(4), name="dup"))
        block.append(ReturnInst())
        errors = errors_of(function)
        assert errors and "duplicate value name" in messages(errors)


class TestStaleCFGFacts:
    """A CFG change that bypasses the IR operations keeps the cached
    ``function.cfg()`` stale; the verifier's fresh build exposes it."""

    def _two_exits(self):
        module, function = fresh_function()
        entry = function.append_block("entry")
        left = function.append_block("left")
        right = function.append_block("right")
        entry.append(BranchInst(left))
        left.append(ReturnInst())
        right.append(ReturnInst())
        assert verify_module(module, raise_on_error=False) == []
        function.cfg()
        return module, entry.terminator, left, right

    def test_direct_target_assignment_fails_verification(self):
        module, branch, _, right = self._two_exits()
        branch.true_target = right
        errors = verify_module(module, raise_on_error=False)
        assert "cached CFG facts are stale: successor lists" in messages(errors)
        with pytest.raises(IRVerificationFailure):
            verify_module(module)

    def test_replace_target_drops_the_cached_facts(self):
        module, branch, left, right = self._two_exits()
        branch.replace_target(left, right)
        assert verify_module(module, raise_on_error=False) == []


class TestTypeMismatches:
    def test_load_through_non_pointer_is_rejected(self):
        module, function = fresh_function(params=(INT32,))
        block = function.append_block("entry")
        block.append(LoadInst(function.args[0], INT32, name="v"))
        block.append(ReturnInst())
        errors = errors_of(function)
        assert errors and "non-pointer" in messages(errors)

    def test_store_through_non_pointer_is_rejected(self):
        module, function = fresh_function(params=(INT32,))
        block = function.append_block("entry")
        block.append(StoreInst(ConstantInt(1), function.args[0]))
        block.append(ReturnInst())
        errors = errors_of(function)
        assert errors and "non-pointer" in messages(errors)

    def test_branch_on_non_bool_condition_is_rejected(self):
        module, function = fresh_function(params=(INT32,))
        entry = function.append_block("entry")
        then = function.append_block("then")
        done = function.append_block("done")
        entry.append(BranchInst(condition=function.args[0],
                                true_target=then, false_target=done))
        then.append(ReturnInst())
        done.append(ReturnInst())
        errors = errors_of(function)
        assert errors and "non-i1" in messages(errors)

    def test_phi_with_mismatched_incoming_type_is_rejected(self):
        _, function = fresh_function()
        entry = function.append_block("entry")
        target = function.append_block("target")
        entry.append(BranchInst(target))
        phi = PhiInst(INT32, name="p")
        phi.add_incoming(ConstantInt(0, INT64), entry)
        target.insert_phi(phi)
        target.append(ReturnInst())
        errors = errors_of(function)
        assert errors and "incoming" in messages(errors)

    def test_binary_with_mixed_operand_types_is_rejected(self):
        _, function = fresh_function()
        block = function.append_block("entry")
        block.append(BinaryInst("add", ConstantInt(1, INT32),
                                ConstantInt(2, INT64), name="x"))
        block.append(ReturnInst())
        errors = errors_of(function)
        assert errors and "mixes operand types" in messages(errors)

    def test_sigma_changing_type_is_rejected(self):
        module, function = fresh_function(params=(INT32,))
        block = function.append_block("entry")
        sigma = SigmaInst(function.args[0], lower=ConstantInt(0), name="s")
        sigma.type = INT64  # corrupt the result type
        block.append(sigma)
        block.append(ReturnInst())
        errors = errors_of(function)
        assert errors and "sigma" in messages(errors)


class TestRaisingBehaviour:
    def test_verify_function_raises_by_default(self):
        _, function = fresh_function()
        function.append_block("entry")  # no terminator
        with pytest.raises(IRVerificationFailure) as excinfo:
            verify_function(function)
        assert excinfo.value.errors

    def test_verify_module_collects_across_functions(self):
        module = Module("m")
        for name in ("f", "g"):
            function = module.create_function(name, FunctionType(VOID, []))
            function.append_block("entry")  # no terminator in either
        errors = verify_module(module, raise_on_error=False)
        assert len(errors) == 2
        assert {error.function for error in errors} == {"f", "g"}

    def test_pointer_typed_ir_still_verifies(self):
        module, function = fresh_function(params=(PointerType(INT32),), ret=INT32)
        block = function.append_block("entry")
        loaded = LoadInst(function.args[0], INT32, name="v")
        block.append(loaded)
        block.append(ReturnInst(loaded))
        assert errors_of(function) == []
        # And a BOOL-conditioned branch passes the type check.
        module2, function2 = fresh_function(name="g", params=(BOOL,))
        entry = function2.append_block("entry")
        then = function2.append_block("then")
        done = function2.append_block("done")
        entry.append(BranchInst(condition=function2.args[0],
                                true_target=then, false_target=done))
        then.append(ReturnInst())
        done.append(ReturnInst())
        assert errors_of(function2) == []
