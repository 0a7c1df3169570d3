"""Structural verification of IR modules.

The verifier enforces the invariants the analyses rely on:

* every reachable block ends in exactly one terminator;
* φ-functions appear only at the top of blocks and have one incoming value
  per predecessor;
* every SSA value is defined before use: operands belong to the same
  function, and each definition dominates its uses (same-block order, or a
  dominating block in the dominator tree; a φ's incoming value must
  dominate its incoming predecessor);
* a function's cached CFG facts (``function.cfg()``) equal a fresh build,
  so a CFG change that missed its invalidation fails verification;
* names of values are unique within a function;
* operand types are consistent: loads and stores dereference pointer-typed
  operands, conditional branches test an ``i1``, and φ/σ results carry the
  type of the values they merge.

Violations are collected as :class:`VerificationError` records; ``verify``
raises on the first batch unless ``raise_on_error=False``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..analysis.cfg import CFGInfo
from .function import Function
from .instructions import (
    BinaryInst,
    BranchInst,
    Instruction,
    LoadInst,
    PhiInst,
    SigmaInst,
    StoreInst,
)
from .module import Module
from .types import BOOL
from .values import Argument, UndefValue

__all__ = ["VerificationError", "IRVerificationFailure", "verify_function", "verify_module"]


@dataclass(frozen=True)
class VerificationError:
    """One structural problem found by the verifier."""

    function: str
    message: str

    def __str__(self) -> str:
        return f"[@{self.function}] {self.message}"


class IRVerificationFailure(Exception):
    """Raised when verification finds at least one error."""

    def __init__(self, errors: List[VerificationError]):
        super().__init__("\n".join(str(error) for error in errors))
        self.errors = errors


def _check_terminators(function: Function, errors: List[VerificationError]) -> None:
    for block in function.blocks:
        terminator_positions = [
            index for index, inst in enumerate(block.instructions) if inst.is_terminator()
        ]
        if not terminator_positions:
            errors.append(VerificationError(function.name, f"block {block.name} has no terminator"))
        elif terminator_positions[-1] != len(block.instructions) - 1 \
                or len(terminator_positions) > 1:
            errors.append(VerificationError(
                function.name, f"block {block.name} has a misplaced or duplicate terminator"))
        for inst in block.instructions:
            if isinstance(inst, BranchInst):
                for target in inst.targets():
                    if target not in function.blocks:
                        errors.append(VerificationError(
                            function.name,
                            f"branch in {block.name} targets a block outside the function"))


def _check_cfg(function: Function, errors: List[VerificationError]) -> CFGInfo:
    """Build the verifier's own CFG facts and compare any cached ones to them."""
    fresh = CFGInfo(function)
    cached = function._cfg
    if cached is not None:
        difference = cached.first_difference(fresh)
        if difference is not None:
            errors.append(VerificationError(
                function.name, f"cached CFG facts are stale: {difference} "
                               f"differ from a fresh build"))
    return fresh


def _check_phis(function: Function, cfg: CFGInfo, errors: List[VerificationError]) -> None:
    for block in function.blocks:
        seen_non_phi = False
        predecessors = cfg.predecessors[block]
        for inst in block.instructions:
            if isinstance(inst, PhiInst):
                if seen_non_phi:
                    errors.append(VerificationError(
                        function.name,
                        f"phi {inst.short_name()} is not at the top of {block.name}"))
                incoming_blocks = inst.incoming_blocks
                if len(incoming_blocks) != len(inst.operands):
                    errors.append(VerificationError(
                        function.name, f"phi {inst.short_name()} has mismatched incoming lists"))
                for incoming_block in incoming_blocks:
                    if incoming_block not in predecessors:
                        errors.append(VerificationError(
                            function.name,
                            f"phi {inst.short_name()} names {incoming_block.label()} "
                            f"which is not a predecessor of {block.name}"))
            elif not isinstance(inst, SigmaInst):
                seen_non_phi = True


def _check_names(function: Function, errors: List[VerificationError]) -> None:
    seen = {}
    for value in function.values():
        if not value.name:
            continue
        if value.name in seen:
            errors.append(VerificationError(
                function.name, f"duplicate value name %{value.name}"))
        seen[value.name] = value


def _user(inst: Instruction) -> str:
    return inst.short_name() or inst.opcode


def _check_operands(function: Function, cfg: CFGInfo,
                    errors: List[VerificationError]) -> None:
    """Operands are local to the function and every definition dominates
    its uses: a non-φ use needs its definition earlier in the same block or
    in a dominating block; a φ's incoming value must dominate the incoming
    predecessor.  Uses in unreachable blocks are exempt."""
    position = {argument: -1 for argument in function.args}
    for block in function.blocks:
        for index, inst in enumerate(block.instructions):
            position[inst] = index
    tree = cfg.dom_tree
    for block in function.blocks:
        for inst in block.instructions:
            phi = isinstance(inst, PhiInst)
            uses = inst.incoming() if phi else [(operand, block) for operand in inst.operands]
            for operand, at in uses:
                if not isinstance(operand, (Argument, Instruction)):
                    continue
                if operand not in position:
                    errors.append(VerificationError(
                        function.name,
                        f"instruction {_user(inst)} uses a value "
                        f"defined in another function: {operand.short_name()}"))
                elif isinstance(operand, Argument) or tree.depth(at) < 0:
                    continue
                elif operand.parent is at and not phi:
                    if position[operand] >= position[inst]:
                        errors.append(VerificationError(
                            function.name,
                            f"{_user(inst)} uses {operand.short_name()} before its "
                            f"definition in {block.name}"))
                elif not tree.dominates(operand.parent, at):
                    errors.append(VerificationError(
                        function.name,
                        f"{_user(inst)} in {block.name} uses {operand.short_name()}, "
                        f"whose definition in {operand.parent.name} does not "
                        f"dominate {at.name}"))


def _check_types(function: Function, errors: List[VerificationError]) -> None:
    """Operand/result type consistency for the memory and merge instructions."""
    for block in function.blocks:
        for inst in block.instructions:
            if isinstance(inst, LoadInst) and not inst.pointer.type.is_pointer():
                errors.append(VerificationError(
                    function.name,
                    f"load {inst.short_name()} dereferences non-pointer "
                    f"{inst.pointer.short_name()}"))
            elif isinstance(inst, StoreInst) and not inst.pointer.type.is_pointer():
                errors.append(VerificationError(
                    function.name,
                    f"store writes through non-pointer {inst.pointer.short_name()}"))
            elif isinstance(inst, BranchInst) and inst.is_conditional() \
                    and inst.condition.type != BOOL:
                errors.append(VerificationError(
                    function.name,
                    f"conditional branch in {block.name} tests a "
                    f"non-i1 value {inst.condition.short_name()}"))
            elif isinstance(inst, PhiInst):
                for value, _ in inst.incoming():
                    if isinstance(value, UndefValue):
                        continue
                    if value.type != inst.type:
                        errors.append(VerificationError(
                            function.name,
                            f"phi {inst.short_name()} of type {inst.type!r} has "
                            f"incoming {value.short_name()} of type {value.type!r}"))
            elif isinstance(inst, SigmaInst) and inst.source.type != inst.type:
                errors.append(VerificationError(
                    function.name,
                    f"sigma {inst.short_name()} of type {inst.type!r} renames "
                    f"{inst.source.short_name()} of type {inst.source.type!r}"))
            elif isinstance(inst, BinaryInst) and inst.lhs.type != inst.rhs.type:
                errors.append(VerificationError(
                    function.name,
                    f"binary {inst.short_name() or inst.opcode} mixes operand "
                    f"types {inst.lhs.type!r} and {inst.rhs.type!r}"))


def verify_function(function: Function, raise_on_error: bool = True) -> List[VerificationError]:
    """Verify one function; returns the list of problems found."""
    errors: List[VerificationError] = []
    if function.is_declaration():
        return errors
    _check_terminators(function, errors)
    cfg = _check_cfg(function, errors)
    _check_phis(function, cfg, errors)
    _check_names(function, errors)
    _check_operands(function, cfg, errors)
    _check_types(function, errors)
    if errors and raise_on_error:
        raise IRVerificationFailure(errors)
    return errors


def verify_module(module: Module, raise_on_error: bool = True) -> List[VerificationError]:
    """Verify every defined function of ``module``."""
    errors: List[VerificationError] = []
    for function in module.defined_functions():
        errors.extend(verify_function(function, raise_on_error=False))
    if errors and raise_on_error:
        raise IRVerificationFailure(errors)
    return errors
