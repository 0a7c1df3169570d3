"""Modules: the whole-program unit the analyses run on."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from .function import Function
from .instructions import CallInst, Instruction
from .types import FunctionType, Type
from .values import Constant, GlobalVariable

__all__ = ["Module"]


class Module:
    """A translation unit: named functions, global variables and struct types."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: List[Function] = []
        self.globals: List[GlobalVariable] = []
        self.struct_types: Dict[str, Type] = {}

    # -- functions ----------------------------------------------------------
    def add_function(self, function: Function) -> Function:
        if self.get_function(function.name) is not None:
            raise ValueError(f"duplicate function @{function.name}")
        function.parent = self
        self.functions.append(function)
        return function

    def create_function(self, name: str, function_type: FunctionType,
                        arg_names: Optional[Sequence[str]] = None) -> Function:
        return self.add_function(Function(name, function_type, arg_names, parent=self))

    def get_function(self, name: str) -> Optional[Function]:
        for function in self.functions:
            if function.name == name:
                return function
        return None

    def defined_functions(self) -> List[Function]:
        """Functions that have a body (declarations are external)."""
        return [function for function in self.functions if not function.is_declaration()]

    def replace_function(self, replacement: Function) -> Function:
        """Swap in ``replacement`` for the same-named function (an *edit*).

        This is the module-level primitive behind function-granular
        incremental analysis: the replacement comes from another module
        (the edit path's :func:`~repro.frontend.driver.compile_bodies`
        skeleton of the edited source), so

        * operands of its instructions that reference the other module's
          globals or functions are remapped **by name** onto this module's
          objects;
        * call sites elsewhere in this module are retargeted from the old
          function object to the replacement;
        * the replacement takes the old function's slot (module order is
          preserved — analyses iterate functions in module order).

        The old function is detached and returned with its blocks intact —
        but with every operand use dropped — so callers (e.g.
        ``AnalysisManager.apply_function_edit``) can still enumerate its
        values to purge per-value analysis state.

        The replacement must keep the old signature; edits that add globals
        or change signatures require a full module reload.
        """
        old = self.get_function(replacement.name)
        if old is None:
            raise ValueError(f"no function @{replacement.name} to replace")
        if old is replacement:
            return old
        if old.function_type != replacement.function_type:
            raise ValueError(
                f"replace_function must preserve the signature of @{old.name}: "
                f"{old.function_type} != {replacement.function_type}")

        # Remap the other module's references inside the replacement body.
        for inst in replacement.instructions():
            for index, operand in enumerate(inst.operands):
                if isinstance(operand, GlobalVariable):
                    target = self.get_global(operand.name)
                    if target is None:
                        raise ValueError(
                            f"replacement @{replacement.name} references unknown "
                            f"global @{operand.name}")
                    if target is not operand:
                        inst.set_operand(index, target)
                elif isinstance(operand, Function):
                    # A self-reference (recursion) maps onto the replacement
                    # itself, not the function it is about to retire.
                    target = (replacement if operand.name == replacement.name
                              else self.get_function(operand.name))
                    if target is None:
                        raise ValueError(
                            f"replacement @{replacement.name} references unknown "
                            f"function @{operand.name}")
                    if target is not operand:
                        inst.set_operand(index, target)
            if isinstance(inst, CallInst) and isinstance(inst.callee, Function):
                if inst.callee.name == replacement.name:
                    inst.callee = replacement
                else:
                    target = self.get_function(inst.callee.name)
                    inst.callee = target if target is not None else inst.callee.name

        # Retarget this module's references to the old function object.
        for function in self.functions:
            if function is old:
                continue
            for inst in function.instructions():
                if isinstance(inst, CallInst) and inst.callee is old:
                    inst.callee = replacement
                for index, operand in enumerate(inst.operands):
                    if operand is old:
                        inst.set_operand(index, replacement)

        # Detach the old body's operand uses so dangling use-list entries on
        # shared values (globals, other functions) cannot leak into escape
        # or address-taken queries.  Blocks stay so the old values remain
        # enumerable for state purges.
        for inst in old.instructions():
            inst.drop_all_operands()

        slot = self.functions.index(old)
        replacement.parent = self
        self.functions[slot] = replacement
        old.parent = None
        return old

    # -- globals --------------------------------------------------------------
    def add_global(self, variable: GlobalVariable) -> GlobalVariable:
        if self.get_global(variable.name) is not None:
            raise ValueError(f"duplicate global @{variable.name}")
        self.globals.append(variable)
        return variable

    def create_global(self, name: str, value_type: Type,
                      initializer: Optional[Constant] = None,
                      is_constant_data: bool = False) -> GlobalVariable:
        return self.add_global(GlobalVariable(name, value_type, initializer, is_constant_data))

    def get_global(self, name: str) -> Optional[GlobalVariable]:
        for variable in self.globals:
            if variable.name == name:
                return variable
        return None

    # -- aggregates -------------------------------------------------------------
    def instructions(self) -> Iterator[Instruction]:
        for function in self.defined_functions():
            yield from function.instructions()

    def instruction_count(self) -> int:
        return sum(function.instruction_count() for function in self.defined_functions())

    def pointer_count(self) -> int:
        return sum(len(function.pointer_values()) for function in self.defined_functions())

    def __repr__(self) -> str:
        return (f"<Module {self.name!r}: {len(self.functions)} functions, "
                f"{len(self.globals)} globals>")
