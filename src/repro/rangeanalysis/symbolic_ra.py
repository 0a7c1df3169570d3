"""Symbolic range analysis of integer variables (the bootstrap of Figure 5).

This is the "off-the-shelf" range analysis the paper assumes (à la Blume and
Eigenmann): a sparse abstract interpretation on e-SSA form mapping every
integer SSA value to a :class:`~repro.symbolic.interval.SymbolicInterval`
whose bounds are expressions over the *symbolic kernel* — function
parameters, results of external library calls, global values and (optionally)
loaded values.

The fixed-point schedule matches the one the paper uses for pointers
(Section 3.9): an ascending phase with widening applied at φ-functions after
the first complete sweep, followed by a descending (narrowing) sequence of
length two.  Scheduling is delegated to the shared sparse solver of
:mod:`repro.engine.solver`: def-use edges between integer instructions form
the dependence graph, so acyclic code stabilises in one visit and only
φ-cycles iterate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..engine.solver import SparseProblem, SparseSolver
from ..ir.function import Function
from ..ir.instructions import (
    BinaryInst,
    CallInst,
    CastInst,
    ICmpInst,
    Instruction,
    LoadInst,
    PhiInst,
    SelectInst,
    SigmaInst,
)
from ..ir.module import Module
from ..ir.values import Argument, ConstantInt, UndefValue, Value
from ..symbolic import (
    EMPTY_INTERVAL,
    NEG_INF,
    POS_INF,
    Symbol,
    SymbolicInterval,
    TOP_INTERVAL,
    sym_add,
)

__all__ = ["RangeAnalysisOptions", "SymbolicRangeAnalysis"]

#: Re-evaluations of one instruction before the ascending phase forces
#: convergence.
MAX_ASCENDING_PASSES = 8
#: Length of the descending (narrowing) sequence.
DESCENDING_PASSES = 2


@dataclass
class RangeAnalysisOptions:
    """Knobs for the integer range analysis."""

    #: Treat integer loads as fresh kernel symbols (paper-style, à la Nazaré
    #: et al.) instead of the fully conservative [-inf, +inf].
    loads_as_symbols: bool = True


class _IntegerRangeProblem(SparseProblem):
    """Adapter presenting the integer range analysis to the sparse solver."""

    name = "symbolic-ranges"

    def __init__(self, analysis: "SymbolicRangeAnalysis", nodes: List[Instruction]):
        self._analysis = analysis
        self._nodes = nodes

    def nodes(self) -> List[Instruction]:
        return self._nodes

    def dependencies(self, inst: Instruction):
        if isinstance(inst, BinaryInst):
            return (inst.lhs, inst.rhs)
        if isinstance(inst, PhiInst):
            return [value for value, _ in inst.incoming()]
        if isinstance(inst, SigmaInst):
            deps = [inst.source]
            if inst.lower is not None:
                deps.append(inst.lower)
            if inst.upper is not None:
                deps.append(inst.upper)
            return deps
        if isinstance(inst, CastInst):
            return (inst.value,)
        if isinstance(inst, SelectInst):
            return (inst.true_value, inst.false_value)
        return ()

    def transfer(self, inst: Instruction) -> SymbolicInterval:
        return self._analysis._evaluate(inst)

    def read(self, inst: Instruction) -> SymbolicInterval:
        return self._analysis._ranges.get(inst, EMPTY_INTERVAL)

    def write(self, inst: Instruction, value: SymbolicInterval) -> None:
        self._analysis._ranges[inst] = value

    def is_refinement_point(self, inst: Instruction) -> bool:
        return isinstance(inst, PhiInst)

    def widen(self, inst: Instruction, old: SymbolicInterval,
              new: SymbolicInterval) -> SymbolicInterval:
        return old.widen(new) if not old.is_empty else new

    def narrow(self, inst: Instruction, old: SymbolicInterval,
               new: SymbolicInterval) -> SymbolicInterval:
        return old.narrow(new) if not old.is_empty else new


class SymbolicRangeAnalysis:
    """Maps every integer SSA value of a module to a symbolic interval."""

    def __init__(self, module: Module, options: Optional[RangeAnalysisOptions] = None):
        self.module = module
        self.options = options or RangeAnalysisOptions()
        self._ranges: Dict[Value, SymbolicInterval] = {}
        self._kernel: Dict[Value, Symbol] = {}
        self.solver_statistics = None
        self._run()

    # -- public API ---------------------------------------------------------
    def range_of(self, value: Value) -> SymbolicInterval:
        """The symbolic interval of ``value`` (``R(v)`` in the paper).

        Constants evaluate to point intervals on the fly; values the analysis
        never reached (dead code, non-integers) map to ``[-inf, +inf]``.
        """
        if isinstance(value, ConstantInt):
            return SymbolicInterval.point(value.value)
        if isinstance(value, UndefValue):
            return TOP_INTERVAL
        interval = self._ranges.get(value)
        if interval is None or interval.is_empty:
            return TOP_INTERVAL
        return interval

    def kernel_symbols(self) -> List[Symbol]:
        """All symbols of the program's symbolic kernel discovered so far."""
        return list(self._kernel.values())

    def kernel_bindings(self) -> Dict[str, Value]:
        """Symbol name → the IR value the symbol stands for.

        Used by the soundness oracle to bind kernel symbols to concretely observed runtime values when
        checking that computed intervals enclose every observed value
        (query extraction hook).
        """
        return {symbol.name: value for value, symbol in self._kernel.items()}

    def integer_values(self, function: Function) -> List[Value]:
        """Every integer-typed SSA value of ``function`` with a computed range
        (arguments first, then instructions in block order)."""
        values: List[Value] = [argument for argument in function.args
                               if argument.type.is_integer()]
        values.extend(inst for inst in function.instructions()
                      if inst.type.is_integer())
        return values

    # -- kernel management -----------------------------------------------------
    def _fresh_symbol(self, value: Value, hint: str) -> Symbol:
        symbol = self._kernel.get(value)
        if symbol is None:
            symbol = Symbol(hint)
            self._kernel[value] = symbol
        return symbol

    def _symbol_interval(self, value: Value, hint: str) -> SymbolicInterval:
        return SymbolicInterval.point(self._fresh_symbol(value, hint))

    # -- evaluation --------------------------------------------------------------
    def _run(self) -> None:
        for function in self.module.defined_functions():
            self._seed_arguments(function)
        nodes: List[Instruction] = []
        for function in self.module.defined_functions():
            nodes.extend(self._integer_instructions(function))
        solver = SparseSolver(
            _IntegerRangeProblem(self, nodes),
            max_node_evaluations=MAX_ASCENDING_PASSES,
            descending_passes=DESCENDING_PASSES,
        )
        self.solver_statistics = solver.solve()

    def refresh_function(self, old_function: Function,
                         new_function: Function, edit) -> None:
        """Function-granular incremental re-run (manager edit hook).

        The analysis is function-local — interprocedural flows enter the
        symbolic kernel instead of crossing def-use edges — so replacing one
        function only requires purging its old per-value state and
        re-solving the new body's nodes.  Solver statistics accumulate so
        ``solver_statistics.steps`` totals the initial solve plus refreshes.
        """
        stale = set(old_function.args)
        stale.update(old_function.instructions())
        for value in stale:
            self._ranges.pop(value, None)
            self._kernel.pop(value, None)
        self._seed_arguments(new_function)
        solver = SparseSolver(
            _IntegerRangeProblem(self, self._integer_instructions(new_function)),
            max_node_evaluations=MAX_ASCENDING_PASSES,
            descending_passes=DESCENDING_PASSES,
        )
        self.solver_statistics.accumulate(solver.solve())

    def _seed_arguments(self, function: Function) -> None:
        for argument in function.args:
            if argument.type.is_integer():
                hint = f"{function.name}.{argument.name}"
                self._ranges[argument] = self._symbol_interval(argument, hint)

    def _integer_instructions(self, function: Function) -> List[Instruction]:
        order: List[Instruction] = []
        for block in function.cfg().rpo:
            for inst in block.instructions:
                if inst.type.is_integer():
                    order.append(inst)
        return order

    # -- transfer functions ----------------------------------------------------------
    def _operand_range(self, value: Value) -> SymbolicInterval:
        if isinstance(value, ConstantInt):
            return SymbolicInterval.point(value.value)
        if isinstance(value, UndefValue):
            return TOP_INTERVAL
        interval = self._ranges.get(value)
        if interval is None or interval.is_empty:
            # Not yet computed (back edge on the first pass): assume top so
            # the meet in σ nodes stays sound.
            return TOP_INTERVAL
        return interval

    def _evaluate(self, inst: Instruction) -> SymbolicInterval:
        if isinstance(inst, BinaryInst):
            return self._evaluate_binary(inst)
        if isinstance(inst, ICmpInst):
            return SymbolicInterval(0, 1)
        if isinstance(inst, PhiInst):
            incoming = [self._ranges.get(value, EMPTY_INTERVAL)
                        if isinstance(value, Instruction) or isinstance(value, Argument)
                        else self._operand_range(value)
                        for value, _ in inst.incoming()]
            return SymbolicInterval.join_all(
                interval for interval in incoming if not interval.is_empty
            )
        if isinstance(inst, SigmaInst):
            return self._evaluate_sigma(inst)
        if isinstance(inst, CastInst):
            if inst.value.type.is_integer() or inst.kind in ("trunc", "sext", "zext"):
                return self._operand_range(inst.value)
            return TOP_INTERVAL
        if isinstance(inst, SelectInst):
            return self._operand_range(inst.true_value).join(
                self._operand_range(inst.false_value))
        if isinstance(inst, LoadInst):
            if self.options.loads_as_symbols:
                hint = f"{inst.function.name}.load.{inst.name or id(inst)}"
                return self._symbol_interval(inst, hint)
            return TOP_INTERVAL
        if isinstance(inst, CallInst):
            if inst.is_external():
                hint = f"{inst.function.name}.{inst.callee_name()}.{inst.name or id(inst)}"
                return self._symbol_interval(inst, hint)
            return TOP_INTERVAL
        return TOP_INTERVAL

    def _evaluate_binary(self, inst: BinaryInst) -> SymbolicInterval:
        lhs = self._operand_range(inst.lhs)
        rhs = self._operand_range(inst.rhs)
        opcode = inst.opcode
        if opcode == "add":
            return lhs.add(rhs)
        if opcode == "sub":
            return lhs.sub(rhs)
        if opcode == "mul":
            return lhs.mul(rhs)
        if opcode == "sdiv":
            if rhs.is_constant() and rhs.lower == rhs.upper:
                divisor = rhs.lower.constant_value()
                if divisor not in (None, 0) and lhs.is_constant():
                    low = lhs.lower.constant_value() // divisor
                    high = lhs.upper.constant_value() // divisor
                    return SymbolicInterval(min(low, high), max(low, high))
            return TOP_INTERVAL
        if opcode == "srem":
            if rhs.is_constant() and rhs.lower == rhs.upper:
                modulus = abs(rhs.lower.constant_value() or 0)
                if modulus:
                    return SymbolicInterval(-(modulus - 1), modulus - 1)
            return TOP_INTERVAL
        if opcode in ("and", "or", "xor", "shl", "ashr"):
            if lhs.is_constant() and rhs.is_constant() \
                    and lhs.lower == lhs.upper and rhs.lower == rhs.upper:
                a = lhs.lower.constant_value()
                b = rhs.lower.constant_value()
                table = {"and": a & b, "or": a | b, "xor": a ^ b,
                         "shl": a << b if b >= 0 else 0, "ashr": a >> b if b >= 0 else 0}
                return SymbolicInterval.point(table[opcode])
            if opcode == "and" and rhs.is_constant() and rhs.lower == rhs.upper \
                    and (rhs.lower.constant_value() or 0) >= 0:
                return SymbolicInterval(0, rhs.lower.constant_value())
            return TOP_INTERVAL
        # Floating-point opcodes on integers should not occur; stay sound.
        return TOP_INTERVAL

    def _evaluate_sigma(self, inst: SigmaInst) -> SymbolicInterval:
        source = self._operand_range(inst.source)
        lower_bound = NEG_INF
        upper_bound = POS_INF
        if inst.lower is not None:
            bound = self._operand_range(inst.lower)
            if not bound.is_empty and bound.lower is not NEG_INF:
                lower_bound = sym_add(bound.lower, inst.lower_adjust)
        if inst.upper is not None:
            bound = self._operand_range(inst.upper)
            if not bound.is_empty and bound.upper is not POS_INF:
                upper_bound = sym_add(bound.upper, inst.upper_adjust)
        constraint = SymbolicInterval(lower_bound, upper_bound)
        result = source.meet(constraint)
        if result.is_empty:
            # An empty meet means the guarded path is infeasible under the
            # current approximation; keep the constraint so downstream users
            # still see a well-formed interval.
            return constraint
        return result
