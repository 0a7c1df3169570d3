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
φ-cycles iterate.  One rule per instruction kind sits in the ``_RULES``
table at the end of this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..engine.solver import RuleProblem, SparseSolver, TransferRule, no_operands
from ..ir.function import Function
from ..ir.instructions import (
    AllocaInst,
    BinaryInst,
    CallInst,
    CastInst,
    FreeInst,
    ICmpInst,
    Instruction,
    LoadInst,
    MallocInst,
    PhiInst,
    PtrAddInst,
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
        never reached (dead code, non-integers) map to ``[-inf, +inf]``.  So
        does, during the solve, an operand a back edge has not computed yet,
        which keeps σ meets sound; the transfers read operands through here.
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
    def _evaluate_phi(self, inst: PhiInst) -> SymbolicInterval:
        incoming = [self._ranges.get(value, EMPTY_INTERVAL)
                    if isinstance(value, (Instruction, Argument))
                    else self.range_of(value)
                    for value, _ in inst.incoming()]
        return SymbolicInterval.join_all(
            interval for interval in incoming if not interval.is_empty
        )

    def _evaluate_cast(self, inst: CastInst) -> SymbolicInterval:
        if inst.value.type.is_integer() or inst.kind in ("trunc", "sext", "zext"):
            return self.range_of(inst.value)
        return TOP_INTERVAL

    def _evaluate_select(self, inst: SelectInst) -> SymbolicInterval:
        return self.range_of(inst.true_value).join(
            self.range_of(inst.false_value))

    def _evaluate_load(self, inst: LoadInst) -> SymbolicInterval:
        if self.options.loads_as_symbols:
            hint = f"{inst.function.name}.load.{inst.name or id(inst)}"
            return self._symbol_interval(inst, hint)
        return TOP_INTERVAL

    def _evaluate_call(self, inst: CallInst) -> SymbolicInterval:
        if inst.is_external():
            hint = f"{inst.function.name}.{inst.callee_name()}.{inst.name or id(inst)}"
            return self._symbol_interval(inst, hint)
        return TOP_INTERVAL

    def _evaluate_binary(self, inst: BinaryInst) -> SymbolicInterval:
        lhs = self.range_of(inst.lhs)
        rhs = self.range_of(inst.rhs)
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
        source = self.range_of(inst.source)
        lower_bound = NEG_INF
        upper_bound = POS_INF
        if inst.lower is not None:
            bound = self.range_of(inst.lower)
            if not bound.is_empty and bound.lower is not NEG_INF:
                lower_bound = sym_add(bound.lower, inst.lower_adjust)
        if inst.upper is not None:
            bound = self.range_of(inst.upper)
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



_OPAQUE = TransferRule(no_operands, lambda analysis, inst: TOP_INTERVAL)

# The rule table: one entry per value-producing IR class, holding the
# operands the transfer reads (in dependence-edge order) and the transfer.
# The rules are the integer range analysis that bootstraps Figure 5, over
# Section 3.3's interval arithmetic.
_RULES = {
    # x = a op b: interval arithmetic on the operands' ranges.
    BinaryInst: TransferRule(lambda analysis, inst: inst.operands,
                             SymbolicRangeAnalysis._evaluate_binary),
    # A comparison yields a boolean.
    ICmpInst: TransferRule(no_operands, lambda analysis, inst: SymbolicInterval(0, 1)),
    # x = φ(a, b, …): the join of the incoming ranges (widened, Section 3.9).
    PhiInst: TransferRule(lambda analysis, inst: inst.operands,
                          SymbolicRangeAnalysis._evaluate_phi),
    # e-SSA σ: the source range met with the branch's bounds.
    SigmaInst: TransferRule(
        lambda analysis, inst: [inst.source] + [bound for bound in (inst.lower, inst.upper)
                                                if bound is not None],
        SymbolicRangeAnalysis._evaluate_sigma),
    # Integer casts keep the range; anything else is unknown.
    CastInst: TransferRule(lambda analysis, inst: (inst.value,),
                           SymbolicRangeAnalysis._evaluate_cast),
    SelectInst: TransferRule(lambda analysis, inst: (inst.true_value, inst.false_value),
                             SymbolicRangeAnalysis._evaluate_select),
    # Loads and external call results enter the symbolic kernel.
    LoadInst: TransferRule(no_operands, SymbolicRangeAnalysis._evaluate_load),
    CallInst: TransferRule(no_operands, SymbolicRangeAnalysis._evaluate_call),
    # Pointer-valued kinds are never nodes of the integer problem.
    AllocaInst: _OPAQUE, MallocInst: _OPAQUE, FreeInst: _OPAQUE, PtrAddInst: _OPAQUE,
}


class _IntegerRangeProblem(RuleProblem):
    """Adapter presenting the integer range analysis to the sparse solver."""

    name = "symbolic-ranges"
    rules = _RULES

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
