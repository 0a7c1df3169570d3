"""Out-of-bounds detection: symbolic offset intervals versus object extents.

For every load and store, the detector asks whether the access footprint —
the pointer's symbolic offset interval extended by the access width, the
same :func:`~repro.core.queries.extend_for_access` semantics the alias
tests use — provably fits inside (or provably escapes) the extent of every
object the pointer may reference:

* the **points-to path** reads RBAA's global abstract state: each
  ``location → offset interval`` binding is compared against the
  location's extent (global type size, ``alloca`` size, the symbolic
  range of a ``malloc``'s size operand);
* the **decomposition path** walks basicaa's ``base + constant offset``
  view, catching constant accesses whose interval widened away.

Each access is classified ``safe`` (provably in bounds for every
execution), ``definitely-oob`` (provably out of bounds for every
execution) or ``maybe-oob`` (everything unprovable).  Both definite
verdicts are universally quantified and therefore falsifiable: the
differential validator (:mod:`repro.clients.validate`) replays the
interpreter's observed accesses against them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.locations import MemoryLocation
from ..core.queries import extend_for_access
from ..engine import keys
from ..engine.manager import AnalysisManager
from ..interp.trace import access_width, memory_access_table
from ..ir.function import Function
from ..ir.instructions import AllocaInst, Instruction, MallocInst, StoreInst
from ..ir.module import Module
from ..ir.values import GlobalVariable, Value
from ..symbolic.interval import SymbolicInterval

__all__ = ["BoundsCheckAnalysis", "SAFE", "MAYBE_OOB", "DEFINITELY_OOB"]

SAFE = "safe"
MAYBE_OOB = "maybe-oob"
DEFINITELY_OOB = "definitely-oob"


class BoundsCheckAnalysis:
    """The array out-of-bounds client (Section 1's first motivating client)."""

    name = "check-bounds"

    def __init__(self, module: Module, manager: Optional[AnalysisManager] = None):
        self.module = module
        manager = AnalysisManager.ensure(module, manager)
        self.rbaa = manager.get(keys.RBAA)
        self.basic = manager.get(keys.BASIC)
        self.ranges = manager.get(keys.RANGES)
        self._reports: Dict[Function, Dict] = {}
        self._extents: Dict[Value, Optional[SymbolicInterval]] = {}

    # -- extents ------------------------------------------------------------
    def extent_interval(self, site: Value,
                        at_function: Optional[Function] = None
                        ) -> Optional[SymbolicInterval]:
        """The symbolic byte size of an allocation site, or ``None``.

        Symbolic sizes mention kernel symbols whose valuation is fixed per
        activation, so they are only comparable against offset intervals
        computed in the *same* function; cross-function uses are restricted
        to constant extents.
        """
        extent = self._site_extent(site)
        if extent is None:
            return None
        if extent.is_constant:
            return extent
        site_function = getattr(site, "function", None)
        if at_function is not None and site_function is not at_function:
            return None
        return extent

    def _site_extent(self, site: Value) -> Optional[SymbolicInterval]:
        if site in self._extents:
            return self._extents[site]
        extent: Optional[SymbolicInterval] = None
        if isinstance(site, GlobalVariable):
            extent = SymbolicInterval.point(site.value_type.size_in_bytes())
        elif isinstance(site, AllocaInst):
            fixed = site.allocation_size_bytes()
            if fixed is not None:
                extent = SymbolicInterval.point(fixed)
            else:
                element = site.allocated_type.size_in_bytes()
                count = self.ranges.range_of(site.count)
                if not count.is_empty and not count.is_top:
                    extent = count.scale(element)
        elif isinstance(site, MallocInst):
            size = self.ranges.range_of(site.size)
            if not size.is_empty and not size.is_top:
                extent = size
        self._extents[site] = extent
        return extent

    # -- classification ------------------------------------------------------
    @staticmethod
    def _verdict_against_extent(footprint: SymbolicInterval,
                                extent: SymbolicInterval) -> str:
        """Compare one access footprint against one object extent.

        ``safe`` needs the footprint inside ``[0, size - 1]`` for *every*
        admissible size, so it is judged against the extent's lower bound;
        ``definitely-oob`` needs the footprint outside the *largest*
        admissible object, so it is judged against the upper bound.
        """
        if footprint.is_empty:
            return MAYBE_OOB
        smallest = SymbolicInterval.from_bounds(0, extent.lower - 1)
        if smallest.contains_interval(footprint):
            return SAFE
        largest = SymbolicInterval.from_bounds(0, extent.upper - 1)
        if footprint.definitely_disjoint(largest):
            return DEFINITELY_OOB
        return MAYBE_OOB

    def _points_to_verdict(self, pointer: Value, width: int,
                           function: Function) -> str:
        state = self.rbaa.global_state(pointer)
        if state.is_top or state.is_bottom:
            return MAYBE_OOB
        verdicts: List[str] = []
        for location, interval in state.items():
            verdicts.append(self._location_verdict(location, interval,
                                                   width, function))
        if verdicts and all(v == SAFE for v in verdicts):
            return SAFE
        if verdicts and all(v == DEFINITELY_OOB for v in verdicts):
            return DEFINITELY_OOB
        return MAYBE_OOB

    def _location_verdict(self, location: MemoryLocation,
                          interval: SymbolicInterval, width: int,
                          function: Function) -> str:
        if not location.kind.is_concrete_object() or location.site is None:
            return MAYBE_OOB
        extent = self.extent_interval(location.site, at_function=function)
        if extent is None:
            return MAYBE_OOB
        footprint = extend_for_access(interval, width)
        return self._verdict_against_extent(footprint, extent)

    def _decompose_verdict(self, pointer: Value, width: int,
                           function: Function) -> str:
        base, offset = self.basic.decompose(pointer)
        if offset is None:
            return MAYBE_OOB
        if not isinstance(base, (GlobalVariable, AllocaInst, MallocInst)):
            return MAYBE_OOB
        extent = self.extent_interval(base, at_function=function)
        if extent is None:
            return MAYBE_OOB
        footprint = SymbolicInterval.from_bounds(offset, offset + width - 1)
        return self._verdict_against_extent(footprint, extent)

    def classify_access(self, function: Function, index: int,
                        inst: Instruction) -> Tuple[str, str]:
        """Verdict for one load/store: ``(classification, reason)``.

        Override point for the mutant fixtures; both paths are sound, so a
        definite answer from either wins over the other's ``maybe-oob``.
        """
        width = access_width(inst)
        via_points_to = self._points_to_verdict(inst.pointer, width, function)
        if via_points_to != MAYBE_OOB:
            return via_points_to, "points-to"
        via_decompose = self._decompose_verdict(inst.pointer, width, function)
        if via_decompose != MAYBE_OOB:
            return via_decompose, "decompose"
        return MAYBE_OOB, "unproven"

    # -- reports -------------------------------------------------------------
    def function_report(self, function: Function) -> Dict:
        """The per-access verdict table of one function (cached)."""
        cached = self._reports.get(function)
        if cached is not None:
            return cached
        accesses = []
        counts = {"safe": 0, "maybe_oob": 0, "definitely_oob": 0}
        for index, inst in enumerate(memory_access_table(function)):
            classification, reason = self.classify_access(function, index, inst)
            counts[classification.replace("-", "_")] += 1
            accesses.append({
                "index": index,
                "opcode": "store" if isinstance(inst, StoreInst) else "load",
                "pointer": inst.pointer.short_name(),
                "width": access_width(inst),
                "classification": classification,
                "reason": reason,
            })
        report = {"function": function.name,
                  "accesses": accesses, "summary": counts}
        self._reports[function] = report
        return report

    def module_report(self, function: Optional[str] = None) -> Dict:
        """Deterministic whole-module (or one-function) verdict report."""
        names = sorted(f.name for f in self.module.defined_functions()
                       if function is None or f.name == function)
        functions = [self.function_report(self.module.get_function(name))
                     for name in names]
        summary = {"safe": 0, "maybe_oob": 0, "definitely_oob": 0, "accesses": 0}
        for report in functions:
            for key, count in report["summary"].items():
                summary[key] += count
            summary["accesses"] += len(report["accesses"])
        return {"functions": functions, "summary": summary}
