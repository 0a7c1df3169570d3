"""The call graph: the one home of call-site facts.

The paper's implementation is interprocedural but context-insensitive: it
"associates actual parameters with formal parameters of functions" (Section
3.1).  Every analysis that binds actuals to formals or call results to callee
returns (GR, Andersen, Steensgaard) reads those facts from one
:class:`CallGraph`: the call sites of each defined callee in module order,
each call's defined callee, and the pointer values a callee's ``ret``\\ s
return.  The engine caches one graph per module (``keys.CALLGRAPH``) and
rebuilds it in place when a function is edited, before the analyses that
read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..ir.function import Function
from ..ir.instructions import CallInst, ReturnInst
from ..ir.module import Module
from ..ir.values import Value

__all__ = ["CallSite", "CallGraph", "RETURNS_FIRST_ARGUMENT"]

#: External routines whose pointer result is their first argument.
RETURNS_FIRST_ARGUMENT = frozenset({
    "strcpy", "strncpy", "strcat", "strncat", "memcpy", "memmove", "memset",
})


@dataclass(frozen=True)
class CallSite:
    """One direct call: the instruction, the caller and the resolved callee."""

    instruction: CallInst
    caller: Function
    callee: Optional[Function]  # ``None`` unless defined in the module

    def argument_bindings(self) -> List[Tuple[Value, Value]]:
        """Pairs ``(formal parameter, actual argument)`` for defined callees."""
        if self.callee is None:
            return []
        return list(zip(self.callee.args, self.instruction.args))


class CallGraph:
    """Direct-call graph over the defined functions of a module."""

    def __init__(self, module: Module):
        self.module = module
        #: Functions whose call sites the last :meth:`refresh_function`
        #: changed (the callees of the edited body, before and after): the
        #: actuals bound to their parameters are not the ones of before.
        self.rebound: Set[Function] = set()
        self._build()

    def _build(self) -> None:
        #: Every call instruction of the module, in module order.
        self.call_sites: List[CallSite] = []
        self._callee: Dict[CallInst, Optional[Function]] = {}
        self._sites_calling: Dict[Function, List[CallSite]] = {}
        self._sites_in: Dict[Function, List[CallSite]] = {}
        self._returns: Dict[Function, List[Value]] = {}
        for function in self.module.defined_functions():
            sites = self._sites_in[function] = []
            for inst in function.instructions():
                if not isinstance(inst, CallInst):
                    continue
                callee = inst.callee if isinstance(inst.callee, Function) \
                    else self.module.get_function(inst.callee)
                if callee is not None and callee.is_declaration():
                    callee = None
                site = CallSite(instruction=inst, caller=function, callee=callee)
                self.call_sites.append(site)
                sites.append(site)
                self._callee[inst] = callee
                if callee is not None:
                    self._sites_calling.setdefault(callee, []).append(site)

    def refresh_function(self, old_function: Function, new_function: Function,
                         edit) -> None:
        """Rebuild in place after an edit: the new body may add or remove
        call sites, so the graph is rebuilt and :attr:`rebound` records
        whose parameters they bind."""
        rebound = set(self.callees(old_function))
        self._build()
        self.rebound = rebound.union(self.callees(new_function))

    # -- queries -------------------------------------------------------------
    def callee_of(self, call: CallInst) -> Optional[Function]:
        """The defined function ``call`` targets (``None`` for external names)."""
        return self._callee[call]

    def sites_calling(self, function: Function) -> List[CallSite]:
        """The call sites whose callee is ``function``, in module order."""
        return self._sites_calling.get(function, [])

    def callees(self, function: Function) -> List[Function]:
        return list(dict.fromkeys(site.callee for site in self._sites_in.get(function, ())
                                  if site.callee is not None))

    def returned_pointers(self, function: Function) -> List[Value]:
        """The pointer values ``function``'s ``ret``\\ s return, in block order."""
        returns = self._returns.get(function)
        if returns is None:
            returns = self._returns[function] = []
            for block in function.blocks:
                terminator = block.terminator
                if isinstance(terminator, ReturnInst) and terminator.value is not None \
                        and terminator.value.type.is_pointer():
                    returns.append(terminator.value)
        return returns

    def is_address_taken(self, function: Function) -> bool:
        """True when the function escapes as a value (conservatively: any non-call use)."""
        return any(not isinstance(use.user, CallInst) for use in function.uses)

