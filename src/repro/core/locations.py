"""Abstract memory locations (the ``Loc`` set of Section 3.2).

The paper's ``Loc = {loc_0 … loc_{n-1}}`` contains one element per memory
allocation site.  A realistic whole-program analysis needs a few more kinds
of abstract objects, all represented by :class:`MemoryLocation`:

* ``HEAP`` — a ``malloc`` site (the paper's canonical case);
* ``STACK`` — an ``alloca`` (local arrays, structs and address-taken slots);
* ``GLOBAL`` — a global variable;
* ``PARAMETER`` — the unknown object a pointer formal parameter refers to
  when the caller is not visible (the "loc₀ of parameter p" in Section 2);
* ``UNKNOWN`` — an object created outside the analysed code (results of
  external calls such as ``argv`` or ``getenv``);
* ``SYNTHETIC`` — a fresh base created by the *local* analysis
  (``NewLocs()`` in Figure 11).

Only ``HEAP``/``STACK``/``GLOBAL`` locations denote objects that are
guaranteed distinct from every other location; ``PARAMETER`` and ``UNKNOWN``
objects may overlap anything except provably distinct concrete objects that
they cannot reach — the query engine in :mod:`repro.core.queries` encodes
exactly that.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..ir.instructions import AllocaInst, MallocInst
from ..ir.module import Module
from ..ir.values import Argument, Value

__all__ = ["LocationKind", "MemoryLocation", "LocationTable"]


class LocationKind(enum.Enum):
    """What kind of object an abstract location stands for."""

    HEAP = "heap"
    STACK = "stack"
    GLOBAL = "global"
    PARAMETER = "parameter"
    UNKNOWN = "unknown"
    SYNTHETIC = "synthetic"

    def is_concrete_object(self) -> bool:
        """Locations that are guaranteed distinct objects from one another."""
        return self in (LocationKind.HEAP, LocationKind.STACK, LocationKind.GLOBAL)


@dataclass(frozen=True)
class MemoryLocation:
    """One abstract location ``loc_i``."""

    index: int
    kind: LocationKind
    name: str
    site: Optional[Value] = field(default=None, compare=False, hash=False)

    def is_concrete_object(self) -> bool:
        return self.kind.is_concrete_object()

    def __repr__(self) -> str:
        return f"loc{self.index}<{self.name}>"


class LocationTable:
    """Creates and indexes the abstract locations of one module.

    The table is shared by the global analysis, the local analysis and the
    query engine so that location identity is stable across them.
    """

    def __init__(self, module: Module):
        self.module = module
        self._locations: List[MemoryLocation] = []
        self._by_site: Dict[Value, MemoryLocation] = {}
        self._discover()

    # -- construction -----------------------------------------------------------
    def _new_location(self, kind: LocationKind, name: str,
                      site: Optional[Value] = None) -> MemoryLocation:
        location = MemoryLocation(len(self._locations), kind, name, site)
        self._locations.append(location)
        if site is not None:
            self._by_site[site] = location
        return location

    def _discover(self) -> None:
        """Pre-create locations for every static allocation site and global."""
        for variable in self.module.globals:
            self._new_location(LocationKind.GLOBAL, f"@{variable.name}", variable)
        for function in self.module.defined_functions():
            for inst in function.instructions():
                if isinstance(inst, MallocInst):
                    self._new_location(LocationKind.HEAP,
                                       f"{function.name}.{inst.name or 'malloc'}", inst)
                elif isinstance(inst, AllocaInst):
                    self._new_location(LocationKind.STACK,
                                       f"{function.name}.{inst.name or 'alloca'}", inst)

    def refresh_function(self, old_function, new_function, edit) -> None:
        """Function-granular incremental update (manager edit hook).

        The table is append-only, so locations of the retired body's sites
        simply become unreferenced once the analyses that pointed at them
        are refreshed; only the site index must forget the old values (their
        ids may be recycled) and register the new body's allocation sites.
        """
        for value in list(old_function.args):
            self._by_site.pop(value, None)
        for inst in old_function.instructions():
            self._by_site.pop(inst, None)
        for inst in new_function.instructions():
            if inst in self._by_site:
                continue
            if isinstance(inst, MallocInst):
                self._new_location(LocationKind.HEAP,
                                   f"{new_function.name}.{inst.name or 'malloc'}", inst)
            elif isinstance(inst, AllocaInst):
                self._new_location(LocationKind.STACK,
                                   f"{new_function.name}.{inst.name or 'alloca'}", inst)

    # -- lookup / creation -------------------------------------------------------
    def location_for_site(self, site: Value) -> Optional[MemoryLocation]:
        """The location of an allocation site, global or previously registered value."""
        return self._by_site.get(site)

    def ensure_parameter_location(self, argument: Argument) -> MemoryLocation:
        """The pseudo-location of a pointer formal parameter (created on demand)."""
        existing = self._by_site.get(argument)
        if existing is not None:
            return existing
        function_name = argument.parent.name if argument.parent is not None else "?"
        return self._new_location(LocationKind.PARAMETER,
                                  f"{function_name}.param.{argument.name}", argument)

    def ensure_unknown_location(self, site: Value, hint: str) -> MemoryLocation:
        """The pseudo-location of an externally created object (created on demand)."""
        existing = self._by_site.get(site)
        if existing is not None:
            return existing
        return self._new_location(LocationKind.UNKNOWN, hint, site)

    def new_synthetic_location(self, hint: str) -> MemoryLocation:
        """A fresh base for the local analysis (``NewLocs()`` in Figure 11)."""
        return self._new_location(LocationKind.SYNTHETIC, hint)

    # -- aggregates ------------------------------------------------------------------
    def all_locations(self) -> List[MemoryLocation]:
        return list(self._locations)

    def allocation_sites(self) -> List[MemoryLocation]:
        """The paper's ``Loc``: heap, stack and global allocation sites."""
        return [location for location in self._locations if location.is_concrete_object()]

    def __len__(self) -> int:
        return len(self._locations)

    def __getitem__(self, index: int) -> MemoryLocation:
        return self._locations[index]
