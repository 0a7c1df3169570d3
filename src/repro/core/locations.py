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
from typing import Dict, Iterable, List, Optional

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
    query engine so that location identity is stable across them.  Indices
    come from a counter and are never reused, so an index names one
    location for the table's lifetime even after edits retire locations.
    """

    def __init__(self, module: Module):
        self.module = module
        self._locations: Dict[int, MemoryLocation] = {}
        self._by_site: Dict[Value, MemoryLocation] = {}
        self._next_index = 0
        self._discover()

    # -- construction -----------------------------------------------------------
    def _new_location(self, kind: LocationKind, name: str,
                      site: Optional[Value] = None) -> MemoryLocation:
        location = MemoryLocation(self._next_index, kind, name, site)
        self._next_index += 1
        self._locations[location.index] = location
        if site is not None:
            self._by_site[site] = location
        return location

    def _discover(self) -> None:
        """Pre-create locations for every static allocation site and global."""
        for variable in self.module.globals:
            self._new_location(LocationKind.GLOBAL, f"@{variable.name}", variable)
        for function in self.module.defined_functions():
            self._register_sites(function)

    def _register_sites(self, function) -> None:
        """A location for each heap and stack allocation site of
        ``function`` that has none yet, in instruction order."""
        for inst in function.instructions():
            if inst in self._by_site:
                continue
            if isinstance(inst, MallocInst):
                self._new_location(LocationKind.HEAP,
                                   f"{function.name}.{inst.name or 'malloc'}", inst)
            elif isinstance(inst, AllocaInst):
                self._new_location(LocationKind.STACK,
                                   f"{function.name}.{inst.name or 'alloca'}", inst)

    def refresh_function(self, old_function, new_function, edit) -> None:
        """Function-granular incremental update (manager edit hook).

        Every location whose site is in the retired body (allocation sites,
        parameter and unknown-object pseudo-locations) is dropped, so the
        table does not keep the old body alive; the analyses that pointed
        at them are refreshed too.  The new body's allocation sites are
        registered; its pseudo-locations are created on demand again.
        """
        for value in list(old_function.args) + list(old_function.instructions()):
            location = self._by_site.pop(value, None)
            if location is not None:
                self._locations.pop(location.index, None)
        self._register_sites(new_function)

    def discard(self, locations: Iterable[MemoryLocation]) -> None:
        """Drop site-less locations whose minting analysis forgot them (the
        local analysis's fresh bases of a retired function body)."""
        for location in locations:
            self._locations.pop(location.index, None)

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
        return list(self._locations.values())

    def allocation_sites(self) -> List[MemoryLocation]:
        """The paper's ``Loc``: heap, stack and global allocation sites."""
        return [location for location in self._locations.values()
                if location.is_concrete_object()]

    def __len__(self) -> int:
        return len(self._locations)

    def __getitem__(self, index: int) -> MemoryLocation:
        return self._locations[index]
