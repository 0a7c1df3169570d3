"""The ``MemLocs`` abstract domain (Section 3.4).

The paper represents the abstract state of a pointer as an *n*-tuple over
``SymbRanges ⊎ {⊥}``, one slot per allocation site.  Keeping actual tuples
would waste both memory and time (most slots are ⊥), so this implementation
stores only the *support* — a dictionary from :class:`MemoryLocation` to
:class:`~repro.symbolic.interval.SymbolicInterval` — which is exactly the
sparse representation the complexity argument of Section 3.8 relies on.

A distinguished ``TOP`` element represents "may point anywhere with any
offset": it is what loads of pointers produce (Figure 9) and what unknown
external pointers start from.
"""

from __future__ import annotations

from typing import Dict, ItemsView, Mapping, Optional, Tuple

from ..symbolic import SymbolicInterval, TOP_INTERVAL, sym_add
from .locations import MemoryLocation

__all__ = ["PointerAbstractValue", "BOTTOM", "TOP"]


class PointerAbstractValue:
    """One element of the ``MemLocs`` lattice.

    The value is either ``TOP`` (unknown pointer) or a finite map
    ``{loc → interval}``; the empty map is the lattice bottom
    ``(⊥, …, ⊥)``.  Instances are immutable.
    """

    __slots__ = ("_ranges", "_is_top")

    def __init__(self, ranges: Optional[Mapping[MemoryLocation, SymbolicInterval]] = None,
                 *, is_top: bool = False):
        object.__setattr__(self, "_is_top", bool(is_top))
        if is_top:
            object.__setattr__(self, "_ranges", {})
        else:
            cleaned = {location: interval for location, interval in (ranges or {}).items()
                       if not interval.is_empty}
            object.__setattr__(self, "_ranges", cleaned)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("PointerAbstractValue is immutable")

    # -- constructors ------------------------------------------------------------
    @classmethod
    def top(cls) -> "PointerAbstractValue":
        """The greatest element: any location, any offset."""
        return TOP

    @classmethod
    def at_location(cls, location: MemoryLocation,
                    interval: Optional[SymbolicInterval] = None) -> "PointerAbstractValue":
        """``{loc + [0, 0]}`` (or the given interval)."""
        return cls({location: interval if interval is not None else SymbolicInterval.point(0)})

    # -- observers ------------------------------------------------------------------
    @property
    def is_top(self) -> bool:
        return self._is_top

    @property
    def is_bottom(self) -> bool:
        return not self._is_top and not self._ranges

    def support(self) -> Tuple[MemoryLocation, ...]:
        """The locations with a non-⊥ slot (Definition 2)."""
        return tuple(self._ranges.keys())

    def items(self) -> ItemsView[MemoryLocation, SymbolicInterval]:
        return self._ranges.items()

    def range_for(self, location: MemoryLocation) -> Optional[SymbolicInterval]:
        """The interval bound to ``location`` or ``None`` when the slot is ⊥."""
        if self._is_top:
            return TOP_INTERVAL
        return self._ranges.get(location)

    def has_symbolic_range(self) -> bool:
        """True when at least one bound of one slot mentions a kernel symbol."""
        return any(interval.is_symbolic() for interval in self._ranges.values())

    def has_only_constant_ranges(self) -> bool:
        """True when every slot has integer-constant bounds (and there is at least one)."""
        if self._is_top or not self._ranges:
            return False
        return all(interval.is_constant() for interval in self._ranges.values())

    # -- lattice operations ----------------------------------------------------------
    def join(self, other: "PointerAbstractValue") -> "PointerAbstractValue":
        """Pointwise ``⊔`` with ``⊥ ⊔ R = R``."""
        if self._is_top or other._is_top:
            return TOP
        if self.is_bottom:
            return other
        if other.is_bottom or self is other:
            return self
        merged: Dict[MemoryLocation, SymbolicInterval] = dict(self._ranges)
        for location, interval in other._ranges.items():
            existing = merged.get(location)
            merged[location] = interval if existing is None else existing.join(interval)
        return PointerAbstractValue(merged)

    def widen(self, other: "PointerAbstractValue") -> "PointerAbstractValue":
        """Pointwise ``∇`` (Definition 4), applied as ``old ∇ new``."""
        if self._is_top or other._is_top:
            return TOP
        if self.is_bottom:
            return other
        if other.is_bottom or self is other:
            return self
        # ``self``'s locations first, then ``other``'s new ones: key order
        # must not follow the hash order of location names.
        widened: Dict[MemoryLocation, SymbolicInterval] = {}
        for location, old in self._ranges.items():
            new = other._ranges.get(location)
            widened[location] = old if new is None else old.widen(new)
        for location, new in other._ranges.items():
            if location not in widened:
                widened[location] = new
        return PointerAbstractValue(widened)

    def narrow(self, other: "PointerAbstractValue") -> "PointerAbstractValue":
        """Descending-sequence refinement applied as ``old.narrow(recomputed)``."""
        if other._is_top or self is other:
            return self
        if self._is_top:
            return other
        narrowed: Dict[MemoryLocation, SymbolicInterval] = {}
        for location, old in self._ranges.items():
            new = other._ranges.get(location)
            narrowed[location] = old if new is None else old.narrow(new)
        return PointerAbstractValue(narrowed)

    def includes(self, other: "PointerAbstractValue") -> bool:
        """``other ⊑ self`` pointwise."""
        if self._is_top or other.is_bottom:
            return True
        if other._is_top:
            return False
        for location, interval in other._ranges.items():
            ours = self._ranges.get(location)
            if ours is None or not ours.contains_interval(interval):
                return False
        return True

    # -- transfer helpers ---------------------------------------------------------------
    def shift(self, delta: SymbolicInterval) -> "PointerAbstractValue":
        """Add an offset interval to every slot (pointer-plus-scalar of Figure 9)."""
        if self._is_top or self.is_bottom or delta.is_empty:
            return self if not delta.is_empty else BOTTOM
        return PointerAbstractValue(
            {location: interval.add(delta) for location, interval in self._ranges.items()}
        )

    def meet_ranges(self, bound: "PointerAbstractValue", *,
                    use_upper: bool, adjust: int = 0) -> "PointerAbstractValue":
        """The σ rules of Figure 9: intersect each slot with a bound pointer's slot.

        Slots missing on either side become ⊥, exactly as in the paper
        (``qi = ⊥ if p1i = ⊥ or p2i = ⊥``).
        """
        if self._is_top:
            # An unknown pointer constrained by a known bound adopts the bound's
            # support with one-sided intervals.
            base: Dict[MemoryLocation, SymbolicInterval] = {
                location: TOP_INTERVAL for location in bound._ranges
            }
            constrained = PointerAbstractValue(base)
            return constrained.meet_ranges(bound, use_upper=use_upper, adjust=adjust)
        if bound._is_top or self.is_bottom or bound.is_bottom:
            return self if not (self.is_bottom or bound.is_bottom) else BOTTOM
        result: Dict[MemoryLocation, SymbolicInterval] = {}
        for location, interval in self._ranges.items():
            bound_interval = bound._ranges.get(location)
            if bound_interval is None:
                continue
            if use_upper:
                limit = sym_add(bound_interval.upper, adjust)
                met = interval.clamp_upper(limit)
            else:
                limit = sym_add(bound_interval.lower, adjust)
                met = interval.clamp_lower(limit)
            if not met.is_empty:
                result[location] = met
        return PointerAbstractValue(result)

    def substitute(self, mapping: Mapping[str, object]) -> "PointerAbstractValue":
        """Substitute kernel symbols inside every interval (used in reporting)."""
        if self._is_top or self.is_bottom:
            return self
        return PointerAbstractValue(
            {location: interval.substitute(mapping)  # type: ignore[arg-type]
             for location, interval in self._ranges.items()}
        )

    # -- dunder ------------------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, PointerAbstractValue):
            return NotImplemented
        return self._is_top == other._is_top and self._ranges == other._ranges

    def __hash__(self) -> int:
        if self._is_top:
            return hash("PointerAbstractValue.TOP")
        return hash(frozenset(self._ranges.items()))

    def __repr__(self) -> str:
        if self._is_top:
            return "GR⊤"
        if self.is_bottom:
            return "GR⊥"
        inner = ", ".join(f"{location!r} + {interval!r}"
                          for location, interval in sorted(
                              self._ranges.items(), key=lambda item: item[0].index))
        return "{" + inner + "}"


BOTTOM = PointerAbstractValue({})
TOP = PointerAbstractValue(is_top=True)
