"""Re-implementation of LLVM's ``basicaa`` heuristics (the "basic" baseline).

Section 4 of the paper lists the heuristics the stateless basic alias
analysis applies; this module implements that list on our IR:

* distinct globals, stack allocations and heap allocations never alias;
* identified objects never alias the null pointer;
* different fields of a structure do not alias, and array indexing with
  statically different subscripts does not alias (both reduce to *constant
  offsets from the same base object that cannot overlap*);
* many standard C library functions do not access (or only read) memory —
  exposed through :meth:`BasicAliasAnalysis.callee_is_readonly`;
* function calls cannot reference stack allocations that never escape.

The analysis is stateless and purely local: it walks pointer definitions
back to their underlying objects, accumulating constant offsets, and answers
from that decomposition alone — no ranges, no loop reasoning.  That is
precisely why it cannot disambiguate the symbolic-offset idioms the paper
targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Set, Tuple

from ..ir.instructions import (
    AllocaInst,
    CallInst,
    CastInst,
    LoadInst,
    MallocInst,
    PhiInst,
    PtrAddInst,
    SelectInst,
    SigmaInst,
    StoreInst,
)
from ..ir.module import Module
from ..ir.values import GlobalVariable, NullPointer, Value
from .base import AliasAnalysis
from .results import AliasResult, MemoryAccess, NoAliasClaim

__all__ = ["BasicAliasAnalysis", "UnderlyingObject"]

#: Standard C functions that never write memory visible to the caller.
_READONLY_FUNCTIONS = frozenset({
    "strlen", "strcmp", "strncmp", "atoi", "atof", "abs", "labs",
    "isdigit", "isalpha", "isspace", "toupper", "tolower",
})

#: Standard C functions that do not access program memory at all.
_NO_MEMORY_FUNCTIONS = frozenset({"abs", "labs", "rand", "exit", "getchar"})

#: Decomposition walk limit (defensive, mirrors LLVM's search depth caps).
_MAX_WALK = 64

#: Shared descriptor for invocation-scoped claims (NoAliasClaim is frozen,
#: so one instance serves every query on the benchmark-timed path).
_INVOCATION_CLAIM = NoAliasClaim()


@dataclass(frozen=True)
class UnderlyingObject:
    """The result of walking a pointer back to the objects it is based on."""

    #: Identified objects (allocation instructions or globals) when all paths
    #: reach one; empty when some path reaches an unknown pointer.
    objects: FrozenSet[Value]
    #: True when every reachable base is an identified object.
    all_identified: bool
    #: True when one of the reachable bases is the null pointer.
    includes_null: bool


class BasicAliasAnalysis(AliasAnalysis):
    """Stateless, heuristic alias analysis in the spirit of LLVM ``basicaa``."""

    name = "basic"

    def __init__(self, module: Module):
        super().__init__(module)
        self._escape_cache: dict = {}
        #: pointer value -> memoized decomposition results.  Both walks are
        #: pure functions of the (immutable-between-edits) IR, and the
        #: quadratic pair enumeration revisits every pointer O(pointers)
        #: times, so the memo turns repeated walks into dict probes.
        self._object_cache: dict = {}
        self._decompose_cache: dict = {}

    def refresh_function(self, old_function, new_function) -> None:
        """Function-granular incremental refresh (manager edit hook).

        The analysis is stateless apart from its caches: escape verdicts for
        the retired body's allocas are dropped, and the pair memo and the
        decomposition caches — keyed by pointer identities whose ids may be
        recycled — are cleared."""
        stale = set(old_function.instructions())
        for value in [value for value in self._escape_cache if value in stale]:
            del self._escape_cache[value]
        self.pair_memo.clear()
        self._object_cache.clear()
        self._decompose_cache.clear()

    # -- underlying-object decomposition --------------------------------------
    @staticmethod
    def _is_identified_object(value: Value) -> bool:
        return isinstance(value, (MallocInst, AllocaInst, GlobalVariable))

    def underlying_objects(self, pointer: Value) -> UnderlyingObject:
        """All objects ``pointer`` may be based on (through casts, φs, selects, σs).

        Memoized per pointer: the walk is a pure function of the IR, which
        only changes through ``refresh_function`` (which clears the memo).
        """
        cached = self._object_cache.get(pointer)
        if cached is None:
            cached = self._underlying_objects_uncached(pointer)
            self._object_cache[pointer] = cached
        return cached

    def _underlying_objects_uncached(self, pointer: Value) -> UnderlyingObject:
        objects: Set[Value] = set()
        includes_null = False
        all_identified = True
        worklist: List[Value] = [pointer]
        visited: Set[int] = set()
        steps = 0
        while worklist and steps < _MAX_WALK:
            steps += 1
            current = worklist.pop()
            if id(current) in visited:
                continue
            visited.add(id(current))
            if isinstance(current, PtrAddInst):
                worklist.append(current.base)
            elif isinstance(current, CastInst) and current.kind == "bitcast":
                worklist.append(current.value)
            elif isinstance(current, SigmaInst):
                worklist.append(current.source)
            elif isinstance(current, PhiInst):
                worklist.extend(value for value, _ in current.incoming())
            elif isinstance(current, SelectInst):
                worklist.extend((current.true_value, current.false_value))
            elif isinstance(current, NullPointer):
                includes_null = True
            elif self._is_identified_object(current):
                objects.add(current)
            else:
                # Arguments, loads, call results, int-to-pointer casts…
                objects.add(current)
                all_identified = False
        if worklist:
            all_identified = False
        return UnderlyingObject(frozenset(objects), all_identified, includes_null)

    def decompose(self, pointer: Value) -> Tuple[Value, Optional[int]]:
        """Strip constant-offset arithmetic: ``(base, constant byte offset)``.

        The offset is ``None`` as soon as a variable index is involved.
        Memoized per pointer (see :meth:`underlying_objects`).
        """
        cached = self._decompose_cache.get(pointer)
        if cached is not None:
            return cached
        result = self._decompose_uncached(pointer)
        self._decompose_cache[pointer] = result
        return result

    def _decompose_uncached(self, pointer: Value) -> Tuple[Value, Optional[int]]:
        offset: Optional[int] = 0
        current = pointer
        for _ in range(_MAX_WALK):
            if isinstance(current, PtrAddInst):
                constant = current.constant_byte_offset()
                if constant is None:
                    offset = None
                elif offset is not None:
                    offset += constant
                current = current.base
                continue
            if isinstance(current, CastInst) and current.kind == "bitcast":
                current = current.value
                continue
            if isinstance(current, SigmaInst):
                current = current.source
                continue
            break
        return current, offset

    # -- escape analysis ----------------------------------------------------------
    def alloca_escapes(self, alloca: Value) -> bool:
        """True when the address of a stack slot may escape its function."""
        cached = self._escape_cache.get(alloca)
        if cached is not None:
            return cached
        escapes = False
        worklist: List[Value] = [alloca]
        visited: Set[int] = set()
        steps = 0
        while worklist and steps < 4 * _MAX_WALK:
            steps += 1
            current = worklist.pop()
            if id(current) in visited:
                continue
            visited.add(id(current))
            for use in current.uses:
                user = use.user
                if isinstance(user, (PtrAddInst, CastInst, SigmaInst, PhiInst, SelectInst)):
                    worklist.append(user)
                elif isinstance(user, LoadInst):
                    continue
                elif isinstance(user, StoreInst):
                    if user.value is current:
                        escapes = True  # the address itself is written to memory
                elif isinstance(user, CallInst):
                    escapes = True
                else:
                    escapes = True
            if escapes:
                break
        self._escape_cache[alloca] = escapes
        return escapes

    # -- library knowledge -----------------------------------------------------------
    @staticmethod
    def callee_is_readonly(name: str) -> bool:
        """True for standard functions that never write caller-visible memory."""
        return name in _READONLY_FUNCTIONS or name in _NO_MEMORY_FUNCTIONS

    @staticmethod
    def callee_accesses_no_memory(name: str) -> bool:
        """True for standard functions that access no program memory at all."""
        return name in _NO_MEMORY_FUNCTIONS

    # -- the query -----------------------------------------------------------------------
    def classify(self, a: MemoryAccess, b: MemoryAccess
                 ) -> Tuple[AliasResult, NoAliasClaim]:
        """One alias query, plus the validity scope of a no-alias verdict.

        Object-disambiguation rules make invocation-set claims (the regions
        the two pointers ever reference within one activation are disjoint);
        the constant-offset rule is relative to one dynamic instance of the
        shared base, so its claim carries ``scope="same-base"``.
        """
        invocation = _INVOCATION_CLAIM
        pointer_a, pointer_b = a.pointer, b.pointer
        if pointer_a is pointer_b:
            return AliasResult.MUST_ALIAS, invocation

        # Null never aliases identified objects.
        objects_a = self.underlying_objects(pointer_a)
        objects_b = self.underlying_objects(pointer_b)
        if isinstance(pointer_a, NullPointer) and objects_b.all_identified:
            return AliasResult.NO_ALIAS, invocation
        if isinstance(pointer_b, NullPointer) and objects_a.all_identified:
            return AliasResult.NO_ALIAS, invocation

        # Distinct identified objects never alias.
        if objects_a.all_identified and objects_b.all_identified:
            if not (objects_a.objects & objects_b.objects):
                return AliasResult.NO_ALIAS, invocation

        # A non-escaping stack allocation cannot be reached through a pointer
        # that is not based on it (function arguments, loads, call results).
        for mine, other in ((objects_a, objects_b), (objects_b, objects_a)):
            if mine.all_identified and len(mine.objects) >= 1 \
                    and all(isinstance(obj, AllocaInst) for obj in mine.objects) \
                    and all(not self.alloca_escapes(obj) for obj in mine.objects):
                if not other.all_identified and not (mine.objects & other.objects):
                    other_has_identified_overlap = any(
                        self._is_identified_object(obj) and obj in mine.objects
                        for obj in other.objects)
                    if not other_has_identified_overlap:
                        return AliasResult.NO_ALIAS, invocation

        # Same base object with statically different constant offsets: struct
        # fields and constant array subscripts.
        base_a, offset_a = self.decompose(pointer_a)
        base_b, offset_b = self.decompose(pointer_b)
        if base_a is base_b and offset_a is not None and offset_b is not None:
            same_base = NoAliasClaim(scope="same-base", anchors=(base_a,))
            if offset_a == offset_b:
                return AliasResult.MUST_ALIAS, same_base
            low, low_size, high = ((offset_a, a.size, offset_b) if offset_a < offset_b
                                   else (offset_b, b.size, offset_a))
            if low_size is None:
                # Unknown extent: the lower access may reach any higher
                # offset, so neither disjointness nor overlap is provable.
                return AliasResult.MAY_ALIAS, invocation
            if low + low_size <= high:
                return AliasResult.NO_ALIAS, same_base
            return AliasResult.PARTIAL_ALIAS, same_base

        return AliasResult.MAY_ALIAS, invocation

    def alias(self, a: MemoryAccess, b: MemoryAccess) -> AliasResult:
        return self.remembered(a, b, self.classify)[0]

    def no_alias_context(self, a: MemoryAccess, b: MemoryAccess) -> NoAliasClaim:
        # The oracle asks for the context of every no-alias pair right after
        # the verdicts were computed: the memoized classification answers.
        return self.remembered(a, b, self.classify)[1]
