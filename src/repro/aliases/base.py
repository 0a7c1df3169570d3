"""The common interface every alias analysis in the repository implements.

Both the baselines (``basic``, ``scev``, Andersen, Steensgaard) and the
paper's range-based analysis expose the same two entry points so the
evaluation harness can swap and chain them freely, mirroring how LLVM
stacks alias-analysis passes.

Each analysis owns exactly one per-pair memo, :attr:`AliasAnalysis.pair_memo`.
Alias queries are symmetric and an analysis is immutable between edits, so
one ``(pointer, size)`` pair never needs its tests run twice; every query,
batched or not, goes through :meth:`AliasAnalysis.remembered`.  The memo is
a bounded LRU (:data:`PAIR_MEMO_PAYLOADS`), so a long-lived service worker
cannot grow it without bound, and each analysis's ``refresh_function``
clears it on an edit because its keys are pointer identities.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..ir.module import Module
from ..ir.values import Value
from ..symbolic.cache import BoundedMemo
from .results import AliasResult, MemoryAccess, NoAliasClaim

__all__ = ["AliasAnalysis", "PAIR_MEMO_PAYLOADS", "pair_key"]

#: Bound on the payloads each analysis's pair memo keeps.  Eviction only
#: forces a recompute — answers are pure functions of the analysis — so the
#: bound is invisible to results; the service's ``stats`` op reports it.
PAIR_MEMO_PAYLOADS = 100_000

#: Distinguishes "nothing remembered" from a remembered ``None`` payload.
_MISS = object()


def pair_key(a: MemoryAccess, b: MemoryAccess) -> Hashable:
    """Canonical unordered key of one query pair.

    Alias queries are symmetric, so ``(a, b)`` and ``(b, a)`` share a key.
    Pointers are keyed by identity: SSA values are unique objects kept alive
    by the module they belong to.  An unknown access size (``None``) maps to
    ``-1``, a value no real access can have, so mixed known/unknown pairs
    stay orderable.
    """
    first = (id(a.pointer), -1 if a.size is None else a.size)
    second = (id(b.pointer), -1 if b.size is None else b.size)
    return (first, second) if first <= second else (second, first)


class AliasAnalysis(ABC):
    """Base class of all alias analyses."""

    #: Short machine-readable identifier used in reports (``basic``, ``scev``…).
    name: str = "abstract"

    def __init__(self, module: Module):
        self.module = module
        #: The per-pair memo behind :meth:`remembered`.
        self.pair_memo = BoundedMemo(maxsize=PAIR_MEMO_PAYLOADS)

    # -- main entry points ----------------------------------------------------
    @abstractmethod
    def alias(self, a: MemoryAccess, b: MemoryAccess) -> AliasResult:
        """Answer one alias query between two memory accesses."""

    def remembered(self, a: MemoryAccess, b: MemoryAccess,
                   decide: Callable[[MemoryAccess, MemoryAccess], Any]) -> Any:
        """The memoized payload of ``(a, b)``, computed by ``decide`` on a miss.

        The payload is whatever the analysis needs to answer the pair again:
        RBAA stores the :class:`~repro.core.queries.QueryOutcome` (so its
        Figure-14 counters see every ask), ``basic`` its ``(result, claim)``
        classification, the points-to analyses the plain result.
        """
        key = pair_key(a, b)
        memo = self.pair_memo
        payload = memo.get(key, _MISS)
        if payload is _MISS:
            payload = decide(a, b)
            memo.put(key, payload)
        return payload

    def query_many(self, pairs: Iterable[Tuple[MemoryAccess, MemoryAccess]]
                   ) -> List[AliasResult]:
        """Answer a batch of queries, one :meth:`alias` call per ask."""
        return [self.alias(a, b) for a, b in pairs]

    def alias_pointers(self, a: Value, b: Value,
                       size_a: Optional[int] = None,
                       size_b: Optional[int] = None) -> AliasResult:
        """Convenience wrapper taking raw pointer values."""
        return self.alias(MemoryAccess.of(a, size_a), MemoryAccess.of(b, size_b))

    def no_alias(self, a: Value, b: Value) -> bool:
        """True when the analysis proves the two pointers never overlap."""
        return self.alias_pointers(a, b) is AliasResult.NO_ALIAS

    # -- differential-validation hooks ----------------------------------------
    def no_alias_pairs(self, pairs: Sequence[Tuple[MemoryAccess, MemoryAccess]]
                       ) -> List[int]:
        """Indices of ``pairs`` this analysis answers "no alias" (oracle hook)."""
        answers = self.query_many(pairs)
        return [index for index, answer in enumerate(answers)
                if answer is AliasResult.NO_ALIAS]

    def no_alias_context(self, a: MemoryAccess, b: MemoryAccess) -> NoAliasClaim:
        """Describe the validity scope of a no-alias verdict on ``(a, b)``.

        Only meaningful for pairs the analysis answered
        :attr:`AliasResult.NO_ALIAS`.  The default — a plain invocation-set
        claim — is correct for object-disambiguation analyses (Andersen,
        Steensgaard); analyses with instance-relative or symbolic rules
        override this (``basic``, ``rbaa``).
        """
        return NoAliasClaim()

    # -- identification ---------------------------------------------------------
    def __repr__(self) -> str:
        return f"<{type(self).__name__} ({self.name}) on {self.module.name!r}>"
