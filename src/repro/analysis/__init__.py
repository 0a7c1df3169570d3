"""Classic CFG analyses: one cached :class:`CFGInfo` per function (orders,
dominator tree, loop forest, read through ``function.cfg()``) and the call
graph."""

from .callgraph import CallGraph, CallSite
from .cfg import CFGInfo
from .dominance import DominatorTree
from .loops import Loop, LoopInfo

__all__ = [
    "CallGraph",
    "CallSite",
    "CFGInfo",
    "DominatorTree",
    "Loop",
    "LoopInfo",
]
