"""Concrete execution of the repro IR: interpreter, memory model, traces.

This layer turns the deterministic benchmark corpus into a *ground-truth
generator*: the interpreter runs the exact analysis-ready IR the alias
and range analyses consume, logging every pointer value, integer value
and memory access.  The soundness oracle
(:mod:`repro.evaluation.soundness`) then cross-checks analysis claims
against those observations.
"""

from .externals import MODELED_EXTERNALS, ProgramExit, call_external
from .interpreter import (
    Interpreter,
    InterpreterError,
    InterpreterLimits,
    StepBudgetExceeded,
)
from .memory import Heap, MemObject, MemoryError_, Pointer
from .trace import AccessEvent, ExecutionTrace, FrameTrace

__all__ = [
    "AccessEvent",
    "ExecutionTrace",
    "FrameTrace",
    "Heap",
    "Interpreter",
    "InterpreterError",
    "InterpreterLimits",
    "MemObject",
    "MemoryError_",
    "MODELED_EXTERNALS",
    "Pointer",
    "ProgramExit",
    "StepBudgetExceeded",
    "call_external",
]
