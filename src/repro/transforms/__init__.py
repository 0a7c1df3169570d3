"""IR-to-IR transformations: SSA promotion, e-SSA and clean-ups."""

from .essa import build_essa, build_essa_function, split_critical_edges
from .mem2reg import is_promotable, promote_allocas, promote_allocas_in_function
from .pipeline import PipelineOptions, PipelineResult, prepare_module
from .simplify import (
    eliminate_dead_code_in_function,
    fold_constants_in_function,
    simplify_module,
)

__all__ = [
    "build_essa",
    "build_essa_function",
    "split_critical_edges",
    "is_promotable",
    "promote_allocas",
    "promote_allocas_in_function",
    "PipelineOptions",
    "PipelineResult",
    "prepare_module",
    "eliminate_dead_code_in_function",
    "fold_constants_in_function",
    "simplify_module",
]
