"""One-call compilation driver: mini-C source text to analysis-ready IR.

The driver chains the explicit frontend stages (see
:mod:`repro.frontend.stages`): scan → parse → analyze → lower → prepare.
"""

from __future__ import annotations

from typing import Optional

from ..ir.module import Module
from ..transforms.pipeline import PipelineOptions, prepare_module
from .cparser import Parser
from .lexer import tokenize
from .lowering import lower_translation_unit
from .sema import analyze

__all__ = ["compile_source"]


def compile_source(source: str, name: str = "module", *,
                   prepare: bool = True,
                   pipeline_options: Optional[PipelineOptions] = None) -> Module:
    """Compile mini-C ``source`` into an IR :class:`~repro.ir.module.Module`.

    Args:
        source: the program text.
        name: module name (used in diagnostics and reports).
        prepare: when true (default), run the standard preparation pipeline
            (mem2reg, simplification, e-SSA) so the module is ready for the
            pointer analyses; when false, return the raw ``-O0``-style IR.
        pipeline_options: overrides for the preparation pipeline.
    """
    unit = Parser(tokenize(source)).parse_translation_unit()
    info = analyze(unit)
    module = lower_translation_unit(unit, name, info)
    if prepare:
        prepare_module(module, pipeline_options)
    return module
