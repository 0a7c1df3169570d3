"""One-call compilation driver: mini-C source text to analysis-ready IR.

The driver chains the explicit frontend stages (see
:mod:`repro.frontend.stages`): scan → parse → analyze → lower → prepare.
:func:`compile_source` runs them over a whole unit; :func:`compile_bodies`
is the edit path, which lowers and prepares only the bodies that changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..ir.module import Module
from ..transforms.pipeline import PipelineOptions, prepare_module
from .cparser import Parser
from .lexer import tokenize
from .lowering import lower_translation_unit
from .sema import SemanticInfo, analyze
from .stages import UnitScan, parse_unit

__all__ = ["BodyCompile", "compile_bodies", "compile_source"]


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


@dataclass
class BodyCompile:
    """An edited source compiled body by body (see :func:`compile_bodies`)."""

    #: Every global and every ``Function`` of the unit; only ``bodies`` have
    #: blocks, so ``is_declaration()`` is true for every skipped body.
    module: Module
    info: SemanticInfo
    #: The scan of ``source``, which the next edit starts from.
    scan: UnitScan
    #: The lowered and prepared bodies, in module order.
    bodies: List[str]


def compile_bodies(source: str, name: str, previous: UnitScan) -> BodyCompile:
    """Compile the function bodies of ``source``, an edit of the source
    ``previous`` scanned, that differ from it.

    Scan covers only the changed span of the source, parse and analyze
    every body but the unchanged ones (:func:`parse_unit`).  Lowering and
    the standard preparation pipeline run only on the bodies
    :meth:`UnitDigests.changed_bodies` names, and each comes out exactly as
    :func:`compile_source` would give it.  The returned record holds the
    new scan, for the edit after this one.
    """
    unit, info, scan = parse_unit(source, previous)
    bodies = scan.digests.changed_bodies(previous.digests)
    module = lower_translation_unit(unit, name, info, bodies,
                                    scan.digests.literals)
    prepare_module(module)
    return BodyCompile(module, info, scan, bodies)
