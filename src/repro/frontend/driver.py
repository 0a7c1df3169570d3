"""One-call compilation driver: mini-C source text to analysis-ready IR.

The driver chains the explicit frontend stages (see
:mod:`repro.frontend.stages`): scan → parse → analyze → lower → prepare,
in one sequence, :func:`compile_bodies`.  Without a previous scan it
compiles every body; given the scan of the source an edit starts from, it
scans only the changed span and lowers and prepares only the bodies that
changed.  Either way it returns the new scan, which the next edit starts
from.  :func:`compile_source` is the whole-unit case's module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from ..ir.module import Module
from ..transforms.pipeline import PipelineOptions, prepare_module
from .lowering import lower_bodies
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
    return compile_bodies(source, name, prepare=prepare,
                          pipeline_options=pipeline_options).module


@dataclass
class BodyCompile:
    """A source compiled body by body (see :func:`compile_bodies`)."""

    #: Every global and every ``Function`` of the unit; only ``bodies`` have
    #: blocks, so ``is_declaration()`` is true for every skipped body.
    module: Module
    #: The scan of ``source``, which the next edit starts from.
    scan: UnitScan
    #: The lowered and prepared bodies, in module order.
    bodies: List[str]


def compile_bodies(source: str, name: str = "module",
                   previous: Optional[UnitScan] = None, *,
                   prepare: bool = True,
                   pipeline_options: Optional[PipelineOptions] = None,
                   ) -> BodyCompile:
    """Compile ``source``: every function body, or, when it is an edit of
    the source ``previous`` scanned, the bodies that differ from it.

    Given ``previous``, scan covers only the changed span of the source,
    and parse and analyze every body but the unchanged ones
    (:func:`parse_unit`).  Lowering and preparation (as for
    :func:`compile_source`) run only on the bodies
    :meth:`UnitDigests.changed_bodies` names, each exactly as a whole-unit
    compile gives it; every other body interns the string-literal lengths
    ``previous`` recorded for it.  A lowered body whose literal lengths
    differ from the recorded ones renumbers or retypes ``.str.N`` globals
    the skipped bodies use, so then the whole unit is compiled instead.
    The record holds the new scan, with each body's literal lengths, for
    the next edit.
    """
    unit, info, scan = parse_unit(source, previous)
    bodies = scan.digests.changed_bodies(previous and previous.digests)
    lowered = set(bodies)
    skipped = {body: previous.literals[body] for body in scan.digests.bodies
               if body not in lowered}
    module, literals = lower_bodies(unit, info, name, skipped)
    if skipped and any(literals[body] != previous.literals[body]
                       for body in bodies):
        return compile_bodies(source, name, prepare=prepare,
                              pipeline_options=pipeline_options)
    if prepare:
        prepare_module(module, pipeline_options)
    return BodyCompile(module, replace(scan, literals=literals), bodies)
