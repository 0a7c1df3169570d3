"""Plumbing shared by the interpreter-backed differential checks.

The soundness oracle (:mod:`repro.evaluation.soundness`) and the client
runner (:mod:`repro.evaluation.clients`) both execute a corpus program's
``main`` under the concrete interpreter and replay its observations against
analysis claims.  What they share lives here: the per-program record header
(:class:`ExecutedCheck`), the run that fills it (:func:`execute`) and the
corpus report base (:class:`DifferentialReport`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Tuple

from ..benchgen import GeneratorConfig, execution_inputs
from ..interp import ExecutionTrace, Interpreter, InterpreterLimits
from ..ir.module import Module

__all__ = ["ExecutedCheck", "DifferentialReport", "execute"]


@dataclass
class ExecutedCheck:
    """The header of one program's record: which program, and how its
    concrete execution went (pure data, picklable)."""

    program: str
    seed: int
    executed: bool = False
    stop_reason: Optional[str] = None
    steps: int = 0
    truncated: bool = False


def execute(check: ExecutedCheck, config: GeneratorConfig, module: Module,
            limits: Optional[InterpreterLimits] = None
            ) -> Tuple[ExecutionTrace, Dict[str, Any]]:
    """Run ``module``'s ``main`` on ``config``'s inputs, filling ``check``.

    Returns the trace and the replay dict every violation carries: the
    ``(program, seed, …)`` identity that regenerates the program and its
    inputs exactly.
    """
    inputs = execution_inputs(config)
    replay = {
        "program": config.name,
        "seed": config.seed,
        "instances": config.instances,
        "rng_key": config.rng_key,
        "mix": dict(sorted(config.mix.items())) if config.mix else None,
        "argv": inputs.argv(),
    }
    trace = Interpreter(module, limits=limits).run_main(inputs.argv())
    check.executed = trace.completed
    check.stop_reason = trace.stop_reason
    check.steps = trace.steps
    check.truncated = any(frame.truncated for frame in trace.frames)
    return trace, replay


@dataclass
class DifferentialReport:
    """Aggregated per-program checks over a corpus."""

    #: Per-check integer fields summed into the record's totals.
    SUMMED: ClassVar[Tuple[str, ...]] = ()

    checks: List[Any] = field(default_factory=list)

    def programs_executed(self) -> int:
        return sum(1 for check in self.checks if check.executed)

    def violations(self) -> List[Any]:
        return [violation for check in self.checks
                for violation in check.violations]

    def totals(self) -> Dict[str, int]:
        """The experiment's corpus totals (beyond programs and violations)."""
        return {name: sum(getattr(check, name) for check in self.checks)
                for name in self.SUMMED}

    def as_record(self, run_info: Optional[Dict[str, Any]] = None
                  ) -> Dict[str, Any]:
        totals = {"programs": len(self.checks),
                  "programs_executed": self.programs_executed(),
                  **self.totals(),
                  "violations": len(self.violations())}
        record: Dict[str, Any] = {
            "schema": 1,
            "programs": [asdict(check) for check in self.checks],
            "totals": totals,
        }
        if run_info is not None:
            record["run"] = dict(run_info)
        return record
