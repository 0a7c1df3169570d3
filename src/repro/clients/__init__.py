"""Client static analyses built on the reproduced RBAA infrastructure.

The paper motivates symbolic range analysis of pointers by its *clients*:
array bounds checking and disambiguating the memory accesses of loops.
This package holds those two whole-program client passes:

* :mod:`repro.clients.bounds` — classifies every load/store ``safe`` /
  ``maybe-oob`` / ``definitely-oob`` by comparing its symbolic offset
  interval + access size against the extents of the pointer's underlying
  objects;
* :mod:`repro.clients.parallelize` — reports natural loops whose
  cross-iteration memory accesses are provably disjoint;
* :mod:`repro.clients.validate` — the differential validator replaying
  interpreter-observed accesses against both passes' verdicts.

Both passes register behind typed analysis keys
(:data:`repro.engine.keys.BOUNDS`, :data:`repro.engine.keys.PARALLEL`),
take their inputs from the module's analysis manager (a function edit
evicts them, and the next request rebuilds them from the refreshed
inputs), and surface as the ``check_bounds`` / ``parallel_loops``
service ops.
"""

from .bounds import BoundsCheckAnalysis, SAFE, MAYBE_OOB, DEFINITELY_OOB
from .parallelize import LoopParallelismAnalysis
from .validate import ClientViolation, validate_bounds, validate_loops

__all__ = [
    "BoundsCheckAnalysis",
    "LoopParallelismAnalysis",
    "ClientViolation",
    "validate_bounds",
    "validate_loops",
    "SAFE",
    "MAYBE_OOB",
    "DEFINITELY_OOB",
]
