"""Synthetic stand-ins for the paper's benchmark suites.

Figure 13 evaluates 22 programs drawn from three suites: MallocBench
(``cfrac``, ``espresso``, ``gs``), Prolangs (``allroots`` … ``unix-tbl``)
and PtrDist (``anagram``, ``bc``, ``ft``, ``ks``, ``yacr2``).  The original
C sources are not shipped here; instead each program name maps to a
deterministic synthetic program whose *size* is proportional to the query
count the paper reports for it and whose *idiom mix* reflects the suite's
character (allocator-heavy, string/struct-heavy, or pointer-structure-heavy).

See DESIGN.md §2 for why this substitution preserves the behaviours the
evaluation measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .generator import GeneratedProgram, GeneratorConfig, generate_module, stable_seed

__all__ = ["SuiteProgram", "SUITE_PROGRAMS", "suite_names", "select_programs",
           "build_program", "build_suite"]

#: Idiom mixes per suite.
_MALLOCBENCH_MIX = {
    "allocator": 4.0, "double_buffer": 3.0, "serialize": 2.0, "linked_list": 2.0,
    "string_scan": 1.0, "table_lookup": 1.0, "conditional_buffers": 2.0,
    "disjoint_tiles": 1.0, "off_by_one_window": 1.0,
}
_PROLANGS_MIX = {
    "struct_fields": 3.0, "string_scan": 3.0, "table_lookup": 2.0, "serialize": 2.0,
    "array_of_structs": 2.0, "strided": 1.0, "split_halves": 1.0, "matrix": 1.0,
    "local_scratch": 2.0, "bounded_walk": 1.0, "overlapping_shift": 1.0,
}
_PTRDIST_MIX = {
    "linked_list": 3.0, "array_of_structs": 3.0, "allocator": 2.0, "matrix": 2.0,
    "split_halves": 2.0, "struct_fields": 1.0, "strided": 1.0, "local_scratch": 1.0,
    "bounded_walk": 1.0, "disjoint_tiles": 1.0,
}


@dataclass(frozen=True)
class SuiteProgram:
    """One named benchmark program of the synthetic evaluation."""

    name: str
    suite: str
    #: Number of idiom instances; chosen so that relative program sizes track
    #: the relative query counts of Figure 13 (within a laptop-scale budget).
    instances: int
    #: Query count the paper reports for this program (for reference only).
    paper_queries: int

    def config(self) -> GeneratorConfig:
        mix = {"MallocBench": _MALLOCBENCH_MIX,
               "Prolangs": _PROLANGS_MIX,
               "PtrDist": _PTRDIST_MIX}[self.suite]
        # stable_seed, not the builtin hash: ``hash(str)`` varies with
        # PYTHONHASHSEED, which used to reshape the whole corpus per process.
        return GeneratorConfig(name=self.name, instances=self.instances,
                               seed=stable_seed(self.name, 10_000), mix=mix)


#: The 22 programs of Figure 13 with their paper query counts.
SUITE_PROGRAMS: List[SuiteProgram] = [
    SuiteProgram("cfrac", "MallocBench", 10, 89_255),
    SuiteProgram("espresso", "MallocBench", 26, 787_223),
    SuiteProgram("gs", "MallocBench", 24, 608_374),
    SuiteProgram("allroots", "Prolangs", 2, 974),
    SuiteProgram("archie", "Prolangs", 12, 159_051),
    SuiteProgram("assembler", "Prolangs", 8, 35_474),
    SuiteProgram("bison", "Prolangs", 11, 114_025),
    SuiteProgram("cdecl", "Prolangs", 16, 301_817),
    SuiteProgram("compiler", "Prolangs", 5, 9_515),
    SuiteProgram("fixoutput", "Prolangs", 3, 3_778),
    SuiteProgram("football", "Prolangs", 20, 495_119),
    SuiteProgram("gnugo", "Prolangs", 6, 13_519),
    SuiteProgram("loader", "Prolangs", 6, 13_782),
    SuiteProgram("plot2fig", "Prolangs", 7, 27_372),
    SuiteProgram("simulator", "Prolangs", 7, 25_591),
    SuiteProgram("unix-smail", "Prolangs", 9, 61_246),
    SuiteProgram("unix-tbl", "Prolangs", 10, 85_339),
    SuiteProgram("anagram", "PtrDist", 3, 3_114),
    SuiteProgram("bc", "PtrDist", 14, 198_674),
    SuiteProgram("ft", "PtrDist", 4, 7_660),
    SuiteProgram("ks", "PtrDist", 5, 14_377),
    SuiteProgram("yacr2", "PtrDist", 8, 38_262),
]


def suite_names() -> List[str]:
    return sorted({program.suite for program in SUITE_PROGRAMS})


def select_programs(names: Optional[Sequence[str]] = None,
                    max_programs: Optional[int] = None) -> List[SuiteProgram]:
    """The suite slice in canonical corpus order.

    Every experiment and the corpus manifest select through this helper,
    so their program order — and therefore their merged result order — is
    identical by construction.
    """
    selected = [program for program in SUITE_PROGRAMS
                if names is None or program.name in names]
    if max_programs is not None:
        selected = selected[:max_programs]
    return selected


def build_program(name: str) -> GeneratedProgram:
    """Generate and compile one named suite program."""
    for program in SUITE_PROGRAMS:
        if program.name == name:
            return generate_module(program.config())
    raise KeyError(f"unknown suite program {name!r}")


def build_suite(names: Optional[Sequence[str]] = None,
                max_programs: Optional[int] = None) -> Dict[str, GeneratedProgram]:
    """Generate and compile the whole synthetic evaluation suite.

    Args:
        names: restrict to these program names (default: all 22).
        max_programs: additionally cap the number of programs (useful for
            quick benchmark runs).
    """
    return {program.name: generate_module(program.config())
            for program in select_programs(names, max_programs)}
