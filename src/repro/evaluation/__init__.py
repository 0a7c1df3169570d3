"""Evaluation harness: the experiments behind every table and figure.

Run them with ``python -m repro.evaluation <experiment>`` (see
:mod:`repro.evaluation.__main__`).
"""

from .ablation import ABLATION_VARIANTS, AblationVariant, format_ablation, run_ablation
from .census import CensusResult, census_for_module, format_census, run_census, total_census
from .harness import ProgramResult, QueryPair, enumerate_query_pairs, run_queries
from .precision import (
    PrecisionReport,
    figure13_rows,
    figure14_rows,
    format_figure13,
    format_figure14,
    run_precision_experiment,
    standard_factories,
)
from .parallel import (
    bench_record,
    compare_bench_files,
    map_shards,
    merge_indexed,
    partition,
    run_sharded,
    strip_volatile,
)
from .reporting import format_table, table_to_csv, to_canonical_json
from .scalability import (
    ScalabilityPoint,
    ScalabilityReport,
    format_figure15,
    measure_point,
    pearson_correlation,
    run_scalability_experiment,
    scalability_configs,
)

__all__ = [
    "ABLATION_VARIANTS",
    "AblationVariant",
    "format_ablation",
    "run_ablation",
    "CensusResult",
    "census_for_module",
    "format_census",
    "run_census",
    "total_census",
    "ProgramResult",
    "QueryPair",
    "enumerate_query_pairs",
    "run_queries",
    "PrecisionReport",
    "figure13_rows",
    "figure14_rows",
    "format_figure13",
    "format_figure14",
    "run_precision_experiment",
    "standard_factories",
    "format_table",
    "table_to_csv",
    "to_canonical_json",
    "bench_record",
    "compare_bench_files",
    "map_shards",
    "merge_indexed",
    "partition",
    "run_sharded",
    "strip_volatile",
    "ScalabilityPoint",
    "ScalabilityReport",
    "format_figure15",
    "measure_point",
    "pearson_correlation",
    "run_scalability_experiment",
    "scalability_configs",
]
