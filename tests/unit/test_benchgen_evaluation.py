"""Unit tests for the benchmark generator, suites and evaluation harness."""

import random

import pytest

from repro.benchgen import (
    GeneratorConfig,
    IDIOMS,
    SUITE_PROGRAMS,
    build_program,
    compile_figure1,
    compile_figure3,
    compile_figure10,
    generate_module,
    generate_source,
    get_idiom,
    idiom_names,
    suite_names,
)
from repro.core import RBAAAliasAnalysis
from repro.aliases import BasicAliasAnalysis
from repro.evaluation import (
    census_for_module,
    enumerate_query_pairs,
    format_table,
    pearson_correlation,
    run_queries,
    table_to_csv,
)
from repro.frontend import compile_source
from repro.ir import verify_module


class TestIdioms:
    def test_registry_lookup(self):
        assert "serialize" in idiom_names()
        assert get_idiom("strided").name == "strided"
        with pytest.raises(KeyError):
            get_idiom("nope")

    @pytest.mark.parametrize("idiom", IDIOMS, ids=lambda i: i.name)
    def test_every_idiom_compiles_standalone(self, idiom):
        """Each idiom template must produce valid mini-C that survives the pipeline."""
        source = idiom.render(0, random.Random(0)) + f"""
        int main(int argc, char** argv) {{
          int n = atoi(argv[1]);
          char* bytes = (char*)malloc(n);
          char* text = argv[2];
          int* ints = (int*)malloc(n * 4);
          float* floats = (float*)malloc(n * 4);
          double* doubles = (double*)malloc(n * 8);
          {idiom.call(0)}
          return 0;
        }}
        """
        module = compile_source(source, f"idiom_{idiom.name}")
        assert verify_module(module) == []
        assert module.instruction_count() > 0


class TestGenerator:
    def test_generation_is_deterministic(self):
        config = GeneratorConfig(name="det", instances=6, seed=11)
        assert generate_source(config) == generate_source(config)

    def test_different_seeds_differ(self):
        first = generate_source(GeneratorConfig(name="a", instances=6, seed=1))
        second = generate_source(GeneratorConfig(name="a", instances=6, seed=2))
        assert first != second

    def test_generated_module_verifies_and_scales(self):
        small = generate_module(GeneratorConfig(name="small", instances=3, seed=5))
        large = generate_module(GeneratorConfig(name="large", instances=12, seed=5))
        assert verify_module(small.module) == []
        assert verify_module(large.module) == []
        assert large.module.instruction_count() > small.module.instruction_count()
        assert large.module.pointer_count() > small.module.pointer_count()

    def test_mix_restricts_idioms(self):
        config = GeneratorConfig(name="mixed", instances=8, seed=0,
                                 mix={"allocator": 1.0})
        source = generate_source(config)
        assert "pool_alloc_" in source
        assert "serialize_" not in source


class TestSuites:
    def test_suite_covers_the_papers_programs(self):
        names = {program.name for program in SUITE_PROGRAMS}
        assert {"cfrac", "espresso", "gs", "bc", "yacr2", "allroots"} <= names
        assert len(SUITE_PROGRAMS) == 22
        assert suite_names() == ["MallocBench", "Prolangs", "PtrDist"]

    def test_program_sizes_track_paper_query_counts(self):
        by_name = {program.name: program for program in SUITE_PROGRAMS}
        assert by_name["espresso"].instances > by_name["allroots"].instances
        assert by_name["gs"].instances > by_name["anagram"].instances

    def test_build_program(self):
        program = build_program("allroots")
        assert program.name == "allroots"
        assert verify_module(program.module) == []
        with pytest.raises(KeyError):
            build_program("not-a-benchmark")


class TestPaperPrograms:
    def test_figures_compile(self):
        for module in (compile_figure1(), compile_figure3(), compile_figure10()):
            assert verify_module(module) == []
        assert compile_figure1().get_function("prepare") is not None
        assert compile_figure3().get_function("accelerate") is not None


class TestEvaluationHarness:
    def _small_module(self):
        return compile_source("""
        void f(int n) {
          char* a = (char*)malloc(n);
          char* b = (char*)malloc(n);
          a[0] = 0; b[0] = 1;
        }
        """)

    def test_enumerate_query_pairs_counts(self):
        module = self._small_module()
        pairs = list(enumerate_query_pairs(module))
        pointers = module.get_function("f").pointer_values()
        assert len(pairs) == len(pointers) * (len(pointers) - 1) // 2
        capped = list(enumerate_query_pairs(module, max_pairs_per_function=3))
        assert len(capped) == 3

    def test_run_queries_produces_counts_and_timings(self):
        module = self._small_module()
        result = run_queries("tiny", module,
                             [("rbaa", lambda m, manager: RBAAAliasAnalysis(m, manager=manager)),
                              ("basic", lambda m, manager: BasicAliasAnalysis(m))])
        assert result.queries > 0
        assert set(result.no_alias) == {"rbaa", "basic"}
        assert result.no_alias["rbaa"] >= result.no_alias["basic"] > 0
        assert result.percentage("rbaa") <= 100.0
        assert "answered_by_global" in result.extra["rbaa"]

    def test_census_classifies_pointers(self):
        module = compile_source("""
        void f(int n) {
          char* p = (char*)malloc(n);
          char* q = p + n;      /* symbolic offset */
          char* r = p + 4;      /* constant offset */
          *q = 0; *r = 1;
        }
        """)
        census = census_for_module("tiny", module)
        assert census.pointers >= 3
        assert census.symbolic >= 1
        assert census.numeric_only >= 1
        assert 0.0 <= census.symbolic_percentage() <= 100.0

    def test_pearson_correlation(self):
        assert pearson_correlation([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
        assert pearson_correlation([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)
        assert pearson_correlation([1, 1, 1], [1, 2, 3]) == 0.0
        assert pearson_correlation([1], [1]) == 0.0

    def test_reporting_formats(self):
        table = format_table(["Name", "Value"], [["a", 1], ["bb", 22]], title="T")
        assert "Name" in table and "bb" in table and table.startswith("T")
        csv_text = table_to_csv(["Name", "Value"], [["a", 1]])
        assert csv_text.splitlines()[0] == "Name,Value"
