"""Unit tests for the integer symbolic range analysis and scalar evolution."""


from repro.frontend import compile_source
from repro.ir.instructions import BinaryInst, LoadInst, PhiInst, SigmaInst
from repro.rangeanalysis import RangeAnalysisOptions, ScalarEvolution, SymbolicRangeAnalysis
from repro.symbolic import Symbol


def find_value(function, name):
    for value in function.values():
        if value.name == name:
            return value
    raise AssertionError(f"no value named {name} in @{function.name}")


class TestSymbolicRangeAnalysis:
    def test_constant_has_point_range(self):
        module = compile_source("int f() { int x = 7; return x; }")
        analysis = SymbolicRangeAnalysis(module)
        fn = module.get_function("f")
        ret = fn.blocks[-1].terminator
        # x was folded into the return by mem2reg; the constant evaluates on demand.
        assert analysis.range_of(ret.value).lower.constant_value() == 7

    def test_argument_becomes_kernel_symbol(self):
        module = compile_source("int f(int n) { return n; }")
        analysis = SymbolicRangeAnalysis(module)
        n = module.get_function("f").args[0]
        interval = analysis.range_of(n)
        assert interval.lower == interval.upper
        assert isinstance(interval.lower, Symbol)
        assert "n" in interval.lower.name

    def test_addition_shifts_the_range(self):
        module = compile_source("int f(int n) { return n + 3; }")
        analysis = SymbolicRangeAnalysis(module)
        fn = module.get_function("f")
        add = next(i for i in fn.instructions() if isinstance(i, BinaryInst))
        n_symbol = analysis.range_of(fn.args[0]).lower
        assert analysis.range_of(add) .lower == n_symbol + 3

    def test_loop_counter_bounded_by_sigma(self):
        module = compile_source("""
        int f(int n) {
          int i; int total = 0;
          for (i = 0; i < n; i++) { total += i; }
          return total;
        }
        """)
        analysis = SymbolicRangeAnalysis(module)
        fn = module.get_function("f")
        # The sigma constraining i inside the loop body has upper bound n - 1.
        sigmas = [s for s in fn.instructions()
                  if isinstance(s, SigmaInst) and s.type.is_integer() and s.upper is not None]
        assert sigmas
        n_symbol = analysis.range_of(fn.args[0]).lower
        uppers = [analysis.range_of(s).upper for s in sigmas]
        assert any(upper == n_symbol - 1 for upper in uppers)

    def test_loop_counter_phi_gets_widened_then_narrowed(self):
        module = compile_source("""
        int f(int n) {
          int i; int total = 0;
          for (i = 0; i < n; i++) { total += 1; }
          return total;
        }
        """)
        analysis = SymbolicRangeAnalysis(module)
        fn = module.get_function("f")
        counter_phis = [p for p in fn.instructions()
                        if isinstance(p, PhiInst) and p.type.is_integer()
                        and p.name.startswith("i")]
        assert counter_phis
        interval = analysis.range_of(counter_phis[0])
        assert interval.lower.constant_value() == 0

    def test_external_call_result_is_a_symbol(self):
        module = compile_source("int f(char* s) { return strlen(s) + 1; }")
        analysis = SymbolicRangeAnalysis(module)
        fn = module.get_function("f")
        call = next(i for i in fn.instructions() if i.opcode == "call")
        interval = analysis.range_of(call)
        assert isinstance(interval.lower, Symbol)
        assert "strlen" in interval.lower.name

    def test_loads_as_symbols_option(self):
        source = "int f(int* p) { return p[0]; }"
        symbolic = SymbolicRangeAnalysis(compile_source(source))
        conservative = SymbolicRangeAnalysis(
            compile_source(source), RangeAnalysisOptions(loads_as_symbols=False))
        load_a = next(i for i in symbolic.module.get_function("f").instructions()
                      if isinstance(i, LoadInst))
        load_b = next(i for i in conservative.module.get_function("f").instructions()
                      if isinstance(i, LoadInst))
        assert isinstance(symbolic.range_of(load_a).lower, Symbol)
        assert conservative.range_of(load_b).is_top

    def test_unnamed_load_symbol_is_named_by_its_position(self):
        module = compile_source("int f(int* p) { return p[0] + p[1]; }")
        loads = [i for i in module.get_function("f").instructions()
                 if isinstance(i, LoadInst)]
        for load in loads:
            load.name = ""
        analysis = SymbolicRangeAnalysis(module)
        names = [analysis.range_of(load).lower.name for load in loads]
        block = loads[0].parent
        assert names == [f"f.load.{block.name}#{block.instructions.index(load)}"
                         for load in loads]

    def test_icmp_is_boolean_range(self):
        module = compile_source("int f(int a, int b) { return a < b; }")
        analysis = SymbolicRangeAnalysis(module)
        fn = module.get_function("f")
        cmp = next(i for i in fn.instructions() if i.opcode == "icmp")
        interval = analysis.range_of(cmp)
        assert interval.lower.constant_value() == 0
        assert interval.upper.constant_value() == 1

    def test_select_joins_both_arms(self):
        module = compile_source("int f(int c) { return c ? 3 : 10; }")
        analysis = SymbolicRangeAnalysis(module)
        fn = module.get_function("f")
        select = next(i for i in fn.instructions() if i.opcode == "select")
        interval = analysis.range_of(select)
        assert interval.lower.constant_value() == 3
        assert interval.upper.constant_value() == 10

    def test_remainder_bounded_by_modulus(self):
        module = compile_source("int f(int n) { return n % 8; }")
        analysis = SymbolicRangeAnalysis(module)
        fn = module.get_function("f")
        rem = next(i for i in fn.instructions() if i.opcode == "srem")
        interval = analysis.range_of(rem)
        assert interval.lower.constant_value() == -7
        assert interval.upper.constant_value() == 7

    def test_unknown_values_default_to_top(self):
        module = compile_source("int f(int a, int b) { return a * b; }")
        analysis = SymbolicRangeAnalysis(module)
        fn = module.get_function("f")
        mul = next(i for i in fn.instructions() if i.opcode == "mul")
        assert analysis.range_of(mul).is_top

    def test_kernel_symbols_are_collected(self):
        module = compile_source("int f(int n, char* s) { return n + strlen(s); }")
        analysis = SymbolicRangeAnalysis(module)
        names = {symbol.name for symbol in analysis.kernel_symbols()}
        assert any("f.n" in name for name in names)
        assert any("strlen" in name for name in names)


class TestScalarEvolution:
    def _loop_module(self):
        return compile_source("""
        void f(float* p, int n) {
          int i = 0;
          while (i < n) {
            p[i] = 0.0;
            p[i + 1] = 1.0;
            i += 2;
          }
        }
        """)

    def test_induction_variable_recurrence(self):
        module = self._loop_module()
        fn = module.get_function("f")
        engine = ScalarEvolution(fn)
        phi = next(i for i in fn.instructions()
                   if isinstance(i, PhiInst) and i.type.is_integer())
        recurrence = engine.evolution_of(phi)
        assert recurrence is not None
        assert recurrence.step == 2
        assert recurrence.offset == 0

    def test_pointer_recurrence_scales_by_element_size(self):
        module = self._loop_module()
        fn = module.get_function("f")
        engine = ScalarEvolution(fn)
        stores = [i for i in fn.instructions() if i.opcode == "store"]
        first = engine.evolution_of(stores[0].pointer)
        second = engine.evolution_of(stores[1].pointer)
        assert first is not None and second is not None
        assert first.step == 8 and second.step == 8  # 2 floats per iteration
        assert second.constant_distance_from(first) == 4

    def test_distance_requires_same_loop_and_step(self):
        module = compile_source("""
        void f(int* a, int* b, int n) {
          int i; int j;
          for (i = 0; i < n; i++) { a[i] = 0; }
          for (j = 0; j < n; j++) { b[j] = 0; }
        }
        """)
        fn = module.get_function("f")
        engine = ScalarEvolution(fn)
        stores = [i for i in fn.instructions() if i.opcode == "store"]
        first = engine.evolution_of(stores[0].pointer)
        second = engine.evolution_of(stores[1].pointer)
        assert first is not None and second is not None
        assert first.constant_distance_from(second) is None

    def test_non_affine_value_has_no_recurrence(self):
        module = compile_source("""
        void f(int* a, int n) {
          int i;
          for (i = 0; i < n; i = i * 2) { a[i] = 0; }
        }
        """)
        fn = module.get_function("f")
        engine = ScalarEvolution(fn)
        phi = next(i for i in fn.instructions()
                   if isinstance(i, PhiInst) and i.type.is_integer())
        assert engine.evolution_of(phi) is None

    def test_value_outside_any_loop_has_no_recurrence(self):
        module = compile_source("int f(int n) { return n + 1; }")
        fn = module.get_function("f")
        engine = ScalarEvolution(fn)
        add = next(i for i in fn.instructions() if i.opcode == "add")
        assert engine.evolution_of(add) is None

    def test_symbolic_loop_start_is_rejected_for_pointers(self):
        # i starts at an unknown symbolic value m: folding it to zero would be
        # unsound, so no recurrence is produced for the pointer.
        module = compile_source("""
        void f(int* a, int m, int n) {
          int i;
          for (i = m; i < n; i++) { a[i] = 0; }
        }
        """)
        fn = module.get_function("f")
        engine = ScalarEvolution(fn)
        store = next(i for i in fn.instructions() if i.opcode == "store")
        assert engine.evolution_of(store.pointer) is None

    def test_for_module_builds_an_engine_per_function(self):
        module = self._loop_module()
        engines = ScalarEvolution.for_module(module)
        assert set(engines) == set(module.defined_functions())
