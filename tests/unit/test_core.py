"""Unit tests for the paper's core: locations, MemLocs domain, GR, LR, queries."""


from repro.core import (
    BOTTOM,
    DisambiguationReason,
    GlobalAnalysisOptions,
    GlobalRangeAnalysis,
    LocalRangeAnalysis,
    LocationKind,
    LocationTable,
    PointerAbstractValue,
    RBAAAliasAnalysis,
    RBAAOptions,
    TOP,
    global_test,
    local_test,
)
from repro.core.locations import MemoryLocation
from repro.frontend import compile_source
from repro.ir.instructions import LoadInst, MallocInst, PhiInst, PtrAddInst, StoreInst
from repro.symbolic import SymbolicInterval, sym

N = sym("N")


def make_location(index, kind=LocationKind.HEAP):
    return MemoryLocation(index, kind, f"loc{index}")


class TestLocationTable:
    def test_discovers_allocation_sites_and_globals(self):
        module = compile_source("""
        int table[16];
        void f(int n) { char* p = (char*)malloc(n); int buf[4]; buf[0] = *p; }
        """)
        locations = LocationTable(module)
        kinds = [location.kind for location in locations.all_locations()]
        assert LocationKind.GLOBAL in kinds
        assert LocationKind.HEAP in kinds
        assert LocationKind.STACK in kinds
        assert len(locations.allocation_sites()) == len(locations)

    def test_location_for_site(self):
        module = compile_source("void f(int n) { char* p = (char*)malloc(n); }")
        locations = LocationTable(module)
        malloc = next(i for i in module.get_function("f").instructions()
                      if isinstance(i, MallocInst))
        location = locations.location_for_site(malloc)
        assert location is not None and location.kind is LocationKind.HEAP

    def test_parameter_and_unknown_locations_are_cached(self):
        module = compile_source("void f(char* p) { *p = 0; }")
        locations = LocationTable(module)
        argument = module.get_function("f").args[0]
        first = locations.ensure_parameter_location(argument)
        second = locations.ensure_parameter_location(argument)
        assert first is second and first.kind is LocationKind.PARAMETER

    def test_synthetic_locations_are_always_fresh(self):
        module = compile_source("void f() { }")
        locations = LocationTable(module)
        assert locations.new_synthetic_location("a") != locations.new_synthetic_location("a")

    def test_concrete_object_classification(self):
        assert make_location(0, LocationKind.HEAP).is_concrete_object()
        assert make_location(1, LocationKind.GLOBAL).is_concrete_object()
        assert not make_location(2, LocationKind.PARAMETER).is_concrete_object()
        assert not make_location(3, LocationKind.UNKNOWN).is_concrete_object()


class TestPointerAbstractValue:
    def test_bottom_and_top(self):
        assert BOTTOM.is_bottom and not BOTTOM.is_top
        assert TOP.is_top and not TOP.is_bottom
        assert BOTTOM.support() == ()

    def test_join_merges_supports(self):
        loc_a, loc_b = make_location(0), make_location(1)
        left = PointerAbstractValue({loc_a: SymbolicInterval(0, 3)})
        right = PointerAbstractValue({loc_b: SymbolicInterval(1, 2)})
        joined = left.join(right)
        assert set(joined.support()) == {loc_a, loc_b}

    def test_join_on_common_location_joins_intervals(self):
        loc = make_location(0)
        left = PointerAbstractValue({loc: SymbolicInterval(0, 3)})
        right = PointerAbstractValue({loc: SymbolicInterval(5, 9)})
        assert left.join(right).range_for(loc) == SymbolicInterval(0, 9)

    def test_join_with_bottom_and_top(self):
        loc = make_location(0)
        value = PointerAbstractValue({loc: SymbolicInterval(0, 3)})
        assert value.join(BOTTOM) == value
        assert value.join(TOP).is_top

    def test_widen_per_location(self):
        loc = make_location(0)
        old = PointerAbstractValue({loc: SymbolicInterval(0, 1)})
        new = PointerAbstractValue({loc: SymbolicInterval(0, 5)})
        widened = old.widen(new)
        assert widened.range_for(loc).upper.is_infinite()

    def test_widen_keeps_old_locations_first_then_new_ones(self):
        # Key order must not follow the hash order of location names.
        locs = [make_location(index) for index in range(6)]
        old = PointerAbstractValue({loc: SymbolicInterval(0, 1)
                                    for loc in locs[4::-2]})
        new = PointerAbstractValue({loc: SymbolicInterval(0, 1)
                                    for loc in locs[::-1]})
        assert list(old.widen(new)._ranges) == \
            [locs[4], locs[2], locs[0], locs[5], locs[3], locs[1]]

    def test_narrow_recovers_finite_bounds(self):
        loc = make_location(0)
        from repro.symbolic import POS_INF
        widened = PointerAbstractValue({loc: SymbolicInterval(0, POS_INF)})
        recomputed = PointerAbstractValue({loc: SymbolicInterval(0, N - 1)})
        assert widened.narrow(recomputed).range_for(loc) == SymbolicInterval(0, N - 1)

    def test_shift_moves_every_interval(self):
        loc_a, loc_b = make_location(0), make_location(1)
        value = PointerAbstractValue({loc_a: SymbolicInterval(0, 1),
                                      loc_b: SymbolicInterval(2, 3)})
        shifted = value.shift(SymbolicInterval.point(4))
        assert shifted.range_for(loc_a) == SymbolicInterval(4, 5)
        assert shifted.range_for(loc_b) == SymbolicInterval(6, 7)

    def test_meet_ranges_keeps_only_shared_locations(self):
        loc_a, loc_b = make_location(0), make_location(1)
        value = PointerAbstractValue({loc_a: SymbolicInterval(0, 10),
                                      loc_b: SymbolicInterval(0, 10)})
        bound = PointerAbstractValue({loc_a: SymbolicInterval(0, 4)})
        constrained = value.meet_ranges(bound, use_upper=True, adjust=-1)
        assert constrained.range_for(loc_a) == SymbolicInterval(0, 3)
        assert constrained.range_for(loc_b) is None

    def test_includes_is_pointwise(self):
        loc = make_location(0)
        big = PointerAbstractValue({loc: SymbolicInterval(0, 10)})
        small = PointerAbstractValue({loc: SymbolicInterval(2, 5)})
        assert big.includes(small)
        assert not small.includes(big)
        assert TOP.includes(big) and big.includes(BOTTOM)

    def test_symbolic_classification(self):
        loc = make_location(0)
        symbolic = PointerAbstractValue({loc: SymbolicInterval(0, N)})
        numeric = PointerAbstractValue({loc: SymbolicInterval(0, 8)})
        assert symbolic.has_symbolic_range()
        assert not numeric.has_symbolic_range()
        assert numeric.has_only_constant_ranges()
        assert not TOP.has_only_constant_ranges()


class TestQueries:
    def test_global_test_disjoint_ranges_on_shared_location(self):
        loc = make_location(0)
        a = PointerAbstractValue({loc: SymbolicInterval(0, N - 1)})
        b = PointerAbstractValue({loc: SymbolicInterval(N, N + 4)})
        outcome = global_test(a, b)
        assert outcome.no_alias
        assert outcome.reason is DisambiguationReason.GLOBAL_DISJOINT_RANGES

    def test_global_test_overlapping_ranges(self):
        loc = make_location(0)
        a = PointerAbstractValue({loc: SymbolicInterval(0, N)})
        b = PointerAbstractValue({loc: SymbolicInterval(N, N + 4)})
        assert not global_test(a, b).no_alias

    def test_global_test_distinct_concrete_objects(self):
        a = PointerAbstractValue({make_location(0): SymbolicInterval(0, 100)})
        b = PointerAbstractValue({make_location(1): SymbolicInterval(0, 100)})
        outcome = global_test(a, b)
        assert outcome.no_alias
        assert outcome.reason is DisambiguationReason.GLOBAL_DISTINCT_OBJECTS

    def test_global_test_parameter_objects_are_not_distinct(self):
        a = PointerAbstractValue({make_location(0, LocationKind.PARAMETER):
                                  SymbolicInterval(0, 1)})
        b = PointerAbstractValue({make_location(1): SymbolicInterval(0, 1)})
        assert not global_test(a, b).no_alias

    def test_global_test_accounts_for_access_size(self):
        loc = make_location(0)
        a = PointerAbstractValue({loc: SymbolicInterval(0, 0)})
        b = PointerAbstractValue({loc: SymbolicInterval(2, 2)})
        assert global_test(a, b, size_a=1, size_b=1).no_alias
        assert not global_test(a, b, size_a=4, size_b=4).no_alias

    def test_global_test_top_is_may_alias(self):
        loc = make_location(0)
        value = PointerAbstractValue({loc: SymbolicInterval(0, 1)})
        assert not global_test(TOP, value).no_alias
        assert not global_test(value, TOP).no_alias

    def test_local_test_same_base_disjoint_offsets(self):
        from repro.core import LocalAbstractValue
        base = make_location(9, LocationKind.SYNTHETIC)
        a = LocalAbstractValue(base, SymbolicInterval.point(0))
        b = LocalAbstractValue(base, SymbolicInterval.point(4))
        assert local_test(a, b, 4, 4).no_alias
        assert not local_test(a, b, 8, 4).no_alias

    def test_local_test_different_bases_is_may_alias(self):
        from repro.core import LocalAbstractValue
        a = LocalAbstractValue(make_location(1, LocationKind.SYNTHETIC),
                               SymbolicInterval.point(0))
        b = LocalAbstractValue(make_location(2, LocationKind.SYNTHETIC),
                               SymbolicInterval.point(100))
        assert not local_test(a, b).no_alias
        assert not local_test(None, b).no_alias


class TestGlobalRangeAnalysis:
    def test_malloc_result_points_at_its_site_with_zero_offset(self):
        module = compile_source("void f(int n) { char* p = (char*)malloc(n); *p = 0; }")
        analysis = GlobalRangeAnalysis(module)
        malloc = next(i for i in module.get_function("f").instructions()
                      if isinstance(i, MallocInst))
        state = analysis.value_of(malloc)
        assert len(state.support()) == 1
        interval = state.range_for(state.support()[0])
        assert interval == SymbolicInterval(0, 0)

    def test_pointer_plus_symbolic_scalar(self):
        module = compile_source("""
        void f(int n) { char* p = (char*)malloc(n); char* q = p + n; *q = 0; }
        """)
        analysis = GlobalRangeAnalysis(module)
        fn = module.get_function("f")
        adds = [i for i in fn.instructions() if isinstance(i, PtrAddInst)]
        state = analysis.value_of(adds[0])
        interval = state.range_for(state.support()[0])
        assert interval.lower == interval.upper
        assert interval.lower.symbols()  # symbolic, mentions n

    def test_loaded_pointer_is_top(self):
        module = compile_source("void f(char** pp) { char* p = *pp; *p = 0; }")
        analysis = GlobalRangeAnalysis(module)
        load = next(i for i in module.get_function("f").instructions()
                    if isinstance(i, LoadInst) and i.type.is_pointer())
        assert analysis.value_of(load).is_top

    def test_freed_pointer_is_bottom(self):
        module = compile_source("void f(int n) { char* p = (char*)malloc(n); free(p); }")
        analysis = GlobalRangeAnalysis(module)
        freed = next(i for i in module.get_function("f").instructions()
                     if i.opcode == "free")
        assert analysis.value_of(freed).is_bottom

    def test_interprocedural_binding_of_actuals_to_formals(self):
        module = compile_source("""
        void callee(char* q) { *q = 0; }
        void caller(int n) { char* p = (char*)malloc(n); callee(p + 2); }
        """)
        analysis = GlobalRangeAnalysis(module)
        callee = module.get_function("callee")
        state = analysis.value_of(callee.args[0])
        assert len(state.support()) == 1
        assert state.support()[0].kind is LocationKind.HEAP
        assert state.range_for(state.support()[0]) == SymbolicInterval(2, 2)

    def test_externally_visible_parameter_gets_pseudo_location(self):
        module = compile_source("void api(char* p) { *p = 0; }")
        analysis = GlobalRangeAnalysis(module)
        parameter = module.get_function("api").args[0]
        state = analysis.value_of(parameter)
        assert any(location.kind is LocationKind.PARAMETER for location in state.support())

    def test_intraprocedural_option_skips_binding(self):
        module = compile_source("""
        void callee(char* q) { *q = 0; }
        void caller(int n) { char* p = (char*)malloc(n); callee(p); }
        """)
        analysis = GlobalRangeAnalysis(
            module, options=GlobalAnalysisOptions(interprocedural=False))
        callee = module.get_function("callee")
        state = analysis.value_of(callee.args[0])
        assert all(location.kind is LocationKind.PARAMETER for location in state.support())

    def test_phi_joins_and_widening_terminates(self):
        module = compile_source("""
        void f(char* base, int n) {
          char* p = base;
          int i;
          for (i = 0; i < n; i++) { *p = 0; p = p + 1; }
        }
        """)
        analysis = GlobalRangeAnalysis(module)
        assert analysis.solver_statistics.max_node_evaluations <= 6

    def test_trace_is_recorded_when_requested(self):
        module = compile_source("void f(int n) { char* p = (char*)malloc(n); *p = 0; }")
        analysis = GlobalRangeAnalysis(module, options=GlobalAnalysisOptions(track_trace=True))
        labels = [label for label, _ in analysis.trace()]
        assert "starting state" in labels
        assert "after widening" in labels
        assert any(label.startswith("descending") for label in labels)

    def test_unknown_external_pointer_gets_unknown_location(self):
        module = compile_source("""
        char* getenv(char* name);
        void f() { char* home = getenv("HOME"); *home = 0; }
        """)
        analysis = GlobalRangeAnalysis(module)
        call = next(i for i in module.get_function("f").instructions()
                    if i.opcode == "call" and i.type.is_pointer())
        state = analysis.value_of(call)
        assert state.support() and state.support()[0].kind is LocationKind.UNKNOWN


class TestLocalRangeAnalysis:
    def test_phi_defines_a_fresh_location(self):
        module = compile_source("""
        void f(char* base, int n) {
          char* p = base;
          int i;
          for (i = 0; i < n; i++) { *p = 0; p = p + 1; }
        }
        """)
        analysis = LocalRangeAnalysis(module)
        phi = next(i for i in module.get_function("f").instructions()
                   if isinstance(i, PhiInst) and i.type.is_pointer())
        state = analysis.value_of(phi)
        assert state.location.kind is LocationKind.SYNTHETIC
        assert state.interval == SymbolicInterval(0, 0)

    def test_constant_offsets_accumulate_from_the_same_base(self):
        module = compile_source("""
        void f(char* p) { *(p + 4) = 1; *(p + 8) = 2; }
        """)
        analysis = LocalRangeAnalysis(module)
        stores = [i for i in module.get_function("f").instructions()
                  if isinstance(i, StoreInst)]
        first = analysis.value_of(stores[0].pointer)
        second = analysis.value_of(stores[1].pointer)
        assert first.location is second.location
        assert first.interval == SymbolicInterval(4, 4)
        assert second.interval == SymbolicInterval(8, 8)

    def test_varying_index_shares_a_base_per_root_index(self):
        module = compile_source("""
        void f(int* a, int i) { a[i] = 0; a[i + 1] = 1; }
        """)
        analysis = LocalRangeAnalysis(module)
        stores = [inst for inst in module.get_function("f").instructions()
                  if isinstance(inst, StoreInst)]
        first = analysis.value_of(stores[0].pointer)
        second = analysis.value_of(stores[1].pointer)
        assert first.location is second.location
        assert second.interval == SymbolicInterval(4, 4)

    def test_loads_define_fresh_locations(self):
        module = compile_source("void f(char** pp) { char* p = *pp; *p = 0; }")
        analysis = LocalRangeAnalysis(module)
        load = next(i for i in module.get_function("f").instructions()
                    if isinstance(i, LoadInst) and i.type.is_pointer())
        assert analysis.value_of(load).location.kind is LocationKind.SYNTHETIC

    def test_non_pointer_values_have_no_state(self):
        module = compile_source("int f(int a) { return a + 1; }")
        analysis = LocalRangeAnalysis(module)
        assert analysis.value_of(module.get_function("f").args[0]) is None


class TestRBAA:
    def test_same_pointer_must_alias(self):
        module = compile_source("void f(char* p) { *p = 0; }")
        rbaa = RBAAAliasAnalysis(module)
        p = module.get_function("f").args[0]
        assert str(rbaa.alias_pointers(p, p)) == "must-alias"

    def test_statistics_distinguish_global_local_and_objects(self):
        module = compile_source("""
        void f(int n) {
          char* a = (char*)malloc(n);
          char* b = (char*)malloc(n);
          char* lo = a;
          char* hi = a + n;
          a[0] = 0;
          b[0] = 0;
        }
        """)
        rbaa = RBAAAliasAnalysis(module)
        fn = module.get_function("f")
        pointers = fn.pointer_values()
        for i in range(len(pointers)):
            for j in range(i + 1, len(pointers)):
                rbaa.alias_pointers(pointers[i], pointers[j])
        stats = rbaa.statistics
        assert stats.queries > 0
        assert stats.no_alias > 0
        assert stats.answered_by_distinct_objects > 0
        assert stats.no_alias >= (stats.answered_by_global + stats.answered_by_local
                                  + stats.answered_by_distinct_objects)

    def test_disabling_tests_reduces_precision(self):
        source = """
        void accelerate(float* p, float x, float y, int n) {
          int i = 0;
          while (i < n) { p[i] += x; p[i + 1] += y; i += 2; }
        }
        """
        module_full = compile_source(source)
        module_global = compile_source(source)
        full = RBAAAliasAnalysis(module_full)
        global_only = RBAAAliasAnalysis(module_global, RBAAOptions(enable_local_test=False))

        def count(analysis, module):
            fn = module.get_function("accelerate")
            pointers = fn.pointer_values()
            return sum(analysis.no_alias(pointers[i], pointers[j])
                       for i in range(len(pointers)) for j in range(i + 1, len(pointers)))

        assert count(full, module_full) > count(global_only, module_global)
