"""Unit tests for the IR transforms: mem2reg, e-SSA, region renaming, simplify."""


from repro.frontend import compile_source
from repro.ir import (
    ConstantInt,
    FunctionType,
    INT32,
    IRBuilder,
    Module,
    PointerType,
    INT8,
    VOID,
    verify_module,
)
from repro.ir.instructions import (
    AllocaInst,
    BinaryInst,
    LoadInst,
    PhiInst,
    PtrAddInst,
    SigmaInst,
    StoreInst,
)
from repro.transforms import (
    PipelineOptions,
    build_essa_function,
    canonical_bases,
    eliminate_dead_code_in_function,
    fold_constants_in_function,
    is_promotable,
    prepare_module,
    promote_allocas_in_function,
    rename_region_pointers_in_function,
    simplify_module,
    split_critical_edges,
)


def compile_raw(source: str):
    """Compile without running the preparation pipeline."""
    return compile_source(source, prepare=False)


class TestMem2Reg:
    def test_scalar_slot_is_promotable(self):
        module = compile_raw("int f(int n) { int x = n + 1; return x; }")
        fn = module.get_function("f")
        allocas = [inst for inst in fn.instructions() if isinstance(inst, AllocaInst)]
        assert allocas and all(is_promotable(a) for a in allocas)

    def test_array_slot_is_not_promotable(self):
        module = compile_raw("int f(int n) { int buf[8]; buf[0] = n; return buf[0]; }")
        fn = module.get_function("f")
        arrays = [inst for inst in fn.instructions()
                  if isinstance(inst, AllocaInst) and inst.allocated_type.is_aggregate()]
        assert arrays and not any(is_promotable(a) for a in arrays)

    def test_escaping_slot_is_not_promotable(self):
        module = compile_raw("""
        void sink(int* p);
        int f(int n) { int x = n; sink(&x); return x; }
        """)
        fn = module.get_function("f")
        slot = next(inst for inst in fn.instructions()
                    if isinstance(inst, AllocaInst) and inst.name.startswith("x"))
        assert not is_promotable(slot)

    def test_promotion_removes_loads_and_stores(self):
        module = compile_raw("int f(int n) { int x = 0; x = n + 2; return x; }")
        fn = module.get_function("f")
        promoted = promote_allocas_in_function(fn)
        assert promoted >= 1
        remaining = [inst for inst in fn.instructions()
                     if isinstance(inst, (LoadInst, StoreInst))]
        assert remaining == []
        verify_module(module)

    def test_promotion_inserts_phi_for_branchy_assignment(self):
        module = compile_raw("""
        int f(int n) {
          int x;
          if (n > 0) { x = 1; } else { x = 2; }
          return x;
        }
        """)
        fn = module.get_function("f")
        promote_allocas_in_function(fn)
        phis = [inst for inst in fn.instructions() if isinstance(inst, PhiInst)]
        assert len(phis) == 1
        assert {v.value for v in phis[0].operands if isinstance(v, ConstantInt)} == {1, 2}

    def test_loop_counter_gets_phi(self):
        module = compile_raw("""
        int f(int n) {
          int i; int total = 0;
          for (i = 0; i < n; i++) { total = total + i; }
          return total;
        }
        """)
        fn = module.get_function("f")
        promote_allocas_in_function(fn)
        verify_module(module)
        phis = [inst for inst in fn.instructions() if isinstance(inst, PhiInst)]
        assert len(phis) >= 2  # i and total


class TestESSA:
    def test_sigma_inserted_on_both_edges(self):
        module = compile_raw("int f(int a, int b) { if (a < b) { return a; } return b; }")
        fn = module.get_function("f")
        promote_allocas_in_function(fn)
        created = build_essa_function(fn)
        assert created >= 2
        sigmas = [inst for inst in fn.instructions() if isinstance(inst, SigmaInst)]
        # Both operands of the compare are constrained on both edges.
        assert len(sigmas) == 4
        verify_module(module)

    def test_sigma_bounds_encode_the_comparison(self):
        module = compile_raw("int f(int a, int b) { if (a < b) { return a; } return b; }")
        fn = module.get_function("f")
        promote_allocas_in_function(fn)
        build_essa_function(fn)
        upper_constrained = [s for s in fn.instructions()
                             if isinstance(s, SigmaInst) and s.upper is not None
                             and s.upper_adjust == -1]
        lower_constrained = [s for s in fn.instructions()
                             if isinstance(s, SigmaInst) and s.lower is not None
                             and s.lower_adjust == +1]
        assert upper_constrained and lower_constrained

    def test_dominated_uses_are_rewritten(self):
        module = compile_raw("""
        int f(int a, int b) {
          int r = 0;
          if (a < b) { r = a + 1; }
          return r;
        }
        """)
        fn = module.get_function("f")
        promote_allocas_in_function(fn)
        build_essa_function(fn)
        # The a + 1 in the guarded block must use the sigma, not the raw argument.
        adds = [inst for inst in fn.instructions()
                if isinstance(inst, BinaryInst) and inst.opcode == "add"
                and isinstance(inst.rhs, ConstantInt) and inst.rhs.value == 1]
        assert adds and isinstance(adds[0].lhs, SigmaInst)

    def test_equality_branch_gets_point_constraint(self):
        module = compile_raw("int f(int a, int b) { if (a == b) { return a; } return 0; }")
        fn = module.get_function("f")
        promote_allocas_in_function(fn)
        build_essa_function(fn)
        sigmas = [s for s in fn.instructions() if isinstance(s, SigmaInst)]
        both_bounds = [s for s in sigmas if s.lower is not None and s.upper is not None]
        assert both_bounds

    def test_critical_edge_splitting(self):
        module = compile_raw("""
        int f(int a, int b) {
          int r = 0;
          while (a < b) { a = a + 1; }
          return a;
        }
        """)
        fn = module.get_function("f")
        promote_allocas_in_function(fn)
        blocks_before = len(fn.blocks)
        split = split_critical_edges(fn)
        assert len(fn.blocks) == blocks_before + split
        verify_module(module)

    def test_pipeline_runs_all_stages(self):
        module = compile_raw("int f(int a, int b) { if (a < b) { return a; } return b; }")
        result = prepare_module(module)
        assert result.promoted_allocas >= 1
        assert result.sigmas_created >= 2
        assert result.stages_run == ["mem2reg", "simplify", "essa", "verify"]

    def test_pipeline_options_disable_stages(self):
        module = compile_raw("int f(int a, int b) { if (a < b) { return a; } return b; }")
        result = prepare_module(module, PipelineOptions(build_essa=False))
        assert result.sigmas_created == 0
        assert result.stages_run == ["mem2reg", "simplify", "verify"]


class TestRegionRename:
    def _function_with_two_indexed_stores(self):
        module = Module("m")
        fn = module.create_function(
            "f", FunctionType(VOID, [PointerType(INT8), INT32]), ["p", "i"])
        entry = fn.append_block("entry")
        builder = IRBuilder(entry)
        p, i = fn.args
        first = builder.ptradd(p, i, scale=4, offset=0, name="a0")
        second = builder.ptradd(p, i, scale=4, offset=4, name="a1")
        builder.store(ConstantInt(1), first)
        builder.store(ConstantInt(2), second)
        builder.ret()
        return module, fn

    def test_offsets_share_a_canonical_base(self):
        module, fn = self._function_with_two_indexed_stores()
        created = rename_region_pointers_in_function(fn)
        assert created == 0  # the zero-offset ptradd already is the canonical base
        bases = canonical_bases(fn)
        assert len(bases) == 1
        # The +4 computation is now expressed as canonical base + 4.
        rewritten = [inst for inst in fn.instructions()
                     if isinstance(inst, PtrAddInst) and inst.index is None and inst.offset == 4]
        assert rewritten and rewritten[0].base is bases[0]
        verify_module(module)

    def test_canonical_base_created_when_missing(self):
        module = Module("m")
        fn = module.create_function(
            "f", FunctionType(VOID, [PointerType(INT8), INT32]), ["p", "i"])
        entry = fn.append_block("entry")
        builder = IRBuilder(entry)
        p, i = fn.args
        only = builder.ptradd(p, i, scale=2, offset=6, name="a")
        builder.store(ConstantInt(0), only)
        builder.ret()
        created = rename_region_pointers_in_function(fn)
        assert created == 1
        assert len(canonical_bases(fn)) == 1
        verify_module(module)


class TestSimplify:
    def test_constant_folding(self):
        module = Module("m")
        fn = module.create_function("f", FunctionType(INT32, []), [])
        entry = fn.append_block("entry")
        builder = IRBuilder(entry)
        summed = builder.add(ConstantInt(2), ConstantInt(3))
        doubled = builder.mul(summed, ConstantInt(4))
        builder.ret(doubled)
        folds = fold_constants_in_function(fn)
        assert folds == 2
        ret = fn.blocks[0].terminator
        assert isinstance(ret.value, ConstantInt) and ret.value.value == 20

    def test_identity_folding(self):
        module = Module("m")
        fn = module.create_function("f", FunctionType(INT32, [INT32]), ["n"])
        entry = fn.append_block("entry")
        builder = IRBuilder(entry)
        same = builder.add(fn.args[0], ConstantInt(0))
        builder.ret(same)
        fold_constants_in_function(fn)
        assert fn.blocks[0].terminator.value is fn.args[0]

    def test_icmp_folding(self):
        module = Module("m")
        fn = module.create_function("f", FunctionType(INT32, []), [])
        entry = fn.append_block("entry")
        builder = IRBuilder(entry)
        cmp = builder.icmp("slt", ConstantInt(1), ConstantInt(2))
        builder.ret(cmp)
        fold_constants_in_function(fn)
        assert fn.blocks[0].terminator.value.value == 1

    def test_dead_code_elimination(self):
        module = Module("m")
        fn = module.create_function("f", FunctionType(INT32, [INT32]), ["n"])
        entry = fn.append_block("entry")
        builder = IRBuilder(entry)
        builder.add(fn.args[0], ConstantInt(1))  # dead
        builder.mul(fn.args[0], ConstantInt(2))  # dead
        builder.ret(fn.args[0])
        removed = eliminate_dead_code_in_function(fn)
        assert removed == 2
        assert fn.instruction_count() == 1

    def test_dce_preserves_side_effects(self):
        module = compile_raw("""
        void f(char* p, int n) { *p = n; malloc(n); }
        """)
        fn = module.get_function("f")
        eliminate_dead_code_in_function(fn)
        stores = [inst for inst in fn.instructions() if isinstance(inst, StoreInst)]
        mallocs = [inst for inst in fn.instructions() if inst.opcode == "malloc"]
        assert stores and mallocs

    def test_simplify_module_runs_everywhere(self):
        module = compile_raw("""
        int a() { return 1 + 2; }
        int b() { return 3 * 0; }
        """)
        assert simplify_module(module) >= 2
