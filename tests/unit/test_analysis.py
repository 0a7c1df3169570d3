"""Unit tests for CFG analyses: orderings, dominance, loops, call graph."""


from repro.analysis import CallGraph
from repro.frontend import compile_source
from repro.ir import ConstantInt, FunctionType, INT32, IRBuilder, Module, VOID
from repro.ir.instructions import CallInst, PtrAddInst
from repro.transforms.mem2reg import _dominance_frontiers


def build_diamond():
    """entry -> (left | right) -> merge, with a loop around merge->header."""
    module = Module("diamond")
    fn = module.create_function("f", FunctionType(VOID, [INT32]), ["n"])
    entry = fn.append_block("entry")
    left = fn.append_block("left")
    right = fn.append_block("right")
    merge = fn.append_block("merge")
    builder = IRBuilder(entry)
    cond = builder.icmp("slt", fn.args[0], ConstantInt(0))
    builder.cond_branch(cond, left, right)
    IRBuilder(left).branch(merge)
    IRBuilder(right).branch(merge)
    IRBuilder(merge).ret()
    return module, fn, (entry, left, right, merge)


def build_loop():
    module = Module("loop")
    fn = module.create_function("f", FunctionType(VOID, [INT32]), ["n"])
    entry = fn.append_block("entry")
    header = fn.append_block("header")
    body = fn.append_block("body")
    exit_block = fn.append_block("exit")
    builder = IRBuilder(entry)
    builder.branch(header)
    builder.position_at_end(header)
    phi = builder.phi(INT32, "i")
    phi.add_incoming(ConstantInt(0), entry)
    cond = builder.icmp("slt", phi, fn.args[0])
    builder.cond_branch(cond, body, exit_block)
    builder.position_at_end(body)
    next_value = builder.add(phi, ConstantInt(1))
    phi.add_incoming(next_value, body)
    builder.branch(header)
    IRBuilder(exit_block).ret()
    return module, fn, (entry, header, body, exit_block)


class TestOrderings:
    def test_reverse_post_order_starts_at_entry(self):
        _, fn, (entry, left, right, merge) = build_diamond()
        rpo = fn.cfg().rpo
        assert rpo[0] is entry
        assert rpo[-1] is merge
        assert set(rpo) == {entry, left, right, merge}

    def test_post_order_is_reverse_of_rpo(self):
        _, fn, _ = build_diamond()
        cfg = fn.cfg()
        post_order = list(reversed(cfg.rpo))
        for block in post_order:  # acyclic: every successor finishes first
            for successor in cfg.successors[block]:
                assert post_order.index(successor) < post_order.index(block)

    def test_unreachable_blocks_excluded(self):
        module, fn, blocks = build_diamond()
        dead = fn.append_block("dead")
        IRBuilder(dead).ret()
        assert dead not in fn.cfg().rpo

    def test_predecessor_map(self):
        _, fn, (entry, left, right, merge) = build_diamond()
        preds = fn.cfg().predecessors
        assert set(preds[merge]) == {left, right}
        assert preds[entry] == []



class TestDominance:
    def test_entry_dominates_everything(self):
        _, fn, (entry, left, right, merge) = build_diamond()
        dom = fn.cfg().dom_tree
        for block in (entry, left, right, merge):
            assert dom.dominates(entry, block)

    def test_branches_do_not_dominate_merge(self):
        _, fn, (entry, left, right, merge) = build_diamond()
        dom = fn.cfg().dom_tree
        assert not dom.dominates(left, merge)
        assert not dom.dominates(right, merge)
        assert dom.idom(merge) is entry

    def test_children_and_depth(self):
        _, fn, (entry, left, right, merge) = build_diamond()
        dom = fn.cfg().dom_tree
        assert set(dom.children(entry)) == {left, right, merge}
        assert dom.depth(entry) == 0
        assert dom.depth(left) == 1

    def test_preorder_visits_parents_before_children(self):
        _, fn, (entry, header, body, exit_block) = build_loop()
        dom = fn.cfg().dom_tree
        order = list(dom.preorder())
        assert order.index(entry) < order.index(header) < order.index(body)

    def test_dominance_frontiers_of_diamond(self):
        _, fn, (entry, left, right, merge) = build_diamond()
        frontiers = _dominance_frontiers(fn.cfg())
        assert frontiers[left] == {merge}
        assert frontiers[right] == {merge}
        assert frontiers[entry] == set()

    def test_dominance_frontier_of_loop_header(self):
        _, fn, (entry, header, body, exit_block) = build_loop()
        frontiers = _dominance_frontiers(fn.cfg())
        assert header in frontiers[body]
        assert header in frontiers[header]


class TestLoops:
    def test_loop_detection(self):
        _, fn, (entry, header, body, exit_block) = build_loop()
        loops = fn.cfg().loops
        assert len(loops) == 1
        loop = loops.loops[0]
        assert loop.header is header
        assert loop.blocks == {header, body}
        assert loop.latches == [body]
        assert loop.depth() == 1

    def test_loop_for_block(self):
        _, fn, (entry, header, body, exit_block) = build_loop()
        loops = fn.cfg().loops
        assert loops.loop_for_block(body) is loops.loops[0]
        assert loops.loop_for_block(exit_block) is None
        assert loops.loop_for_block(entry) is None
        assert loops.loop_for_block(body).depth() == 1

    def test_header_phis(self):
        _, fn, (entry, header, body, exit_block) = build_loop()
        loops = fn.cfg().loops
        assert len(loops.loops[0].header_phis()) == 1

    def test_nested_loops_from_source(self):
        module = compile_source("""
        void nested(int* a, int n) {
          int i; int j;
          for (i = 0; i < n; i++) {
            for (j = 0; j < n; j++) {
              a[i * n + j] = i + j;
            }
          }
        }
        """)
        fn = module.get_function("nested")
        loops = fn.cfg().loops
        assert len(loops) == 2
        depths = sorted(loop.depth() for loop in loops)
        assert depths == [1, 2]
        assert sum(1 for loop in loops if loop.parent is None) == 1

    def test_no_loops_in_diamond(self):
        _, fn, _ = build_diamond()
        assert len(fn.cfg().loops) == 0


class TestCallGraph:
    SOURCE = """
    int helper(int* p) { return p[0]; }
    int middle(int* p) { return helper(p); }
    int lonely(int n) { return n + 1; }
    int main(int argc, char** argv) {
      int data[4];
      return middle(data) + helper(data);
    }
    """

    def test_edges(self):
        module = compile_source(self.SOURCE)
        graph = CallGraph(module)
        helper = module.get_function("helper")
        middle = module.get_function("middle")
        main = module.get_function("main")
        assert helper in graph.callees(middle)
        assert set(graph.callers(helper)) == {middle, main}
        assert graph.callees(helper) == []

    def test_call_sites_and_bindings(self):
        module = compile_source(self.SOURCE)
        graph = CallGraph(module)
        helper = module.get_function("helper")
        sites = graph.sites_calling(helper)
        assert len(sites) == 2
        for site in sites:
            bindings = site.argument_bindings()
            assert len(bindings) == 1
            formal, actual = bindings[0]
            assert formal is helper.args[0]
            assert actual.type.is_pointer()

    def test_call_sites_are_in_module_order(self):
        module = compile_source(self.SOURCE)
        graph = CallGraph(module)
        calls = [inst for function in module.defined_functions()
                 for inst in function.instructions() if isinstance(inst, CallInst)]
        assert [site.instruction for site in graph.call_sites] == calls
        helper = module.get_function("helper")
        assert [site.caller.name for site in graph.sites_calling(helper)] \
            == ["middle", "main"]
        assert graph.sites_calling(module.get_function("lonely")) == []

    def test_external_callees_resolve_to_none(self):
        module = compile_source("""
        int main(int argc, char** argv) { return atoi(argv[0]); }
        """)
        graph = CallGraph(module)
        (site,) = graph.call_sites
        assert site.callee is None
        assert graph.callee_of(site.instruction) is None
        assert site.argument_bindings() == []

    def test_returned_pointers(self):
        module = compile_source("""
        int* pick(int* a, int* b, int c) { if (c > 0) { return a + 1; } return b; }
        int count(int* a) { return a[0]; }
        int main(int argc, char** argv) {
          int x[4]; int y[4];
          return count(pick(x, y, argc));
        }
        """)
        graph = CallGraph(module)
        pick = module.get_function("pick")
        returned = graph.returned_pointers(pick)
        assert len(returned) == 2
        assert isinstance(returned[0], PtrAddInst) and returned[0].base is pick.args[0]
        assert returned[1] is pick.args[1]
        assert graph.returned_pointers(module.get_function("count")) == []
        call = next(site.instruction for site in graph.call_sites
                    if site.callee is pick)
        assert graph.callee_of(call) is pick

    def test_cone_is_the_connected_call_component(self):
        module = compile_source(self.SOURCE)
        graph = CallGraph(module)
        assert graph.cone("helper") == ("helper", "main", "middle")
        assert graph.cone("lonely") == ("lonely",)

    def test_refresh_rebuilds_in_place(self):
        module = compile_source(self.SOURCE)
        graph = CallGraph(module)
        donor = compile_source(self.SOURCE.replace(
            "return n + 1;", "int cell[2]; return n + helper(cell);"))
        old = module.replace_function(donor.get_function("lonely"))
        lonely = module.get_function("lonely")
        graph.refresh_function(old, lonely, None)
        helper = module.get_function("helper")
        assert [site.caller.name for site in graph.sites_calling(helper)] \
            == ["middle", "lonely", "main"]
        assert graph.cone("lonely") == ("helper", "lonely", "main", "middle")
