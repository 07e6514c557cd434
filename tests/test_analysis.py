"""Unit tests for the analysis layer: flow graph, use-def chains,
liveness."""

from repro.analysis.flowgraph import FlowGraph, MEMORY
from repro.analysis.liveness import Liveness
from repro.analysis.usedef import UseDefChains, build_chains
from repro.frontend.lower import compile_to_il
from repro.il import nodes as N


def graph_of(src, name="f"):
    program = compile_to_il(src)
    fn = program.functions[name]
    return program, fn, FlowGraph(fn)


class TestFlowGraph:
    def test_straight_line(self):
        _, _, g = graph_of("void f(int x) { x = 1; x = 2; }")
        kinds = [n.kind for n in g.nodes]
        assert kinds.count("assign") == 2

    def test_if_has_two_successors(self):
        _, _, g = graph_of("void f(int x) { if (x) x = 1; }")
        conds = [n for n in g.nodes if n.kind == "cond"]
        assert len(conds) == 1
        assert conds[0].true_succ is not None
        assert conds[0].false_succ is not None
        assert conds[0].true_succ is not conds[0].false_succ

    def test_while_back_edge(self):
        _, _, g = graph_of(
            "void f(int n) { while (n) n = n - 1; }")
        (cond,) = [n for n in g.nodes if n.kind == "cond"]
        # the body tail must flow back to the condition
        assert any(p.kind == "assign" for p in cond.preds)

    def test_do_loop_nodes(self):
        src = "void f(int n) { int i; for (i = 0; i < n; i++) ; }"
        # for becomes while at lowering; build a DoLoop manually via
        # pipeline instead:
        from repro.pipeline import compile_c, CompilerOptions
        res = compile_c(src, CompilerOptions(vectorize=False,
                                             reg_pipeline=False,
                                             strength_reduction=False))
        fn = res.program.functions["f"]
        g = FlowGraph(fn)
        kinds = {n.kind for n in g.nodes}
        # loop may be fully deleted by DCE (empty body); at minimum the
        # graph builds without error
        assert "entry" in kinds and "exit" in kinds

    def test_goto_resolves_to_label(self):
        src = """
        void f(int x) {
            if (x) goto out;
            x = 1;
        out:
            x = 2;
        }
        """
        _, _, g = graph_of(src)
        goto_nodes = [n for n in g.nodes if n.kind == "goto"]
        assert goto_nodes and goto_nodes[0].succs[0].kind == "label"

    def test_return_connects_to_exit(self):
        _, _, g = graph_of("int f(void) { return 3; }")
        (ret,) = [n for n in g.nodes if n.kind == "return"]
        assert g.exit in ret.succs

    def test_unreachable_statements_detected(self):
        src = """
        int f(void) {
            return 1;
            return 2;
        }
        """
        _, _, g = graph_of(src)
        dead = g.unreachable_statements()
        assert len(dead) == 1


class TestUseDef:
    def test_single_def_reaches_use(self):
        src = "int f(void) { int x; x = 1; return x; }"
        program, fn, _ = graph_of(src)
        graph, chains = build_chains(fn, program.globals)
        (ret,) = [n for n in graph.nodes if n.kind == "return"]
        x = fn.local_syms[0]
        defs = chains.defs_reaching(ret, x)
        assert len(defs) == 1

    def test_two_defs_reach_merge(self):
        src = """
        int f(int c) {
            int x;
            if (c) x = 1; else x = 2;
            return x;
        }
        """
        program, fn, _ = graph_of(src)
        graph, chains = build_chains(fn, program.globals)
        (ret,) = [n for n in graph.nodes if n.kind == "return"]
        x = [s for s in fn.local_syms if s.name == "x"][0]
        assert len(chains.defs_reaching(ret, x)) == 2

    def test_redefinition_kills(self):
        src = "int f(void) { int x; x = 1; x = 2; return x; }"
        program, fn, _ = graph_of(src)
        graph, chains = build_chains(fn, program.globals)
        (ret,) = [n for n in graph.nodes if n.kind == "return"]
        x = fn.local_syms[0]
        defs = chains.defs_reaching(ret, x)
        assert len(defs) == 1
        assert defs[0].node.stmt.value.value == 2

    def test_loop_def_reaches_loop_head(self):
        src = "void f(int n) { while (n) n = n - 1; }"
        program, fn, _ = graph_of(src)
        graph, chains = build_chains(fn, program.globals)
        (cond,) = [n for n in graph.nodes if n.kind == "cond"]
        n_sym = fn.params[0]
        defs = chains.defs_reaching(cond, n_sym)
        # entry def + loop body def both reach the condition
        assert len(defs) == 2

    def test_address_taken_symbol_aliased_by_stores(self):
        src = """
        int f(void) {
            int x, *p;
            p = &x;
            x = 1;
            *p = 2;
            return x;
        }
        """
        program, fn, _ = graph_of(src)
        graph, chains = build_chains(fn, program.globals)
        x = [s for s in fn.local_syms if s.name == "x"][0]
        assert x in chains.aliased

    def test_call_defines_globals(self):
        src = """
        int g;
        void touch(void);
        int f(void) { g = 1; touch(); return g; }
        """
        program, fn, _ = graph_of(src)
        graph, chains = build_chains(fn, program.globals)
        (ret,) = [n for n in graph.nodes if n.kind == "return"]
        g_sym = program.global_named("g").sym
        defs = chains.defs_reaching(ret, g_sym)
        assert len(defs) >= 2  # the store and the call's may-def


class TestLiveness:
    def test_dead_assignment_not_live(self):
        src = "int f(void) { int x, y; x = 1; y = 2; return y; }"
        program, fn, _ = graph_of(src)
        graph = FlowGraph(fn)
        live = Liveness(graph, program.globals)
        x = [s for s in fn.local_syms if s.name == "x"][0]
        assigns = [n for n in graph.nodes if n.kind == "assign"
                   and isinstance(n.stmt.target, N.VarRef)
                   and n.stmt.target.sym == x]
        assert assigns and not live.is_live_after(assigns[0], x)

    def test_used_value_is_live(self):
        src = "int f(void) { int x; x = 1; return x + 1; }"
        program, fn, _ = graph_of(src)
        graph = FlowGraph(fn)
        live = Liveness(graph, program.globals)
        x = fn.local_syms[0]
        (assign,) = [n for n in graph.nodes if n.kind == "assign"]
        assert live.is_live_after(assign, x)

    def test_global_live_at_exit(self):
        src = "int g; void f(void) { g = 5; }"
        program, fn, _ = graph_of(src)
        graph = FlowGraph(fn)
        live = Liveness(graph, program.globals)
        g_sym = program.global_named("g").sym
        (assign,) = [n for n in graph.nodes if n.kind == "assign"]
        assert live.is_live_after(assign, g_sym)

    def test_loop_variable_live_around_backedge(self):
        src = "void f(int n) { while (n) n = n - 1; }"
        program, fn, _ = graph_of(src)
        graph = FlowGraph(fn)
        live = Liveness(graph, program.globals)
        n_sym = fn.params[0]
        assigns = [n for n in graph.nodes if n.kind == "assign"
                   and isinstance(n.stmt.target, N.VarRef)
                   and n.stmt.target.sym == n_sym]
        assert assigns and live.is_live_after(assigns[-1], n_sym)
