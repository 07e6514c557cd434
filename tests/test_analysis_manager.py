"""The per-function analysis holder (repro.analysis.manager).

What is pinned here:

* the exact built/reused request counts for two example programs — the
  deterministic guard against analysis reuse silently rotting;
* bitmask liveness against a set-based reference solver kept in this
  file, and "an analysis served from the holder equals one built
  fresh" at every pass boundary, over generated programs and the fuzz
  corpus;
* hook safety: observing hooks see the unhooked run's counts, a
  mutating hook costs rebuilds but never a stale analysis;
* the IL helpers the cheap change detection rests on (``map_expr``
  identity, iterative walkers);
* deterministic release of per-request simulator memory.
"""

import gc
import glob
import os
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.flowgraph import (FlowGraph, MEMORY, aliased_symbols,
                                      node_uses)
from repro.analysis.liveness import Liveness
from repro.analysis.manager import FunctionAnalyses
from repro.analysis.usedef import UseDefChains
from repro.check import InjectedBug, bisect_source
from repro.frontend.lower import compile_to_il
from repro.fuzz.generator import generate_program
from repro.il import nodes as N
from repro.interp.interpreter import Interpreter
from repro.obs.counters import (ANALYSIS_SOLVES_FAMILY,
                                format_analysis_solves,
                                record_analysis_solves)
from repro.obs.metrics import MetricsRegistry
from repro.opt import utils
from repro.opt.constprop import propagate_constants
from repro.opt.deadcode import eliminate_dead_code
from repro.pipeline import PipelineHook, TitanCompiler, compile_c
from repro.service import CompileService

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
CORPUS = sorted(glob.glob(os.path.join(ROOT, "tests", "fuzz_corpus",
                                       "*.c")))


def example(name):
    with open(os.path.join(ROOT, "examples", name)) as handle:
        return handle.read()


def solves(result):
    return {f"{analysis}.{outcome}": n for (analysis, outcome), n
            in sorted(result.analysis_solves.items())}


# -- exact counts ---------------------------------------------------------


class TestSolveCounts:
    """The numbers move only when reuse gets better or worse; update
    them deliberately, with the reason in the commit."""

    def test_daxpy(self):
        # PR 23 (was 18/6, 12/0, 12): holders outlive a scalar round,
        # and copy propagation and a constprop round that prunes
        # nothing keep the graph's shape — so a graph is built per
        # structural change, not per changed pass, and a round-2 or
        # final DCE that follows no change shares the liveness solve
        # the DCE before it left.
        assert solves(compile_c(example("daxpy.c"))) == {
            "flowgraph.built": 10, "flowgraph.reused": 14,
            "liveness.built": 9, "liveness.reused": 3,
            "usedef.built": 12}

    def test_backsolve(self):
        assert solves(compile_c(example("backsolve.c"))) == {
            "flowgraph.built": 6, "flowgraph.reused": 10,
            "liveness.built": 6, "liveness.reused": 2,
            "usedef.built": 8}

    def test_one_graph_per_constprop_round_and_dce_iteration(self):
        """Before the holder: a graph per constprop round plus two per
        DCE iteration, and a liveness solve for each of those two.
        Now every round and iteration *asks* once; what it is handed
        was built only if something structural happened since."""
        result = compile_c(example("daxpy.c"))
        rounds = sum(s.rounds for s in result.constprop_stats.values())
        # dce_stats holds the scalar rounds; the final DCE adds one
        # (no-change) iteration per function.
        iterations = sum(s.iterations for s in result.dce_stats.values()) \
            + len(result.program.functions)
        counts = result.analysis_solves
        # A confirming round that provably finds nothing is counted in
        # ``rounds`` without asking for chains.
        assert counts["usedef", "built"] <= rounds
        assert counts["usedef", "reused"] == 0
        assert counts["liveness", "built"] \
            + counts["liveness", "reused"] == iterations
        assert counts["liveness", "reused"] > 0
        assert counts["flowgraph", "built"] \
            + counts["flowgraph", "reused"] == rounds + iterations
        assert counts["flowgraph", "built"] < iterations

    def test_stats_line_and_registry_family(self):
        result = compile_c(example("daxpy.c"))
        line = format_analysis_solves(result.analysis_solves)
        assert line == ("analysis: flowgraph.built=10 flowgraph.reused=14 "
                        "liveness.built=9 liveness.reused=3 "
                        "usedef.built=12 usedef.reused=0")
        registry = MetricsRegistry()
        record_analysis_solves(registry, result.analysis_solves)
        text = registry.format_prometheus()
        assert (f'{ANALYSIS_SOLVES_FAMILY}{{analysis="flowgraph",'
                f'outcome="built"}} 10') in text
        assert (f'{ANALYSIS_SOLVES_FAMILY}{{analysis="usedef",'
                f'outcome="reused"}} 0') in text

    def test_counts_stay_out_of_the_report(self):
        """Report bytes are cached and diffed across versions."""
        from repro.obs.report import CompilationReport
        doc = CompilationReport.from_result(
            compile_c(example("daxpy.c"))).to_json()
        assert "analysis_solves" not in doc


# -- the holder itself ----------------------------------------------------

BRANCHY = """
int g;
int f(int n) {
    int i, s, t;
    s = 0;
    t = 3;
    for (i = 0; i < n; i = i + 1) {
        if (i & 1) s = s + t; else s = s - 1;
    }
    g = s;
    return s + t;
}
"""


class TestHolder:
    def holder(self):
        program = compile_to_il(BRANCHY, "<t>")
        return FunctionAnalyses(program.functions["f"], program.globals)

    def test_builds_lazily_and_hands_out_the_same_objects(self):
        holder = self.holder()
        assert holder.cached == (None, None, None)
        graph = holder.graph
        assert holder.liveness.graph is graph
        assert holder.chains.graph is graph
        assert holder.graph is graph
        assert holder.liveness is holder.liveness
        assert dict(holder.counts) == {
            ("flowgraph", "built"): 1, ("flowgraph", "reused"): 1,
            ("liveness", "built"): 1, ("liveness", "reused"): 2,
            ("usedef", "built"): 1}

    def test_a_solve_that_builds_the_graph_counts_the_build(self):
        holder = self.holder()
        holder.liveness
        assert holder.counts["flowgraph", "built"] == 1
        assert holder.counts["flowgraph", "reused"] == 0

    def test_invalidate_drops_and_unlinks(self):
        holder = self.holder()
        graph = holder.graph
        holder.invalidate(False)
        assert holder.cached[0] is graph
        holder.invalidate()
        assert holder.cached == (None, None, None)
        assert all(not node.succs and not node.preds
                   for node in graph.nodes)
        assert holder.graph is not graph

    def test_one_alias_walk_per_graph(self, monkeypatch):
        import repro.analysis.flowgraph as flowgraph_mod
        calls = []
        real = flowgraph_mod.aliased_symbols
        monkeypatch.setattr(
            flowgraph_mod, "aliased_symbols",
            lambda *a, **k: calls.append(1) or real(*a, **k))
        holder = self.holder()
        holder.liveness, holder.chains, holder.graph.aliased
        assert len(calls) == 1
        # ... and per holder: the set is a function-level fact that
        # outlives the graph, until someone outside the contract had
        # the function.
        aliased = holder.graph.aliased
        holder.invalidate()
        assert holder.graph.aliased is aliased and len(calls) == 1
        holder.forget()
        assert holder.graph.aliased == aliased and len(calls) == 2

    def test_rewritten_expressions_keep_the_graph_shape(self):
        holder = self.holder()
        graph, liveness = holder.graph, holder.liveness
        before = graph.defs_uses
        ret = next(s for s in holder.fn.all_statements()
                   if isinstance(s, N.Return))
        ret.value = N.int_const(0)  # `return s + t` no longer reads
        holder.expressions_rewritten(False)
        assert holder.cached == (graph, liveness, None)
        holder.expressions_rewritten()
        assert holder.cached == (graph, None, None)
        assert holder.graph is graph and graph.defs_uses != before
        assert_same_graph(graph, FlowGraph(holder.fn))
        assert_same_liveness(holder.liveness, Liveness(FlowGraph(holder.fn)))

    @pytest.mark.parametrize("body, rounds, chains_built", [
        # Round 1 only simplifies: no constant appears, nothing is
        # pruned, so round 2 could find nothing — counted, not run.
        ("int y; y = x * 1 + 0; return y;", 2, 1),
        # Round 1 folds `b = 2 + 1` into a new constant definition, so
        # round 2 runs (and propagates it); round 3 is the counted one.
        ("int a, b; a = 2; b = a + 1; return b + x;", 3, 2),
    ])
    def test_confirming_constprop_round_is_counted_not_run(
            self, body, rounds, chains_built):
        program = compile_to_il(f"int f(int x) {{ {body} }}", "<t>")
        fn = program.functions["f"]
        holder = FunctionAnalyses(fn, program.globals)
        stats = propagate_constants(fn, program.globals, analyses=holder)
        assert stats.rounds == rounds and not stats.capped
        assert holder.counts["usedef", "built"] == chains_built
        assert holder.counts["flowgraph", "built"] == 1
        graph = holder.cached[0]
        assert_same_graph(graph, FlowGraph(fn))
        # It was a fixed point: a second run confirms it in one round.
        again = propagate_constants(fn, program.globals)
        assert again.rounds == 1 and again.constants_propagated == 0

    def test_flow_nodes_hash_by_identity_in_c(self):
        from repro.analysis.flowgraph import FlowNode
        assert FlowNode.__hash__ is object.__hash__
        assert FlowNode.__eq__ is object.__eq__

    def test_passes_leave_a_valid_set_behind(self):
        program = compile_to_il(BRANCHY, "<t>")
        fn = program.functions["f"]
        holder = FunctionAnalyses(fn, program.globals)
        propagate_constants(fn, program.globals, analyses=holder)
        graph = holder.cached[0]
        assert graph is not None, "final round's graph is handed on"
        assert_same_graph(graph, FlowGraph(fn))
        eliminate_dead_code(fn, program.globals, holder)
        graph, liveness, _ = holder.cached
        assert_same_graph(graph, FlowGraph(fn))
        assert_same_liveness(liveness, Liveness(FlowGraph(fn)))


# -- equality of analyses (public queries only) ---------------------------


def graph_shape(graph):
    def index(node):
        return None if node is None else node.index
    return [(node.kind, node.stmt, [s.index for s in node.succs],
             [p.index for p in node.preds], index(node.true_succ),
             index(node.false_succ)) for node in graph.nodes]


def locations(graph):
    defs, uses = graph.defs_uses
    return set().union(*defs, *uses)


def assert_same_graph(held, fresh):
    """The holder's contract: same shape; a held alias set that is the
    fresh one plus, at most, symbols nothing mentions any more (their
    last mention was deleted since the one alias walk) — which
    therefore appear in no fresh def/use set; and def/use sets equal
    once those leftovers are set aside."""
    assert graph_shape(held) == graph_shape(fresh)
    assert held.aliased >= fresh.aliased
    extra = held.aliased - fresh.aliased
    assert not extra & locations(fresh)
    assert [[locs - extra for locs in sets] for sets in held.defs_uses] \
        == [list(sets) for sets in fresh.defs_uses]


def assert_same_liveness(held, fresh):
    syms = [loc for loc in locations(fresh.graph) if loc is not MEMORY]
    for a, b in zip(held.graph.nodes, fresh.graph.nodes):
        for sym in syms:
            assert held.is_live_after(a, sym) == \
                fresh.is_live_after(b, sym), (a, sym)


def assert_same_chains(held, fresh):
    extra = held.aliased - fresh.aliased
    for a, b in zip(held.graph.nodes, fresh.graph.nodes):
        assert held.uses_of(a) - extra == fresh.uses_of(b)
        for loc in locations(fresh.graph):
            assert sorted((d.node.index, str(d.location))
                          for d in held.defs_reaching(a, loc)) == \
                sorted((d.node.index, str(d.location))
                       for d in fresh.defs_reaching(b, loc))


def reference_uses(node, aliased):
    """What ``node`` reads.  An assignment's reads come from the
    statement schema, not from ``node_uses``: every expression the
    statement evaluates — a store target's address and length, a
    masked store's mask, every term — and a reduction's accumulator;
    a load or call reads memory, a call every aliased symbol."""
    stmt = node.stmt
    if node.kind != "assign":
        return node_uses(node, aliased)
    uses = set()
    for expr in N.stmt_exprs(stmt):
        parts = expr.children() if expr is getattr(stmt, stmt.store_field) \
            else (expr,)
        for part in parts:
            reads, _, flags = N.facts(part)
            uses |= reads
            if flags & (N.HAS_LOAD | N.HAS_CALL):
                uses.add(MEMORY)
            if flags & N.HAS_CALL:
                uses |= aliased
    if isinstance(stmt, N.VectorReduce):
        uses.add(stmt.target.sym)
    return uses


def reference_live_out(graph):
    """Set-based round-robin liveness: the textbook solver the bitmask
    worklist replaced, kept as the oracle."""
    aliased = aliased_symbols(graph.fn)
    uses = {n: reference_uses(n, aliased) for n in graph.nodes}
    kill = {n: set() for n in graph.nodes}
    for n in graph.nodes:
        if n.kind in ("do_init", "do_step"):
            kill[n] = {n.stmt.var}
        elif n.kind == "assign" and isinstance(n.stmt, N.Assign) \
                and isinstance(n.stmt.target, N.VarRef):
            kill[n] = {n.stmt.target.sym}
    live_in = {n: set() for n in graph.nodes}
    live_out = {n: set() for n in graph.nodes}
    live_out[graph.exit] = {MEMORY} | aliased
    changed = True
    while changed:
        changed = False
        for n in reversed(graph.nodes):
            out = live_out[n] if n is graph.exit else \
                set().union(*(live_in[s] for s in n.succs))
            new_in = uses[n] | (out - kill[n])
            if out != live_out[n] or new_in != live_in[n]:
                live_out[n], live_in[n] = out, new_in
                changed = True
    return live_out


def check_liveness_against_reference(program):
    for fn in program.functions.values():
        graph = FlowGraph(fn)
        liveness = Liveness(graph, program.globals)
        expected = reference_live_out(graph)
        # Every location either side names: one only the reference
        # reads must not go missing.
        named = locations(graph).union(*expected.values())
        for node in graph.nodes:
            for loc in named:
                if loc is not MEMORY:
                    assert liveness.is_live_after(node, loc) == \
                        (loc in expected[node]), (fn.name, node, loc)


class BoundaryChecker(PipelineHook):
    """After every pass, scalar round or not: whatever *any* of the
    compile's holders still caches must equal (``assert_same_graph``'s
    sense) the same analysis built fresh from its function as it now
    is — liveness and chains on every location the function still
    mentions.  ``carried`` counts the comparisons made on a holder
    that came through a round boundary or the vector phase with
    something still cached: the round-1 -> round-2 -> final-DCE reuse
    path."""

    def __init__(self):
        self.compiler = None
        self.compared = 0
        self.carried = 0

    def after_pass(self, name, program, function="", round_no=0):
        current = self.compiler._analyses
        if current is not None:
            assert current.fn is program.functions[function]
            assert current is self.compiler._holders[function]
        for holder in self.compiler._holders.values():
            graph, liveness, chains = holder.cached
            if graph is None:
                assert liveness is None and chains is None
                continue
            fresh = FlowGraph(holder.fn)
            assert_same_graph(graph, fresh)
            if liveness is not None:
                assert_same_liveness(liveness, Liveness(fresh))
            if chains is not None:
                assert_same_chains(chains, UseDefChains(fresh))
            self.compared += 1
            if holder is not current or (
                    round_no != 1 and name == "forward-sub"):
                self.carried += 1


def compile_checked(source):
    checker = BoundaryChecker()
    compiler = TitanCompiler(hooks=[checker])
    checker.compiler = compiler
    result = compiler.compile(source)
    assert compiler._analyses is None and not compiler._holders
    return result, checker


def corpus_sources():
    for path in CORPUS:
        with open(path) as handle:
            source = handle.read()
        try:
            compile_to_il(source, path)
        except Exception:
            continue  # the reject half of the corpus
        yield path, source


class TestAgainstFreshAndReference:
    def test_corpus(self):
        seen = carried = 0
        for path, source in corpus_sources():
            check_liveness_against_reference(compile_to_il(source, path))
            result, checker = compile_checked(source)
            check_liveness_against_reference(result.program)
            seen += checker.compared
            carried += checker.carried
        assert seen > 50 and carried > 50

    @settings(max_examples=20, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(st.integers(0, 10_000))
    def test_generated_programs(self, seed):
        source = generate_program(seed).source
        check_liveness_against_reference(compile_to_il(source, "<g>"))
        result, checker = compile_checked(source)
        check_liveness_against_reference(result.program)
        assert checker.compared > 0

    def test_a_masked_store_reads_its_mask(self):
        """``t`` is read only by the mask the vectorizer makes of ``if
        (A[i] == t - 3)``: live up to that store, in the holder's
        liveness as in the reference's."""
        source = """
        int A[64], B[64];
        int g = 3;
        int main(void) {
            int i, t;
            t = g * g + 1;
            g = 7;
            for (i = 0; i < 64; i++)
                if (A[i] == t - 3)
                    B[i] = 5;
            return g;
        }
        """
        result, _ = compile_checked(source)
        masks = [stmt for stmt in result.program.functions["main"]
                 .all_statements() if isinstance(stmt, N.VectorAssign)
                 and stmt.mask is not None]
        assert masks
        check_liveness_against_reference(result.program)

    def test_boundary_checker_catches_a_silent_mutation(self):
        """The check is sharp: a pass-like edit that is not reported
        leaves a stale graph the checker refuses."""

        class Vandal(PipelineHook):  # mutates, does not say so
            def after_pass(self, name, program, function="",
                           round_no=0):
                if name == "constprop":
                    del program.functions[function].body[0]

        checker = BoundaryChecker()
        compiler = TitanCompiler(hooks=[Vandal(), checker])
        checker.compiler = compiler
        with pytest.raises(AssertionError):
            compiler.compile(BRANCHY)


# -- hooks ----------------------------------------------------------------

LATE_USE = """
int A[4];
int main(void) {
    int s, t;
    A[1] = 6;
    s = 5;
    t = A[1];
    return s;
}
"""


class ReturnT(PipelineHook):
    """After constprop, make ``main`` return ``t`` — a variable the
    analyses solved before the edit consider dead."""

    mutates_il = True

    def after_pass(self, name, program, function="", round_no=0):
        if name == "constprop" and round_no == 1:
            fn = program.functions["main"]
            t = next(s for s in fn.local_syms if s.name == "t")
            ret = next(s for s in fn.all_statements()
                       if isinstance(s, N.Return))
            ret.value = N.VarRef(sym=t, ctype=t.ctype)


class TestHooks:
    def test_observing_hooks_see_the_unhooked_compile(self):
        plain = compile_c(example("backsolve.c"))
        observed = compile_c(example("backsolve.c"),
                             hooks=[PipelineHook()])
        assert observed.analysis_solves == plain.analysis_solves

    def test_mutating_hook_invalidates_after_every_pass(self):
        plain = compile_c(example("backsolve.c"))
        bug = InjectedBug(after="no-such-pass")
        hooked = compile_c(example("backsolve.c"), hooks=[bug])
        assert not bug.fired
        assert hooked.function_text("main") == plain.function_text("main")
        # Nothing crosses a pass boundary: what is still reused is a
        # pass asking twice between two of its own edits (constprop
        # rounds that prune nothing share one graph), liveness never.
        assert hooked.analysis_solves["flowgraph", "reused"] < \
            plain.analysis_solves["flowgraph", "reused"]
        assert hooked.analysis_solves["liveness", "reused"] == 0
        assert hooked.analysis_solves["flowgraph", "built"] > \
            plain.analysis_solves["flowgraph", "built"]

    def test_analyses_follow_a_declared_mutation(self):
        """DCE after the edit must see ``t`` live: with a stale graph
        it deletes ``t = A[1]`` (a load, so copy propagation cannot
        rescue the return) and main reads an unset variable."""
        result = compile_c(LATE_USE, hooks=[ReturnT()])
        interp = Interpreter(result.program)
        assert interp.run("main") == 6

    def test_planted_bug_after_constprop_is_convicted(self):
        assert InjectedBug.mutates_il and not PipelineHook.mutates_il
        bug = InjectedBug(after="constprop", function="main")
        report = bisect_source(example("daxpy.c"), name="daxpy",
                               extra_hooks=[bug])
        assert bug.fired
        assert report.status == "culprit"
        assert report.guilty_pass == "constprop"


# -- IL helpers the change detection rests on ------------------------------


def deep_sum(depth):
    expr = N.int_const(1)
    for _ in range(depth):
        expr = N.BinOp(op="+", left=expr, right=N.int_const(1))
    return expr


class TestILHelpers:
    def test_map_expr_returns_the_same_node_when_nothing_changed(self):
        expr = deep_sum(5)
        assert N.map_expr(expr, lambda e: e) is expr

    def test_map_expr_rebuilds_only_the_changed_spine(self):
        keep = deep_sum(3)
        old = N.int_const(7)
        expr = N.BinOp(op="*", left=keep, right=N.UnOp(op="-",
                                                       operand=old))
        new = N.map_expr(expr, lambda e: N.int_const(8) if e is old
                         else e)
        assert new is not expr and new.left is keep
        assert new.right.operand.value == 8
        assert expr.right.operand is old  # the original is untouched

    def test_clone_expr_still_copies_interior_nodes(self):
        expr = deep_sum(3)
        clone = N.clone_expr(expr)
        assert clone is not expr and clone.left is not expr.left
        assert N.expr_equal(clone, expr)

    def test_substitute_in_stmt_reports_whether_it_replaced(self):
        program = compile_to_il(
            "int main(void) { int s, t; s = 5; t = s + 1; return s; }",
            "<t>")
        fn = program.functions["main"]
        s = next(x for x in fn.local_syms if x.name == "s")
        t = next(x for x in fn.local_syms if x.name == "t")
        stmt = next(x for x in fn.all_statements()
                    if isinstance(x, N.Assign) and x.target.sym == t)
        before = stmt.value
        assert not utils.substitute_in_stmt(stmt, t, N.int_const(0))
        assert stmt.value is before
        assert utils.substitute_in_stmt(stmt, s, N.int_const(5))
        assert not any(isinstance(e, N.VarRef)
                       for e in N.walk_expr(stmt.value))

    def test_walkers_are_preorder_and_depth_proof(self):
        expr = N.BinOp(op="+",
                       left=N.BinOp(op="*", left=N.int_const(1),
                                    right=N.int_const(2)),
                       right=N.int_const(3))
        assert [getattr(e, "value", getattr(e, "op", None))
                for e in N.walk_expr(expr)] == ["+", "*", 1, 2, 3]
        assert sum(1 for _ in N.walk_expr(deep_sum(5000))) == 10001
        nest = []
        for _ in range(3000):
            nest = [N.IfStmt(cond=N.int_const(1), then=nest,
                             otherwise=[N.Goto(label="x")])]
        walked = list(N.walk_statements(nest))
        assert len(walked) == 6000 and walked[0] is nest[0]
        assert isinstance(walked[-1], N.Goto)


# -- memory ---------------------------------------------------------------


class TestDeterministicRelease:
    def request(self, serial):
        return {"id": str(serial), "filename": "daxpy.c", "run": "main",
                "source": example("daxpy.c") + f"\nint pad{serial};\n"}

    @pytest.mark.parametrize("engine", ["tree", "compiled"])
    def test_run_request_leaves_under_1mb_for_the_collector(self, engine):
        with CompileService(workers=0) as service:
            assert service.submit(
                dict(self.request(0), engine=engine))["status"] == "ok"
            gc.collect()
            gc.disable()
            try:
                tracemalloc.start()
                response = service.submit(
                    dict(self.request(1), engine=engine))
                held = tracemalloc.get_traced_memory()[0]
                gc.collect()
                cyclic = held - tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
                gc.enable()
        assert response["status"] == "ok"
        assert response["payload"]["run"]["result"] is not None
        assert cyclic < 1_000_000, f"{cyclic} bytes waited for the GC"

    def test_vector_kernel_run_leaves_under_1mb_for_the_collector(self):
        # Masked stores, iota and a reduction through the bulk vector
        # path: it copies lanes out of the image and keeps no view of
        # it, so close() still drops the 4 MiB.
        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "benchmarks", "e19", "corpus", "kernels",
                            "guarded_diff.c")
        with open(path) as handle:
            kernel = handle.read().replace("{n}", "4096") \
                .replace("{s}", "3")
        with CompileService(workers=0) as service:
            assert service.submit(
                {"id": "0", "filename": "k.c", "run": "main",
                 "source": kernel})["status"] == "ok"
            gc.collect()
            gc.disable()
            try:
                tracemalloc.start()
                response = service.submit(
                    {"id": "1", "filename": "k.c", "run": "main",
                     "source": kernel + "\nint pad;\n"})
                held = tracemalloc.get_traced_memory()[0]
                gc.collect()
                cyclic = held - tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
                gc.enable()
        assert response["status"] == "ok"
        assert response["cache"]["artifact"] == "miss"
        assert cyclic < 1_000_000, f"{cyclic} bytes waited for the GC"

    def test_closed_simulator_keeps_its_report_readable(self):
        from repro.titan.simulator import TitanSimulator
        result = compile_c(example("daxpy.c"))
        with TitanSimulator(result.program) as simulator:
            report = simulator.run("main")
        assert len(simulator.interpreter.memory.data) == 0
        assert report.cycles > 0
        assert simulator.interpreter.steps > 0
        assert simulator.interpreter.stdout == report.stdout
