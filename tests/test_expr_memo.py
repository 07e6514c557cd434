"""Expression memos (``Expr._facts``, ``Expr._normal``) never go stale.

IL expressions are immutable once built, so what is derived from one
can be derived once.  That is only true while nobody assigns a field of
an existing node — so it is checked, not assumed: a ``PipelineHook``
that, after *every* pass of a compile,

* recomputes the facts of every expression node of the program from
  scratch (a reference walk kept in this file, independent of the memo)
  and compares them with what ``N.facts`` serves;
* takes every node marked "in normal form", rebuilds it unmarked and
  simplifies that: the result must be the marked node again.

Run over the committed fuzz corpus, the E19 corpus and 200 generator
programs at the fuzzer's option points.  Also here: the memo never
enters a pickle or a deep copy (catalog blobs and ``il_sha256`` do not
depend on what was asked of a node), and the statement summaries of
forward substitution, which rest on the same memo.
"""

import copy
import glob
import os
import pickle
import sys

import pytest

from repro.frontend.lower import compile_to_il
from repro.fuzz.generator import generate_program
from repro.fuzz.harness import CLEAN_REJECTIONS, option_points
from repro.il import nodes as N
from repro.il.printer import format_program
from repro.opt import utils
from repro.opt.fold import simplify
from repro.opt.forward_sub import SubstitutionStats, forward_substitute
from repro.pipeline import PipelineHook, TitanCompiler, compile_c
from repro.service import CompileService

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(ROOT, "benchmarks", "e19"))
import corpus as e19_corpus  # noqa: E402


# -- the reference: facts by walking, nothing remembered -------------------


def facts_from_scratch(expr):
    """``{id(node): (reads, addrs, flags)}`` for every node under
    ``expr``, from the nodes' fields alone (no memo is read): reversed
    preorder meets every child before its parent."""
    out = {}
    for node in reversed(list(N.walk_expr(expr))):
        reads, addrs, flags = set(), set(), 0
        if isinstance(node, N.VarRef):
            reads.add(node.sym)
            flags = N.HAS_VOLATILE if node.sym.ctype.is_volatile else 0
        elif isinstance(node, N.AddrOf):
            addrs.add(node.sym)
        elif isinstance(node, N.Mem):
            flags = N.HAS_LOAD | (N.HAS_VOLATILE
                                  if node.ctype.is_volatile else 0)
        elif isinstance(node, N.Section):
            flags = N.HAS_LOAD
        elif isinstance(node, N.CallExpr):
            flags = N.HAS_CALL
        for kid in node.children():
            kid_reads, kid_addrs, kid_flags = out[id(kid)]
            reads |= kid_reads
            addrs |= kid_addrs
            flags |= kid_flags
        out[id(node)] = reads, addrs, flags
    return out


class MemoChecker(PipelineHook):
    """Observes only (``mutates_il`` stays False): asking for facts
    fills memos the unhooked compile might have filled later, which
    cannot change what any pass computes."""

    def __init__(self):
        self.nodes = self.memoized = self.normal = 0
        # Normal-form checks are per node, not per boundary: a node
        # never changes, so once is enough while it is kept alive here.
        self._resimplified = {}

    def after_pass(self, name, program, function="", round_no=0):
        where = (name, function, round_no)
        for fn in program.functions.values():
            for stmt in fn.all_statements():
                for expr in N.stmt_exprs(stmt):
                    self.check_tree(expr, where)

    def check_tree(self, expr, where):
        expected = facts_from_scratch(expr)
        reads, _, flags = expected[id(expr)]
        assert utils.expr_has_call(expr) == bool(flags & N.HAS_CALL)
        assert utils.expr_has_load(expr) == bool(flags & N.HAS_LOAD)
        assert utils.expr_has_volatile(expr) == \
            bool(flags & N.HAS_VOLATILE)
        assert utils.expr_is_invariant(expr, set()) == (not flags)
        assert not utils.expr_is_invariant(expr, reads) or not reads
        for node in N.walk_expr(expr):
            self.nodes += 1
            self.memoized += node._facts is not None
            assert N.facts(node) == expected[id(node)], (where, node)
            if node._normal and id(node) not in self._resimplified:
                self._resimplified[id(node)] = node
                self.normal += 1
                unmarked = N.clone_expr(node)
                assert unmarked is node or not unmarked._normal
                assert same_expr(simplify(unmarked), node), (where, node)


def same_expr(a, b):
    """``expr_equal``, except that it never equates two calls (they
    have effects); a call sits only at the top of a tree, so compare
    that one level by hand."""
    if isinstance(a, N.CallExpr) and isinstance(b, N.CallExpr):
        return a.name == b.name and len(a.args) == len(b.args) \
            and all(N.expr_equal(x, y) for x, y in zip(a.args, b.args))
    return N.expr_equal(a, b)


def compile_checked(source, options=None):
    checker = MemoChecker()
    TitanCompiler(options, hooks=[checker]).compile(source)
    return checker


def accepted(sources):
    for name, source in sources:
        try:
            compile_to_il(source, name)
        except CLEAN_REJECTIONS:
            continue  # the reject half of a corpus
        yield name, source


def fuzz_corpus():
    for path in sorted(glob.glob(os.path.join(ROOT, "tests", "fuzz_corpus",
                                              "*.c"))):
        with open(path) as handle:
            yield os.path.basename(path), handle.read()


def e19_programs():
    corpus = e19_corpus.load_corpus()
    for program in corpus.generated:
        yield program.name, program.source
    for kernel, template in corpus.kernels.items():
        yield kernel, e19_corpus.render(template, 64, 1)


class TestMemoEqualsRecomputation:
    def test_fuzz_corpus(self):
        seen = 0
        for _, source in accepted(fuzz_corpus()):
            checker = compile_checked(source)
            seen += checker.memoized
            assert checker.normal > 0
        assert seen > 1000

    def test_e19_corpus(self):
        programs = list(e19_programs())
        assert len(programs) == 60
        for _, source in programs:
            checker = compile_checked(source)
            assert checker.memoized > 0 and checker.normal > 0

    def test_generated_programs_at_the_fuzz_option_points(self):
        """200 programs, the option points taken in rotation (25
        programs each)."""
        points = option_points()
        for seed in range(200):
            _, options = points[seed % len(points)]
            checker = compile_checked(generate_program(seed).source,
                                      options)
            assert checker.nodes > 0

    def test_the_check_is_sharp(self):
        """An in-place edit of an expression is exactly what the memo
        cannot survive — and what the checker refuses."""

        class Vandal(PipelineHook):  # mutates a node, does not rebuild
            def after_pass(self, name, program, function="", round_no=0):
                if name == "constprop" and round_no == 1:
                    store = next(
                        s for s in program.functions["main"].all_statements()
                        if isinstance(s, N.Assign)
                        and isinstance(s.value, N.BinOp))
                    N.facts(store.value)
                    store.value.left = N.Mem(addr=N.int_const(64))

        with pytest.raises(AssertionError):
            TitanCompiler(hooks=[Vandal(), MemoChecker()]).compile(
                "int g; int main(void) { int s; s = g + 1; return s; }")


# -- the memo is not part of a node's value -------------------------------


DAXPY = open(os.path.join(ROOT, "examples", "daxpy.c")).read()


def every_expr(program):
    for fn in program.functions.values():
        for stmt in fn.all_statements():
            for expr in N.stmt_exprs(stmt):
                yield from N.walk_expr(expr)


class TestMemoStaysOutOfCopies:
    def memoize_everything(self, program):
        for fn in program.functions.values():
            for stmt in fn.all_statements():
                for expr in N.stmt_exprs(stmt):
                    N.facts(expr)
                    simplify(expr)

    def test_pickle_bytes_do_not_depend_on_the_memo(self):
        N.reset_sids()
        cold = compile_to_il(DAXPY, "daxpy.c")
        N.reset_sids()
        warm = compile_to_il(DAXPY, "daxpy.c")
        self.memoize_everything(warm)
        assert any(e._facts is not None for e in every_expr(warm))
        for protocol in (2, pickle.HIGHEST_PROTOCOL):
            assert pickle.dumps(warm, protocol) == \
                pickle.dumps(cold, protocol)
        loaded = pickle.loads(pickle.dumps(warm))
        assert all(e._facts is None and not e._normal
                   for e in every_expr(loaded))
        assert format_program(loaded) == format_program(cold)

    def test_deepcopy_drops_the_memo(self):
        program = compile_c(DAXPY).program
        self.memoize_everything(program)
        clone = copy.deepcopy(program)
        assert all(e._facts is None and not e._normal
                   and "_facts" not in vars(e)
                   for e in every_expr(clone))
        assert format_program(clone) == format_program(program)

    def test_catalog_blob_and_il_hash_do_not_depend_on_the_memo(self):
        """The service pickles the front end's IL into the catalog and
        hashes its listing.  Lowering already simplifies (and so
        marks) some nodes, and anything may have asked the parsed
        program for facts before it is catalogued."""
        from repro.service.cache import parse_source
        cold = parse_source(DAXPY, "d.c").catalog(DAXPY)
        parsed = parse_source(DAXPY, "d.c")
        self.memoize_everything(parsed.program)
        warm = parsed.catalog(DAXPY)
        assert warm.blob == cold.blob
        assert warm.il_sha256 == cold.il_sha256
        with CompileService(workers=0) as service:
            first = service.submit({"source": DAXPY, "filename": "d.c"})
            again = service.submit({"source": DAXPY + "\n",
                                    "filename": "d.c"})
        assert first["payload"]["il_sha256"] == cold.il_sha256
        assert again["cache"]["artifact"] == "hit"


# -- forward substitution's per-statement summaries -----------------------


class TestForwardSubSummaries:
    def body(self, source):
        program = compile_to_il(source, "<t>")
        return program, program.functions["f"].body

    def test_reads_are_rederived_after_a_substitution_lands(self):
        # `b = a` lands in `c = b + 1`; only then does `c = a + 1` read
        # a, which the stale summary of that statement would not show —
        # `a = 5` must still be substituted into it in the same sweep.
        _, body = self.body(
            "int f(int x) { int a, b, c; a = 5; b = a; c = b + 1;"
            " return c; }")
        stats = forward_substitute(body, aggressive=True)
        assert isinstance(body[-1], N.Return)
        assert N.is_const(body[-1].value, 6)
        assert stats.sweeps == 2 and stats.backtracks == 0 \
            and not stats.capped

    def test_the_sweep_bound_is_reported(self):
        _, body = self.body(
            "int f(int x) { int a, b, c; a = x; b = a; c = b;"
            " return c; }")
        stats = forward_substitute(body, max_sweeps=1)
        assert stats.sweeps == 1 and stats.capped
        assert forward_substitute(body, stats=SubstitutionStats()) \
            .capped is False

    def test_a_nested_label_is_still_a_barrier(self):
        _, body = self.body(
            "int f(int x) { int a; a = 5; if (x) { L: x = x + a; }"
            " if (x < 9) goto L; return x + a; }")
        forward_substitute(body, aggressive=True)
        ret = body[-1]
        assert isinstance(ret, N.Return)
        assert any(isinstance(e, N.VarRef) and e.sym.name == "a"
                   for e in N.walk_expr(ret.value))
