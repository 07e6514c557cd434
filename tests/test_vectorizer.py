"""Unit tests for the Allen–Kennedy vectorizer and parallelizer."""

import pytest

from repro.il import nodes as N
from repro.il.validate import validate_program
from repro.pipeline import CompilerOptions, compile_c
from repro.vectorize.scc import strongly_connected_components

from tests.helpers import assert_same_behaviour


def vec(src, name="f", **opt_kwargs):
    options = CompilerOptions(**opt_kwargs)
    result = compile_c(src, options)
    validate_program(result.program)
    return result, result.program.functions[name]


def vector_assigns(fn):
    return [s for s in fn.all_statements()
            if isinstance(s, N.VectorAssign)]


def do_loops(fn):
    return [s for s in fn.all_statements() if isinstance(s, N.DoLoop)]


class TestTarjan:
    def test_acyclic_graph_topological(self):
        sccs = strongly_connected_components(
            3, {0: {1}, 1: {2}, 2: set()})
        assert sccs == [[0], [1], [2]]

    def test_cycle_grouped(self):
        sccs = strongly_connected_components(
            3, {0: {1}, 1: {0}, 2: set()})
        assert [0, 1] in sccs

    def test_self_loop_single_component(self):
        sccs = strongly_connected_components(1, {0: {0}})
        assert sccs == [[0]]

    def test_two_cycles_ordered(self):
        adj = {0: {1}, 1: {0, 2}, 2: {3}, 3: {2}}
        sccs = strongly_connected_components(4, adj)
        assert sccs.index([0, 1]) < sccs.index([2, 3])

    def test_disconnected_nodes_all_present(self):
        sccs = strongly_connected_components(4, {})
        assert sorted(sum(sccs, [])) == [0, 1, 2, 3]


class TestVectorization:
    def test_simple_array_add(self):
        src = ("float a[128], b[128], c[128];"
               "void f(void) { int i;"
               " for (i = 0; i < 128; i++) a[i] = b[i] + c[i]; }")
        result, fn = vec(src)
        assert vector_assigns(fn)
        assert result.vectorize_stats["f"].loops_vectorized == 1

    def test_vector_loop_marked_parallel(self):
        src = ("float a[128], b[128];"
               "void f(void) { int i;"
               " for (i = 0; i < 128; i++) a[i] = 2.0f * b[i]; }")
        _, fn = vec(src)
        strips = [l for l in do_loops(fn) if l.vector]
        assert strips and strips[0].parallel

    def test_short_constant_loop_skips_strip_mine(self):
        # 4x4 graphics loops: no strip loop needed (section 5.2).
        src = ("float a[16], b[16];"
               "void f(void) { int i;"
               " for (i = 0; i < 16; i++) a[i] = b[i]; }")
        for options in ({}, {"parallelize": False}):
            result, fn = vec(src, **options)
            assert vector_assigns(fn)
            assert not do_loops(fn)  # direct vector statement
            # No strips, so nothing is spread across processors.
            stats = result.vectorize_stats["f"]
            assert stats.loops_parallelized == 0
            [outcome] = stats.outcomes
            assert outcome.vectorized and outcome.parallelized is False

    def test_strip_length_is_vector_length(self):
        src = ("float a[100], b[100];"
               "void f(void) { int i;"
               " for (i = 0; i < 100; i++) a[i] = b[i]; }")
        _, fn = vec(src, vector_length=32)
        strips = [l for l in do_loops(fn) if l.vector]
        assert strips and strips[0].step == 32

    def test_recurrence_stays_sequential(self):
        src = ("float a[64];"
               "void f(void) { int i;"
               " for (i = 1; i < 64; i++) a[i] = a[i-1] + 1.0f; }")
        result, fn = vec(src)
        assert not vector_assigns(fn)
        assert result.vectorize_stats["f"].rejected.get(
            "recurrence", 0) >= 1

    def test_anti_dependence_vectorizes(self):
        # a[i] = a[i+1]: vector reads complete before writes.
        src = ("float a[64];"
               "void f(void) { int i;"
               " for (i = 0; i < 63; i++) a[i] = a[i+1]; }")
        _, fn = vec(src)
        assert vector_assigns(fn)

    def test_loop_distribution_splits_recurrence(self):
        # One vectorizable statement + one recurrence: distribution
        # puts them in separate loops.
        src = """
        float a[64], b[64], c[64];
        void f(void) {
            int i;
            for (i = 1; i < 64; i++) {
                b[i] = c[i] * 2.0f;
                a[i] = a[i-1] + b[i];
            }
        }
        """
        _, fn = vec(src)
        assert vector_assigns(fn)  # the b statement vectorized
        seq = [l for l in do_loops(fn) if not l.vector]
        assert seq  # the a recurrence stayed sequential

    def test_distribution_preserves_semantics(self):
        src = """
        float a[64], b[64], c[64];
        int main(void) {
            int i;
            for (i = 1; i < 64; i++) {
                b[i] = c[i] * 2.0f;
                a[i] = a[i-1] + b[i];
            }
            return 0;
        }
        """
        assert_same_behaviour(
            src,
            arrays={"c": [float(i) for i in range(64)],
                    "a": [1.0] * 64},
            check_arrays=[("a", 64), ("b", 64)])

    def test_volatile_in_loop_rejected(self):
        src = ("volatile float port; float a[64];"
               "void f(void) { int i;"
               " for (i = 0; i < 64; i++) a[i] = port; }")
        result, fn = vec(src)
        assert not vector_assigns(fn)

    def test_call_in_loop_rejected(self):
        src = ("float g(float); float a[64];"
               "void f(void) { int i;"
               " for (i = 0; i < 64; i++) a[i] = g(a[i]); }")
        result, fn = vec(src)
        assert not vector_assigns(fn)
        assert result.vectorize_stats["f"].rejected.get("call", 0) >= 1

    def test_pointer_loop_needs_alias_help(self):
        src = ("void f(float *p, float *q, int n) { int i;"
               " for (i = 0; i < n; i++) p[i] = q[i]; }")
        result, fn = vec(src)
        assert not vector_assigns(fn)

    def test_fortran_pointer_option_enables(self):
        src = ("void f(float *p, float *q, int n) { int i;"
               " for (i = 0; i < n; i++) p[i] = q[i]; }")
        _, fn = vec(src, fortran_pointer_semantics=True)
        assert vector_assigns(fn)

    def test_safe_pragma_enables(self):
        src = ("#pragma safe\n"
               "void f(float *p, float *q, int n) { int i;"
               " for (i = 0; i < n; i++) p[i] = q[i]; }")
        _, fn = vec(src)
        assert vector_assigns(fn)

    def test_strided_access_vectorizes_with_stride(self):
        src = ("float a[256], b[256];"
               "void f(void) { int i;"
               " for (i = 0; i < 100; i++) a[2*i] = b[2*i]; }")
        _, fn = vec(src)
        vas = vector_assigns(fn)
        assert vas and vas[0].target.stride == 2

    def test_scalar_broadcast_in_rhs(self):
        src = ("float a[64]; float alpha;"
               "void f(void) { int i;"
               " for (i = 0; i < 64; i++) a[i] = alpha; }")
        _, fn = vec(src)
        assert vector_assigns(fn)

    def test_iota_vectorizes_as_index_vector(self):
        # a[i] = i: the loop index becomes an iota index vector.
        src = ("float a[64];"
               "void f(void) { int i;"
               " for (i = 0; i < 64; i++) a[i] = i; }")
        result, fn = vec(src)
        vas = vector_assigns(fn)
        assert vas
        assert any(isinstance(e, N.Iota)
                   for e in N.walk_expr(vas[0].value))
        assert result.vectorize_stats["f"].loops_vectorized == 1


IF_BODY_SRC = """
float a[64], b[64];
void f(void) {
    int i;
    for (i = 0; i < 64; i++) {
        if (b[i] > 0.0f)
            a[i] = b[i];
        else
            a[i] = 0.0f;
    }
}
"""


class TestParallelOnly:
    def test_if_body_loop_now_vectorizes(self):
        # If-conversion merges the branch into select dataflow, so the
        # old "control-flow" bail vectorizes instead of only spreading.
        result, fn = vec(IF_BODY_SRC)
        vas = vector_assigns(fn)
        assert vas
        assert any(isinstance(e, N.Select)
                   for e in N.walk_expr(vas[0].value))
        assert result.vectorize_stats["f"].loops_vectorized == 1

    def test_if_body_loop_spreads_without_if_convert(self):
        # With the pass disabled the historical behaviour remains:
        # parallel-only spreading of the branchy body.
        _, fn = vec(IF_BODY_SRC, if_convert=False)
        loops = do_loops(fn)
        assert loops and loops[0].parallel

    def test_reduction_not_parallelized(self):
        src = """
        float total; float a[64];
        void f(void) {
            int i;
            for (i = 0; i < 64; i++)
                total = total + a[i];
        }
        """
        _, fn = vec(src)
        loops = do_loops(fn)
        assert loops and not loops[0].parallel

    def test_parallel_loop_correct_under_reordering(self):
        src = """
        float a[64], b[64];
        int main(void) {
            int i;
            for (i = 0; i < 64; i++) {
                if (b[i] > 0.5f)
                    a[i] = b[i] * 2.0f;
                else
                    a[i] = 0.0f;
            }
            return 0;
        }
        """
        assert_same_behaviour(
            src, arrays={"b": [(i % 3) / 2.0 for i in range(64)]},
            check_arrays=[("a", 64)],
            parallel_orders=("forward", "reverse", "shuffle"))


class TestVectorSemantics:
    def test_vector_copy_matches_reference(self):
        src = """
        float dst[200], src_[200];
        int main(void) {
            int i;
            for (i = 0; i < 200; i++) dst[i] = src_[i];
            return 0;
        }
        """
        assert_same_behaviour(
            src, arrays={"src_": [float(i * 7 % 13)
                                  for i in range(200)]},
            check_arrays=[("dst", 200)])

    def test_inplace_shift_simultaneous_semantics(self):
        # a[i] = a[i+1] over the whole array: anti-deps require the
        # vector unit to read everything before writing.
        src = """
        float a[100];
        int main(void) {
            int i;
            for (i = 0; i < 99; i++) a[i] = a[i+1];
            return 0;
        }
        """
        assert_same_behaviour(
            src, arrays={"a": [float(i) for i in range(100)]},
            check_arrays=[("a", 100)])

    def test_expression_of_three_arrays(self):
        src = """
        float o[128], x[128], y[128], z[128];
        int main(void) {
            int i;
            for (i = 0; i < 128; i++)
                o[i] = x[i] * y[i] - z[i] / 2.0f;
            return 0;
        }
        """
        assert_same_behaviour(
            src,
            arrays={"x": [float(i) for i in range(128)],
                    "y": [2.0] * 128,
                    "z": [float(i * 4) for i in range(128)]},
            check_arrays=[("o", 128)])

    def test_zero_trip_vector_loop(self):
        src = """
        float a[8], b[8];
        int n;
        int main(void) {
            int i;
            for (i = 0; i < n; i++) a[i] = b[i];
            return 0;
        }
        """
        assert_same_behaviour(src, scalars={"n": 0},
                              arrays={"a": [9.0] * 8},
                              check_arrays=[("a", 8)])
