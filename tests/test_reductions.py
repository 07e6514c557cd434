"""Tests for vector reduction support (`s = s + a[i]` and friends)."""

import pytest

from repro.il import nodes as N
from repro.pipeline import CompilerOptions, compile_c

from tests.helpers import assert_same_behaviour


def reduces(result, name="f"):
    return [s for s in result.program.functions[name].all_statements()
            if isinstance(s, N.VectorReduce)]


class TestRecognition:
    def test_sum_reduction(self):
        src = """
        float total; float a[256];
        void f(int n) {
            int i; float s;
            s = 0.0f;
            for (i = 0; i < n; i++) s = s + a[i];
            total = s;
        }
        """
        result = compile_c(src)
        assert reduces(result)
        assert result.vectorize_stats["f"].loops_vectorized == 1

    def test_dot_product(self):
        src = """
        float total; float a[256], w[256];
        void f(int n) {
            int i; float s;
            s = 0.0f;
            for (i = 0; i < n; i++) s = s + a[i] * w[i];
            total = s;
        }
        """
        result = compile_c(src)
        assert reduces(result)

    def test_max_reduction(self):
        # max via the IL min/max ops only arises from library-style
        # code; the AST has no max operator, so check the IL directly.
        from repro.frontend.symtab import Symbol, SymbolTable
        from repro.frontend.ctypes_ import FLOAT, INT, PointerType
        from repro.il.validate import validate_function
        table = SymbolTable()
        s = table.fresh_temp(FLOAT, "s")
        a = table.declare("a", PointerType(base=FLOAT))
        section = N.Section(addr=N.VarRef(sym=a, ctype=a.ctype),
                            length=N.int_const(8), stride=1,
                            ctype=FLOAT)
        red = N.VectorReduce(target=N.VarRef(sym=s, ctype=FLOAT),
                             op="max", value=section,
                             length=N.int_const(8))
        fn = N.ILFunction(name="t", params=[], ret_type=FLOAT,
                          body=[red])
        validate_function(fn)

    def test_accumulator_read_elsewhere_blocks(self):
        src = """
        float total; float a[64], b[64];
        void f(int n) {
            int i; float s;
            s = 0.0f;
            for (i = 0; i < n; i++) {
                s = s + a[i];
                b[i] = s;        /* prefix sums: truly sequential */
            }
            total = s;
        }
        """
        result = compile_c(src)
        assert not reduces(result)

    def test_subtraction_recognized(self):
        # An element subtracted per step, not a negated one added: the
        # two differ in a NaN's sign.
        src = """
        float total; float a[64];
        void f(int n) {
            int i; float s;
            s = 0.0f;
            for (i = 0; i < n; i++) s = s - a[i];
            total = s;
        }
        """
        (red,) = reduces(compile_c(src))
        assert [op for op, _ in red.terms()] == ["-"]


RED_C = """
float a[1000], b[1000];
float s, t, m;

int main(void)
{
    int i;
    for (i = 0; i < 1000; i++) {
        a[i] = (i * 7) % 13 - 6;
        b[i] = i & 3;
    }
    s = 0.0f;
    t = 0.0f;
    m = -100.0f;
    for (i = 0; i < 1000; i++)
        s = s - a[i];
    for (i = 0; i < 1000; i++)
        t = t + a[i]*b[i] + b[i];
    for (i = 0; i < 1000; i++)
        if (a[i] > m) m = a[i];
    return (int) (s + t + m);
}
"""


class TestShapes:
    """The three shapes C programs write, each one ``VectorReduce``:
    a subtraction, a chain (``(t + a*b) + b``: two terms, applied in
    that order per element) and a conditional max, which
    if-conversion turns into ``m = max(m, a[i])``."""

    def test_red_c_loops_all_vectorize(self):
        result = compile_c(RED_C)
        outcomes = [o for o in result.vectorize_stats["main"].outcomes]
        assert len(outcomes) == 4
        assert all(o.vectorized for o in outcomes), outcomes
        shapes = [[op for op, _ in red.terms()]
                  for red in reduces(result, "main")]
        assert shapes == [["-"], ["+", "+"], ["max"]]

    def test_red_c_runs_like_the_scalar_loops(self):
        assert_same_behaviour(RED_C, check_scalars=["s", "t", "m"])

    TERNARY_C = """
    float a[1000];
    float u, v, w;

    int main(void)
    {
        int i;
        for (i = 0; i < 1000; i++)
            a[i] = (i * 7) % 13 - 6;
        u = -100.0f;
        v = 100.0f;
        w = 0.0f;
        for (i = 0; i < 1000; i++)
            u = a[i] > u ? a[i] : u;
        for (i = 0; i < 1000; i++)
            v = v > a[i] ? a[i] : v;
        for (i = 0; i < 1000; i++)
            w = w > a[i] ? w : a[i];
        return (int) (u + v + w);
    }
    """

    def test_the_ternary_update_is_a_min_or_max(self):
        # ``u = E > u ? E : u`` and ``v = v > E ? E : v`` are the
        # ``if`` spellings' max and min.  ``w = w > E ? w : E`` stores
        # E on a tie, which max(w, E) does not: it stays a recurrence.
        result = compile_c(self.TERNARY_C)
        shapes = [[op for op, _ in red.terms()]
                  for red in reduces(result, "main")]
        assert shapes == [["max"], ["min"]]
        assert [o.vectorized for o in
                result.vectorize_stats["main"].outcomes] == [
            True, True, True, False]
        assert_same_behaviour(self.TERNARY_C,
                              check_scalars=["u", "v", "w"])

    def test_refused_shapes_name_their_cause(self):
        src = """
        float a[64]; double d[64];
        float f(void) {
            int i; float s, p, w, m;
            s = 1.0f; p = 1.0f; w = 0.0f; m = 0.0f;
            for (i = 0; i < 64; i++) p = p * a[i];
            for (i = 0; i < 64; i++) w = w + a[i] + d[i];
            for (i = 0; i < 64; i++) if (a[i] >= m) m = a[i];
            return p + w + m;
        }
        """
        result = compile_c(src)
        stats = result.vectorize_stats["f"]
        assert stats.rejected == {"reduction-shape": 3}
        details = [o.detail.split(": ", 1)[1] for o in stats.outcomes]
        assert details == [
            "operator '*' is not +, -, min or max",
            "the chain of float w is computed at double",
            "non-strict compare '>=': on a tie the update stores the "
            "new value, min/max keeps m"]


class TestSemantics:
    def test_bit_identical_sum(self):
        src = """
        float total; float a[300];
        int main(void) {
            int i; float s;
            s = 0.0f;
            for (i = 0; i < 300; i++) s = s + a[i];
            total = s;
            return 0;
        }
        """
        # helpers compare with tolerance; reduction order makes them
        # exactly equal anyway.
        assert_same_behaviour(
            src, arrays={"a": [float((k * 13) % 11) / 7
                               for k in range(300)]},
            check_scalars=["total"])

    def test_sum_with_tail_strip(self):
        src = """
        float total; float a[100];
        int main(void) {
            int i; float s;
            s = 0.0f;
            for (i = 0; i < 100; i++) s = s + a[i];
            total = s;
            return 0;
        }
        """
        assert_same_behaviour(
            src, arrays={"a": [1.0] * 100}, check_scalars=["total"])

    def test_zero_trip_reduction(self):
        src = """
        float total; float a[8];
        int n;
        int main(void) {
            int i; float s;
            s = 7.0f;
            for (i = 0; i < n; i++) s = s + a[i];
            total = s;
            return 0;
        }
        """
        assert_same_behaviour(src, scalars={"n": 0},
                              check_scalars=["total"])

    def test_mixed_loop_reduction_plus_map(self):
        src = """
        float total; float a[128], b[128];
        int main(void) {
            int i; float s;
            s = 0.0f;
            for (i = 0; i < 128; i++) {
                b[i] = a[i] * 2.0f;
                s = s + a[i];
            }
            total = s;
            return 0;
        }
        """
        result = compile_c(src)
        assert reduces(result, "main")
        assert_same_behaviour(
            src, arrays={"a": [float(k % 9) for k in range(128)]},
            check_scalars=["total"], check_arrays=[("b", 128)])


class TestTiming:
    def test_reduction_beats_scalar(self):
        from repro.titan.simulator import TitanSimulator
        src = """
        float total; float a[2048];
        void f(void) {
            int i; float s;
            s = 0.0f;
            for (i = 0; i < 2048; i++) s = s + a[i];
            total = s;
        }
        """
        fast = compile_c(src)
        slow = compile_c(src, CompilerOptions(
            vectorize=False, reg_pipeline=False,
            strength_reduction=False))
        data = [1.0] * 2048
        sim_f = TitanSimulator(fast.program,
                               schedules=fast.schedules or None)
        sim_f.set_global_array("a", data)
        sim_s = TitanSimulator(slow.program, use_scheduler=False)
        sim_s.set_global_array("a", data)
        rf, rs = sim_f.run("f"), sim_s.run("f")
        assert rf.speedup_over(rs) > 4
