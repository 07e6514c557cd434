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

    def test_subtraction_not_recognized(self):
        src = """
        float total; float a[64];
        void f(int n) {
            int i; float s;
            s = 0.0f;
            for (i = 0; i < n; i++) s = s - a[i];
            total = s;
        }
        """
        result = compile_c(src)
        assert not reduces(result)


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
