"""Unit tests for dead-code elimination and the unreachable baselines."""

from repro.frontend.lower import compile_to_il
from repro.il import nodes as N
from repro.il.validate import validate_program
from repro.opt.deadcode import eliminate_dead_code
from repro.opt.unreachable import (count_unreachable,
                                   remove_unreachable_cfg)

from tests.helpers import assert_same_behaviour


def run(src, name="f"):
    program = compile_to_il(src)
    fn = program.functions[name]
    stats = eliminate_dead_code(fn, program.globals)
    validate_program(program)
    return program, fn, stats


class TestDeadAssignments:
    def test_unused_local_removed(self):
        src = "int f(void) { int x, y; x = 1; y = 2; return y; }"
        _, fn, stats = run(src)
        assert stats.assignments_removed >= 1
        names = [s.target.sym.name for s in fn.all_statements()
                 if isinstance(s, N.Assign)
                 and isinstance(s.target, N.VarRef)]
        assert "x" not in names

    def test_overwritten_value_removed(self):
        src = "int f(void) { int x; x = 1; x = 2; return x; }"
        _, fn, stats = run(src)
        assigns = [s for s in fn.all_statements()
                   if isinstance(s, N.Assign)]
        assert len(assigns) == 1 and assigns[0].value.value == 2

    def test_global_store_kept(self):
        src = "int g; void f(void) { g = 5; }"
        _, fn, stats = run(src)
        assert any(isinstance(s, N.Assign) for s in fn.body)

    def test_memory_store_kept(self):
        src = "void f(int *p) { *p = 1; }"
        _, fn, _ = run(src)
        assert any(isinstance(s, N.Assign)
                   and isinstance(s.target, N.Mem) for s in fn.body)

    def test_dead_call_result_keeps_call(self):
        src = ("int g(void); void f(void) { int x; x = g(); }")
        _, fn, _ = run(src)
        assert any(isinstance(s, N.CallStmt) for s in fn.body)

    def test_volatile_read_kept(self):
        src = ("volatile int v; void f(void) { int x; x = v; }")
        _, fn, _ = run(src)
        reads = [s for s in fn.all_statements()
                 if isinstance(s, N.Assign)]
        assert reads  # the device read is observable

    def test_volatile_write_kept(self):
        src = "volatile int v; void f(void) { v = 1; }"
        _, fn, _ = run(src)
        assert any(isinstance(s, N.Assign) for s in fn.body)

    def test_transitively_dead_chain_removed(self):
        src = ("int f(void) { int a, b, c; a = 1; b = a + 1; "
               "c = b + 1; return 0; }")
        _, fn, stats = run(src)
        assert not any(isinstance(s, N.Assign) for s in fn.body
                       if isinstance(s, N.Assign))


class TestUnreachableTails:
    def test_code_after_return_removed(self):
        src = "int f(void) { return 1; return 2; }"
        _, fn, stats = run(src)
        returns = [s for s in fn.body if isinstance(s, N.Return)]
        assert len(returns) == 1

    def test_code_after_goto_removed_up_to_label(self):
        src = """
        int g;
        int f(void) {
            goto out;
            g = 1;
        out:
            return g;
        }
        """
        program = compile_to_il(src)
        fn = program.functions["f"]
        # ensure the global read still works: give g a def
        stats = eliminate_dead_code(fn, program.globals)
        assigns = [s for s in fn.all_statements()
                   if isinstance(s, N.Assign)]
        assert assigns == []
        assert stats.unreachable_removed >= 1

    def test_unused_labels_removed(self):
        src = """
        int f(void) {
            int x;
            x = 0;
        unused:
            return x;
        }
        """
        _, fn, stats = run(src)
        assert stats.labels_removed == 1

    def test_empty_if_removed(self):
        src = "void f(int c) { if (c) { int x; x = 1; } }"
        _, fn, stats = run(src)
        assert not any(isinstance(s, N.IfStmt) for s in fn.body)


class TestCfgBaseline:
    def test_count_unreachable(self):
        src = """
        int f(void) {
            return 1;
            return 2;
        }
        """
        program = compile_to_il(src)
        assert count_unreachable(program.functions["f"]) == 1

    def test_cfg_removal_complete(self):
        src = """
        int g;
        int f(int x) {
            if (x) goto out;
            goto out;
            g = 1;
            g = 2;
        out:
            return g;
        }
        """
        program = compile_to_il(src)
        fn = program.functions["f"]
        stats = remove_unreachable_cfg(fn)
        assert stats.statements_removed >= 2
        assert count_unreachable(fn) == 0
        validate_program(program)

    def test_cfg_removal_keeps_reachable(self):
        src = """
        int g;
        int f(int x) {
            if (x) g = 1;
            return g;
        }
        """
        program = compile_to_il(src)
        fn = program.functions["f"]
        remove_unreachable_cfg(fn)
        assert any(isinstance(s, N.IfStmt) for s in fn.body)


class TestSemantics:
    def test_dce_preserves_output(self):
        src = """
        int out;
        int main(void) {
            int dead1, dead2;
            dead1 = 100;
            dead2 = dead1 * 2;
            out = 7;
            return out;
        }
        """
        assert_same_behaviour(src, check_scalars=["out"])

    def test_a_scalar_read_only_in_a_store_mask_stays_live(self):
        """If-conversion and the vectorizer turn ``if (A[i] == t - 3)
        B[i] = 5;`` into a masked store whose mask alone reads ``t``:
        the final DCE must count that read (it once deleted ``t = g *
        g + 1`` and the run read ``t`` uninitialized)."""
        src = """
        int A[64], B[64];
        int g = 3;
        int main(void) {
            int i, t, s;
            for (i = 0; i < 64; i++) {
                A[i] = i & 15;
                B[i] = 0;
            }
            t = g * g + 1;
            g = 7;
            for (i = 0; i < 64; i++)
                if (A[i] == t - 3)
                    B[i] = 5;
            s = 0;
            for (i = 0; i < 64; i++)
                s = s + B[i] * (i + 1);
            return s + g;
        }
        """
        assert_same_behaviour(src, check_arrays=[("B", 64)],
                              check_scalars=["g"])
