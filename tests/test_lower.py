"""Unit tests for AST→IL lowering: the (SL, E) pair machinery (§4)."""

import pytest

from repro.frontend.lower import LoweringError, compile_to_il
from repro.il import nodes as N
from repro.il.printer import format_function
from repro.il.validate import validate_program


def lower_fn(src, name="f"):
    program = compile_to_il(src)
    validate_program(program)
    return program.functions[name]


def body_text(src, name="f"):
    return format_function(lower_fn(src, name))


class TestExpressionStatements:
    def test_assignment_becomes_statement(self):
        fn = lower_fn("void f(int x) { x = 1; }")
        (stmt,) = fn.body
        assert isinstance(stmt, N.Assign)

    def test_no_assignment_operator_in_expressions(self):
        fn = lower_fn("void f(int a, int b, int c) { a = b = c; }")
        for stmt in fn.all_statements():
            if isinstance(stmt, N.Assign):
                assert not any(isinstance(e, N.Assign)
                               for e in N.walk_expr(stmt.value))

    def test_chained_assignment_through_temp(self):
        # (SL1,E1) = (SL2,E2) => SL1; SL2; t=E2; E1=t  (section 4)
        text = body_text("void f(int a, int b, int c) { a = b = c; }")
        assert "temp" in text

    def test_compound_assignment(self):
        fn = lower_fn("void f(int x) { x += 5; }")
        assigns = [s for s in fn.body if isinstance(s, N.Assign)]
        assert any(isinstance(s.value, N.BinOp) and s.value.op == "+"
                   for s in assigns)

    def test_comma_operator_sequences_effects(self):
        fn = lower_fn("void f(int a, int b) { a = (b = 2, b + 1); }")
        text = format_function(fn)
        assert "b = " in text


class TestSideEffectOperators:
    def test_postfix_increment_shape(self):
        # a++: temp = a; a = temp + 1 — the section 5.3 transcript.
        text = body_text("void f(int a) { a++; }")
        assert "= a;" in text and "a = " in text

    def test_pointer_increment_scales(self):
        text = body_text("void f(float *p) { p++; }")
        assert "+ 4" in text

    def test_double_pointer_increment_scales_by_8(self):
        text = body_text("void f(double *p) { p++; }")
        assert "+ 8" in text

    def test_prefix_decrement_value(self):
        fn = lower_fn("int f(int a) { return --a; }")
        ret = fn.body[-1]
        assert isinstance(ret, N.Return)
        assert isinstance(ret.value, N.VarRef)

    def test_star_assign_through_postincrement(self):
        # *x++ = v: x advances, store goes through the old x.
        fn = lower_fn("void f(float *x, float v) { *x++ = v; }")
        stores = [s for s in fn.body if isinstance(s, N.Assign)
                  and isinstance(s.target, N.Mem)]
        assert len(stores) == 1
        assert isinstance(stores[0].target.addr, N.VarRef)
        assert stores[0].target.addr.sym.name.startswith("temp")


class TestShortCircuit:
    def test_logical_and_becomes_if(self):
        fn = lower_fn("int f(int a, int b) { return a && b; }")
        assert any(isinstance(s, N.IfStmt) for s in fn.body)

    def test_logical_or_becomes_if(self):
        fn = lower_fn("int f(int a, int b) { return a || b; }")
        assert any(isinstance(s, N.IfStmt) for s in fn.body)

    def test_conditional_operator_becomes_if(self):
        fn = lower_fn("int f(int c) { return c ? 10 : 20; }")
        ifs = [s for s in fn.body if isinstance(s, N.IfStmt)]
        assert len(ifs) == 1
        assert ifs[0].then and ifs[0].otherwise

    def test_no_shortcircuit_ops_in_il_expressions(self):
        fn = lower_fn(
            "int f(int a, int b, int c) { return a && (b || c); }")
        for stmt in fn.all_statements():
            for expr in N.stmt_exprs(stmt):
                for node in N.walk_expr(expr):
                    if isinstance(node, N.BinOp):
                        assert node.op not in ("&&", "||")


class TestLoops:
    def test_for_becomes_while(self):
        fn = lower_fn("void f(int n) { int i;"
                      " for (i = 0; i < n; i++) n = n; }")
        assert any(isinstance(s, N.WhileLoop) for s in fn.body)
        assert not any(isinstance(s, N.DoLoop) for s in fn.body)

    def test_while_condition_is_pure(self):
        fn = lower_fn("void f(int n) { while (n--) ; }")
        loops = [s for s in fn.all_statements()
                 if isinstance(s, N.WhileLoop)]
        assert len(loops) == 1
        for node in N.walk_expr(loops[0].cond):
            assert not isinstance(node, N.CallExpr)

    def test_condition_side_effects_duplicated(self):
        # while ((SL,E)) S  =>  SL; while (E) { S; SL; }   (section 4)
        fn = lower_fn("void f(int n) { while (n--) ; }")
        (loop,) = [s for s in fn.all_statements()
                   if isinstance(s, N.WhileLoop)]
        # the loop body must re-execute the decrement
        body_assigns = [s for s in loop.body if isinstance(s, N.Assign)]
        assert body_assigns, "condition SL not duplicated into body"

    def test_break_becomes_goto(self):
        fn = lower_fn("void f(int n) { while (n) break; }")
        assert any(isinstance(s, N.Goto)
                   for s in fn.all_statements())

    def test_continue_jumps_to_step(self):
        src = """
        int total;
        void f(int n) {
            int i;
            for (i = 0; i < n; i++) {
                if (i == 2) continue;
                total = total + 1;
            }
        }
        """
        fn = lower_fn(src)
        labels = [s.label for s in fn.all_statements()
                  if isinstance(s, N.LabelStmt)]
        assert any(label.startswith("Lcont") for label in labels)

    def test_do_while_executes_body_first(self):
        fn = lower_fn("void f(int n) { do n = n - 1; while (n); }")
        # lowered with a top label and a conditional back-goto
        assert any(isinstance(s, N.Goto) for s in fn.all_statements())


class TestVolatile:
    def test_volatile_read_hoisted_to_temp(self):
        src = "volatile int v; int f(void) { return v + v; }"
        fn = lower_fn(src)
        vol_reads = [s for s in fn.body if isinstance(s, N.Assign)
                     and isinstance(s.value, N.VarRef)
                     and s.value.sym.name == "v"]
        assert len(vol_reads) == 2  # two reads, each its own statement

    def test_volatile_in_while_rereads_each_iteration(self):
        src = ("volatile int status;"
               "void f(void) { while (!status) ; }")
        fn = lower_fn(src)
        (loop,) = [s for s in fn.body if isinstance(s, N.WhileLoop)]
        reads_in_body = [s for s in loop.body if isinstance(s, N.Assign)
                         and isinstance(s.value, N.VarRef)
                         and s.value.sym.name == "status"]
        assert reads_in_body, "volatile read not re-executed per spin"

    def test_a_equals_v_equals_b_writes_v_once(self):
        # The paper's ANSI ambiguity: v is written once and never read.
        src = ("volatile int v;"
               "void f(int a, int b) { a = v = b; }")
        fn = lower_fn(src)
        v_writes = [s for s in fn.body if isinstance(s, N.Assign)
                    and isinstance(s.target, N.VarRef)
                    and s.target.sym.name == "v"]
        v_reads = [s for s in fn.all_statements()
                   if isinstance(s, N.Assign)
                   and any(isinstance(e, N.VarRef)
                           and e.sym.name == "v"
                           for e in N.walk_expr(s.value))]
        assert len(v_writes) == 1
        assert len(v_reads) == 0


class TestMemoryForm:
    def test_subscript_becomes_star_form(self):
        # a[i] => *(&a + 4*i), the section 9 representation.
        text = body_text("float a[10]; void f(int i) { a[i] = 0.0; }")
        assert "*(&a + 4 * i)" in text

    def test_constant_subscript_folds_scale(self):
        text = body_text("float a[10]; void f(void) { a[3] = 0.0; }")
        assert "12" in text

    def test_struct_member_offset(self):
        src = ("struct p { float x; float y; };"
               "struct p g; void f(void) { g.y = 1.0; }")
        text = body_text(src)
        assert "&g + 4" in text

    def test_arrow_member(self):
        src = ("struct p { int a; int b; };"
               "void f(struct p *q) { q->b = 2; }")
        text = body_text(src)
        assert "*(q + 4)" in text

    def test_address_of_marks_symbol(self):
        program = compile_to_il("void f(void) { int x; int *p; p = &x; }")
        fn = program.functions["f"]
        x = [s for s in fn.local_syms if s.name == "x"][0]
        assert x.address_taken

    def test_2d_array_linearizes(self):
        text = body_text(
            "float m[4][8]; void f(int i, int j) { m[i][j] = 0.0; }")
        assert "32 * i" in text and "4 * j" in text


class TestCallsAndGlobals:
    def test_call_result_into_temp(self):
        fn = lower_fn("int g(int); int f(int x) { return g(x) + 1; }")
        call_assigns = [s for s in fn.body if isinstance(s, N.Assign)
                        and isinstance(s.value, N.CallExpr)]
        assert len(call_assigns) == 1

    def test_void_call_statement(self):
        fn = lower_fn("void g(void); void f(void) { g(); }")
        assert any(isinstance(s, N.CallStmt) for s in fn.body)

    def test_string_literal_becomes_global(self):
        program = compile_to_il(
            'void f(void) { printf("hi %d", 1); }')
        names = [g.sym.name for g in program.globals]
        assert any(name.startswith("__string") for name in names)

    def test_static_local_promoted_to_global(self):
        program = compile_to_il(
            "int f(void) { static int counter; "
            "counter = counter + 1; return counter; }")
        names = [g.sym.name for g in program.globals]
        assert any("counter" in name for name in names)

    def test_global_initializer_folded(self):
        program = compile_to_il("int x = 2 * 21;")
        assert program.global_named("x").init == 42

    def test_global_array_initializer(self):
        program = compile_to_il("float w[3] = {1.0, 2.0, 3.0};")
        assert program.global_named("w").init == [1.0, 2.0, 3.0]

    def test_undeclared_identifier_raises(self):
        with pytest.raises(LoweringError):
            compile_to_il("void f(void) { zzz = 1; }")

    def test_non_constant_global_init_raises(self):
        with pytest.raises(LoweringError):
            compile_to_il("int g(void); int x = g();")

    def test_global_string_pointer_initializer(self):
        # Regression: this raised "global initializer is not constant"
        # although the identical declaration worked at block scope.
        from repro.frontend.symtab import Symbol
        program = compile_to_il('char *s = "abc";')
        init = program.global_named("s").init
        assert isinstance(init, Symbol)
        assert program.global_named(init.name).init == [97, 98, 99, 0]

    def test_global_char_array_string_initializer(self):
        program = compile_to_il('char t[] = "hi";')
        g = program.global_named("t")
        assert g.init == [104, 105, 0]
        assert g.sym.ctype.length == 3  # completed from the literal

    def test_global_sized_char_array_string_initializer(self):
        program = compile_to_il('char u[4] = "xy";')
        assert program.global_named("u").init == [120, 121, 0, 0][:3]

    def test_global_string_too_long_for_array_raises(self):
        with pytest.raises(LoweringError):
            compile_to_il('char u[2] = "abc";')

    def test_global_string_pointer_runs_in_interpreter(self):
        from repro.interp.interpreter import Interpreter
        program = compile_to_il(
            'char *s = "abc";\n'
            'int main(void) { return s[0] + s[2]; }')
        assert Interpreter(program).run("main") == ord("a") + ord("c")


LINKED = """
struct N { int v; struct N *next; };
struct N a, b, c;
int main(void) {
    struct N *p;
    a.v = 1; b.v = 2; c.v = 40;
    a.next = &b; b.next = &c; c.next = 0;
    p = &a;
    return %s;
}
"""


class TestSelfReferentialStructs:
    """ROADMAP item 6 defect (i): a member declared while its own tag
    was still incomplete (`struct N *next` inside `struct N`) kept the
    incomplete pointee, so `x.next->v` was refused with "struct 'N'
    has no field 'v'"."""

    @pytest.mark.parametrize("engine", ["tree", "compiled"])
    @pytest.mark.parametrize("expr, expected", [
        ("a.next->v", 2),
        ("p->next->next->v", 40),
        ("a.next->next->v + p->next->v", 42),
    ])
    def test_member_through_own_tag_compiles_and_runs(self, expr,
                                                      expected, engine):
        from repro.interp.interpreter import make_interpreter
        from repro.pipeline import compile_c
        source = LINKED % expr
        assert make_interpreter(compile_to_il(source),
                                engine).run("main") == expected
        assert make_interpreter(compile_c(source).program,
                                engine).run("main") == expected

    def test_union_through_own_tag(self):
        from repro.interp.interpreter import Interpreter
        program = compile_to_il(
            "union U { int v; union U *self; }; union U u, w;"
            "int main(void) { w.v = 7; u.self = &w;"
            " return u.self->v; }")
        assert Interpreter(program).run("main") == 7

    def test_never_completed_tag_is_a_located_diagnostic(self):
        with pytest.raises(LoweringError, match=r":1:\d+: member access "
                                                r"into incomplete struct M"):
            compile_to_il("struct M *q; int f(void) { return q->v; }")


class TestFunctionPointerCalls:
    """ROADMAP item 6 defect (ii): `f(41)` through `int (*f)(int)`
    lowered to a CallExpr naming "f" and died in the interpreter with
    "call to unknown function 'f'"."""

    SOURCE = ("int g(int x) { return x + 1; }\n"
              "int main(void) {\n"
              "    int (*f)(int);\n"
              "    f = g;\n"
              "    return f(41);\n"
              "}\n")

    def test_rejected_at_the_call_with_line_and_column(self):
        from repro.fuzz.harness import CLEAN_REJECTIONS
        with pytest.raises(CLEAN_REJECTIONS,
                           match=r":5:\d+: call through function "
                                 r"pointer 'f'"):
            compile_to_il(self.SOURCE, "fp.c")

    def test_pointer_parameter_too(self):
        with pytest.raises(LoweringError, match="function pointer 'cmp'"):
            compile_to_il("int f(int (*cmp)(int, int)) "
                          "{ return cmp(1, 2); }")


class TestSwitchLowering:
    def test_switch_dispatch_and_fallthrough(self):
        src = """
        int f(int x) {
            int r;
            r = 0;
            switch (x) {
            case 1:
                r = r + 1;
            case 2:
                r = r + 10;
                break;
            default:
                r = 99;
            }
            return r;
        }
        """
        fn = lower_fn(src)
        gotos = [s for s in fn.all_statements() if isinstance(s, N.Goto)]
        assert gotos  # dispatch chain exists

    def test_switch_requires_compound(self):
        with pytest.raises(LoweringError):
            compile_to_il("void f(int x) { switch (x) break; }")
