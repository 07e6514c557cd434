"""Unit tests for the C parser."""

import pytest

from repro.frontend import c_ast as A
from repro.frontend.ctypes_ import (ArrayType, FunctionType, IntType,
                                    PointerType, StructType)
from repro.frontend.parser import ParseError, parse


def parse_one(src):
    unit = parse(src)
    assert len(unit.items) == 1
    return unit.items[0]


def parse_expr(text):
    """Parse `text` as the full expression of `int main` return."""
    fn = parse_one("int main(void) { return %s; }" % text)
    stmt = fn.body.items[0]
    assert isinstance(stmt, A.Return)
    return stmt.value


class TestDeclarations:
    def test_simple_int(self):
        decl = parse_one("int x;")
        assert isinstance(decl, A.Decl)
        assert decl.declarators[0].name == "x"
        assert decl.declarators[0].ctype == IntType(kind="int")

    def test_multiple_declarators(self):
        decl = parse_one("int a, b, c;")
        assert [d.name for d in decl.declarators] == ["a", "b", "c"]

    def test_pointer(self):
        decl = parse_one("float *p;")
        assert isinstance(decl.declarators[0].ctype, PointerType)

    def test_pointer_to_pointer(self):
        decl = parse_one("char **argv;")
        t = decl.declarators[0].ctype
        assert isinstance(t, PointerType) \
            and isinstance(t.base, PointerType)

    def test_array(self):
        decl = parse_one("int a[10];")
        t = decl.declarators[0].ctype
        assert isinstance(t, ArrayType) and t.length == 10

    def test_array_of_arrays(self):
        decl = parse_one("float m[4][4];")
        t = decl.declarators[0].ctype
        assert isinstance(t, ArrayType) and t.length == 4
        assert isinstance(t.base, ArrayType) and t.base.length == 4

    def test_array_size_constant_expression(self):
        decl = parse_one("int a[2 * 8];")
        assert decl.declarators[0].ctype.length == 16

    def test_mixed_pointer_and_scalar(self):
        decl = parse_one("int *p, q;")
        assert isinstance(decl.declarators[0].ctype, PointerType)
        assert decl.declarators[1].ctype == IntType(kind="int")

    def test_volatile_qualifier(self):
        decl = parse_one("volatile int status;")
        assert decl.declarators[0].ctype.volatile

    def test_unsigned_types(self):
        decl = parse_one("unsigned long big;")
        assert decl.declarators[0].ctype == IntType(kind="unsigned long")

    def test_function_pointer(self):
        decl = parse_one("int (*handler)(int);")
        t = decl.declarators[0].ctype
        assert isinstance(t, PointerType)
        assert isinstance(t.base, FunctionType)

    def test_initializer(self):
        decl = parse_one("int x = 5;")
        assert isinstance(decl.declarators[0].init.expr, A.IntLit)

    def test_array_initializer(self):
        decl = parse_one("int a[3] = {1, 2, 3};")
        init = decl.declarators[0].init
        assert init.is_list and len(init.items) == 3

    def test_implicit_int(self):
        decl = parse_one("register x;")
        assert decl.declarators[0].ctype == IntType(kind="int")


class TestStructsEnumsTypedefs:
    def test_struct_definition(self):
        decl = parse_one("struct point { float x; float y; } p;")
        t = decl.declarators[0].ctype
        assert isinstance(t, StructType)
        assert t.field_named("y").offset == 4

    def test_struct_with_embedded_array(self):
        decl = parse_one("struct v { float pos[4]; int tag; } vert;")
        t = decl.declarators[0].ctype
        assert t.field_named("tag").offset == 16

    def test_union_offsets_all_zero(self):
        decl = parse_one("union u { int i; float f; } x;")
        t = decl.declarators[0].ctype
        assert all(f.offset == 0 for f in t.fields)

    def test_typedef_then_use(self):
        unit = parse("typedef float real; real x;")
        decl = unit.items[0]
        assert decl.declarators[0].ctype.kind == "float"

    def test_typedef_struct(self):
        unit = parse("typedef struct p { int a; } P; P q;")
        assert isinstance(unit.items[0].declarators[0].ctype, StructType)

    def test_enum_constants(self):
        unit = parse("enum color { RED, GREEN = 5, BLUE };\n"
                     "int main(void) { return BLUE; }")
        ret = unit.items[-1].body.items[0]
        assert isinstance(ret.value, A.IntLit) and ret.value.value == 6

    def test_forward_struct_reference(self):
        unit = parse("struct node { int v; struct node *next; };\n"
                     "struct node *head;")
        decl = unit.items[-1]
        assert isinstance(decl.declarators[0].ctype, PointerType)


class TestFunctions:
    def test_function_definition(self):
        fn = parse_one("int add(int a, int b) { return a + b; }")
        assert isinstance(fn, A.FuncDef)
        assert fn.name == "add" and len(fn.params) == 2

    def test_void_params(self):
        fn = parse_one("int f(void) { return 0; }")
        assert fn.params == []

    def test_param_array_decays(self):
        fn = parse_one("void f(float v[10]) { }")
        assert isinstance(fn.params[0].ctype, PointerType)

    def test_prototype_declaration(self):
        unit = parse("float g(float, int);")
        (decl,) = unit.items
        assert isinstance(decl, A.Decl)
        assert isinstance(decl.declarators[0].ctype, FunctionType)
        assert len(decl.declarators[0].ctype.params) == 2

    def test_varargs(self):
        fn = parse_one("int p(char *fmt, ...) { return 0; }")
        assert isinstance(fn.ctype, FunctionType) and fn.ctype.varargs

    def test_pragma_attaches_to_function(self):
        fn = parse_one("#pragma safe\nvoid f(float *x) { }")
        assert "safe" in fn.pragmas


class TestStatements:
    def body(self, text):
        return parse_one("void f(void) { %s }" % text).body.items

    def test_if_else(self):
        (stmt,) = self.body("if (1) ; else ;")
        assert isinstance(stmt, A.If) and stmt.otherwise is not None

    def test_dangling_else_binds_inner(self):
        (stmt,) = self.body("if (1) if (2) ; else ;")
        assert stmt.otherwise is None
        assert isinstance(stmt.then, A.If)
        assert stmt.then.otherwise is not None

    def test_while(self):
        stmts = self.body("int x; while (x) x = x - 1;")
        assert isinstance(stmts[1], A.While)

    def test_do_while(self):
        (stmt,) = self.body("do ; while (0);")
        assert isinstance(stmt, A.DoWhile)

    def test_for_full(self):
        stmts = self.body("int i; for (i = 0; i < 10; i++) ;")
        loop = stmts[1]
        assert isinstance(loop, A.For)
        assert loop.init is not None and loop.cond is not None \
            and loop.step is not None

    def test_for_empty_header(self):
        (stmt,) = self.body("for (;;) break;")
        assert isinstance(stmt, A.For)
        assert stmt.init is None and stmt.cond is None

    def test_goto_and_label(self):
        stmts = self.body("goto out; out: ;")
        assert isinstance(stmts[0], A.Goto)
        assert isinstance(stmts[1], A.LabelStmt)

    def test_switch_with_cases(self):
        (stmt,) = self.body("switch (1) { case 1: break; default: ; }")
        assert isinstance(stmt, A.Switch)

    def test_declarations_inside_blocks(self):
        stmts = self.body("int local; local = 1;")
        assert isinstance(stmts[0], A.DeclStmt)

    def test_return_void(self):
        (stmt,) = self.body("return;")
        assert isinstance(stmt, A.Return) and stmt.value is None


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = parse_expr("1 + 2 * 3")
        assert isinstance(expr, A.BinaryOp) and expr.op == "+"
        assert isinstance(expr.right, A.BinaryOp) and expr.right.op == "*"

    def test_left_associativity(self):
        expr = parse_expr("10 - 3 - 2")
        assert expr.op == "-" and isinstance(expr.left, A.BinaryOp)

    def test_assignment_right_associative(self):
        fn = parse_one("void f(void) { int a, b; a = b = 1; }")
        assign = fn.body.items[1].expr
        assert isinstance(assign, A.Assignment)
        assert isinstance(assign.value, A.Assignment)

    def test_conditional_operator(self):
        expr = parse_expr("1 ? 2 : 3")
        assert isinstance(expr, A.Conditional)

    def test_logical_operators(self):
        expr = parse_expr("1 && 2 || 3")
        assert expr.op == "||" and expr.left.op == "&&"

    def test_unary_deref_and_address(self):
        fn = parse_one("void f(int *p) { *p = 1; }")
        target = fn.body.items[0].expr.target
        assert isinstance(target, A.UnaryOp) and target.op == "*"

    def test_prefix_vs_postfix_increment(self):
        fn = parse_one("void f(int x) { ++x; x++; }")
        assert isinstance(fn.body.items[0].expr, A.UnaryOp)
        assert isinstance(fn.body.items[1].expr, A.PostfixOp)

    def test_cast(self):
        expr = parse_expr("(float) 3")
        assert isinstance(expr, A.Cast)

    def test_cast_vs_parenthesized_expr(self):
        fn = parse_one("int f(int x) { return (x) + 1; }")
        ret = fn.body.items[0].value
        assert isinstance(ret, A.BinaryOp)

    def test_sizeof_type(self):
        expr = parse_expr("sizeof(int)")
        assert isinstance(expr, A.SizeofType)

    def test_sizeof_expression(self):
        fn = parse_one("int f(int x) { return sizeof x; }")
        ret = fn.body.items[0].value
        assert isinstance(ret, A.UnaryOp) and ret.op == "sizeof"

    def test_call_with_args(self):
        fn = parse_one("int f(void) { return g(1, 2, 3); }")
        call = fn.body.items[0].value
        assert isinstance(call, A.Call) and len(call.args) == 3

    def test_subscript_chain(self):
        fn = parse_one("float f(float m[4][4]) { return m[1][2]; }")
        ret = fn.body.items[0].value
        assert isinstance(ret, A.Subscript)
        assert isinstance(ret.base, A.Subscript)

    def test_member_and_arrow(self):
        unit = parse("struct p { int x; };\n"
                     "int f(struct p s, struct p *q)"
                     "{ return s.x + q->x; }")
        ret = unit.items[-1].body.items[0].value
        assert isinstance(ret.left, A.Member) and not ret.left.arrow
        assert isinstance(ret.right, A.Member) and ret.right.arrow

    def test_comma_operator(self):
        expr = parse_expr("(1, 2)")
        assert isinstance(expr, A.BinaryOp) and expr.op == ","

    def test_string_concatenation(self):
        expr = parse_expr('"ab" "cd"')
        assert isinstance(expr, A.StringLit) and expr.value == "abcd"


class TestNesting:
    """C99 5.2.4.1 asks for 63 levels of parentheses in an expression;
    the parser spends eight frames on one, so 100 is well inside
    Python's default recursion limit."""

    @pytest.mark.parametrize("depth", [63, 100])
    def test_nested_parentheses(self, depth):
        expr = parse_expr("(" * depth + "x" + ")" * depth)
        assert isinstance(expr, A.Ident) and expr.name == "x"

    @pytest.mark.parametrize("depth", [63, 100])
    def test_nested_additions(self, depth):
        expr = parse_expr("(x + " * depth + "x" + ")" * depth)
        for _ in range(depth):
            assert isinstance(expr, A.BinaryOp) and expr.op == "+"
            assert isinstance(expr.left, A.Ident)
            expr = expr.right
        assert isinstance(expr, A.Ident)

    def test_a_long_operator_chain_is_a_loop_not_a_recursion(self):
        expr = parse_expr(" + ".join(["x"] * 5000))
        depth = 0
        while isinstance(expr, A.BinaryOp):
            assert isinstance(expr.right, A.Ident)
            expr, depth = expr.left, depth + 1
        assert depth == 4999


class TestErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("int x")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse("int f(void) { return (1; }")

    def test_bad_token_at_top_level(self):
        with pytest.raises(ParseError):
            parse("int f(void) { return }; }")

    def test_case_value_must_be_constant(self):
        with pytest.raises(ParseError):
            parse("int f(int x) { switch (x) { case x: ; } return 0; }")
