"""Unit tests for IL nodes, printer, and validator."""

import pickle

import pytest

from repro.frontend.ctypes_ import FLOAT, INT, PointerType
from repro.frontend.lower import compile_to_il
from repro.frontend.symtab import Symbol, SymbolTable
from repro.il import nodes as N
from repro.il.printer import format_expr, format_function, format_stmt
from repro.il.validate import ILValidationError, validate_function


def sym(name="x", ctype=INT, uid=None):
    return Symbol(name=name, ctype=ctype,
                  uid=uid if uid is not None else abs(hash(name)) % 9999)


class TestNodes:
    def test_statement_ids_unique(self):
        a = N.Assign(target=N.VarRef(sym=sym()), value=N.int_const(1))
        b = N.Assign(target=N.VarRef(sym=sym()), value=N.int_const(1))
        assert a.sid != b.sid

    def test_identity_equality(self):
        a = N.Assign(target=N.VarRef(sym=sym()), value=N.int_const(1))
        b = N.Assign(target=N.VarRef(sym=sym()), value=N.int_const(1))
        assert a != b and a == a
        lst = [a, b]
        assert lst.index(b) == 1  # not fooled by structural equality

    def test_walk_statements_preorder(self):
        inner = N.Assign(target=N.VarRef(sym=sym()),
                         value=N.int_const(1))
        loop = N.WhileLoop(cond=N.int_const(1), body=[inner])
        out = list(N.walk_statements([loop]))
        assert out == [loop, inner]

    def test_walk_expr(self):
        expr = N.BinOp(op="+", left=N.int_const(1),
                       right=N.UnOp(op="neg", operand=N.int_const(2)))
        kinds = [type(e).__name__ for e in N.walk_expr(expr)]
        assert kinds == ["BinOp", "Const", "UnOp", "Const"]

    def test_expr_equal_structural(self):
        s = sym()
        a = N.BinOp(op="+", left=N.VarRef(sym=s), right=N.int_const(1))
        b = N.BinOp(op="+", left=N.VarRef(sym=s), right=N.int_const(1))
        assert N.expr_equal(a, b)
        c = N.BinOp(op="-", left=N.VarRef(sym=s), right=N.int_const(1))
        assert not N.expr_equal(a, c)

    def test_expr_equal_distinguishes_int_float(self):
        assert not N.expr_equal(N.Const(value=1), N.Const(value=1.0))

    def test_map_expr_rebuilds(self):
        s = sym()
        expr = N.BinOp(op="+", left=N.VarRef(sym=s),
                       right=N.int_const(0))

        def bump(e):
            if isinstance(e, N.Const):
                return N.Const(value=e.value + 5, ctype=e.ctype)
            return e

        out = N.map_expr(expr, bump)
        assert out.right.value == 5
        assert expr.right.value == 0  # original untouched

    def test_vars_read(self):
        a, b = sym("a", uid=1), sym("b", uid=2)
        expr = N.BinOp(op="*", left=N.VarRef(sym=a),
                       right=N.Mem(addr=N.VarRef(sym=b), ctype=FLOAT))
        assert set(N.vars_read(expr)) == {a, b}

    def test_clone_stmt_fresh_sids(self):
        inner = N.Assign(target=N.VarRef(sym=sym()),
                         value=N.int_const(1))
        loop = N.WhileLoop(cond=N.int_const(1), body=[inner])
        (copy,) = N.clone_statements([loop])
        assert copy.sid != loop.sid
        assert copy.body[0].sid != inner.sid

    def test_program_pickles(self):
        # No hard pointers (section 7): the whole program pickles.
        program = compile_to_il(
            "float a[4]; int main(void) { a[0] = 1.0; return 0; }")
        blob = pickle.dumps(program)
        restored = pickle.loads(blob)
        assert "main" in restored.functions
        assert restored.global_named("a").sym.name == "a"


class TestPrinter:
    def test_expr_precedence_parens(self):
        s = sym()
        expr = N.BinOp(op="*",
                       left=N.BinOp(op="+", left=N.VarRef(sym=s),
                                    right=N.int_const(1)),
                       right=N.int_const(2))
        assert format_expr(expr) == "(x + 1) * 2"

    def test_no_spurious_parens(self):
        s = sym()
        expr = N.BinOp(op="+",
                       left=N.BinOp(op="*", left=N.VarRef(sym=s),
                                    right=N.int_const(2)),
                       right=N.int_const(1))
        assert format_expr(expr) == "x * 2 + 1"

    def test_mem_star_form(self):
        s = sym("p", PointerType(base=FLOAT))
        expr = N.Mem(addr=N.VarRef(sym=s, ctype=s.ctype), ctype=FLOAT)
        assert format_expr(expr) == "*(p)"

    def test_do_loop_format(self):
        v = sym("i")
        loop = N.DoLoop(var=v, lo=N.int_const(0), hi=N.int_const(9),
                        step=1, body=[])
        text = "\n".join(format_stmt(loop))
        assert "do fortran i = 0, 9, 1" in text

    def test_parallel_loop_format(self):
        v = sym("vi")
        loop = N.DoLoop(var=v, lo=N.int_const(0), hi=N.int_const(99),
                        step=32, body=[], parallel=True)
        text = "\n".join(format_stmt(loop))
        assert "do parallel" in text

    def test_section_format(self):
        s = sym("a", PointerType(base=FLOAT))
        section = N.Section(addr=N.VarRef(sym=s, ctype=s.ctype),
                            length=N.int_const(32), stride=1,
                            ctype=FLOAT)
        assert "n=32" in format_expr(section)

    def test_function_format_runs(self):
        program = compile_to_il(
            "int f(int x) { if (x) return 1; return 0; }")
        text = format_function(program.functions["f"])
        assert text.startswith("int f(int x)")


class TestValidator:
    def _fn(self, body):
        return N.ILFunction(name="t", params=[], ret_type=INT,
                            body=body)

    def test_valid_function_passes(self):
        fn = self._fn([N.Return(value=N.int_const(0))])
        validate_function(fn)

    def test_nested_call_rejected(self):
        call = N.CallExpr(name="g", args=[], ctype=INT)
        bad = N.Assign(target=N.VarRef(sym=sym()),
                       value=N.BinOp(op="+", left=call,
                                     right=N.int_const(1)))
        with pytest.raises(ILValidationError):
            validate_function(self._fn([bad]))

    def test_top_level_call_allowed(self):
        call = N.CallExpr(name="g", args=[], ctype=INT)
        ok = N.Assign(target=N.VarRef(sym=sym()), value=call)
        validate_function(self._fn([ok]))

    def test_goto_to_missing_label_rejected(self):
        with pytest.raises(ILValidationError):
            validate_function(self._fn([N.Goto(label="nowhere")]))

    def test_duplicate_label_rejected(self):
        with pytest.raises(ILValidationError):
            validate_function(self._fn([N.LabelStmt(label="l"),
                                        N.LabelStmt(label="l")]))

    def test_zero_step_do_loop_rejected(self):
        loop = N.DoLoop(var=sym("i"), lo=N.int_const(0),
                        hi=N.int_const(9), step=0, body=[])
        with pytest.raises(ILValidationError):
            validate_function(self._fn([loop]))

    @pytest.mark.parametrize("storage,address_taken",
                             [("global", False), ("auto", True)])
    def test_do_loop_index_in_memory_rejected(self, storage,
                                              address_taken):
        # The static walk prices a DO loop's test and step as register
        # work; an index a run loads and stores would cost more.
        index = sym("i")
        index.storage, index.address_taken = storage, address_taken
        loop = N.DoLoop(var=index, lo=N.int_const(0),
                        hi=N.int_const(9), step=1, body=[])
        with pytest.raises(ILValidationError, match="lives in memory"):
            validate_function(self._fn([loop]))

    def test_duplicate_sid_rejected(self):
        a = N.Return(value=None)
        b = N.Return(value=None)
        b.sid = a.sid
        with pytest.raises(ILValidationError):
            validate_function(self._fn([a, b]))

    def test_vector_assign_needs_section_target(self):
        bad = N.VectorAssign(target=N.VarRef(sym=sym()),
                             value=N.int_const(0))
        with pytest.raises(ILValidationError):
            validate_function(self._fn([bad]))


def _sample_statements():
    """One instance of every statement kind, each declared expression
    field filled (a mask too) and each statement list holding one
    statement."""
    x = sym("x", uid=11)
    p = sym("p", PointerType(base=FLOAT), uid=12)
    a = sym("a", PointerType(base=FLOAT), uid=13)
    xref = N.VarRef(sym=x)

    def section():
        return N.Section(addr=N.AddrOf(sym=a, ctype=a.ctype),
                         length=N.VarRef(sym=x), ctype=FLOAT)

    def leaf():
        return [N.Assign(target=N.VarRef(sym=x),
                         value=N.BinOp(op="+", left=xref,
                                       right=N.int_const(1)))]

    return [
        N.Assign(target=N.Mem(addr=N.VarRef(sym=p, ctype=p.ctype),
                              ctype=FLOAT),
                 value=N.Const(value=1.0, ctype=FLOAT)),
        N.VectorAssign(target=section(),
                       value=N.BinOp(op="*", left=section(),
                                     right=N.Const(value=2.0,
                                                   ctype=FLOAT),
                                     ctype=FLOAT),
                       mask=N.BinOp(op=">", left=section(),
                                    right=N.Const(value=0.0,
                                                  ctype=FLOAT))),
        N.VectorReduce(target=N.VarRef(sym=x), op="+",
                       value=section(), length=N.VarRef(sym=x)),
        N.CallStmt(call=N.CallExpr(name="g", args=[xref])),
        N.IfStmt(cond=xref, then=leaf(), otherwise=leaf()),
        N.WhileLoop(cond=xref, body=leaf()),
        N.DoLoop(var=x, lo=N.int_const(0), hi=N.int_const(9),
                 body=leaf()),
        N.ListParallelLoop(ptr=p, next_offset=4, advance=leaf(),
                           body=leaf()),
        N.Goto(label="l"),
        N.LabelStmt(label="l"),
        N.Return(value=xref),
    ]


_SAMPLES = {type(stmt): stmt for stmt in _sample_statements()}


class TestStatementSchema:
    def test_every_statement_kind_sampled(self):
        assert set(_SAMPLES) == set(N.Stmt.__subclasses__())

    @pytest.mark.parametrize("kind", list(_SAMPLES),
                             ids=lambda kind: kind.__name__)
    def test_schema_readers(self, kind):
        from dataclasses import fields

        from repro.opt.utils import rewrite_stmt_exprs
        stmt = _SAMPLES[kind]
        # Every expression and statement-list field is declared.
        for f in fields(kind):
            value = getattr(stmt, f.name)
            if isinstance(value, N.Expr):
                assert f.name in kind.expr_fields, f.name
            if isinstance(value, list):
                assert f.name in kind.list_fields, f.name
        assert kind.store_field in (None,) + kind.expr_fields
        # stmt_exprs yields every declared expression field, in order.
        assert list(N.stmt_exprs(stmt)) == [
            getattr(stmt, name) for name in kind.expr_fields]
        assert stmt.substatements() == tuple(
            getattr(stmt, name) for name in kind.list_fields)
        # An identity rewrite changes nothing, in either mode.
        before = format_stmt(stmt)
        assert not rewrite_stmt_exprs(stmt, lambda expr: expr)
        assert not rewrite_stmt_exprs(stmt, lambda expr: expr,
                                      targets=True)
        assert format_stmt(stmt) == before
        # A clone prints the same (masks kept) with fresh sids.
        (clone,) = N.clone_statements([stmt])
        assert format_stmt(clone) == before
        old = list(N.walk_statements([stmt]))
        new = list(N.walk_statements([clone]))
        assert [type(s) for s in new] == [type(s) for s in old]
        assert not {s.sid for s in old} & {s.sid for s in new}
        assert [s.line for s in new] == [s.line for s in old]
