"""Constant folding and algebraic simplification with C semantics.

Shared by constant propagation, while→DO conversion, IV substitution,
strength reduction, the vectorizer (e.g. folding ``4*temp_i`` bounds
and collapsing ``x + 0``) and the front end's initializers.  A constant
is folded by C's value rule in ``frontend/ctypes_.py`` — the oracle's
own arithmetic, float32 rounding included — so a folded value is the
value the machine computes; where the rule has no value (a zero
divisor, an infinity converted to an integer) nothing is folded.
"""

from __future__ import annotations

#: Canonical pass name used by the pipeline hook layer, the
#: per-pass checker, and bisection culprit reports.
PASS_NAME = "fold"
PASS_DESCRIPTION = "constant folding / algebraic simplification"

from typing import Optional, Sequence

from ..frontend.ctypes_ import CType, Value, binop_value, unop_value
from ..il import nodes as N
from .utils import rewrite_stmt_exprs

#: What the rule raises where an operation has no value.
_NO_VALUE = (ArithmeticError, ValueError)


def fold_binop(op: str, left: Value, right: Value,
               ctype: CType) -> Optional[Value]:
    """``binop_value``, or None where it has no value."""
    try:
        return binop_value(op, left, right, ctype)
    except _NO_VALUE:
        return None


def fold_unop(op: str, value: Value, ctype: CType) -> Optional[Value]:
    """``unop_value``, or None where it has no value."""
    try:
        return unop_value(op, value, ctype)
    except _NO_VALUE:
        return None


def coerce(value: Value, ctype: CType) -> Optional[Value]:
    """``ctype.convert``, or None where it has no value."""
    try:
        return ctype.convert(value)
    except _NO_VALUE:
        return None


def simplify(expr: N.Expr) -> N.Expr:
    """Bottom-up constant folding + algebraic identities on a tree.

    What comes back is in normal form — simplifying it again returns
    it unchanged — and is marked so (``Expr._normal``), as is every
    subtree this call normalized on the way: a second ask, or an ask
    about a tree rebuilt around normal subtrees, stops at the mark."""
    if expr._normal:
        return expr
    kids = expr.children()
    if kids:
        new = [simplify(kid) for kid in kids]
        for old_kid, new_kid in zip(kids, new):
            if new_kid is not old_kid:
                expr = expr.replace_children(new)
                break
    expr = _simplify_node(expr)
    expr._normal = True
    return expr


def simplify_stmt(stmt: N.Stmt) -> bool:
    """Simplify the statement's own expressions in place; report
    whether any was replaced."""
    return rewrite_stmt_exprs(stmt, simplify)


def simplify_stmts(stmts: Sequence[N.Stmt]) -> bool:
    """:func:`simplify_stmt` over a statement list and everything
    nested in it."""
    changed = False
    for stmt in N.walk_statements(stmts):
        changed |= simplify_stmt(stmt)
    return changed


def _simplify_node(expr: N.Expr) -> N.Expr:
    if isinstance(expr, N.BinOp):
        left, right = expr.left, expr.right
        if isinstance(left, N.Const) and isinstance(right, N.Const):
            value = fold_binop(expr.op, left.value, right.value,
                               expr.ctype)
            if value is not None:
                return N.Const(value=value, ctype=expr.ctype)
        # Identities (kept deliberately modest: x*0 -> 0 is unsafe for
        # floats with NaN, but this compiler targets the pre-IEEE-strict
        # era; we still avoid it unless the type is integral).
        if expr.op == "+":
            if N.is_const(left, 0) and not _is_float(left):
                return right
            if N.is_const(right, 0) and not _is_float(right):
                return left
        if expr.op == "-" and N.is_const(right, 0) \
                and not _is_float(right):
            return left
        if expr.op == "*":
            if N.is_const(left, 1):
                return _retype(right, expr.ctype)
            if N.is_const(right, 1):
                return _retype(left, expr.ctype)
            if expr.ctype.is_integer and (N.is_const(left, 0)
                                          or N.is_const(right, 0)):
                return N.Const(value=0, ctype=expr.ctype)
        if expr.op == "/" and N.is_const(right, 1):
            return _retype(left, expr.ctype)
        # Canonicalize constant-on-left for commutative integer + and *
        # so pattern matchers (dependence tests) see one shape.
        if expr.op in ("+", "*") and isinstance(right, N.Const) \
                and not isinstance(left, N.Const) \
                and expr.ctype.is_integer:
            return _simplify_node(N.BinOp(op=expr.op, left=right,
                                          right=left, ctype=expr.ctype))
        # Integer reassociation: c1 + (c2 + x) → (c1+c2) + x and
        # c1 + (x - c2) → (c1-c2) + x, so trip counts like
        # `1 + (n - 1)` collapse to `n`.
        if expr.op == "+" and expr.ctype.is_integer \
                and isinstance(left, N.Const) \
                and isinstance(expr.right, N.BinOp):
            inner = expr.right
            if inner.op == "+" and isinstance(inner.left, N.Const):
                merged = fold_binop("+", left.value, inner.left.value,
                                    expr.ctype)
                return _simplify_node(N.BinOp(
                    op="+", left=N.Const(value=merged, ctype=expr.ctype),
                    right=inner.right, ctype=expr.ctype))
            if inner.op == "-" and isinstance(inner.right, N.Const):
                merged = fold_binop("-", left.value, inner.right.value,
                                    expr.ctype)
                return _simplify_node(N.BinOp(
                    op="+", left=N.Const(value=merged, ctype=expr.ctype),
                    right=inner.left, ctype=expr.ctype))
        # c2 * (c1 * x) → (c1*c2) * x (scaled subscript chains).
        if expr.op == "*" and expr.ctype.is_integer \
                and isinstance(left, N.Const) \
                and isinstance(expr.right, N.BinOp) \
                and expr.right.op == "*" \
                and isinstance(expr.right.left, N.Const):
            merged = fold_binop("*", left.value, expr.right.left.value,
                                expr.ctype)
            return _simplify_node(N.BinOp(
                op="*", left=N.Const(value=merged, ctype=expr.ctype),
                right=expr.right.right, ctype=expr.ctype))
        return expr
    if isinstance(expr, N.UnOp) and isinstance(expr.operand, N.Const):
        value = fold_unop(expr.op, expr.operand.value, expr.ctype)
        if value is not None:
            return N.Const(value=value, ctype=expr.ctype)
        return expr
    if isinstance(expr, N.Cast) and isinstance(expr.operand, N.Const):
        value = coerce(expr.operand.value, expr.ctype)
        if value is not None:
            return N.Const(value=value, ctype=expr.ctype)
    if isinstance(expr, N.Cast) and expr.operand.ctype == expr.ctype:
        return expr.operand
    return expr


def _is_float(expr: N.Expr) -> bool:
    return expr.ctype.is_float


def _retype(expr: N.Expr, ctype: CType) -> N.Expr:
    if expr.ctype == ctype:
        return expr
    if isinstance(expr, N.Const):
        value = coerce(expr.value, ctype)
        if value is not None:
            return N.Const(value=value, ctype=ctype)
    if ctype.is_pointer and expr.ctype.is_integer:
        return expr  # address arithmetic mixes freely
    if expr.ctype.is_pointer and ctype.is_integer:
        return expr
    return N.Cast(operand=expr, ctype=ctype)


def const_int_value(expr: N.Expr) -> Optional[int]:
    """The integer value of a constant expression, else None."""
    expr = simplify(expr)
    if isinstance(expr, N.Const) and isinstance(expr.value, int):
        return expr.value
    return None


def static_trip_count(loop: N.DoLoop) -> Optional[int]:
    """How many times ``loop`` iterates, when its bounds are
    compile-time constants (never negative); else None."""
    lo = const_int_value(loop.lo)
    hi = const_int_value(loop.hi)
    if lo is None or hi is None or loop.step == 0:
        return None
    if loop.step > 0:
        return max(0, (hi - lo) // loop.step + 1)
    return max(0, (lo - hi) // (-loop.step) + 1)
