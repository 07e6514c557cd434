"""IL well-formedness checks.

The invariants here are exactly the representation guarantees the paper's
section 3/4 relies on; every optimization pass may assume them and the
test suite re-validates after each pass:

1. Expressions are pure: no ``CallExpr`` nested inside another
   expression; calls appear only directly under ``Assign``/``CallStmt``.
2. Assignment targets are lvalues (``VarRef`` or ``Mem``); ``Section``
   targets appear only in ``VectorAssign``.
3. ``DoLoop`` steps are non-zero integer constants and loop variables
   are scalar integer symbols held in registers, never ones that live
   in memory (:func:`~repro.il.nodes.lives_in_memory`): the passes
   that make DO loops give each a fresh temporary, and the static walk
   prices a loop's control as register work.
4. Labels referenced by ``goto`` exist in the function.
5. Statement ids are unique within a function — and, program-wide,
   across functions (:func:`validate_unique_sids`), because loop
   schedules and the hot-loop profiler key on sids globally.  The
   pipeline re-checks this after the inliner (which clones statements
   between functions) and the vectorizer (which rebuilds loop bodies),
   the two passes that manufacture statements wholesale.
6. ``Section`` references are well-formed: a non-zero integer stride,
   integer-typed length and address expressions, and a scalar element
   type (vector hardware moves scalars, not aggregates).
7. An integer- or float-typed ``Const`` holds a value of its type: one
   its type's conversion (``CType.convert``) leaves unchanged — a
   ``float`` constant is a float32 value, an ``int`` one is in range —
   NaN excepted.  A constant is what the machine would hold, so the
   folder and every engine read the same number.
8. Every ``Section.held`` and ``Iota.held`` mark is justified: the
   section or index vector is an entry of a vector store — in a strip
   loop's body or in a run of bare statements of any other statement
   list — and the one rule of the vector register file
   (:func:`repro.titan.vector_ops.held_loads`, without a register
   budget) holds it: an equal section stored or loaded, or an equal
   index vector computed, earlier in the same strip or run (or
   earlier in the same statement), and no store that may overlap it,
   call or write to what its address, start or length reads in
   between.  A pass that reorders, deletes or rewrites a strip's or a
   run's statements cannot leave a stale mark.
9. A ``VectorReduce``'s terms are well-formed: pure expressions,
   some term reading a vector section (the others may be broadcasts
   or index vectors), each reduced with ``+``, ``-``, ``min`` or
   ``max``; a ``min``/``max`` reduction has one term, a chain's terms
   are ``+`` and ``-``.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..titan.vector_ops import held_loads, held_scopes
from . import nodes as N


class ILValidationError(Exception):
    pass


def _check_const(const: N.Const) -> None:
    ctype, value = const.ctype, const.value
    if not (ctype.is_integer or ctype.is_float) or value != value:
        return
    try:
        converted = ctype.convert(value)
    except (ArithmeticError, ValueError):
        converted = None
    if converted != value:
        raise ILValidationError(
            f"{ctype} constant {value!r} is not a value of its type")


def _check_pure(expr: N.Expr, top: bool = True) -> None:
    if isinstance(expr, N.Const):
        _check_const(expr)
        return
    if isinstance(expr, N.CallExpr):
        if not top:
            raise ILValidationError(
                f"nested call {expr.name!r} inside an expression")
        for arg in expr.args:
            _check_pure(arg, top=False)
        return
    for child in expr.children():
        _check_pure(child, top=False)


def _check_section(section: N.Section, where: str) -> None:
    """Stride/bounds well-formedness of one vector section."""
    if not isinstance(section.stride, int):
        raise ILValidationError(
            f"{where}: Section stride {section.stride!r} is not an "
            "integer constant")
    if section.stride == 0:
        raise ILValidationError(f"{where}: Section with zero stride")
    if section.addr is None:
        raise ILValidationError(f"{where}: Section without an address")
    if section.length is None:
        raise ILValidationError(f"{where}: Section without a length")
    if not section.length.ctype.is_integer:
        raise ILValidationError(
            f"{where}: Section length has non-integer type "
            f"{section.length.ctype}")
    if not section.addr.ctype.is_integer \
            and not section.addr.ctype.is_pointer:
        raise ILValidationError(
            f"{where}: Section address has non-address type "
            f"{section.addr.ctype}")


def _check_sections(stmt: N.Stmt, fn_name: str) -> int:
    """Check the statement's sections; its ``held`` marks."""
    where = f"{type(stmt).__name__} (sid {stmt.sid}) in {fn_name}"
    held = 0
    for top in N.stmt_exprs(stmt):
        for expr in N.walk_expr(top):
            if isinstance(expr, N.Section):
                _check_section(expr, where)
                held += expr.held
            elif isinstance(expr, N.Iota):
                held += expr.held
    return held


def _check_marks(fn: N.ILFunction,
                 marked: List[Tuple[N.Stmt, int]]) -> None:
    """Invariant 8 over ``marked``: vector statements and how many
    held marks each carries."""
    # Per vector store (by identity), its entries' outcomes under the
    # rule of the vector register file.
    justified: Dict[int, tuple] = {
        id(stmt): entries for where, stmts in held_scopes(fn.body)
        for stmt, entries in zip(stmts, held_loads(where)) if entries}
    for stmt, held in marked:
        if held != sum(
                node.held and outcome == "held"
                for node, outcome in justified.get(id(stmt), ())):
            raise ILValidationError(
                f"{type(stmt).__name__} (sid {stmt.sid}) in {fn.name}: "
                "a section or index vector is marked held that nothing "
                "earlier in its strip or run leaves in a vector "
                "register")


def _check_terms(stmt: N.VectorReduce) -> None:
    terms = stmt.terms()
    for op, value in terms:
        if op not in ("+", "-", "min", "max"):
            raise ILValidationError(
                f"unsupported reduction operator {op!r}")
        if len(terms) > 1 and op not in ("+", "-"):
            raise ILValidationError(
                f"reduction operator {op!r} in a chain of "
                f"{len(terms)} terms")
        _check_pure(value, top=False)
    if not any(isinstance(e, N.Section)
               for _, value in terms for e in N.walk_expr(value)):
        raise ILValidationError("VectorReduce value has no vector section")


def validate_function(fn: N.ILFunction) -> None:
    labels: Set[str] = set()
    gotos: List[str] = []
    sids: Set[int] = set()
    # Vector statements with a held mark: checked once the whole
    # function is well-formed.
    marked: List[Tuple[N.Stmt, int]] = []
    for stmt in fn.all_statements():
        if stmt.sid in sids:
            raise ILValidationError(
                f"duplicate statement id {stmt.sid} in {fn.name}")
        sids.add(stmt.sid)
        if isinstance(stmt, N.LabelStmt):
            if stmt.label in labels:
                raise ILValidationError(
                    f"duplicate label {stmt.label!r} in {fn.name}")
            labels.add(stmt.label)
        elif isinstance(stmt, N.Goto):
            gotos.append(stmt.label)
        if isinstance(stmt, N.Assign):
            if not isinstance(stmt.target, (N.VarRef, N.Mem)):
                raise ILValidationError(
                    f"assignment target {stmt.target!r} is not an lvalue")
            _check_pure(stmt.value, top=True)
            _check_pure(stmt.target, top=False)
        elif isinstance(stmt, N.VectorAssign):
            if not isinstance(stmt.target, N.Section):
                raise ILValidationError(
                    "VectorAssign target must be a Section")
            _check_pure(stmt.value, top=False)
            _check_pure(stmt.target, top=False)
            if stmt.mask is not None:
                _check_pure(stmt.mask, top=False)
                if not stmt.mask.ctype.is_integer:
                    raise ILValidationError(
                        "VectorAssign mask has non-integer type "
                        f"{stmt.mask.ctype}")
        elif isinstance(stmt, N.VectorReduce):
            if not isinstance(stmt.target, N.VarRef):
                raise ILValidationError(
                    "VectorReduce target must be a scalar variable")
            _check_terms(stmt)
        elif isinstance(stmt, N.CallStmt):
            _check_pure(stmt.call, top=True)
        elif isinstance(stmt, N.IfStmt):
            _check_pure(stmt.cond, top=False)
        elif isinstance(stmt, N.WhileLoop):
            _check_pure(stmt.cond, top=False)
        elif isinstance(stmt, N.DoLoop):
            if stmt.step == 0:
                raise ILValidationError("DoLoop with zero step")
            if not stmt.var.ctype.is_integer:
                raise ILValidationError(
                    f"DoLoop variable {stmt.var.name} is not integer")
            if N.lives_in_memory(stmt.var):
                raise ILValidationError(
                    f"DoLoop variable {stmt.var.name} lives in memory")
            _check_pure(stmt.lo, top=False)
            _check_pure(stmt.hi, top=False)
        elif isinstance(stmt, N.Return) and stmt.value is not None:
            _check_pure(stmt.value, top=False)
        if isinstance(stmt, (N.VectorAssign, N.VectorReduce)):
            held = _check_sections(stmt, fn.name)
            if held:
                marked.append((stmt, held))
        if isinstance(stmt, N.ListParallelLoop):
            if not stmt.ptr.ctype.is_pointer:
                raise ILValidationError(
                    f"list loop variable {stmt.ptr.name} is not a "
                    "pointer")
            if not stmt.advance:
                raise ILValidationError(
                    "list loop with empty advance section")
            for sub in N.walk_statements(stmt.body):
                if isinstance(sub, (N.Goto, N.LabelStmt, N.Return,
                                    N.CallStmt)):
                    raise ILValidationError(
                        "irregular statement inside a parallel list "
                        "body")
    for label in gotos:
        if label not in labels:
            raise ILValidationError(
                f"goto to undefined label {label!r} in {fn.name}")
    if marked:
        _check_marks(fn, marked)


def validate_unique_sids(program: N.ILProgram) -> None:
    """Statement ids must be unique across the *whole program*.

    Per-function uniqueness (checked by :func:`validate_function`) is
    what use-def chains and the dependence graph need, but loop
    schedules, the hot-loop profiler, and the bisector's culprit
    reports all key on sids program-wide.  The inliner clones callee
    statements into callers and the vectorizer rebuilds loop bodies,
    so the pipeline re-checks this invariant right after both.
    """
    owner: Dict[int, str] = {}
    for fn in program.functions.values():
        for stmt in fn.all_statements():
            prior = owner.get(stmt.sid)
            if prior is not None and prior != fn.name:
                raise ILValidationError(
                    f"statement id {stmt.sid} appears in both "
                    f"{prior} and {fn.name}")
            if prior == fn.name:
                raise ILValidationError(
                    f"duplicate statement id {stmt.sid} in {fn.name}")
            owner[stmt.sid] = fn.name


def validate_program(program: N.ILProgram) -> None:
    for fn in program.functions.values():
        validate_function(fn)
