"""Shared helpers for optimization passes over the structured IL."""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..frontend.symtab import Symbol
from ..il import nodes as N


def each_stmt_list(stmts: List[N.Stmt]) -> Iterator[List[N.Stmt]]:
    """Yield every statement list in the tree, innermost last."""
    yield stmts
    for stmt in stmts:
        for sub in stmt.substatements():
            yield from each_stmt_list(sub)


def for_each_loop(stmts: List[N.Stmt],
                  fn: Callable[[N.Stmt, List[N.Stmt], int], None]) -> None:
    """Invoke ``fn(loop, owning_list, index)`` for every loop statement,
    innermost loops first (so transformations compose bottom-up)."""
    _for_each_loop_rec(stmts, fn)


def _for_each_loop_rec(stmts: List[N.Stmt], fn) -> None:
    for stmt in list(stmts):
        for sub in stmt.substatements():
            _for_each_loop_rec(sub, fn)
    for index, stmt in enumerate(list(stmts)):
        if isinstance(stmt, (N.WhileLoop, N.DoLoop)):
            if stmt in stmts:
                fn(stmt, stmts, stmts.index(stmt))


def replace_stmt(owner: List[N.Stmt], old: N.Stmt,
                 new: Sequence[N.Stmt]) -> None:
    index = owner.index(old)
    owner[index:index + 1] = list(new)


def scalar_defs_in(stmts: Sequence[N.Stmt]) -> Dict[Symbol, List[N.Stmt]]:
    """Map each scalar symbol to the statements in ``stmts`` (recursively)
    that assign it (strong scalar defs only)."""
    defs: Dict[Symbol, List[N.Stmt]] = {}
    for stmt in N.walk_statements(stmts):
        if isinstance(stmt, N.Assign) and isinstance(stmt.target, N.VarRef):
            defs.setdefault(stmt.target.sym, []).append(stmt)
        elif isinstance(stmt, N.DoLoop):
            defs.setdefault(stmt.var, []).append(stmt)
    return defs


def symbols_defined_in(stmts: Sequence[N.Stmt]) -> Set[Symbol]:
    return set(scalar_defs_in(stmts).keys())


def has_stores_or_calls(stmts: Sequence[N.Stmt]) -> bool:
    """Any memory store, vector store, or call inside?"""
    for stmt in N.walk_statements(stmts):
        if isinstance(stmt, N.Assign) and isinstance(stmt.target, N.Mem):
            return True
        if isinstance(stmt, (N.VectorAssign, N.CallStmt)):
            return True
        if isinstance(stmt, N.Assign) and isinstance(stmt.value,
                                                     N.CallExpr):
            return True
    return False


def expr_has_call(expr: N.Expr) -> bool:
    return any(isinstance(e, N.CallExpr) for e in N.walk_expr(expr))


def expr_has_load(expr: N.Expr) -> bool:
    return any(isinstance(e, (N.Mem, N.Section))
               for e in N.walk_expr(expr))


def expr_has_volatile(expr: N.Expr) -> bool:
    for e in N.walk_expr(expr):
        if isinstance(e, (N.VarRef, N.Mem)) and e.is_volatile:
            return True
    return False


def expr_is_invariant(expr: N.Expr, defined: Set[Symbol]) -> bool:
    """Is ``expr`` invariant w.r.t. a region that defines ``defined``?
    Memory loads are never invariant (stores may alias them)."""
    if expr_has_load(expr) or expr_has_call(expr) \
            or expr_has_volatile(expr):
        return False
    return all(sym not in defined for sym in N.vars_read(expr))


def substitute_var(expr: N.Expr, sym: Symbol,
                   replacement: N.Expr) -> N.Expr:
    """Replace every read of ``sym`` in ``expr`` with ``replacement``."""

    def visit(node: N.Expr) -> N.Expr:
        if isinstance(node, N.VarRef) and node.sym == sym:
            return N.clone_expr(replacement)
        return node

    return N.map_expr(expr, visit)


def substitute_in_stmt(stmt: N.Stmt, sym: Symbol,
                       replacement: N.Expr) -> bool:
    """In-place substitution of ``sym`` in the statement's own
    expressions (rvalues and address parts of the target).  Returns
    whether any read was replaced (``map_expr`` hands back the same
    node when nothing below it changed)."""
    changed = False

    def sub(expr: N.Expr) -> N.Expr:
        nonlocal changed
        new = substitute_var(expr, sym, replacement)
        changed |= new is not expr
        return new

    if isinstance(stmt, N.Assign):
        stmt.value = sub(stmt.value)
        if isinstance(stmt.target, N.Mem):
            stmt.target = N.Mem(addr=sub(stmt.target.addr),
                                ctype=stmt.target.ctype)
    elif isinstance(stmt, N.VectorAssign):
        stmt.value = sub(stmt.value)
        stmt.target = sub(stmt.target)
        if stmt.mask is not None:
            stmt.mask = sub(stmt.mask)
    elif isinstance(stmt, N.VectorReduce):
        stmt.value = sub(stmt.value)
        stmt.length = sub(stmt.length)
    elif isinstance(stmt, N.CallStmt):
        stmt.call = sub(stmt.call)
    elif isinstance(stmt, (N.IfStmt, N.WhileLoop)):
        stmt.cond = sub(stmt.cond)
    elif isinstance(stmt, N.DoLoop):
        stmt.lo = sub(stmt.lo)
        stmt.hi = sub(stmt.hi)
    elif isinstance(stmt, N.Return) and stmt.value is not None:
        stmt.value = sub(stmt.value)
    return changed


def stmt_reads(stmt: N.Stmt) -> Set[Symbol]:
    """Scalar symbols the statement's own expressions read."""
    out: Set[Symbol] = set()
    for expr in N.stmt_exprs(stmt):
        if isinstance(stmt, (N.Assign, N.VectorAssign)) \
                and expr is stmt.target:
            if isinstance(expr, N.Mem):
                out.update(N.vars_read(expr.addr))
            elif isinstance(expr, N.Section):
                out.update(N.vars_read(expr.addr))
                out.update(N.vars_read(expr.length))
            continue
        out.update(N.vars_read(expr))
    return out


def stmt_writes_scalar(stmt: N.Stmt) -> Optional[Symbol]:
    if isinstance(stmt, N.Assign) and isinstance(stmt.target, N.VarRef):
        return stmt.target.sym
    return None


def labels_in(stmts: Sequence[N.Stmt]) -> Set[str]:
    return {s.label for s in N.walk_statements(stmts)
            if isinstance(s, N.LabelStmt)}


def gotos_in(stmts: Sequence[N.Stmt]) -> Set[str]:
    return {s.label for s in N.walk_statements(stmts)
            if isinstance(s, N.Goto)}


def has_irregular_flow(stmts: Sequence[N.Stmt]) -> bool:
    """Gotos, labels, or returns anywhere inside (loop-body checks)."""
    for stmt in N.walk_statements(stmts):
        if isinstance(stmt, (N.Goto, N.LabelStmt, N.Return)):
            return True
    return False


def count_statements(stmts: Sequence[N.Stmt]) -> int:
    return sum(1 for _ in N.walk_statements(stmts))
