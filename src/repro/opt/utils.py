"""Shared helpers for optimization passes over the structured IL."""

from __future__ import annotations

import operator
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
    return bool(N.facts(expr).flags & N.HAS_CALL)


def expr_has_load(expr: N.Expr) -> bool:
    return bool(N.facts(expr).flags & N.HAS_LOAD)


def expr_has_volatile(expr: N.Expr) -> bool:
    return bool(N.facts(expr).flags & N.HAS_VOLATILE)


def expr_is_invariant(expr: N.Expr, defined: Set[Symbol]) -> bool:
    """Is ``expr`` invariant w.r.t. a region that defines ``defined``?
    Memory loads are never invariant (stores may alias them)."""
    reads, _, flags = N.facts(expr)
    return not flags and reads.isdisjoint(defined)


def substitute_var(expr: N.Expr, sym: Symbol,
                   replacement: N.Expr) -> N.Expr:
    """Replace every read of ``sym`` in ``expr`` with ``replacement``."""
    if sym not in N.facts(expr).reads:
        return expr

    def visit(node: N.Expr) -> N.Expr:
        if isinstance(node, N.VarRef) and node.sym == sym:
            return N.clone_expr(replacement)
        return node

    return N.map_expr(expr, visit)


def rewrite_stmt_exprs(stmt: N.Stmt, fn: Callable[[N.Expr], N.Expr],
                       targets: bool = False) -> bool:
    """Replace, in place, each expression ``e`` the statement itself
    evaluates (rvalues and the address parts of a store target; nested
    statements are the caller's) by ``fn(e)``; with ``targets`` a
    store target is passed to ``fn`` whole, so scalar targets are
    rewritten too.  Returns whether any came back a different node."""
    changed = False
    state = stmt.__dict__
    store = None if targets else stmt.store_field
    for name in stmt.expr_fields:
        old = state[name]
        if old is None:
            continue
        if name == store:
            kids = old.children()
            new_kids = list(map(fn, kids))
            if not any(map(operator.is_not, kids, new_kids)):
                continue
            new = old.replace_children(new_kids)
        else:
            new = fn(old)
            if new is old:
                continue
        state[name] = new
        changed = True
    return changed


def substitute_in_stmt(stmt: N.Stmt, sym: Symbol,
                       replacement: N.Expr) -> bool:
    """In-place substitution of ``sym`` in the statement's own
    expressions; returns whether any read was replaced."""
    return rewrite_stmt_exprs(
        stmt, lambda expr: substitute_var(expr, sym, replacement))


def stmt_reads(stmt: N.Stmt) -> Set[Symbol]:
    """Scalar symbols the statement's own expressions read."""
    out: Set[Symbol] = set()
    for expr in N.stmt_exprs(stmt):
        if isinstance(stmt, (N.Assign, N.VectorAssign)) \
                and expr is stmt.target:
            # A store's target reads only its address parts.
            for part in expr.children():
                out |= N.facts(part).reads
            continue
        out |= N.facts(expr).reads
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
