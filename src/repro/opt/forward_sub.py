"""Forward substitution with the paper's blocking/backtracking heuristic.

Section 5.3: rather than Morel–Renvoise partial redundancy machinery, the
Titan compiler substitutes assignments forward through a loop body and,
"when a statement is rejected for substitution only because a later
statement redefines a variable used by that statement, the later
statement is marked as *blocking* the first statement.  When a blocking
statement is substituted forward, all the statements it blocks are
reexamined."

This module is that engine.  It operates on one statement list (the
straight-line spine of a loop body or block).  Reads *inside* nested
statements can be substituted when the defining expression is invariant
over the nested region; a definition inside a nested region blocks.

The caller (IV substitution, the driver) is responsible for re-invoking
after it removes blocking statements; :class:`SubstitutionStats` exposes
the pass/backtrack counts that experiment E5 reports.
"""

from __future__ import annotations

#: Canonical pass name used by the pipeline hook layer, the
#: per-pass checker, and bisection culprit reports.
PASS_NAME = "forward-sub"
PASS_DESCRIPTION = "forward substitution with blocking/backtracking (section 5.3)"

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set

from ..frontend.symtab import Symbol
from ..il import nodes as N
from . import utils
from .fold import simplify_stmt


@dataclass
class SubstitutionStats:
    sweeps: int = 0
    substitutions: int = 0
    blocked: int = 0
    backtracks: int = 0
    # sid of blocking stmt -> sids it blocks (diagnostic mirror of the
    # paper's blocking lists).
    blocking: Dict[int, Set[int]] = field(default_factory=dict)
    capped: bool = False  # the sweep bound cut the last call short

    @property
    def changed(self) -> bool:
        """Did the pass edit the IL?  (The driver invalidates the
        function's cached analyses on it.)"""
        return self.substitutions > 0


def _substitutable_rhs(expr: N.Expr, aggressive: bool) -> bool:
    """May this RHS be duplicated into its use sites?

    Pure, no loads (a later store could alias), no volatile, no calls.
    Non-aggressive mode only moves trivially cheap expressions; inside
    loop bodies the vectorizer is "safe in propagating address constants
    and performing induction variable substitution because strength
    reduction and subexpression elimination will undo any damage"
    (section 11), so aggressive mode moves any pure expression.
    """
    if utils.expr_has_call(expr) or utils.expr_has_load(expr) \
            or utils.expr_has_volatile(expr):
        return False
    if aggressive:
        return True
    if isinstance(expr, (N.Const, N.VarRef, N.AddrOf)):
        return True
    # Address constants (`&x + 4`) propagate freely even in conservative
    # mode: "the vectorizer is safe in propagating address constants ...
    # because strength reduction and subexpression elimination will undo
    # any damage" (section 11).
    return expr.ctype.is_pointer and _is_address_expr(expr)


def _is_address_expr(expr: N.Expr) -> bool:
    if isinstance(expr, (N.Const, N.AddrOf, N.VarRef)):
        return True
    if isinstance(expr, N.BinOp) and expr.op in ("+", "-", "*"):
        return _is_address_expr(expr.left) and _is_address_expr(expr.right)
    if isinstance(expr, N.Cast):
        return _is_address_expr(expr.operand)
    return False


def _candidate_target(stmt: N.Stmt) -> Optional[Symbol]:
    if not isinstance(stmt, N.Assign) \
            or not isinstance(stmt.target, N.VarRef):
        return None
    sym = stmt.target.sym
    if sym.is_volatile or sym.address_taken:
        return None
    if sym.storage in ("global", "static", "extern"):
        return None
    return sym


def forward_substitute(stmts: List[N.Stmt], aggressive: bool = False,
                       stats: Optional[SubstitutionStats] = None,
                       max_sweeps: Optional[int] = None
                       ) -> SubstitutionStats:
    """Run forward substitution over one statement list to fixpoint.

    Each sweep walks the list once; a sweep that performs a substitution
    may unblock earlier statements, so we sweep again — bounded by the
    paper's worst case of n passes (n = number of statements);
    ``stats.capped`` says the bound cut a sweep that still had work.
    """
    stats = stats or SubstitutionStats()
    limit = max_sweeps if max_sweeps is not None else len(stmts) + 1
    # See _summary; the list neither grows nor shrinks in this call.
    summaries: List[Optional[list]] = [None] * len(stmts)
    changed = True
    while changed and stats.sweeps < limit:
        stats.sweeps += 1
        changed = _sweep(stmts, summaries, aggressive, stats)
        if changed:
            stats.backtracks += 1
    stats.capped = changed
    if stats.backtracks:
        stats.backtracks -= 1  # the last sweep confirmed the fixpoint
    return stats


def _summary(summaries: List[Optional[list]], index: int,
             stmt: N.Stmt) -> list:
    """``[barrier, inner_defs, reads]`` of ``stmts[index]``, nested
    statements included.  Substitution rewrites expressions only, so
    the first two hold for the whole call; ``reads`` is dropped (None)
    when a substitution lands in the statement, and re-derived here."""
    summary = summaries[index]
    if summary is None:
        # A label makes the point reachable without the definition (a
        # nested one can be jumped to from outside the region); after
        # a goto or return everything is on another path.
        barrier = isinstance(stmt, (N.Goto, N.Return)) \
            or bool(utils.labels_in([stmt]))
        summary = summaries[index] = [
            barrier, utils.symbols_defined_in([stmt]), None]
    if summary[2] is None:
        summary[2] = set().union(
            *map(utils.stmt_reads, N.walk_statements([stmt])))
    return summary


def _sweep(stmts: List[N.Stmt], summaries: List[Optional[list]],
           aggressive: bool, stats: SubstitutionStats) -> bool:
    changed = False
    for index, stmt in enumerate(stmts):
        sym = _candidate_target(stmt)
        if sym is None:
            continue
        rhs = stmt.value
        if not _substitutable_rhs(rhs, aggressive):
            continue
        rhs_vars = N.facts(rhs).reads
        if sym in rhs_vars:
            continue  # self-referential update (an IV, handled elsewhere)
        changed |= _substitute_from(stmts, summaries, index, sym, rhs,
                                    rhs_vars, stats)
    return changed


def _substitute_from(stmts: List[N.Stmt],
                     summaries: List[Optional[list]], def_index: int,
                     sym: Symbol, rhs: N.Expr, rhs_vars: FrozenSet[Symbol],
                     stats: SubstitutionStats) -> bool:
    changed = False
    for later_index in range(def_index + 1, len(stmts)):
        later = stmts[later_index]
        summary = _summary(summaries, later_index, later)
        barrier, inner_defs, reads = summary
        # A return's own expression still sees the definition; nothing
        # after it on this path does.
        if barrier and not (isinstance(later, N.Return) and sym in reads):
            break
        if sym in reads:
            if later.substatements():
                # Substituting into a nested region requires the RHS to
                # be invariant over it.
                if sym in inner_defs or not inner_defs.isdisjoint(rhs_vars):
                    _record_block(stats, later, stmts[def_index])
                    break
                _substitute_nested(later, sym, rhs)
            utils.substitute_in_stmt(later, sym, rhs)
            simplify_stmt(later)
            summary[2] = None
            stats.substitutions += 1
            changed = True
        if barrier or sym in inner_defs:
            break  # the return; or a new definition of sym
        if not inner_defs.isdisjoint(rhs_vars):
            _record_block(stats, later, stmts[def_index])
            break  # RHS value is stale past this point
    return changed


def _substitute_nested(stmt: N.Stmt, sym: Symbol, rhs: N.Expr) -> None:
    for sublist in stmt.substatements():
        for sub in sublist:
            utils.substitute_in_stmt(sub, sym, rhs)
            _substitute_nested(sub, sym, rhs)
            simplify_stmt(sub)


def _record_block(stats: SubstitutionStats, blocker: N.Stmt,
                  blocked: N.Stmt) -> None:
    stats.blocked += 1
    stats.blocking.setdefault(blocker.sid, set()).add(blocked.sid)
