"""Constant propagation with unreachable-code elimination (section 8).

Inlining makes constant propagation "essential (and often creates more
dead or unreachable code!)".  The paper rejects IF-conversion, basic
block reconstruction, and Wegman–Zadeck, and instead uses a worklist
heuristic:

    "During constant propagation, the compiler eliminates code that is
    detected as unreachable due to if conditions being simplified to
    false or true, loops which are detected as having zero iterations,
    etc.  When a statement is eliminated as being unreachable, all
    statements that its definition reaches are added to a list.  All
    constant assignments whose definitions can reach any statement in
    this list are then added to the heap for another round of possible
    propagation."

We implement exactly that shape: propagate → fold → prune unreachable
branches → the pruning re-seeds the worklist → repeat.  Statements
beyond always-taken branches are left for the separate postpass
(:func:`repro.opt.deadcode._prune_unreachable_tails` runs as part of
DCE), matching the paper's division of labour.
"""

from __future__ import annotations

#: Canonical pass name used by the pipeline hook layer, the
#: per-pass checker, and bisection culprit reports.
PASS_NAME = "constprop"
PASS_DESCRIPTION = "constant propagation + unreachable pruning (section 8)"

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Union

from ..analysis.flowgraph import FlowGraph, FlowNode
from ..analysis.manager import FunctionAnalyses
from ..analysis.usedef import UseDefChains
from ..frontend.symtab import Symbol
from ..il import nodes as N
from . import utils
from .fold import simplify_stmts


@dataclass
class ConstPropStats:
    rounds: int = 0
    constants_propagated: int = 0
    branches_folded: int = 0
    loops_deleted: int = 0
    statements_deleted: int = 0
    capped: bool = False  # ``max_rounds`` cut the fixed point short


def propagate_constants(fn: N.ILFunction,
                        globals_: Sequence[N.GlobalVar] = (),
                        max_rounds: int = 50,
                        analyses: Optional[FunctionAnalyses] = None
                        ) -> ConstPropStats:
    """``analyses`` is the caller's holder for ``fn``; each round that
    changes the function reports to it, so what the last round leaves
    (at least the flow graph) stays valid for the passes behind.

    The round confirming a fixed point is counted but not run when the
    round before it pruned nothing and left the set of constant
    definitions as it found it: same graph, same reaching definitions,
    same constants, every use of them already rewritten, every
    expression in normal form — nothing to find."""
    stats = ConstPropStats()
    if analyses is None:
        analyses = FunctionAnalyses(fn, globals_)
    while stats.rounds < max_rounds:
        stats.rounds += 1
        graph = analyses.graph
        consts = _constant_defs(graph)
        changed = _rewrite_uses(graph, analyses.chains, consts, stats)
        changed |= simplify_stmts(fn.body)
        if _prune_folded_branches(fn, stats):
            analyses.invalidate()
            continue
        if not changed:
            return stats
        analyses.expressions_rewritten()
        if _constant_defs(graph) == consts and stats.rounds < max_rounds:
            stats.rounds += 1
            return stats
    stats.capped = True
    return stats


def _constant_defs(graph: FlowGraph) -> Dict[FlowNode, N.Const]:
    """Flow nodes that assign a constant to a scalar."""
    out: Dict[FlowNode, N.Const] = {}
    for node in graph.nodes:
        stmt = node.stmt
        if node.kind == "assign" and isinstance(stmt, N.Assign) \
                and isinstance(stmt.target, N.VarRef) \
                and isinstance(stmt.value, N.Const) \
                and not stmt.target.is_volatile:
            out[node] = stmt.value
    return out


def _rewrite_uses(graph: FlowGraph, chains: UseDefChains,
                  consts: Dict[FlowNode, N.Const],
                  stats: ConstPropStats) -> bool:
    changed = False
    for node in graph.nodes:
        stmt = node.stmt
        if stmt is None:
            continue
        for sym in [u for u in chains.uses_of(node)
                    if isinstance(u, Symbol)]:
            if sym.is_volatile or sym in chains.aliased:
                continue
            value = _single_constant(chains, node, sym, consts)
            if value is None:
                continue
            replacement = N.Const(value=value.value, ctype=sym.ctype
                                  if sym.ctype.is_scalar else value.ctype)
            if _substitute_use(node, stmt, sym, replacement):
                stats.constants_propagated += 1
                changed = True
    return changed


def _single_constant(chains: UseDefChains, node: FlowNode, sym: Symbol,
                     consts: Dict[FlowNode, N.Const]
                     ) -> Optional[N.Const]:
    defs = chains.defs_reaching(node, sym)
    if not defs:
        return None
    values: Set[Union[int, float]] = set()
    for d in defs:
        const = consts.get(d.node)
        if const is None:
            return None
        values.add(const.value)
    if len(values) != 1:
        return None
    return consts[defs[0].node]


def _substitute_use(node: FlowNode, stmt: N.Stmt, sym: Symbol,
                    replacement: N.Const) -> bool:
    """Substitute sym in the parts of ``stmt`` this flow node models;
    report whether a read was actually replaced."""
    if node.kind in ("assign", "call", "return", "cond"):
        return utils.substitute_in_stmt(stmt, sym, replacement)
    if node.kind == "do_init":
        assert isinstance(stmt, N.DoLoop)
        lo, hi = stmt.lo, stmt.hi
        stmt.lo = utils.substitute_var(lo, sym, replacement)
        if sym != stmt.var:
            stmt.hi = utils.substitute_var(hi, sym, replacement)
        return stmt.lo is not lo or stmt.hi is not hi
    return False


def _prune_folded_branches(fn: N.ILFunction,
                           stats: ConstPropStats) -> bool:
    """Splice out branches whose conditions folded to constants."""
    changed = False

    def goto_target(dropped: List[N.Stmt]) -> bool:
        # Search the function for gotos only on behalf of a dead
        # branch with a label to protect (almost none have one).
        labels = utils.labels_in(dropped)
        return bool(labels and labels & utils.gotos_in(fn.body))

    for owner in list(utils.each_stmt_list(fn.body)):
        index = 0
        while index < len(owner):
            stmt = owner[index]
            if isinstance(stmt, N.IfStmt) and isinstance(stmt.cond,
                                                         N.Const):
                taken = stmt.then if stmt.cond.value else stmt.otherwise
                dropped = stmt.otherwise if stmt.cond.value else stmt.then
                if goto_target(dropped):
                    index += 1
                    continue  # the dead branch is a goto target
                stats.branches_folded += 1
                stats.statements_deleted += utils.count_statements(dropped)
                owner[index:index + 1] = taken
                changed = True
                continue
            if isinstance(stmt, N.WhileLoop) and N.is_const(stmt.cond, 0):
                if not goto_target(stmt.body):
                    stats.loops_deleted += 1
                    stats.statements_deleted += utils.count_statements(
                        stmt.body)
                    del owner[index]
                    changed = True
                    continue
            if isinstance(stmt, N.DoLoop) and _known_zero_trip(stmt):
                if not goto_target(stmt.body):
                    stats.loops_deleted += 1
                    stats.statements_deleted += utils.count_statements(
                        stmt.body)
                    # Fortran semantics: the loop variable is still set.
                    owner[index] = N.Assign(
                        target=N.VarRef(sym=stmt.var,
                                        ctype=stmt.var.ctype),
                        value=N.clone_expr(stmt.lo))
                    changed = True
                    continue
            index += 1
    return changed


def _known_zero_trip(loop: N.DoLoop) -> bool:
    if not (isinstance(loop.lo, N.Const) and isinstance(loop.hi, N.Const)):
        return False
    if loop.step > 0:
        return loop.lo.value > loop.hi.value
    return loop.lo.value < loop.hi.value
