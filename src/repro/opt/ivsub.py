"""Induction-variable substitution (section 5.3).

C's idioms — ``*a++ = *b++; n--;`` — hand the front end a loop "ripe
with opportunities for induction variable substitution".  For each
normalized DO loop (``do dovar = 0, count-1, 1``) this pass:

1. discovers *basic induction variables*: scalars (including pointers)
   whose only defs in the body are unconditional top-level updates whose
   traced effect is ``v = v + c`` for integer constant ``c``;
2. rewrites every other read of ``v`` in the body to the closed form
   ``v + c*dovar`` (before the update) or ``v + c*(dovar+1)`` (after) —
   ``v`` then holds its loop-entry value throughout;
3. deletes the update and reconstructs the exit value after the loop:
   ``v = v + c * max(count, 0)`` (the paper's §9 transcript shows
   exactly this: ``in_x = in_x + 400; in_n = in_n - 100;``);
4. re-runs forward substitution so the now-unblocked temp chains
   (``temp_1 = x`` blocked by ``x = temp_1 + 4``) substitute into the
   star assignments — the paper's blocking/backtracking heuristic.

The worst case is n passes over the loop; in practice one suffices
(experiment E5 measures this claim).
"""

from __future__ import annotations

#: Canonical pass name used by the pipeline hook layer, the
#: per-pass checker, and bisection culprit reports.
PASS_NAME = "ivsub"
PASS_DESCRIPTION = "induction-variable substitution (section 5.3)"

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..frontend.ctypes_ import INT
from ..frontend.symtab import Symbol, SymbolTable
from ..il import nodes as N
from ..obs.remarks import RemarkCollector
from . import utils
from .affine import reads_through_chain, trace_step
from .fold import simplify, simplify_stmts
from .forward_sub import SubstitutionStats, forward_substitute


@dataclass
class IVSubStats:
    loops: int = 0
    ivs_substituted: int = 0
    sweeps: int = 0
    backtracks: int = 0
    substitutions: int = 0
    # A loop body's closing re-simplification replaced an expression.
    simplified: bool = False
    # ``(sweeps, capped)`` of each loop's forward-substitution run.
    forward_sub_runs: List[Tuple[int, bool]] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return self.restructured or self.substitutions > 0 \
            or self.simplified

    @property
    def restructured(self) -> bool:
        """Statements added or removed, not just expressions rewritten."""
        return self.ivs_substituted > 0


class InductionVariableSubstitution:
    def __init__(self, symtab: SymbolTable,
                 aggressive_forward_sub: bool = True,
                 remarks: Optional[RemarkCollector] = None):
        self.symtab = symtab
        self.aggressive = aggressive_forward_sub
        self.stats = IVSubStats()
        self.remarks = remarks

    def run(self, fn: N.ILFunction) -> IVSubStats:
        def visit(loop: N.Stmt, owner: List[N.Stmt], index: int) -> None:
            if isinstance(loop, N.DoLoop) and not loop.vector:
                self._process(loop, owner, fn)

        utils.for_each_loop(fn.body, visit)
        return self.stats

    # ------------------------------------------------------------------

    def _process(self, loop: N.DoLoop, owner: List[N.Stmt],
                 fn: N.ILFunction) -> None:
        if not (N.is_const(loop.lo, 0) and loop.step == 1):
            return  # only normalized loops (while→DO emits these)
        if utils.has_irregular_flow(loop.body):
            return
        self.stats.loops += 1
        ivs = self._find_ivs(loop)
        if ivs:
            # Capture the trip count before the loop: the hi expression
            # references entry values of variables the exit-value fixups
            # below are about to change.
            trip = self.symtab.fresh_temp(INT, "trip")
            fn.local_syms.append(trip)
            position = owner.index(loop)
            count = N.BinOp(op="max", left=N.int_const(0),
                            right=N.BinOp(op="+",
                                          left=N.clone_expr(loop.hi),
                                          right=N.int_const(1),
                                          ctype=INT),
                            ctype=INT)
            owner.insert(position, N.Assign(
                target=N.VarRef(sym=trip, ctype=INT),
                value=simplify(count), line=loop.line))
            insert_at = owner.index(loop) + 1
            for sym, (update_stmt, step) in ivs.items():
                self._substitute_iv(loop, sym, update_stmt, step)
                exit_stmt = self._exit_value_stmt(trip, sym, step)
                exit_stmt.line = loop.line
                owner.insert(insert_at, exit_stmt)
                insert_at += 1
                self.stats.ivs_substituted += 1
                if self.remarks is not None:
                    self.remarks.transformed(
                        "ivsub", fn.name,
                        f"induction variable '{sym.name}' substituted "
                        f"(step {step:+d} per iteration); closed form "
                        f"used in the body, exit value reconstructed "
                        f"after the loop", stmt=loop, var=sym.name,
                        step=step)
        # Backtracking: removing the IV updates unblocks the temp-chain
        # copies; forward substitution now pushes them into the uses.
        sub_stats = SubstitutionStats()
        forward_substitute(loop.body, aggressive=self.aggressive,
                           stats=sub_stats)
        self.stats.sweeps += sub_stats.sweeps
        self.stats.backtracks += sub_stats.backtracks
        self.stats.substitutions += sub_stats.substitutions
        self.stats.forward_sub_runs.append((sub_stats.sweeps,
                                            sub_stats.capped))
        if self.remarks is not None and sub_stats.blocked:
            self.remarks.analysis(
                "ivsub", fn.name,
                f"forward substitution blocked {sub_stats.blocked} "
                f"time(s) by intervening definitions (section 5.3)",
                stmt=loop, blocked=sub_stats.blocked)
        if self.remarks is not None and sub_stats.backtracks:
            self.remarks.analysis(
                "ivsub", fn.name,
                f"forward substitution backtracked "
                f"{sub_stats.backtracks} time(s) after blocked copies "
                f"were unblocked; {sub_stats.sweeps} sweep(s), "
                f"{sub_stats.substitutions} substitution(s) "
                f"(section 5.3 worst case is one sweep per statement)",
                stmt=loop, backtracks=sub_stats.backtracks,
                sweeps=sub_stats.sweeps,
                substitutions=sub_stats.substitutions)
        self.stats.simplified |= simplify_stmts(loop.body)

    # -- IV discovery -----------------------------------------------------

    def _find_ivs(self, loop: N.DoLoop
                  ) -> Dict[Symbol, Tuple[N.Stmt, int]]:
        body = loop.body
        defs = utils.scalar_defs_in(body)
        out: Dict[Symbol, Tuple[N.Stmt, int]] = {}
        for sym, sym_defs in defs.items():
            if sym == loop.var or sym.is_volatile or sym.address_taken:
                continue
            if sym.storage in ("global", "static", "extern"):
                continue  # a call or store could observe mid-loop values
            if not (sym.ctype.is_integer or sym.ctype.is_pointer):
                continue
            if len(sym_defs) != 1:
                continue
            update = sym_defs[0]
            if update not in body:
                continue  # conditional update
            if not isinstance(update, N.Assign):
                continue
            # The update must read sym (directly or via temp chain) —
            # otherwise it's a plain assignment, not an induction.
            step = trace_step(update.value, body, body.index(update), sym)
            if step is None or step == 0:
                continue
            if not reads_through_chain(update.value, body,
                                       body.index(update), sym):
                continue
            # Calls in the body could observe sym if its address escapes
            # — excluded above via address_taken.
            out[sym] = (update, step)
        return out

    # -- the rewrite -------------------------------------------------------

    def _substitute_iv(self, loop: N.DoLoop, sym: Symbol,
                       update: N.Stmt, step: int) -> None:
        body = loop.body
        update_index = body.index(update)
        k = N.VarRef(sym=loop.var, ctype=INT)
        before = _affine(sym, step, k, extra=0)
        after = _affine(sym, step, k, extra=1)
        for index, stmt in enumerate(body):
            if stmt is update:
                continue
            replacement = before if index < update_index else after
            utils.substitute_in_stmt(stmt, sym, replacement)
            for sublist in stmt.substatements():
                _substitute_rec(sublist, sym, replacement)
        body.remove(update)
        simplify_stmts(loop.body)

    def _exit_value_stmt(self, trip: Symbol, sym: Symbol,
                         step: int) -> N.Stmt:
        total = simplify(N.BinOp(op="*", left=N.int_const(step),
                                 right=N.VarRef(sym=trip, ctype=INT),
                                 ctype=INT))
        return N.Assign(
            target=N.VarRef(sym=sym, ctype=sym.ctype),
            value=simplify(N.BinOp(op="+",
                                   left=N.VarRef(sym=sym, ctype=sym.ctype),
                                   right=total, ctype=sym.ctype)))


def _affine(sym: Symbol, step: int, k: N.VarRef, extra: int) -> N.Expr:
    """``sym + step*(k + extra)`` with the constant part folded."""
    ctype = sym.ctype
    term: N.Expr = N.BinOp(op="*", left=N.int_const(step),
                           right=N.clone_expr(k), ctype=INT)
    if extra:
        term = N.BinOp(op="+", left=term, right=N.int_const(step * extra),
                       ctype=INT)
    return N.BinOp(op="+", left=N.VarRef(sym=sym, ctype=ctype),
                   right=term, ctype=ctype)


def _substitute_rec(stmts: List[N.Stmt], sym: Symbol,
                    replacement: N.Expr) -> None:
    for stmt in stmts:
        utils.substitute_in_stmt(stmt, sym, replacement)
        for sublist in stmt.substatements():
            _substitute_rec(sublist, sym, replacement)


def substitute_induction_variables(fn: N.ILFunction,
                                   symtab: SymbolTable) -> IVSubStats:
    return InductionVariableSubstitution(symtab).run(fn)
