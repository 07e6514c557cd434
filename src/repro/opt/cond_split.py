"""Termination splitting of search-style while loops (section 5.2).

"There are also a number of cases in which the condition of a loop is
necessary only to compute the termination point.  In such cases,
computing the termination criteria can often be pulled into a separate
loop.  The resulting bound can then be used in iterative loops
representing the major portion of the computation, which can then be
vectorized [AllK 85]."

Pattern::

    while (E)          /* E reads memory through the loop's IVs */
        WORK;          /* straight-line, with constant-step IVs  */

becomes::

    iv' = iv; ...              /* shadow copies of the IVs        */
    count = 0;
    while (E[iv -> iv']) {     /* serial chase: updates only      */
        iv' = iv' + step; ...
        count = count + 1;
    }
    do fortran k = 0, count-1  /* counted: vectorizable           */
        WORK;

Soundness requires that WORK's stores can never touch E's loads (in
*any* iteration — the chase runs before any work executes), which the
dependence tests must prove; that every variable E reads is either a
loop IV with an unconditional constant-step update or loop-invariant;
and that nothing else exits the loop.
"""

from __future__ import annotations

#: Canonical pass name used by the pipeline hook layer, the
#: per-pass checker, and bisection culprit reports.
PASS_NAME = "cond-split"
PASS_DESCRIPTION = "termination splitting of search loops (section 5.2)"

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..dependence.refs import AffineRef, collect_refs, parse_ref
from ..dependence.tests import test_pair
from ..frontend.ctypes_ import INT
from ..frontend.symtab import Symbol, SymbolTable
from ..il import nodes as N
from . import utils
from .affine import trace_step
from .fold import simplify


@dataclass
class CondSplitStats:
    examined: int = 0
    split: int = 0
    rejected: Dict[str, int] = field(default_factory=dict)

    def reject(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1

    @property
    def changed(self) -> bool:
        return self.split > 0


class TerminationSplitter:
    def __init__(self, symtab: SymbolTable):
        self.symtab = symtab
        self.stats = CondSplitStats()

    def run(self, fn: N.ILFunction) -> CondSplitStats:
        self._fn = fn

        def visit(loop: N.Stmt, owner: List[N.Stmt], index: int) -> None:
            if isinstance(loop, N.WhileLoop):
                self.stats.examined += 1
                replacement = self._try_split(loop)
                if replacement is not None:
                    utils.replace_stmt(owner, loop, replacement)
                    self.stats.split += 1

        utils.for_each_loop(fn.body, visit)
        return self.stats

    # ------------------------------------------------------------------

    def _try_split(self, loop: N.WhileLoop) -> Optional[List[N.Stmt]]:
        cond = loop.cond
        body = loop.body
        if not any(isinstance(e, N.Mem) for e in N.walk_expr(cond)):
            return None  # plain scalar conditions belong to while→DO
        if utils.expr_has_volatile(cond) or utils.expr_has_call(cond):
            self.stats.reject("condition-impure")
            return None
        if utils.has_irregular_flow(body):
            self.stats.reject("irregular-flow")
            return None
        for stmt in N.walk_statements(body):
            if isinstance(stmt, (N.CallStmt, N.WhileLoop, N.DoLoop,
                                 N.IfStmt, N.ListParallelLoop,
                                 N.VectorAssign)):
                self.stats.reject("body-shape")
                return None
            if isinstance(stmt.value, N.CallExpr) \
                    or utils.expr_has_volatile(stmt.value):
                self.stats.reject("body-impure")
                return None
        if not any(isinstance(s, N.Assign)
                   and isinstance(s.target, N.Mem) for s in body):
            self.stats.reject("no-work")
            return None  # nothing to vectorize; splitting buys nothing
        ivs = self._condition_ivs(cond, body)
        if ivs is None:
            return None
        # WORK's stores must be provably independent of E's loads.
        if not self._stores_cannot_touch_condition(cond, body, ivs):
            self.stats.reject("stores-may-hit-condition")
            return None
        return self._build(loop, ivs)

    def _condition_ivs(self, cond: N.Expr, body: List[N.Stmt]
                       ) -> Optional[Dict[Symbol, int]]:
        """Map each body-modified variable the condition reads to its
        constant step; None if any is not a clean IV."""
        defined = utils.symbols_defined_in(body)
        ivs: Dict[Symbol, int] = {}
        for sym in N.vars_read(cond):
            if sym not in defined:
                if sym.address_taken or sym.is_volatile:
                    self.stats.reject("condition-var-unsafe")
                    return None
                continue  # invariant
            if sym.is_volatile or sym.address_taken or sym.storage in (
                    "global", "static", "extern"):
                self.stats.reject("condition-var-unsafe")
                return None
            defs = [s for s in body
                    if utils.stmt_writes_scalar(s) == sym]
            all_defs = utils.scalar_defs_in(body).get(sym, [])
            if len(defs) != 1 or len(all_defs) != 1:
                self.stats.reject("iv-update-shape")
                return None
            step = trace_step(defs[0].value, body, body.index(defs[0]),
                              sym)
            if step is None or step == 0:
                self.stats.reject("iv-update-shape")
                return None
            ivs[sym] = step
        if not ivs:
            self.stats.reject("no-induction")
            return None
        return ivs

    def _stores_cannot_touch_condition(self, cond: N.Expr,
                                       body: List[N.Stmt],
                                       ivs: Dict[Symbol, int]) -> bool:
        """Every (store, condition-load) pair must be provably
        independent across all iterations."""
        loop_vars = list(ivs)
        defined = utils.symbols_defined_in(body)
        invariants = _Invariants(defined)
        cond_loads = [parse_ref(e, None, False, loop_vars, invariants)
                      for e in N.walk_expr(cond)
                      if isinstance(e, N.Mem)]
        stores = [parse_ref(s.target, s, True, loop_vars, invariants)
                  for s in body
                  if isinstance(s, N.Assign)
                  and isinstance(s.target, N.Mem)]
        for store in stores:
            for load in cond_loads:
                if store.base is None or load.base is None:
                    return False
                kind_s, sym_s = store.base
                kind_l, sym_l = load.base
                if kind_s == "array" and kind_l == "array" \
                        and sym_s != sym_l:
                    continue  # distinct named arrays
                if not store.same_shape(load):
                    return False
                # Same region: compare across iteration numbers.  Only
                # the single-IV equal-coefficient case is exact (the
                # unknown IV entry value cancels); bail otherwise.
                if len(ivs) != 1:
                    return False
                (iv, step), = ivs.items()
                if store.coeff(iv) != load.coeff(iv):
                    return False
                s_norm = _normalized(store, iv, step)
                l_norm = _normalized(load, iv, step)
                result = test_pair(s_norm, l_norm, iv, None)
                if result.possible:
                    return False
        return True

    # ------------------------------------------------------------------

    def _build(self, loop: N.WhileLoop,
               ivs: Dict[Symbol, int]) -> List[N.Stmt]:
        out: List[N.Stmt] = []
        shadow: Dict[Symbol, Symbol] = {}
        for sym in ivs:
            copy = self.symtab.fresh_temp(sym.ctype.unqualified(),
                                          f"chase_{sym.name}")
            self._fn.local_syms.append(copy)
            shadow[sym] = copy
            out.append(N.Assign(
                target=N.VarRef(sym=copy, ctype=copy.ctype),
                value=N.VarRef(sym=sym, ctype=sym.ctype)))
        count = self.symtab.fresh_temp(INT, "term_count")
        self._fn.local_syms.append(count)
        out.append(N.Assign(target=N.VarRef(sym=count, ctype=INT),
                            value=N.int_const(0)))
        chase_cond = loop.cond
        for sym, copy in shadow.items():
            chase_cond = utils.substitute_var(
                chase_cond, sym, N.VarRef(sym=copy, ctype=copy.ctype))
        chase_body: List[N.Stmt] = []
        for sym, step in ivs.items():
            copy = shadow[sym]
            chase_body.append(N.Assign(
                target=N.VarRef(sym=copy, ctype=copy.ctype),
                value=N.BinOp(op="+",
                              left=N.VarRef(sym=copy, ctype=copy.ctype),
                              right=N.int_const(step),
                              ctype=copy.ctype)))
        chase_body.append(N.Assign(
            target=N.VarRef(sym=count, ctype=INT),
            value=N.BinOp(op="+", left=N.VarRef(sym=count, ctype=INT),
                          right=N.int_const(1), ctype=INT)))
        out.append(N.WhileLoop(cond=chase_cond, body=chase_body))
        dovar = self.symtab.fresh_temp(INT, "dovar")
        self._fn.local_syms.append(dovar)
        hi = simplify(N.BinOp(op="-", left=N.VarRef(sym=count, ctype=INT),
                              right=N.int_const(1), ctype=INT))
        out.append(N.DoLoop(var=dovar, lo=N.int_const(0), hi=hi, step=1,
                            body=loop.body, pragmas=loop.pragmas))
        return out


class _Invariants:
    def __init__(self, defined):
        self.defined = set(defined)

    def __contains__(self, sym: Symbol) -> bool:
        return sym not in self.defined and not sym.address_taken \
            and not sym.is_volatile


def _normalized(ref: AffineRef, iv: Symbol, step: int) -> AffineRef:
    """Rescale a ref's IV coefficient so iteration numbers (not raw IV
    values) are the common index."""
    coeffs = dict(ref.coeffs)
    if iv in coeffs:
        coeffs[iv] = coeffs[iv] * step
    return AffineRef(mem=ref.mem, stmt=ref.stmt, is_write=ref.is_write,
                     base=ref.base, coeffs=coeffs,
                     sym_terms=ref.sym_terms, offset=ref.offset,
                     elem_type=ref.elem_type, span=ref.span)


def split_termination(fn: N.ILFunction,
                      symtab: SymbolTable) -> CondSplitStats:
    return TerminationSplitter(symtab).run(fn)
