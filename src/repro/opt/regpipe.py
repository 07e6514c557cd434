"""Register pipelining — scalar replacement of loop-carried array flow
(section 6, optimization 1).

The backsolve loop

    for (i = 0; i < n-2; i++)
        p[i] = z[i] * (y[i] - q[i]);      /* q = p - 1 element */

cannot vectorize (a recurrence), but the value ``q[i]`` reads is exactly
the value ``p[i-1]`` stored one iteration earlier.  "The Titan vectorizer
is able to recognize this regularity and pull the values up into
registers", eliminating a load per iteration and unblocking instruction
scheduling.  The transformation:

    f_reg = q[0];                          /* preload  */
    for (...) {
        f_reg = z[i] * (y[i] - f_reg);     /* reuse    */
        p[i]  = f_reg;                     /* store    */
    }

which is precisely the paper's section 6 output shape.
"""

from __future__ import annotations

#: Canonical pass name used by the pipeline hook layer, the
#: per-pass checker, and bisection culprit reports.
PASS_NAME = "reg-pipeline"
PASS_DESCRIPTION = "register pipelining (section 6)"

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..dependence.graph import AliasPolicy, DependenceGraph
from ..dependence.refs import AffineRef, collect_refs
from ..dependence.tests import test_pair
from ..frontend.ctypes_ import INT
from ..frontend.symtab import Symbol, SymbolTable
from ..il import nodes as N
from ..obs.remarks import RemarkCollector
from . import utils
from .fold import simplify


@dataclass
class RegPipeStats:
    loops_examined: int = 0
    loads_replaced: int = 0
    preloads_inserted: int = 0


class RegisterPipelining:
    def __init__(self, symtab: SymbolTable,
                 remarks: Optional[RemarkCollector] = None):
        self.symtab = symtab
        self.stats = RegPipeStats()
        self.remarks = remarks

    def run(self, fn: N.ILFunction) -> RegPipeStats:
        self._fn = fn

        def visit(loop: N.Stmt, owner: List[N.Stmt], index: int) -> None:
            if isinstance(loop, N.DoLoop) and not loop.vector \
                    and not loop.parallel:
                self._process(loop, owner)

        utils.for_each_loop(fn.body, visit)
        return self.stats

    # ------------------------------------------------------------------

    def _process(self, loop: N.DoLoop, owner: List[N.Stmt]) -> None:
        if not (N.is_const(loop.lo, 0) and loop.step == 1):
            return
        if not _straight_line(loop.body):
            return
        self.stats.loops_examined += 1
        graph = DependenceGraph(loop)
        loop_var = loop.var
        invariants = graph._invariant_symbols(
            utils.symbols_defined_in(loop.body))
        refs = collect_refs(loop.body, [loop_var], invariants)
        stores = [r for r in refs if r.is_write and r.base is not None]
        loads = [r for r in refs if not r.is_write
                 and r.base is not None]
        for store in stores:
            for load in loads:
                if self._pipeline_pair(loop, owner, store, load,
                                       stores, graph):
                    return  # graph is stale: one rewrite per pass

    def _pipeline_pair(self, loop: N.DoLoop, owner: List[N.Stmt],
                       store: AffineRef, load: AffineRef,
                       stores: List[AffineRef],
                       graph: DependenceGraph) -> bool:
        loop_var = loop.var
        if not store.same_shape(load):
            return False
        result = test_pair(store, load, loop_var, graph.trip_count)
        if not result.possible or result.distance != 1:
            return False
        if "<" not in result.directions or len(result.directions) != 1:
            return False
        body = loop.body
        store_idx = body.index(store.stmt)
        load_idx = body.index(load.stmt)
        if load_idx > store_idx:
            return False  # register would be clobbered before the read
        # No other store may alias the load: check the alias policy
        # first (different pointers may point anywhere in C), then try
        # to disprove analytically.
        for other in stores:
            if other is store:
                continue
            if other.base is None:
                return False
            if not graph.policy.may_alias(other, load):
                continue
            if not other.same_shape(load):
                return False  # may alias, not analyzable
            other_result = test_pair(other, load, loop_var,
                                     graph.trip_count)
            if other_result.possible:
                return False
        if load.mem.is_volatile or store.mem.is_volatile:
            return False
        # --- rewrite ---
        freg = self.symtab.fresh_temp(load.elem_type.unqualified(),
                                      "f_reg")
        self._fn.local_syms.append(freg)
        freg_ref = N.VarRef(sym=freg, ctype=freg.ctype)
        # Preload load's address at i = 0, guarded against zero trips.
        preload_addr = simplify(utils.substitute_var(
            N.clone_expr(load.mem.addr), loop_var, N.clone_expr(loop.lo)))
        preload = N.IfStmt(
            cond=N.BinOp(op=">=", left=N.clone_expr(loop.hi),
                         right=N.clone_expr(loop.lo), ctype=INT),
            then=[N.Assign(target=N.VarRef(sym=freg, ctype=freg.ctype),
                           value=N.Mem(addr=preload_addr,
                                       ctype=load.elem_type),
                           line=loop.line)],
            otherwise=[], line=loop.line)
        owner.insert(owner.index(loop), preload)
        # Replace the load with the register.
        _replace_mem(load.stmt, load.mem, freg_ref)
        # Split the store: f_reg = RHS; *addr = f_reg.
        target_stmt = store.stmt
        assert isinstance(target_stmt, N.Assign)
        value = target_stmt.value
        new_assign = N.Assign(target=N.VarRef(sym=freg,
                                              ctype=freg.ctype),
                              value=value, line=target_stmt.line)
        target_stmt.value = N.VarRef(sym=freg, ctype=freg.ctype)
        body.insert(body.index(target_stmt), new_assign)
        self.stats.loads_replaced += 1
        self.stats.preloads_inserted += 1
        if self.remarks is not None:
            self.remarks.transformed(
                PASS_NAME, self._fn.name,
                f"loop-carried flow pulled into register "
                f"'{freg.name}': load of the value stored one "
                f"iteration earlier (distance 1) replaced by a "
                f"register reuse, preload inserted before the loop",
                stmt=loop, register=freg.name)
        return True


def _straight_line(stmts: List[N.Stmt]) -> bool:
    return all(isinstance(s, N.Assign)
               and not isinstance(s.value, N.CallExpr) for s in stmts)


def _replace_mem(stmt: N.Stmt, mem: N.Mem, replacement: N.Expr) -> None:
    """Replace one specific Mem node (by identity) in a statement.

    Identity must be checked *before* rebuilding children (map_expr
    rebuilds interior nodes, which would break ``is``).
    """

    def rewrite(expr: N.Expr) -> N.Expr:
        if expr is mem:
            return N.clone_expr(replacement)
        children = [rewrite(c) for c in expr.children()]
        if children:
            return expr.replace_children(children)
        return expr

    if isinstance(stmt, N.Assign):
        stmt.value = rewrite(stmt.value)
        if isinstance(stmt.target, N.Mem) and stmt.target is not mem:
            stmt.target = N.Mem(addr=rewrite(stmt.target.addr),
                                ctype=stmt.target.ctype)
