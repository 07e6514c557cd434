"""Parallelization of linked-list loops (section 10, implemented).

"A prime example of such a loop is code that operates on a linked list.
Such a loop cannot be vectorized with any benefit, but it can be spread
across multiple processors by pulling the code for moving to the next
element into the serialized portion of the parallel loop. ... This
enhancement ... does require an assumption that each motion down a
pointer goes to independent storage."

Recognition (on the post-scalar-opt IL):

* ``while (p != 0) { WORK...; ADVANCE }`` where ``p`` is a local,
  non-address-taken pointer;
* ADVANCE is the backward slice computing ``p = *(p + k)`` (the link
  load, possibly through the front end's temp chain), and nothing in
  WORK reads the slice's temps;
* WORK contains no calls, volatile accesses, or irregular flow;
* every store in WORK goes through an address derived from ``p``
  (node-local under the independence assumption) and never to the link
  field at offset ``k`` itself — the serial chase must see intact
  links;
* scalars WORK defines are iteration-private (defined before use,
  never referenced outside the loop).

The transformation is *not* enabled by default —
``CompilerOptions(parallelize_lists=True)`` (CLI
``--parallelize-lists``) asserts the storage-independence assumption,
just as the paper frames it.
"""

from __future__ import annotations

#: Canonical pass name used by the pipeline hook layer, the
#: per-pass checker, and bisection culprit reports.
PASS_NAME = "list-parallel"
PASS_DESCRIPTION = "linked-list parallelization (section 10)"

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..frontend.symtab import Symbol
from ..il import nodes as N
from ..opt import utils
from .vectorizer import private_scalars


@dataclass
class ListParallelStats:
    loops_examined: int = 0
    loops_parallelized: int = 0
    rejected: Dict[str, int] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.rejected is None:
            self.rejected = {}

    def reject(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1


class ListParallelizer:
    def __init__(self) -> None:
        self.stats = ListParallelStats()

    def run(self, fn: N.ILFunction) -> ListParallelStats:
        self._fn = fn

        def visit(loop: N.Stmt, owner: List[N.Stmt], index: int) -> None:
            if isinstance(loop, N.WhileLoop):
                self.stats.loops_examined += 1
                replacement = self._try_convert(loop)
                if replacement is not None:
                    owner[index] = replacement
                    self.stats.loops_parallelized += 1

        utils.for_each_loop(fn.body, visit)
        return self.stats

    # ------------------------------------------------------------------

    def _try_convert(self, loop: N.WhileLoop
                     ) -> Optional[N.ListParallelLoop]:
        ptr = self._traversal_pointer(loop.cond)
        if ptr is None:
            self.stats.reject("condition-shape")
            return None
        if ptr.address_taken or ptr.is_volatile \
                or ptr.storage in ("global", "static", "extern"):
            self.stats.reject("pointer-unsafe")
            return None
        if utils.has_irregular_flow(loop.body):
            self.stats.reject("irregular-flow")
            return None
        for stmt in N.walk_statements(loop.body):
            if isinstance(stmt, (N.CallStmt, N.WhileLoop, N.DoLoop,
                                 N.ListParallelLoop)):
                self.stats.reject("nested-or-call")
                return None
            if isinstance(stmt, N.Assign):
                if isinstance(stmt.value, N.CallExpr):
                    self.stats.reject("nested-or-call")
                    return None
                if utils.expr_has_volatile(stmt.value) or (
                        isinstance(stmt.target, (N.VarRef, N.Mem))
                        and stmt.target.is_volatile):
                    self.stats.reject("volatile")
                    return None
        parsed = self._advance_slice(loop.body, ptr)
        if parsed is None:
            self.stats.reject("no-link-advance")
            return None
        advance, work, next_offset = parsed
        if not self._work_is_independent(work, ptr, next_offset,
                                         advance):
            return None
        return N.ListParallelLoop(ptr=ptr, next_offset=next_offset,
                                  advance=advance, body=work)

    @staticmethod
    def _traversal_pointer(cond: N.Expr) -> Optional[Symbol]:
        """Match a pointer-truth loop condition in any of its
        source spellings: ``p != 0``, the flipped ``0 != p``, and the
        bare ``while (p)`` when it reaches this pass un-normalized."""
        if isinstance(cond, N.VarRef) and cond.sym.ctype.is_pointer \
                and not cond.is_volatile:
            return cond.sym
        if isinstance(cond, N.BinOp) and cond.op == "!=":
            for var, zero in ((cond.left, cond.right),
                              (cond.right, cond.left)):
                if isinstance(var, N.VarRef) and N.is_const(zero, 0) \
                        and var.sym.ctype.is_pointer:
                    return var.sym
        return None

    def _advance_slice(self, body: List[N.Stmt], ptr: Symbol
                       ) -> Optional[Tuple[List[N.Stmt], List[N.Stmt],
                                           int]]:
        """Split the body into (advance, work).

        The advance is the backward slice of the single definition of
        ``ptr``, which must amount to a link load ``*(p + k)``.
        """
        ptr_defs = [s for s in body if utils.stmt_writes_scalar(s)
                    == ptr]
        all_defs = utils.scalar_defs_in(body).get(ptr, [])
        if len(ptr_defs) != 1 or len(all_defs) != 1:
            return None
        def_stmt = ptr_defs[0]
        slice_stmts: List[N.Stmt] = [def_stmt]
        slice_targets: Set[Symbol] = {ptr}
        frontier = set(N.vars_read(def_stmt.value)) - {ptr}
        # Pull in single-def temps feeding the link load.
        for _ in range(8):
            progress = False
            for sym in list(frontier):
                feeders = [s for s in body
                           if utils.stmt_writes_scalar(s) == sym]
                if len(feeders) != 1 or feeders[0] in slice_stmts:
                    frontier.discard(sym)
                    continue
                feeder = feeders[0]
                slice_stmts.append(feeder)
                slice_targets.add(sym)
                frontier.discard(sym)
                frontier |= set(N.vars_read(feeder.value)) - {ptr}
                progress = True
            if not progress:
                break
        slice_stmts.sort(key=body.index)
        work = [s for s in body if s not in slice_stmts]
        # The slice's temps must be private to the slice.
        for stmt in work:
            reads = set()
            for sub in N.walk_statements([stmt]):
                reads |= utils.stmt_reads(sub)
            if reads & (slice_targets - {ptr}):
                return None
        next_offset = self._link_offset(slice_stmts, ptr)
        if next_offset is None:
            return None
        return slice_stmts, work, next_offset

    def _link_offset(self, slice_stmts: List[N.Stmt],
                     ptr: Symbol) -> Optional[int]:
        """The byte offset k of the link load ``*(p + k)`` the slice
        performs; None if the slice is not that shape."""
        loads = []
        for stmt in slice_stmts:
            if not isinstance(stmt, N.Assign):
                return None
            for expr in N.walk_expr(stmt.value):
                if isinstance(expr, N.Mem):
                    loads.append(expr)
            if isinstance(stmt.target, N.Mem):
                return None  # the advance must not store
        if len(loads) != 1:
            return None
        offset = _const_offset_from(loads[0].addr, ptr)
        return offset

    def _work_is_independent(self, work: List[N.Stmt], ptr: Symbol,
                             next_offset: int,
                             advance: List[N.Stmt]) -> bool:
        advance_targets = {utils.stmt_writes_scalar(s)
                           for s in advance} - {None}
        private = private_scalars(self._fn, work)
        for stmt in N.walk_statements(work):
            target = utils.stmt_writes_scalar(stmt)
            if target is not None:
                if target == ptr or target in advance_targets:
                    self.stats.reject("work-writes-pointer")
                    return False
                if target not in private:
                    self.stats.reject("shared-scalar")
                    return False
            if isinstance(stmt, N.Assign) \
                    and isinstance(stmt.target, N.Mem):
                offset = _const_offset_from(stmt.target.addr, ptr)
                if offset is None:
                    if not _derived_from(stmt.target.addr, ptr,
                                         private):
                        self.stats.reject("store-not-node-local")
                        return False
                elif offset == next_offset:
                    self.stats.reject("store-clobbers-link")
                    return False
        return True


def _const_offset_from(addr: N.Expr, ptr: Symbol) -> Optional[int]:
    """If ``addr`` is exactly ``p + k`` (k constant, possibly 0),
    return k."""
    if isinstance(addr, N.VarRef) and addr.sym == ptr:
        return 0
    if isinstance(addr, N.BinOp) and addr.op == "+":
        left, right = addr.left, addr.right
        if isinstance(left, N.VarRef) and left.sym == ptr \
                and isinstance(right, N.Const) \
                and isinstance(right.value, int):
            return right.value
        if isinstance(right, N.VarRef) and right.sym == ptr \
                and isinstance(left, N.Const) \
                and isinstance(left.value, int):
            return left.value
    return None


def _derived_from(addr: N.Expr, ptr: Symbol,
                  private: Set[Symbol]) -> bool:
    """Is every base symbol in ``addr`` the node pointer or a private
    per-iteration scalar (itself derived from it)?"""
    for node in N.walk_expr(addr):
        if isinstance(node, N.VarRef):
            if node.sym != ptr and node.sym not in private:
                return False
        elif isinstance(node, N.AddrOf):
            return False
    return True


def parallelize_lists(fn: N.ILFunction) -> ListParallelStats:
    return ListParallelizer().run(fn)
