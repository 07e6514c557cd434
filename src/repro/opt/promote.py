"""Global scalars held in registers across loops (section 6).

Section 6 speeds up loops that do not vectorize by "pulling the values
up into registers": a load becomes a value the loop already holds.  A C
global scalar lives in memory, so every read of one in a loop is a load
and every write a store, on every iteration:

    while (p) {                      r = total;
        total = total + p->v;        while (p) {
        p = p->next;          =>         r = r + p->v;
    }                                    p = p->next;
                                     }
                                     total = r;

The global is loaded into a fresh temporary before the loop, every
access inside the loop reads or writes the temporary, and the global is
stored back after the loop when the loop writes it.

**Legality.**  A global can be held when no pointer can reach it: it is
a scalar, not volatile, and its address is taken nowhere — not by the
front end (``address_taken``), by no ``AddrOf`` in any function after
inlining, by no global initializer.  C derives no pointer to one object
from another, so no ``Mem`` or ``Section`` aliases it.  A loop can hold
it when nothing else can observe it while the loop runs and nothing
skips the store after it: no call (condition included), no return, and
no goto between the loop and the code around it.  A loop variable or
list-walk pointer is never held, nor a global written under a ``do
parallel`` loop or a list walk, whose iterations the register would
be shared by.

**Profitability** is the static walk's (:mod:`repro.titan.static`), as
for forking a strip loop: a global is held when an access to it runs on
every iteration — in the ``while`` condition, or in a statement at the
top of the body, ahead of any label or goto, outside the arms of an
``if`` or a select and the value of a masked store — and the walk,
under the compile's loop schedules, prices load + loop + store strictly
below the loop.  A scheduled loop is charged its initiation interval,
whatever its body reads, so holding a global there never pays.

Loops are tried outermost first, so a global held across a nest is held
once, and an inner loop is tried for the globals its outer loop did not
hold.
"""

from __future__ import annotations

#: Canonical pass name used by the pipeline hook layer, the
#: per-pass checker, and bisection culprit reports.
PASS_NAME = "promote"
PASS_DESCRIPTION = "global scalars held in registers across loops " \
                   "(section 6)"

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set

from ..frontend.ctypes_ import ArrayType, StructType
from ..frontend.symtab import Symbol, SymbolTable
from ..il import nodes as N
from ..obs.remarks import RemarkCollector
from ..titan.static import StaticCostEstimator
from . import utils


@dataclass
class PromoteStats:
    loops_examined: int = 0
    loops_promoted: int = 0
    globals_held: int = 0
    stores_after: int = 0
    # Why a loop held none of its globals, or a global was not held.
    rejected: Dict[str, int] = field(default_factory=dict)


def promotable_globals(program: N.ILProgram) -> FrozenSet[Symbol]:
    """The program's global scalars no pointer can reach: not
    volatile, and with an address formed nowhere — not by the front
    end, by no ``AddrOf`` in any function, by no initializer."""
    taken: Set[Symbol] = set()
    for fn in program.functions.values():
        for stmt in fn.all_statements():
            for expr in N.stmt_exprs(stmt):
                taken |= N.facts(expr).addrs
    pending = [g.init for g in program.globals]
    while pending:
        init = pending.pop()
        if isinstance(init, Symbol):
            taken.add(init)
        elif isinstance(init, list):
            pending.extend(init)
    return frozenset(
        g.sym for g in program.globals
        if g.sym.storage in N.STATIC_STORAGE
        and not isinstance(g.sym.ctype, (ArrayType, StructType))
        and not g.sym.address_taken and not g.sym.is_volatile
        and g.sym not in taken)


class GlobalPromotion:
    def __init__(self, symtab: SymbolTable, candidates: FrozenSet[Symbol],
                 estimator: StaticCostEstimator,
                 remarks: Optional[RemarkCollector] = None):
        self.symtab = symtab
        self.candidates = candidates
        self.estimator = estimator
        self.remarks = remarks
        self.stats = PromoteStats()

    def run(self, fn: N.ILFunction) -> PromoteStats:
        if self.candidates:
            self._fn = fn
            self._visit(fn.body)
        return self.stats

    def _visit(self, stmts: List[N.Stmt]) -> None:
        for stmt in list(stmts):
            if isinstance(stmt, (N.DoLoop, N.WhileLoop)):
                self._promote(stmt, stmts)
            for sub in stmt.substatements():
                self._visit(sub)

    def _reject(self, reason: str) -> None:
        self.stats.rejected[reason] = self.stats.rejected.get(reason, 0) + 1

    # ------------------------------------------------------------------

    def _promote(self, loop: N.Stmt, owner: List[N.Stmt]) -> None:
        accessed = _accessed(loop, self.candidates)
        if not accessed:
            return
        self.stats.loops_examined += 1
        reason = self._illegal(loop)
        if reason is not None:
            self._reject(reason)
            return
        written, pinned = _writes(loop, self.candidates)
        every = _every_iteration(loop)
        estimator = self.estimator
        held: List[Symbol] = []
        stored = 0
        price = estimator.register_price(self._fn.name, loop)
        for sym in accessed:
            if sym in pinned:
                self._reject("parallel-write")
            elif sym not in every:
                self._reject("not-every-iteration")
            else:
                trial = estimator.register_price(
                    self._fn.name, loop, frozenset(held + [sym]),
                    stored + (sym in written))
                if trial < price:
                    held.append(sym)
                    stored += sym in written
                    price = trial
                else:
                    self._reject("does-not-pay")
        if held:
            self._rewrite(loop, owner, held, written)

    def _illegal(self, loop: N.Stmt) -> Optional[str]:
        """Why ``loop`` cannot hold a global in a register, or None."""
        members = list(N.walk_statements([loop]))
        inside = {stmt.label for stmt in members
                  if isinstance(stmt, N.LabelStmt)}
        for stmt in members:
            if isinstance(stmt, N.Return):
                return "return"
            if isinstance(stmt, N.Goto) and stmt.label not in inside:
                return "goto"
            if isinstance(stmt, N.CallStmt) or any(
                    utils.expr_has_call(expr)
                    for expr in N.stmt_exprs(stmt)):
                return "call"
        if inside:
            ids = set(map(id, members))
            for stmt in N.walk_statements(self._fn.body):
                if isinstance(stmt, N.Goto) and stmt.label in inside \
                        and id(stmt) not in ids:
                    return "goto"
        return None

    def _rewrite(self, loop: N.Stmt, owner: List[N.Stmt],
                 held: List[Symbol], written: Set[Symbol]) -> None:
        registers: Dict[Symbol, Symbol] = {}
        for sym in held:
            reg = self.symtab.fresh_temp(sym.ctype.unqualified(),
                                         f"{sym.name}_reg")
            self._fn.local_syms.append(reg)
            registers[sym] = reg

        def to_register(node: N.Expr) -> N.Expr:
            if type(node) is N.VarRef and node.sym in registers:
                reg = registers[node.sym]
                return N.VarRef(sym=reg, ctype=reg.ctype)
            return node

        def rewrite(expr: N.Expr) -> N.Expr:
            if N.facts(expr).reads.isdisjoint(registers):
                return expr
            return N.map_expr(expr, to_register)

        for stmt in N.walk_statements([loop]):
            utils.rewrite_stmt_exprs(stmt, rewrite, targets=True)
        ref = lambda sym: N.VarRef(sym=sym, ctype=sym.ctype)  # noqa: E731
        utils.replace_stmt(owner, loop, (
            [N.Assign(target=ref(reg), value=ref(sym), line=loop.line)
             for sym, reg in registers.items()]
            + [loop]
            + [N.Assign(target=ref(sym), value=ref(reg), line=loop.line)
               for sym, reg in registers.items() if sym in written]))
        stored = [sym for sym in held if sym in written]
        self.stats.loops_promoted += 1
        self.stats.globals_held += len(held)
        self.stats.stores_after += len(stored)
        if self.remarks is not None:
            several = len(held) > 1
            message = (f"global{'s' if several else ''} "
                       f"{_names(held)} held in register"
                       f"{'s' if several else ''} across the loop: "
                       f"loaded before it")
            if stored:
                message += f", {_names(stored)} stored after it"
            self.remarks.transformed(
                PASS_NAME, self._fn.name, message, stmt=loop,
                registers=", ".join(reg.name
                                    for reg in registers.values()))


def _names(syms: List[Symbol]) -> str:
    return ", ".join(f"'{sym.name}'" for sym in syms)


# ---------------------------------------------------------------------------
# What a loop accesses
# ---------------------------------------------------------------------------


def _accessed(loop: N.Stmt, candidates: FrozenSet[Symbol]) -> List[Symbol]:
    """The candidate globals ``loop`` reads or writes, in order of
    first access."""
    seen: Dict[Symbol, None] = {}
    for stmt in N.walk_statements([loop]):
        for expr in N.stmt_exprs(stmt):
            reads = N.facts(expr).reads
            if reads.isdisjoint(candidates):
                continue
            for sym in N.vars_read(expr):
                if sym in candidates:
                    seen.setdefault(sym)
    return list(seen)


def _writes(loop: N.Stmt, candidates: FrozenSet[Symbol]):
    """``(written, pinned)``: the candidates ``loop`` writes, and
    those it must leave in memory — a loop variable or list-walk
    pointer, or one written under a ``do parallel`` loop or a list
    walk."""
    written: Set[Symbol] = set()
    pinned: Set[Symbol] = set()
    for stmt in N.walk_statements([loop]):
        target = _scalar_target(stmt)
        if target is not None:
            written.add(target)
        if isinstance(stmt, N.DoLoop):
            pinned.add(stmt.var)
        elif isinstance(stmt, N.ListParallelLoop):
            pinned.add(stmt.ptr)
        if isinstance(stmt, N.ListParallelLoop) or (
                isinstance(stmt, N.DoLoop) and stmt.parallel):
            for sub in stmt.substatements():
                for inner in N.walk_statements(sub):
                    target = _scalar_target(inner)
                    if target is not None:
                        pinned.add(target)
    return written & candidates, pinned & candidates


def _scalar_target(stmt: N.Stmt) -> Optional[Symbol]:
    if isinstance(stmt, (N.Assign, N.VectorReduce)) \
            and type(stmt.target) is N.VarRef:
        return stmt.target.sym
    return None


def _every_iteration(loop: N.Stmt) -> Set[Symbol]:
    """The variables an access of which runs on every iteration of
    ``loop``: in a ``while`` condition, or in a statement at the top of
    the body ahead of any label or goto — outside the arms of its
    selects and the value of a masked store, not in a nested list."""
    found: Set[Symbol] = set()
    if isinstance(loop, N.WhileLoop):
        _always_read(loop.cond, found)
    for stmt in loop.body:
        if isinstance(stmt, N.LabelStmt) or utils.gotos_in([stmt]):
            break
        for name in stmt.expr_fields:
            expr = getattr(stmt, name)
            if expr is None or (name == "value"
                                and getattr(stmt, "mask", None)
                                is not None):
                continue
            _always_read(expr, found)
        for name in stmt.term_fields:
            for _, expr in getattr(stmt, name):
                _always_read(expr, found)
    return found


def _always_read(expr: N.Expr, found: Set[Symbol]) -> None:
    """Add the variables ``expr`` reads whatever its selects choose."""
    pending = [expr]
    while pending:
        node = pending.pop()
        if type(node) is N.VarRef:
            found.add(node.sym)
        elif type(node) is N.Select:
            pending.append(node.cond)
        else:
            pending.extend(node.children())

