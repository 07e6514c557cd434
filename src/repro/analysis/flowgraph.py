"""Control-flow graph over the structured IL.

The IL keeps loops and conditionals explicit (section 3: "an explicit
representation eases the task of vectorization immensely"), but C allows
``goto`` into and out of anything, so flow analysis still needs a real
graph.  Each *flow node* is one dynamic event:

* ``assign`` / ``call`` / ``return`` — a leaf statement;
* ``cond`` — the evaluation of an ``if``/``while`` condition;
* ``do_init`` / ``do_step`` / ``do_cond`` — the implicit parts of a
  counted :class:`~repro.il.nodes.DoLoop`;
* ``entry`` / ``exit`` — function boundaries (entry defines parameters).

The graph refers back to the owning statements, so transformations on the
structured IL can map results both ways.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..frontend.symtab import Symbol
from ..il import nodes as N


@dataclass(eq=False)
class FlowNode:
    """Compared and hashed by identity (``eq=False`` keeps ``object``'s
    C-level ``__hash__``).  ``index`` is the node's position in
    ``FlowGraph.nodes``: the analyses keep their per-node facts in
    lists indexed by it."""

    kind: str
    stmt: Optional[N.Stmt] = None
    index: int = -1
    succs: List["FlowNode"] = field(default_factory=list)
    preds: List["FlowNode"] = field(default_factory=list)
    # For cond/do_cond nodes: semantic successors by branch outcome.
    true_succ: Optional["FlowNode"] = None
    false_succ: Optional["FlowNode"] = None

    def __repr__(self) -> str:
        sid = self.stmt.sid if self.stmt is not None else "-"
        return f"FlowNode({self.kind}, sid={sid}, i={self.index})"


class FlowGraph:
    """CFG for one :class:`~repro.il.nodes.ILFunction`."""

    def __init__(self, fn: N.ILFunction,
                 aliased: Optional[Set[Symbol]] = None):
        """``aliased``: the function's alias set (or a superset), if
        the caller holds it; else derived on first ask."""
        self.fn = fn
        if aliased is not None:
            self.aliased = aliased
        self.nodes: List[FlowNode] = []
        self.entry = self._new("entry")
        self.exit = self._new("exit")
        self._labels: Dict[str, FlowNode] = {}
        self._gotos: List[Tuple[FlowNode, str]] = []
        # Map sid -> primary flow node (cond node for structured stmts).
        self.node_of_stmt: Dict[int, FlowNode] = {}
        tail = self._build_list(fn.body, self.entry)
        if tail is not None:
            self._edge(tail, self.exit)
        for node, label in self._gotos:
            target = self._labels.get(label)
            if target is None:
                raise KeyError(f"goto to unknown label {label!r}")
            self._edge(node, target)
        for index, node in enumerate(self.nodes):
            node.index = index

    # -- per-node facts, computed once per graph ---------------------------

    @cached_property
    def aliased(self) -> Set[Symbol]:
        return aliased_symbols(self.fn)

    @cached_property
    def defs_uses(self) -> Tuple[List[Set[object]], List[Set[object]]]:
        """``(defs, uses)``: the locations each node may define / may
        read, as lists indexed by ``FlowNode.index``.  Liveness and
        use-def chains built on one graph share these."""
        aliased = self.aliased
        return ([node_defs(node, self.fn, aliased) for node in self.nodes],
                [node_uses(node, aliased) for node in self.nodes])

    def expressions_rewritten(self) -> None:
        """Statements kept their places but their expressions were
        replaced: the shape stands, the per-node def/use sets do not."""
        self.__dict__.pop("defs_uses", None)

    def close(self) -> None:
        """Unlink the nodes.  Edges make every graph a reference cycle;
        a holder that is done with one breaks it here so the memory
        goes back on the spot, not at the next collector run."""
        for node in self.nodes:
            node.succs = node.preds = ()
            node.true_succ = node.false_succ = None

    # -- construction -----------------------------------------------------

    def _new(self, kind: str, stmt: Optional[N.Stmt] = None) -> FlowNode:
        node = FlowNode(kind=kind, stmt=stmt)
        self.nodes.append(node)
        if stmt is not None and stmt.sid not in self.node_of_stmt:
            self.node_of_stmt[stmt.sid] = node
        return node

    @staticmethod
    def _edge(src: FlowNode, dst: FlowNode) -> None:
        if dst not in src.succs:
            src.succs.append(dst)
            dst.preds.append(src)

    def _build_list(self, stmts: Sequence[N.Stmt],
                    pred: Optional[FlowNode]) -> Optional[FlowNode]:
        """Wire ``stmts`` after ``pred``; return the fall-through tail
        node (None when control cannot fall out)."""
        current = pred
        for stmt in stmts:
            _, current = self._build_stmt(stmt, current)
        return current

    def _build_sublist(self, stmts: Sequence[N.Stmt],
                       pred: Optional[FlowNode]
                       ) -> Tuple[Optional[FlowNode], Optional[FlowNode]]:
        """Like _build_list but also reports the entry node of the list
        (None when the list is empty)."""
        entry: Optional[FlowNode] = None
        current = pred
        for stmt in stmts:
            head, current = self._build_stmt(stmt, current)
            if entry is None:
                entry = head
        return entry, current

    def _build_stmt(self, stmt: N.Stmt, pred: Optional[FlowNode]
                    ) -> Tuple[FlowNode, Optional[FlowNode]]:
        """Build the subgraph for one statement.

        Returns ``(entry, tail)``: the node control enters through and
        the fall-through node (None when control cannot fall out).
        """
        if isinstance(stmt, (N.Assign, N.VectorAssign, N.VectorReduce,
                             N.CallStmt)):
            kind = "call" if isinstance(stmt, N.CallStmt) else "assign"
            node = self._new(kind, stmt)
            if pred is not None:
                self._edge(pred, node)
            return node, node
        if isinstance(stmt, N.Return):
            node = self._new("return", stmt)
            if pred is not None:
                self._edge(pred, node)
            self._edge(node, self.exit)
            return node, None
        if isinstance(stmt, N.Goto):
            node = self._new("goto", stmt)
            if pred is not None:
                self._edge(pred, node)
            self._gotos.append((node, stmt.label))
            return node, None
        if isinstance(stmt, N.LabelStmt):
            node = self._new("label", stmt)
            if pred is not None:
                self._edge(pred, node)
            self._labels[stmt.label] = node
            return node, node
        if isinstance(stmt, N.IfStmt):
            cond = self._new("cond", stmt)
            if pred is not None:
                self._edge(pred, cond)
            join = self._new("join", stmt)
            then_entry, then_tail = self._build_sublist(stmt.then, cond)
            if then_tail is not None:
                self._edge(then_tail, join)
            cond.true_succ = then_entry if then_entry is not None else join
            else_entry, else_tail = self._build_sublist(stmt.otherwise,
                                                        cond)
            if else_tail is not None:
                self._edge(else_tail, join)
            cond.false_succ = else_entry if else_entry is not None \
                else join
            if else_entry is None and not stmt.otherwise:
                self._edge(cond, join)
            return cond, (join if join.preds else None)
        if isinstance(stmt, N.WhileLoop):
            cond = self._new("cond", stmt)
            if pred is not None:
                self._edge(pred, cond)
            body_entry, body_tail = self._build_sublist(stmt.body, cond)
            if body_tail is not None:
                self._edge(body_tail, cond)
            after = self._new("join", stmt)
            self._edge(cond, after)
            cond.true_succ = body_entry if body_entry is not None else cond
            if body_entry is None:
                self._edge(cond, cond)
            cond.false_succ = after
            return cond, after
        if isinstance(stmt, N.ListParallelLoop):
            # Opaque aggregate node: the list pass runs after scalar
            # analysis, so later consumers (DCE) only need conservative
            # def/use summaries.
            node = self._new("list_loop", stmt)
            if pred is not None:
                self._edge(pred, node)
            return node, node
        if isinstance(stmt, N.DoLoop):
            init = self._new("do_init", stmt)
            if pred is not None:
                self._edge(pred, init)
            cond = self._new("do_cond", stmt)
            self._edge(init, cond)
            step = self._new("do_step", stmt)
            body_entry, body_tail = self._build_sublist(stmt.body, cond)
            if body_tail is not None:
                self._edge(body_tail, step)
            self._edge(step, cond)
            after = self._new("join", stmt)
            self._edge(cond, after)
            cond.true_succ = body_entry if body_entry is not None else step
            if body_entry is None:
                self._edge(cond, step)
            cond.false_succ = after
            return init, after
        raise TypeError(f"cannot build CFG for {stmt!r}")

    # -- queries -----------------------------------------------------------

    def reachable(self) -> Set[FlowNode]:
        seen: Set[FlowNode] = set()
        stack = [self.entry]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(node.succs)
        return seen

    def unreachable_statements(self) -> List[N.Stmt]:
        """Leaf statements with no reachable flow node — the 'rebuild
        basic blocks' detection baseline of section 8."""
        reachable = self.reachable()
        dead: List[N.Stmt] = []
        for node in self.nodes:
            if node.kind in ("assign", "call", "return", "goto") \
                    and node not in reachable:
                dead.append(node.stmt)
        return dead


# ---------------------------------------------------------------------------
# The dataflow solver both analyses run on
# ---------------------------------------------------------------------------


def solve_bitmasks(nodes: Sequence[FlowNode], gen: Sequence[int],
                   keep: Sequence[int], backward: bool = False,
                   boundary: Optional[Dict[int, int]] = None
                   ) -> Tuple[List[int], List[int]]:
    """Worklist solve of ``after[n] = gen[n] | (before[n] & keep[n])``
    with ``before[n]`` the union of ``after`` over the nodes flow
    arrives from — predecessors, or successors when ``backward`` — plus
    ``boundary[n]`` where given.  Facts are integer bitmasks, in lists
    indexed by ``FlowNode.index``.  Returns ``(before, after)``: the
    least fixed point, whatever order the worklist happens to take."""
    count = len(nodes)
    before = [0] * count
    after = [0] * count
    start = boundary or {}
    # Seeded so nodes pop in flow order (last-to-first when backward).
    worklist = list(range(count)) if backward \
        else list(range(count - 1, -1, -1))
    queued = [True] * count
    while worklist:
        index = worklist.pop()
        queued[index] = False
        node = nodes[index]
        value = start.get(index, 0)
        for source in (node.succs if backward else node.preds):
            value |= after[source.index]
        before[index] = value
        result = gen[index] | (value & keep[index])
        if result != after[index]:
            after[index] = result
            for sink in (node.preds if backward else node.succs):
                if not queued[sink.index]:
                    queued[sink.index] = True
                    worklist.append(sink.index)
    return before, after


# ---------------------------------------------------------------------------
# Def/use extraction per flow node
# ---------------------------------------------------------------------------

MEMORY = "<memory>"  # the conservative aggregate-memory location


def node_defs(node: FlowNode, fn: N.ILFunction,
              aliased: Set[Symbol]) -> Set[object]:
    """The locations ``node`` may define (symbols, or MEMORY)."""
    stmt = node.stmt
    if node.kind == "entry":
        return set(fn.params)
    if node.kind == "list_loop":
        assert isinstance(stmt, N.ListParallelLoop)
        defs: Set[object] = {stmt.ptr, MEMORY}
        defs.update(aliased)
        for sub in N.walk_statements(stmt.body + stmt.advance):
            if isinstance(sub, N.Assign) and isinstance(sub.target,
                                                        N.VarRef):
                defs.add(sub.target.sym)
        return defs
    if node.kind in ("do_init", "do_step"):
        assert isinstance(stmt, N.DoLoop)
        return {stmt.var}
    if node.kind == "assign" and isinstance(stmt, N.Assign):
        defs: Set[object] = set()
        if isinstance(stmt.target, N.VarRef):
            defs.add(stmt.target.sym)
        else:
            defs.add(MEMORY)
            defs.update(aliased)
        if isinstance(stmt.value, N.CallExpr):
            defs.add(MEMORY)
            defs.update(aliased)
        return defs
    if node.kind == "assign" and isinstance(stmt, N.VectorAssign):
        return {MEMORY} | set(aliased)
    if node.kind == "assign" and isinstance(stmt, N.VectorReduce):
        return {stmt.target.sym}
    if node.kind == "call":
        return {MEMORY} | set(aliased)
    return set()


def node_uses(node: FlowNode,
              aliased: Set[Symbol] = frozenset()) -> Set[object]:
    """The locations ``node`` may read.

    ``aliased`` matters at call sites: a callee may read any global or
    address-taken symbol, so those count as uses of the call node —
    otherwise liveness deletes a store to a global that only the
    callee observes.
    """
    stmt = node.stmt
    uses: Set[object] = set()

    def scan(expr: N.Expr) -> None:
        reads, _, flags = N.facts(expr)
        uses.update(reads)
        if flags & (N.HAS_LOAD | N.HAS_CALL):
            uses.add(MEMORY)
        if flags & N.HAS_CALL:
            uses.update(aliased)

    if node.kind == "assign" and isinstance(stmt,
                                            (N.Assign, N.VectorAssign)):
        scan(stmt.value)
        # Address computation of a store target is a read too.
        if isinstance(stmt.target, N.Mem):
            scan(stmt.target.addr)
        elif isinstance(stmt.target, N.Section):
            scan(stmt.target.addr)
            scan(stmt.target.length)
            # So is a masked store's mask, evaluated for every lane.
            if stmt.mask is not None:
                scan(stmt.mask)
    elif node.kind == "assign" and isinstance(stmt, N.VectorReduce):
        for _, value in stmt.terms():
            scan(value)
        scan(stmt.length)
        uses.add(stmt.target.sym)  # the accumulator is read-modify-write
    elif node.kind == "call" and isinstance(stmt, N.CallStmt):
        scan(stmt.call)
        uses.add(MEMORY)
    elif node.kind == "cond":
        assert isinstance(stmt, (N.IfStmt, N.WhileLoop))
        scan(stmt.cond)
    elif node.kind == "do_init":
        # Fortran DO semantics: both bounds are evaluated once at entry.
        assert isinstance(stmt, N.DoLoop)
        scan(stmt.lo)
        scan(stmt.hi)
    elif node.kind == "do_cond":
        assert isinstance(stmt, N.DoLoop)
        uses.add(stmt.var)
    elif node.kind == "do_step":
        assert isinstance(stmt, N.DoLoop)
        uses.add(stmt.var)
    elif node.kind == "return" and isinstance(stmt, N.Return) \
            and stmt.value is not None:
        scan(stmt.value)
    elif node.kind == "list_loop":
        assert isinstance(stmt, N.ListParallelLoop)
        uses.add(stmt.ptr)
        uses.add(MEMORY)
        for sub in N.walk_statements(stmt.body + stmt.advance):
            for expr in N.stmt_exprs(sub):
                scan(expr)
    return uses


def aliased_symbols(fn: N.ILFunction,
                    globals_: Sequence[N.GlobalVar] = ()) -> Set[Symbol]:
    """Symbols a store-through-pointer or a call might modify: anything
    address-taken plus every global (section 1's problems 5 and 7)."""
    named: Set[Symbol] = set()
    for stmt in fn.all_statements():
        for expr in N.stmt_exprs(stmt):
            reads, addrs, _ = N.facts(expr)
            named |= reads
            named |= addrs
    return {sym for sym in named if sym.address_taken
            or sym.storage in ("global", "static", "extern")}
