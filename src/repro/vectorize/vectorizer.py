"""Allen–Kennedy vector code generation for DO loops (sections 5, 9).

For each innermost normalized DO loop:

1. build the dependence graph under the current alias policy;
2. partition into SCCs (Tarjan) and sort topologically;
3. *loop distribution*: each acyclic single-statement component whose
   statement is an affine memory store becomes a vector statement over
   the whole index range; cyclic components (recurrences) stay in
   sequential DO loops, in dependence order;
4. *strip mining*: the plan becomes a list of ``StripRegion``s, each
   lowered by one emitter; vector statements (and accumulations,
   which become vector reductions) longer than the strip length are
   wrapped in a strip loop computing ``vlen = min(VL, trip - vi)`` —
   short constant-trip loops (the 4×4 graphics case, section 5.2) skip
   the strip loop entirely;
5. *parallelization*: each strip loop is decided on its own region's
   dependences (the paper's §9 ``do parallel`` output): it may fork
   when no carried edge lies within its region beyond a reduction's
   own accumulator edge, and it forks when the static Titan price of
   the fork is below the serial loop's (constant trip, known
   processor count) — unpriced, a vector store forks and a reduction
   stays serial; a direct statement has no strips to spread, and a
   recurrence stays sequential.  A loop that cannot be vectorized but
   has no loop-carried dependences (after privatizing iteration-local
   scalars) is spread across processors unchanged;
6. *fusion*: once every loop of a function is lowered, neighbouring
   strip loops with equal bounds — regions of one source loop, or of
   consecutive source loops — merge into one strip loop with one fork
   decision, when no dependence runs from the later part back to an
   earlier iteration of the earlier one and the walk does not price
   the merged loop above the two (:meth:`Vectorizer._fuse`).

The alias policy implements the paper's escape hatches: a ``safe``
pragma on the loop or function, or the compiler option giving pointer
parameters Fortran semantics.  Without them, pointer-based loops like
the un-inlined daxpy are rejected — inlining + constant propagation is
what turns those pointers into named arrays the analyzer can see
through (the §9 punchline).
"""

from __future__ import annotations

#: Canonical pass name used by the pipeline hook layer, the
#: per-pass checker, and bisection culprit reports.
PASS_NAME = "vectorize"
PASS_DESCRIPTION = "Allen-Kennedy vectorization/parallelization (section 5/9)"

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..dependence.graph import AliasPolicy, DependenceEdge, DependenceGraph
from ..dependence.refs import AffineRef, parse_ref
from ..frontend.ctypes_ import INT
from ..frontend.symtab import Symbol, SymbolTable
from ..il import nodes as N
from ..il.printer import format_expr
from ..obs.metrics import REGISTRY
from ..obs.remarks import RemarkCollector
from ..opt import utils
from ..opt.fold import const_int_value, simplify
from ..opt.if_convert import conditional_minmax
from ..titan.config import TitanConfig
from ..titan.static import ForkDecision, fork_decision
from ..titan.vector_ops import HELD_OUTCOMES, held_loads, held_scopes


@dataclass
class VectorizeOptions:
    vector_length: int = 32
    parallelize: bool = True
    assume_no_alias: bool = False  # the Fortran-pointer-semantics option
    # The pipeline ran if-conversion before us: any branch still inside
    # a loop body is one predication could not remove, so report the
    # precise "not-if-convertible" miss instead of the blanket
    # "control-flow".
    if_converted: bool = False
    # The machine the program runs on (``pipeline.titan_config``):
    # strip loops fork when their static price says so (None:
    # processor count unknown, so unpriced), and a loop no longer than
    # its maximum vector length becomes one direct statement.
    config: Optional[TitanConfig] = None


@dataclass
class StripRegion:
    """One piece of a distributed loop, as code generation lowers it.

    ``kind`` is ``seq`` (a recurrence kept in a sequential DO loop),
    ``vector`` (one vector store) or ``reduce`` (one accumulation
    into a vector reduction); ``stmts`` are loop-body indices in
    order; ``parallel`` says the region's strips run ``do parallel``
    (decided by :meth:`Vectorizer._fork`).
    """
    kind: str
    stmts: List[int]
    parallel: bool


@dataclass
class StripSource:
    """What fusion needs of an emitted strip loop (``loop``): the
    scalar statements its vector statements came from, in its body's
    order, over the index ``var``; the dependence edges among them (by
    position in ``stmts``); while they all come from one source loop,
    its graph and their indices in it (``origin``); the alias policy
    they were analysed under; the loop's fork decision; and the sids
    of the source loops it serves."""
    loop: N.DoLoop
    stmts: List[N.Stmt]
    var: Symbol
    edges: List[DependenceEdge]
    origin: Optional[Tuple[DependenceGraph, List[int]]]
    policy: AliasPolicy
    decision: ForkDecision
    loops: Set[int]


@dataclass
class LoopOutcome:
    loop_sid: int
    vectorized: bool
    parallelized: bool
    vector_statements: int = 0
    sequential_statements: int = 0
    masked_statements: int = 0
    reason: str = ""
    # Source anchor and explanation, for the per-loop coverage table
    # of the compilation report (--report-json).
    line: int = 0
    detail: str = ""
    # For "recurrence" misses: the blocking dependence edge
    # ({src, dst, kind, carried, distance, reason, stmt}).
    blocking: Optional[Dict[str, object]] = None


@dataclass
class VectorizeStats:
    loops_examined: int = 0
    loops_vectorized: int = 0
    loops_parallelized: int = 0
    vector_statements: int = 0
    masked_statements: int = 0
    scalars_forwarded: int = 0
    rejected: Dict[str, int] = field(default_factory=dict)
    outcomes: List[LoopOutcome] = field(default_factory=list)

    def reject(self, sid: int, reason: str, line: int = 0,
               detail: str = "",
               blocking: Optional[Dict[str, object]] = None) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1
        self.outcomes.append(LoopOutcome(loop_sid=sid, vectorized=False,
                                         parallelized=False,
                                         reason=reason, line=line,
                                         detail=detail,
                                         blocking=blocking))


class Vectorizer:
    REJECT_MESSAGES = {
        "not-normalized": "loop is not in normalized form "
                          "(lower bound 0, step 1)",
        "control-flow": "loop body contains control flow "
                        "(if / nested loop); distribution needs a "
                        "straight-line body",
        "not-if-convertible": "loop body branch survived "
                              "if-conversion (condition or arm not "
                              "predicable: call, volatile, nested "
                              "flow, or unmergeable scalar)",
        "unclassified": "examined but no outcome recorded "
                        "(vectorizer accounting bug)",
        "irregular-flow": "loop body contains goto/label/return",
        "call": "loop body calls a function (possible side effects)",
        "statement-kind": "loop body contains a non-assignment "
                          "statement",
        "volatile": "loop body references a volatile object",
        "reduction-shape": "an accumulation is not a reduction the "
                           "vectorizer recognizes",
    }

    def __init__(self, symtab: SymbolTable,
                 options: Optional[VectorizeOptions] = None,
                 remarks: Optional[RemarkCollector] = None):
        self.symtab = symtab
        self.options = options or VectorizeOptions()
        self.stats = VectorizeStats()
        self.remarks = remarks

    def run(self, fn: N.ILFunction) -> VectorizeStats:
        self._fn = fn
        # Emitted strip loops (by identity) -> their StripSource.
        self._strips: Dict[int, StripSource] = {}
        # Remarks of vectorized loops, sent once fusion has settled
        # which of their strips fork.
        self._vectorized: List[Tuple[N.DoLoop, LoopOutcome]] = []
        # One ``vi``/``vlen`` pair per trip expression: strip loops over
        # the same strips share it, so fused ones need no renaming.
        self._temps: List[Tuple[N.Expr, Tuple[Symbol, Symbol]]] = []

        def visit(loop: N.Stmt, owner: List[N.Stmt], index: int) -> None:
            if isinstance(loop, N.DoLoop) and not loop.vector \
                    and not loop.parallel:
                self._process(loop, owner)

        utils.for_each_loop(fn.body, visit)
        self._fuse_lists(fn.body)
        self._report_held()
        forked: Set[int] = set()
        for source in self._strips.values():
            if source.loop.parallel:
                forked |= source.loops
        for loop, outcome in self._vectorized:
            outcome.parallelized = loop.sid in forked
            if outcome.parallelized:
                self.stats.loops_parallelized += 1
            self._remark_vectorized(loop, outcome)
        return self.stats

    # ------------------------------------------------------------------

    def _process(self, loop: N.DoLoop, owner: List[N.Stmt]) -> None:
        self.stats.loops_examined += 1
        before = len(self.stats.outcomes)
        self._process_loop(loop, owner)
        # Accounting invariant: every examined loop contributes exactly
        # one outcome row, so the compilation report's per-loop
        # coverage always sums to ``loops_examined``.  A decision path
        # that forgets to record (the historical parallel-only bail)
        # lands here instead of silently vanishing from the report.
        if len(self.stats.outcomes) == before:
            self.stats.reject(loop.sid, "unclassified", line=loop.line,
                              detail=self.REJECT_MESSAGES["unclassified"])

    def _process_loop(self, loop: N.DoLoop,
                      owner: List[N.Stmt]) -> None:
        reason, cause = self._reject_reason(loop)
        policy = AliasPolicy(assume_no_alias=(
            self.options.assume_no_alias
            or "safe" in loop.pragmas or "vector" in loop.pragmas
            or "safe" in self._fn.pragmas))
        if reason is not None:
            # Maybe it can still run in parallel: an `if` inside, or —
            # after inner loops were vectorized — a body of vector
            # statements whose sections are independent across the
            # outer index (the §9 `do parallel` around vector shape).
            if reason in ("control-flow", "not-if-convertible",
                          "statement-kind") \
                    and self.options.parallelize:
                if self._try_parallel_only(loop, policy):
                    return
            self._reject(loop, reason, cause)
            return
        self._forward_local_scalars(loop, policy)
        graph = DependenceGraph(loop, policy)
        body = loop.body
        from .scc import strongly_connected_components
        adjacency = graph.adjacency()
        # Distribution cannot split a scalar flow between statements:
        # without scalar expansion the per-iteration value pairing
        # would break.  Welding scalar-dep endpoints into one SCC keeps
        # them in the same (sequential) loop.
        for edge in graph.edges:
            if edge.reason.startswith("scalar") and edge.src != edge.dst:
                adjacency[edge.src].add(edge.dst)
                adjacency[edge.dst].add(edge.src)
        sccs = strongly_connected_components(len(body), adjacency)
        plan: List[Tuple[str, List[int]]] = []
        # Why an accumulation in a cyclic component is no reduction.
        causes: List[str] = []
        for comp in sccs:
            if self._component_vectorizable(comp, body, graph):
                plan.append(("vector", comp))
            elif self._component_reduction(comp, body, graph, loop,
                                           causes):
                plan.append(("reduce", comp))
            elif plan and plan[-1][0] == "seq":
                plan[-1][1].extend(comp)
            else:
                plan.append(("seq", list(comp)))
        if not any(kind in ("vector", "reduce") for kind, _ in plan):
            if self.options.parallelize \
                    and self._try_parallel_only(loop, policy,
                                                graph=graph):
                return
            if causes:
                self._reject(loop, "reduction-shape", causes[0])
                return
            blocking = self._blocking_dependence(body, graph)
            detail = self._describe_recurrence(body, graph)
            self.stats.reject(loop.sid, "recurrence", line=loop.line,
                              detail=detail, blocking=blocking)
            self._remark_missed(loop, "recurrence", detail)
            return
        regions, replacement = self._codegen(loop, plan, graph, policy)
        utils.replace_stmt(owner, loop, replacement)
        n_vec = sum(1 for r in regions if r.kind != "seq")
        n_seq = sum(len(r.stmts) for r in regions if r.kind == "seq")
        n_masked = sum(1 for s in N.walk_statements(replacement)
                       if isinstance(s, N.VectorAssign)
                       and s.mask is not None)
        self.stats.loops_vectorized += 1
        self.stats.vector_statements += n_vec
        self.stats.masked_statements += n_masked
        outcome = LoopOutcome(
            loop_sid=loop.sid, vectorized=True, parallelized=False,
            vector_statements=n_vec, sequential_statements=n_seq,
            masked_statements=n_masked, line=loop.line)
        self.stats.outcomes.append(outcome)
        self._vectorized.append((loop, outcome))

    # -- remark helpers ------------------------------------------------------

    def _remark_vectorized(self, loop: N.DoLoop,
                           outcome: LoopOutcome) -> None:
        if self.remarks is None:
            return
        n_vec, n_seq = outcome.vector_statements, \
            outcome.sequential_statements
        n_masked, parallel = outcome.masked_statements, \
            outcome.parallelized
        detail = f"{n_vec} vector statement(s), VL=" \
                 f"{self.options.vector_length}"
        if n_masked:
            detail += f"; {n_masked} masked store(s) " \
                      f"(if-converted guards became masks)"
        if n_seq:
            detail += f"; {n_seq} statement(s) stay sequential " \
                      f"(recurrence kept in a DO loop)"
        if parallel:
            detail += "; strips spread across processors"
        self.remarks.transformed(
            "vectorize", self._fn.name,
            f"loop vectorized: {detail}", stmt=loop,
            vector_statements=n_vec, sequential_statements=n_seq,
            masked_statements=n_masked, parallel=parallel,
            vector_length=self.options.vector_length)

    def _reject(self, loop: N.DoLoop, reason: str,
                cause: str = "") -> None:
        """Record and remark a loop rejected for ``reason``, naming its
        specific ``cause`` when there is one."""
        detail = self.REJECT_MESSAGES[reason]
        if cause:
            detail = f"{detail}: {cause}"
        self.stats.reject(loop.sid, reason, line=loop.line, detail=detail)
        self._remark_missed(loop, reason, detail)

    def _remark_missed(self, loop: N.DoLoop, reason: str,
                       detail: str) -> None:
        if self.remarks is not None:
            self.remarks.missed("vectorize", self._fn.name,
                                f"loop not vectorized: {detail}",
                                stmt=loop, reason=reason)

    @staticmethod
    def _blocking_edge(graph: DependenceGraph):
        """The most explanatory dependence edge of a cyclic component:
        a carried non-anti edge if any, else any carried edge, else any
        edge at all (None on an empty graph)."""
        from ..dependence.graph import ANTI_DEP
        carried = [e for e in graph.edges
                   if e.carried and e.kind != ANTI_DEP] \
            or graph.carried_edges() or list(graph.edges)
        return carried[0] if carried else None

    @classmethod
    def _blocking_dependence(cls, body: List[N.Stmt],
                             graph: DependenceGraph
                             ) -> Optional[Dict[str, object]]:
        """Structured form of the blocking edge, for the compilation
        report's per-loop coverage table."""
        from ..il.printer import format_stmt
        edge = cls._blocking_edge(graph)
        if edge is None:
            return None
        return {
            "src": edge.src,
            "dst": edge.dst,
            "kind": edge.kind,
            "carried": edge.carried,
            "distance": edge.distance,
            "reason": edge.reason,
            "stmt": format_stmt(body[edge.src])[0].strip().rstrip(";"),
        }

    @classmethod
    def _describe_recurrence(cls, body: List[N.Stmt],
                             graph: DependenceGraph) -> str:
        """A dependence-based explanation of a cyclic component, in the
        style of the paper's section 5 transcripts."""
        edge = cls._blocking_edge(graph)
        if edge is None:
            return "dependence cycle among the loop's statements"
        return f"dependence cycle — {_describe_edge(body, edge)}"

    def _remark_fork(self, loop: N.DoLoop, region: StripRegion,
                     decision: ForkDecision, blocking) -> None:
        """An analysis remark for each reduction's fork decision, with
        its static prices, and for each vector region that stays
        serial, naming the carried edge or the prices that keep it
        so."""
        what = "reduction" if region.kind == "reduce" else "vector"
        if blocking is not None:
            why = _describe_edge(loop.body, blocking)
        elif region.kind == "vector" and decision.parallel:
            return
        elif decision.serial is None:
            why = "trip count is not a constant" \
                if decision.outcome == "unknown-trip" \
                else "processor count unknown"
        else:
            why = f"static price {decision.forked:.0f} cycles forked " \
                  f"against {decision.serial:.0f} serial"
        verb = "fork" if decision.outcome == "forked" else "stay serial"
        self.remarks.analysis(
            "vectorize", self._fn.name, f"{what} strips {verb}: {why}",
            stmt=loop, region=region.kind, outcome=decision.outcome,
            serial_cycles=decision.serial,
            forked_cycles=decision.forked)

    # -- scalar forwarding ---------------------------------------------------

    def _forward_local_scalars(self, loop: N.DoLoop,
                               policy: AliasPolicy) -> None:
        """Substitute iteration-local scalar temporaries into their
        uses — the practical form of Allen–Kennedy scalar expansion.

        ``t = b[i]*2; a[i] = t + 1`` becomes a single store statement
        the distributor can vectorize.  Moving the RHS later in the
        iteration is legal only if no store in between may touch the
        RHS's loads (checked with the dependence tests at the
        same-iteration direction) and no RHS scalar is redefined.
        """
        body = loop.body
        changed = True
        rounds = 0
        while changed and rounds < len(body) + 1:
            changed = False
            rounds += 1
            for index, stmt in enumerate(list(body)):
                if stmt not in body:
                    continue
                if self._try_forward_one(loop, body, body.index(stmt),
                                         policy):
                    changed = True
                    self.stats.scalars_forwarded += 1

    def _try_forward_one(self, loop: N.DoLoop, body: List[N.Stmt],
                         index: int, policy: AliasPolicy) -> bool:
        stmt = body[index]
        if not isinstance(stmt, N.Assign) \
                or not isinstance(stmt.target, N.VarRef):
            return False
        sym = stmt.target.sym
        if sym == loop.var or sym.is_volatile or sym.address_taken:
            return False
        if sym.storage in ("global", "static", "extern"):
            return False
        if utils.expr_has_call(stmt.value) \
                or utils.expr_has_volatile(stmt.value):
            return False
        defs = [s for s in body if utils.stmt_writes_scalar(s) == sym]
        if len(defs) != 1:
            return False
        if self._used_outside_loop(loop, sym):
            return False
        use_sites = [j for j in range(len(body))
                     if j != index and sym in utils.stmt_reads(body[j])]
        if any(j < index for j in use_sites):
            return False  # carried use: a genuine recurrence
        if not use_sites:
            return False  # dead; DCE's business
        rhs_vars = set(N.vars_read(stmt.value))
        loads = [e for e in N.walk_expr(stmt.value)
                 if isinstance(e, N.Mem)]
        invariants = _AllInvariants()
        load_refs = [parse_ref(m, stmt, False, [loop.var], invariants)
                     for m in loads]
        last_use = max(use_sites)
        for j in range(index + 1, last_use + 1):
            mid = body[j]
            mid_writes = utils.stmt_writes_scalar(mid)
            if mid_writes is not None and mid_writes in rhs_vars:
                return False  # RHS operand changes before the use
            if isinstance(mid, N.Assign) \
                    and isinstance(mid.target, N.Mem) and loads:
                store_ref = parse_ref(mid.target, mid, True,
                                      [loop.var], invariants)
                if j < last_use or j not in use_sites:
                    if self._store_may_hit(store_ref, load_refs,
                                           policy, loop):
                        return False
        for j in use_sites:
            utils.substitute_in_stmt(body[j], sym,
                                     N.clone_expr(stmt.value))
            _resimplify_stmt(body[j])
        body.remove(stmt)
        return True

    def _store_may_hit(self, store: "AffineRef",
                       loads: List["AffineRef"], policy: AliasPolicy,
                       loop: N.DoLoop) -> bool:
        from ..dependence.tests import EQ, test_pair
        for load in loads:
            if store.base is None or load.base is None:
                return True
            if not policy.may_alias(store, load):
                continue
            if not store.same_shape(load):
                return True
            result = test_pair(store, load, loop.var, None)
            if result.possible and EQ in result.directions:
                return True
        return False

    def _used_outside_loop(self, loop: N.DoLoop, sym) -> bool:
        inside = {id(s) for s in N.walk_statements(loop.body)}
        for stmt in self._fn.all_statements():
            if id(stmt) in inside or stmt is loop:
                continue
            if sym in utils.stmt_reads(stmt) \
                    or utils.stmt_writes_scalar(stmt) == sym:
                return True
        # The loop's own bounds may reference it.
        return sym in set(N.vars_read(loop.lo)) \
            | set(N.vars_read(loop.hi))

    # -- eligibility --------------------------------------------------------

    def _reject_reason(self, loop: N.DoLoop
                       ) -> Tuple[Optional[str], str]:
        """Why ``loop`` is not examined further, if it is not, and the
        specific cause where the reason has one."""
        if not (N.is_const(loop.lo, 0) and loop.step == 1):
            return "not-normalized", ""
        for stmt in loop.body:
            if isinstance(stmt, N.IfStmt):
                if not self.options.if_converted:
                    return "control-flow", ""
                # If-conversion already ran and rejected this branch —
                # report the precise miss: a conditional min/max it
                # could not take, or the branch itself.
                if len(stmt.then) == 1 and not stmt.otherwise \
                        and isinstance(stmt.then[0], N.Assign):
                    _, cause = conditional_minmax(
                        stmt.cond, stmt.then[0].value,
                        stmt.then[0].target)
                    if cause:
                        return "reduction-shape", cause
                return "not-if-convertible", ""
            if isinstance(stmt, (N.WhileLoop, N.DoLoop)):
                return "control-flow", ""
            if isinstance(stmt, (N.Goto, N.LabelStmt, N.Return)):
                return "irregular-flow", ""
            if isinstance(stmt, N.CallStmt):
                return "call", ""
            if not isinstance(stmt, N.Assign):
                return "statement-kind", ""
            if isinstance(stmt.value, N.CallExpr):
                return "call", ""
            # The target walk covers volatile refs in subscript
            # expressions too (`a[v] = x` with volatile v), not just a
            # volatile target object itself.
            if utils.expr_has_volatile(stmt.value) \
                    or utils.expr_has_volatile(stmt.target):
                return "volatile", ""
        return None, ""

    def _component_vectorizable(self, comp: List[int],
                                body: List[N.Stmt],
                                graph: DependenceGraph) -> bool:
        if len(comp) != 1:
            return False
        index = comp[0]
        # A carried *anti* self-dependence (a[i] = a[i+1]) is satisfied
        # by vector semantics — all operands are read before any result
        # is written.  True/output self-recurrences stay sequential.
        from ..dependence.graph import ANTI_DEP
        if any(e.src == index and e.dst == index and e.carried
               and e.kind != ANTI_DEP for e in graph.edges):
            return False  # self-recurrence
        stmt = body[index]
        if not isinstance(stmt, N.Assign) \
                or not isinstance(stmt.target, N.Mem):
            return False  # scalar target would need expansion
        return self._stmt_sections_ok(stmt, graph)

    def _component_reduction(self, comp: List[int], body: List[N.Stmt],
                             graph: DependenceGraph, loop: N.DoLoop,
                             causes: List[str]) -> bool:
        """Is this component a single accumulation ``s = s ⊕ E(i)`` or
        a chain of them (:func:`reduction_terms`)?  An accumulation that
        is not one appends why to ``causes``.

        The only dependences allowed are the statement's own carried
        scalar self-dependence (the accumulator) — anything else (a
        memory recurrence, another statement reading s) disqualifies.
        """
        if len(comp) != 1:
            return False
        index = comp[0]
        stmt = body[index]
        if not isinstance(stmt, N.Assign) \
                or not isinstance(stmt.target, N.VarRef):
            return False
        sym = stmt.target.sym
        if sym == loop.var or sym.is_volatile or sym.address_taken:
            return False
        terms, cause = reduction_terms(stmt.value, stmt.target)
        if terms is None:
            if cause:
                causes.append(cause)
            return False
        # Beyond the accumulator's own scalar self-dependence there
        # must be nothing carried into/out of this statement.
        for edge in graph.edges:
            if index in (edge.src, edge.dst) and edge.carried:
                if edge.src == edge.dst == index \
                        and edge.reason == f"scalar {sym.name}":
                    continue
                return False
        invariants = self._loop_invariants(graph)
        if not all(self._expr_sections_ok(expr, loop.var, invariants,
                                          graph) for _, expr in terms):
            return False
        # Terms with no vector section (`s += B[0]`, `s += i`) have
        # nothing to reduce over; leave them to the scalar pipeline.
        return any(isinstance(e, N.Mem)
                   and _coeff_of(e.addr, loop.var) != 0
                   for _, expr in terms for e in N.walk_expr(expr))

    def _stmt_sections_ok(self, stmt: N.Assign,
                          graph: DependenceGraph) -> bool:
        loop_var = graph.loop.var
        invariants = self._loop_invariants(graph)
        target = parse_ref(stmt.target, stmt, True, [loop_var],
                           invariants)
        if not self._section_convertible(target, loop_var,
                                         need_stride=True):
            return False
        return self._expr_sections_ok(stmt.value, loop_var, invariants,
                                      graph)

    def _expr_sections_ok(self, expr: N.Expr, loop_var: Symbol,
                          invariants: Set[Symbol],
                          graph: DependenceGraph) -> bool:
        if isinstance(expr, N.Mem):
            ref = parse_ref(expr, None, False, [loop_var], invariants)
            return self._section_convertible(ref, loop_var,
                                             need_stride=False)
        if isinstance(expr, N.VarRef):
            # The loop index itself vectorizes as an iota (index
            # vector); any other scalar defined in the body would need
            # expansion after distribution, so only loop-invariant
            # scalars broadcast.
            return expr.sym == loop_var or expr.sym in invariants
        if isinstance(expr, N.Const):
            return True
        if isinstance(expr, N.AddrOf):
            return True
        if isinstance(expr, (N.BinOp, N.UnOp, N.Cast, N.Select)):
            for child in expr.children():
                if not self._expr_sections_ok(child, loop_var,
                                              invariants, graph):
                    return False
            return True
        return False

    def _section_convertible(self, ref: AffineRef, loop_var: Symbol,
                             need_stride: bool) -> bool:
        if ref.base is None:
            return False
        coeff = ref.coeff(loop_var)
        if coeff == 0:
            # A loop-invariant load broadcasts fine; a store does not.
            return not need_stride
        return coeff % ref.elem_size == 0

    def _loop_invariants(self, graph: DependenceGraph) -> Set[Symbol]:
        return graph._invariant_symbols(
            utils.symbols_defined_in(graph.body))

    # -- code generation -----------------------------------------------------

    def _codegen(self, loop: N.DoLoop,
                 plan: List[Tuple[str, List[int]]],
                 graph: DependenceGraph, policy: AliasPolicy
                 ) -> Tuple[List[StripRegion], List[N.Stmt]]:
        """Turn the Allen–Kennedy plan into strip regions and lower
        them, one statement per region, in plan order (the order the
        regions draw their temps in); then decide, region by region,
        which strip loops fork, and note each strip loop's source for
        fusion."""
        trip_expr = simplify(N.BinOp(op="+", left=N.clone_expr(loop.hi),
                                     right=N.int_const(1), ctype=INT))
        trip_const = const_int_value(trip_expr)
        machine = self.options.config or TitanConfig()
        direct = trip_const is not None and trip_const <= min(
            self.options.vector_length, machine.max_vector_length)
        regions = [StripRegion(kind, sorted(comp), False)
                   for kind, comp in plan]
        lowered = [self._emit_region(loop, region, trip_expr, direct)
                   for region in regions]
        # A direct statement has no strips to spread, nor does a
        # sequential DO loop.
        if direct:
            return regions, lowered
        for region, stmt in zip(regions, lowered):
            if region.kind == "seq":
                continue
            stmts = [loop.body[k] for k in region.stmts]
            edges = _edges_among(graph, region.stmts)
            self._hold(stmt)
            decision = ForkDecision("illegal")
            if self.options.parallelize:
                decision = self._fork(loop, region, stmt, edges, stmts)
            region.parallel = stmt.parallel = decision.parallel
            self._strips[id(stmt)] = StripSource(
                stmt, stmts, loop.var, edges, (graph, region.stmts),
                policy, decision, {loop.sid})
        return regions, lowered

    def _fork(self, loop: N.DoLoop, region: StripRegion,
              strips: N.DoLoop, edges: List[DependenceEdge],
              stmts: List[N.Stmt]) -> ForkDecision:
        """Does this ``vector`` or ``reduce`` region's strip loop run
        ``do parallel``?  Only if it is legal (:func:`_fork_blocker`
        of its ``edges``; edges between regions are satisfied by
        distribution) and :func:`~repro.titan.static.fork_decision`
        says so."""
        blocking = _fork_blocker(edges, stmts)
        decision = fork_decision(self.options.config, strips,
                                 legal=blocking is None)
        if blocking is not None:
            blocking = dataclasses.replace(
                blocking, src=region.stmts[blocking.src],
                dst=region.stmts[blocking.dst])
        REGISTRY.counter("titancc_vector_region_fork_total",
                         {"kind": region.kind,
                          "outcome": decision.outcome}).inc()
        if self.remarks is not None:
            self._remark_fork(loop, region, decision, blocking)
        return decision

    # -- fusion ----------------------------------------------------------------

    def _fuse_lists(self, stmts: List[N.Stmt]) -> None:
        """Fuse each run of neighbouring strip loops of ``stmts`` (and
        of every statement list nested in it) that :meth:`_fuse`
        accepts, left to right."""
        for stmt in stmts:
            for sub in stmt.substatements():
                self._fuse_lists(sub)
        k = 0
        while k < len(stmts):
            first = stmts[k]
            j = k + 1
            while j < len(stmts) and isinstance(stmts[j], N.Assign):
                j += 1
            if id(first) not in self._strips or j == len(stmts) \
                    or id(stmts[j]) not in self._strips \
                    or first.var is not stmts[j].var:
                k += 1
                continue
            fused = self._fuse(first, stmts[k + 1:j], stmts[j])
            if fused is None:
                k += 1
                continue
            stmts[k:j + 1] = stmts[k + 1:j] + [fused]
            k = j - 1

    def _fuse(self, first: N.DoLoop, between: List[N.Stmt],
              later: N.DoLoop) -> Optional[N.DoLoop]:
        """One strip loop doing ``first``'s strips and then
        ``later``'s, with ``between`` moved ahead of ``first``; or None
        when fusion would change what the program computes or raise
        the walk's price.

        Legal when each statement of ``between`` touches nothing
        ``first`` touches, and when no dependence of the two parts'
        source statements, analysed as one loop, runs from a statement
        of ``later`` to one of ``first`` at a later iteration — fused,
        that iteration of ``first`` would run after ``later``'s.
        The fused loop's fork is decided by the same rule as a region's
        (:meth:`_fork`): parts with that outcome fuse; parts with
        another only when the walk prices the fused loop at most their
        sum, so fusion never raises a priced loop's cycles."""
        a, b = self._strips[id(first)], self._strips[id(later)]
        reason, detail = "", ""
        if not all(_hoistable(stmt, first) for stmt in between):
            reason = "statement"
            detail = "a statement between them touches the first loop"
        elif any(isinstance(stmt, N.VectorReduce) and stmt.target.sym
                 in N.facts(first.hi).reads for stmt in first.body):
            reason = "statement"
            detail = "the first loop writes the trip count"
        elif b.var is not a.var and (
                any(b.var in utils.stmt_reads(stmt) for stmt in a.stmts)
                or any(a.var in utils.stmt_reads(stmt)
                       for stmt in b.stmts)):
            reason = "index"
            detail = "a part reads the other's index"
        if reason:
            return self._refuse(later, reason, detail)
        index = N.VarRef(sym=a.var, ctype=a.var.ctype)
        stmts = a.stmts + [stmt if b.var is a.var else N.Assign(
            target=utils.substitute_var(stmt.target, b.var, index),
            value=utils.substitute_var(stmt.value, b.var, index),
            line=stmt.line) for stmt in b.stmts]
        policy = AliasPolicy(assume_no_alias=(
            a.policy.assume_no_alias and b.policy.assume_no_alias))
        origin = None
        if a.origin and b.origin and a.origin[0] is b.origin[0]:
            # Regions of one source loop: its graph has their edges.
            graph, indices = a.origin[0], a.origin[1] + b.origin[1]
            origin = (graph, indices)
            cross = [edge for edge in _edges_among(graph, indices)
                     if (edge.src < len(a.stmts)) != (edge.dst
                                                      < len(a.stmts))]
        else:
            cross = DependenceGraph(N.DoLoop(
                var=a.var, lo=N.int_const(0), hi=N.clone_expr(first.hi),
                step=1, body=stmts), policy, split=len(a.stmts)).edges
        back = next((edge for edge in cross if edge.carried
                     and edge.src >= len(a.stmts) > edge.dst), None)
        if back is not None:
            return self._refuse(later, "dependence",
                                _describe_edge(stmts, back))
        edges = a.edges + cross + [dataclasses.replace(
            edge, src=edge.src + len(a.stmts), dst=edge.dst + len(a.stmts))
            for edge in b.edges]
        fused = self._fused_loop(first, later)
        self._hold(fused)
        decision = ForkDecision("illegal")
        if self.options.parallelize:
            decision = fork_decision(
                self.options.config, fused,
                legal=_fork_blocker(edges, stmts) is None)
        fused.parallel = decision.parallel
        prices = ""
        if not fused.parallel == first.parallel == later.parallel:
            total = decision.cycles()
            parts = (a.decision.cycles(), b.decision.cycles())
            if total is None or None in parts:
                prices = "the parts fork differently and have no " \
                         "static price"
            else:
                prices = f"static price {total:.0f} cycles fused " \
                         f"against {sum(parts):.0f} apart"
            if total is None or None in parts or total > sum(parts):
                return self._refuse(later, "price", prices)
        del self._strips[id(first)], self._strips[id(later)]
        self._strips[id(fused)] = StripSource(
            fused, stmts, a.var, edges, origin, policy, decision,
            a.loops | b.loops)
        REGISTRY.counter("titancc_vector_fusion_total",
                         {"outcome": "fused"}).inc()
        if self.remarks is not None:
            verb = "fork" if fused.parallel else "stay serial"
            self.remarks.analysis(
                "vectorize", self._fn.name,
                f"strip loops fused: {len(stmts)} statement(s) share one "
                f"strip loop and {verb}"
                + (f"; {prices}" if prices else ""),
                stmt=later, outcome="fused", parallel=fused.parallel)
        return fused

    def _refuse(self, later: N.DoLoop, reason: str,
                detail: str) -> None:
        REGISTRY.counter("titancc_vector_fusion_total",
                         {"outcome": reason}).inc()
        if self.remarks is not None:
            self.remarks.analysis(
                "vectorize", self._fn.name,
                f"strip loops not fused: {detail}", stmt=later,
                outcome=reason)
        return None

    def _hold(self, where) -> tuple:
        """Mark what strip loop or statement list ``where`` holds in
        the vector register file
        (:func:`~repro.titan.vector_ops.held_loads`), clearing every
        other mark of its vector stores; its entries' outcomes."""
        machine = self.options.config or TitanConfig()
        outcomes = held_loads(where, machine.vector_register_words)
        stmts = where.body if isinstance(where, N.DoLoop) else where
        for stmt, entries in zip(stmts, outcomes):
            for node, outcome in entries:
                if node.held != (outcome == "held"):
                    marks = iter([outcome == "held"
                                  for _, outcome in entries])
                    if stmt.mask is not None:
                        stmt.mask = _with_marks(stmt.mask, marks)
                    stmt.value = _with_marks(stmt.value, marks)
                    break
        return outcomes

    def _report_held(self) -> None:
        """Mark every strip loop fusion left once more — a refused
        candidate's marks stay on the statements it shares with its
        parts — and every run of bare vector statements, then count
        re-used sections and index vectors by outcome, and name what
        each strip loop or statement list holds in a remark."""
        counts: Dict[str, int] = {}
        for where, stmts in held_scopes(self._fn.body):
            names: List[str] = []
            loads = indices = 0
            anchor = where if isinstance(where, N.DoLoop) else None
            for stmt, entries in zip(stmts, self._hold(where)):
                for node, outcome in entries:
                    if outcome in HELD_OUTCOMES:
                        counts[outcome] = counts.get(outcome, 0) + 1
                    if outcome != "held":
                        continue
                    anchor = anchor or stmt
                    if isinstance(node, N.Iota):
                        indices += 1
                        name = f"iota({format_expr(node.start)})"
                    else:
                        loads += 1
                        name = _section_name(node)
                    if name not in names:
                        names.append(name)
            if names and self.remarks is not None:
                what = [f"{count} {noun}{'s' if count > 1 else ''}"
                        for count, noun in ((loads, "load"),
                                            (indices, "index vector"))
                        if count]
                self.remarks.analysis(
                    "vectorize", self._fn.name,
                    f"{' and '.join(what)} read from vector registers: "
                    f"{', '.join(names)}",
                    stmt=anchor, outcome="held", held=loads + indices)
        for outcome, count in counts.items():
            REGISTRY.counter("titancc_vector_held_loads_total",
                             {"outcome": outcome}).inc(count)

    @staticmethod
    def _fused_loop(first: N.DoLoop, later: N.DoLoop) -> N.DoLoop:
        """``first``'s header and statements, then ``later``'s (both
        over the same ``vi`` and ``vlen``)."""
        return N.DoLoop(var=first.var, lo=first.lo, hi=first.hi,
                        step=first.step, body=first.body + later.body[1:],
                        vector=True, line=first.line)

    def _emit_region(self, loop: N.DoLoop, region: StripRegion,
                     trip_expr: N.Expr, direct: bool) -> N.Stmt:
        """A ``seq`` region becomes a DO loop over a fresh ``svar``; a
        vector or reduction region becomes one statement over the
        whole trip when it fits a vector register, else a strip loop
        ``do vi = 0, trip-1, VL { vlen = min(VL, trip - vi); ... }``,
        serial until :meth:`_fork` says otherwise."""
        stmts = [loop.body[k] for k in region.stmts]
        if region.kind == "seq":
            seq_var = self.symtab.fresh_temp(INT, "svar")
            self._fn.local_syms.append(seq_var)
            return N.DoLoop(var=seq_var, lo=N.clone_expr(loop.lo),
                            hi=N.clone_expr(loop.hi), step=1,
                            body=[_rename_loop_var(s, loop.var, seq_var)
                                  for s in stmts],
                            line=loop.line)
        stmt = stmts[0]
        assert isinstance(stmt, N.Assign)
        lower = self._reduce_stmt if region.kind == "reduce" \
            else self._vector_stmt
        if direct:
            return lower(stmt, loop.var, N.int_const(0), trip_expr)
        strip = self.options.vector_length
        vi, vlen = self._strip_temps(trip_expr)
        vlen_value = N.BinOp(
            op="min", left=N.int_const(strip),
            right=N.BinOp(op="-", left=N.clone_expr(trip_expr),
                          right=N.VarRef(sym=vi, ctype=INT), ctype=INT),
            ctype=INT)
        body: List[N.Stmt] = [
            N.Assign(target=N.VarRef(sym=vlen, ctype=INT),
                     value=vlen_value),
            lower(stmt, loop.var, N.VarRef(sym=vi, ctype=INT),
                  N.VarRef(sym=vlen, ctype=INT)),
        ]
        return N.DoLoop(
            var=vi, lo=N.int_const(0),
            hi=simplify(N.BinOp(op="-", left=N.clone_expr(trip_expr),
                                right=N.int_const(1), ctype=INT)),
            step=strip, body=body, vector=True, line=stmt.line)

    def _strip_temps(self, trip_expr: N.Expr) -> Tuple[Symbol, Symbol]:
        """The ``vi`` and ``vlen`` of strip loops over ``trip_expr``
        elements."""
        for trip, temps in self._temps:
            if N.expr_equal(trip, trip_expr):
                return temps
        temps = (self.symtab.fresh_temp(INT, "vi"),
                 self.symtab.fresh_temp(INT, "vlen"))
        self._fn.local_syms.extend(temps)
        self._temps.append((trip_expr, temps))
        return temps

    def _reduce_stmt(self, stmt: N.Assign, loop_var: Symbol,
                     start: N.Expr, length: N.Expr) -> N.VectorReduce:
        terms, _ = reduction_terms(stmt.value, stmt.target)
        (op, value), *chain = [
            (op, self._value_to_sections(expr, loop_var, start, length))
            for op, expr in terms]
        return N.VectorReduce(
            target=N.VarRef(sym=stmt.target.sym,
                            ctype=stmt.target.ctype),
            op=op, value=value, length=N.clone_expr(length),
            chain=tuple(chain), line=stmt.line)

    def _vector_stmt(self, stmt: N.Assign, loop_var: Symbol,
                     start: N.Expr, length: N.Expr) -> N.VectorAssign:
        value_expr, mask_expr = stmt.value, None
        if isinstance(stmt.value, N.Select):
            # A select against the target's own old value is the
            # if-converted guarded store: peel it into a *masked*
            # vector assignment.  Inactive lanes are neither read nor
            # written, so the guard keeps protecting whatever it
            # protected in the scalar loop.
            if N.expr_equal(stmt.value.otherwise, stmt.target):
                mask_expr = stmt.value.cond
                value_expr = stmt.value.then
            elif N.expr_equal(stmt.value.then, stmt.target):
                mask_expr = N.UnOp(op="not",
                                   operand=N.clone_expr(
                                       stmt.value.cond),
                                   ctype=INT)
                value_expr = stmt.value.otherwise
        target = self._to_section(stmt.target, loop_var, start, length)
        value = self._value_to_sections(value_expr, loop_var, start,
                                        length)
        mask = None
        if mask_expr is not None:
            mask = self._value_to_sections(mask_expr, loop_var, start,
                                           length)
        return N.VectorAssign(target=target, value=value, mask=mask,
                              line=stmt.line)

    def _to_section(self, mem: N.Mem, loop_var: Symbol, start: N.Expr,
                    length: N.Expr) -> N.Section:
        coeff = _coeff_of(mem.addr, loop_var)
        addr0 = simplify(utils.substitute_var(mem.addr, loop_var,
                                              N.clone_expr(start)))
        stride = coeff // mem.ctype.sizeof()
        return N.Section(addr=addr0, length=N.clone_expr(length),
                         stride=stride, ctype=mem.ctype)

    def _value_to_sections(self, expr: N.Expr, loop_var: Symbol,
                           start: N.Expr, length: N.Expr) -> N.Expr:
        if isinstance(expr, N.Mem):
            coeff = _coeff_of(expr.addr, loop_var)
            if coeff == 0:
                return expr  # broadcast scalar load
            return self._to_section(expr, loop_var, start, length)
        if isinstance(expr, N.VarRef) and expr.sym == loop_var:
            # The loop index in dataflow position becomes an index
            # vector (lane k holds start + k).
            return N.Iota(start=N.clone_expr(start), ctype=INT)
        if isinstance(expr, (N.BinOp, N.UnOp, N.Cast, N.Select)):
            children = [self._value_to_sections(c, loop_var, start,
                                                length)
                        for c in expr.children()]
            return expr.replace_children(children)
        return expr

    # -- parallel-only fallback ------------------------------------------------

    def _try_parallel_only(self, loop: N.DoLoop, policy: AliasPolicy,
                           graph: Optional[DependenceGraph] = None
                           ) -> bool:
        """Spread a non-vectorizable loop across processors when its
        iterations are provably independent (after privatizing
        iteration-local scalars)."""
        if utils.has_irregular_flow(loop.body):
            return False
        for stmt in N.walk_statements(loop.body):
            if isinstance(stmt, (N.CallStmt, N.WhileLoop)):
                return False
            if isinstance(stmt, N.Assign):
                if isinstance(stmt.value, N.CallExpr):
                    return False
                if utils.expr_has_volatile(stmt.value):
                    return False
        if graph is None:
            if not (N.is_const(loop.lo, 0) and loop.step == 1):
                return False
            graph = DependenceGraph(loop, policy)
        carried = graph.carried_edges()
        privatizable = private_scalars(self._fn, loop.body)
        for edge in carried:
            if edge.reason.startswith("scalar "):
                name = edge.reason[len("scalar "):]
                if any(s.name == name for s in privatizable):
                    continue
            return False
        loop.parallel = True
        self.stats.loops_parallelized += 1
        self.stats.outcomes.append(LoopOutcome(
            loop_sid=loop.sid, vectorized=False, parallelized=True,
            reason="parallel-only", line=loop.line))
        if self.remarks is not None:
            self.remarks.transformed(
                "vectorize", self._fn.name,
                f"loop parallelized (not vectorized): iterations are "
                f"independent; {len(privatizable)} scalar(s) "
                f"privatized per iteration", stmt=loop,
                privatized=len(privatizable))
        return True


def reduction_terms(value: N.Expr, target: N.VarRef
                    ) -> Tuple[Optional[Tuple[Tuple[str, N.Expr], ...]],
                               str]:
    """The terms of the accumulation ``s = value`` (``s`` the scalar
    ``target``), in the order a :class:`~repro.il.nodes.VectorReduce`
    applies them: ``min(s, E)`` and ``max(s, E)`` — ``min(E, s)`` too
    for integers, where a tie or a NaN cannot tell the operands apart
    — and the left chain ``s ⊕₁ E₁ ⊕₂ … ⊕ₖ Eₖ`` of ``+`` and ``-``
    (its innermost step may be ``E + s``), every step at ``s``'s type,
    and no ``E`` reading ``s``.  Else None, and why not for the near
    misses that have a cause to name ("" for any other recurrence):
    another operator applied to ``s`` (``s = s * E``), a chain computed
    at another type (a ``float`` sum of ``double`` terms rounds once
    per iteration, not once per term), ``max(E, s)`` over floats."""
    sym, ctype = target.sym, target.ctype
    name = sym.name

    def is_target(expr: N.Expr) -> bool:
        return isinstance(expr, N.VarRef) and expr.sym == sym

    if isinstance(value, N.BinOp) and value.op in ("min", "max"):
        if is_target(value.left):
            terms = [(value.op, value.right)]
        elif is_target(value.right) and ctype.is_integer:
            terms = [(value.op, value.left)]
        elif is_target(value.right):
            return None, f"{value.op}(E, {name}) keeps E on a tie or " \
                         f"a NaN where the reduction keeps {name}"
        else:
            return None, ""
    elif isinstance(value, N.BinOp) and value.op not in ("+", "-") \
            and (is_target(value.left) or is_target(value.right)):
        return None, f"operator '{value.op}' is not +, -, min or max"
    else:
        terms, node = [], value
        while isinstance(node, N.BinOp) and node.op in ("+", "-") \
                and node.ctype.compatible(ctype):
            if is_target(node.left):
                terms.append((node.op, node.right))
                break
            if node.op == "+" and is_target(node.right):
                terms.append((node.op, node.left))
                break
            terms.append((node.op, node.right))
            node = node.left
        else:
            if isinstance(value, N.Cast) and _spine_reaches(
                    value.operand, sym):
                return None, f"the chain of {ctype} {name} is " \
                             f"computed at {value.operand.ctype}"
            return None, ""
    if any(sym in N.facts(expr).reads for _, expr in terms):
        return None, ""
    return tuple(reversed(terms)), ""


def _spine_reaches(expr: N.Expr, sym: Symbol) -> bool:
    """Does the left spine of ``+``/``-`` steps (and conversions)
    under ``expr`` end in a read of ``sym``?"""
    while True:
        if isinstance(expr, N.Cast):
            expr = expr.operand
        elif isinstance(expr, N.BinOp) and expr.op in ("+", "-"):
            if isinstance(expr.right, N.VarRef) and expr.right.sym == sym:
                return True
            expr = expr.left
        else:
            return isinstance(expr, N.VarRef) and expr.sym == sym


def private_scalars(fn: N.ILFunction,
                    body: List[N.Stmt]) -> Set[Symbol]:
    """Scalars ``body`` defines before any use in each iteration and
    that no statement of ``fn`` outside ``body`` references."""
    inside = {id(s) for s in N.walk_statements(body)}
    outside: Set[Symbol] = set()
    for stmt in fn.all_statements():
        if id(stmt) in inside:
            continue
        outside |= utils.stmt_reads(stmt)
        target = utils.stmt_writes_scalar(stmt)
        if target is not None:
            outside.add(target)
    return {sym for sym in utils.symbols_defined_in(body)
            if sym not in outside and not sym.address_taken
            and not sym.is_volatile
            and sym.storage not in ("global", "static", "extern")
            and _defined_before_use(body, sym)}


def _defined_before_use(body: List[N.Stmt], sym: Symbol) -> bool:
    """Is every iteration's first touch of ``sym`` an unconditional
    top-level definition?"""
    for stmt in body:
        if utils.stmt_writes_scalar(stmt) == sym:
            return sym not in utils.stmt_reads(stmt)
        if sym in utils.stmt_reads(stmt):
            return False
        if sym in utils.symbols_defined_in([stmt]) or any(
                sym in utils.stmt_reads(s)
                for s in N.walk_statements([stmt])):
            return False  # first touch is conditional
    return True


def _edges_among(graph: DependenceGraph,
                 indices: List[int]) -> List[DependenceEdge]:
    """The edges of ``graph`` between statements ``indices``, by
    position in that list."""
    position = {index: at for at, index in enumerate(indices)}
    return [dataclasses.replace(edge, src=position[edge.src],
                                dst=position[edge.dst])
            for edge in graph.edges
            if edge.src in position and edge.dst in position]


def _fork_blocker(edges: List[DependenceEdge],
                  stmts: List[N.Stmt]) -> Optional[DependenceEdge]:
    """The first carried edge among ``stmts`` — even an anti edge,
    satisfied within one vector instruction, races across strips —
    other than a reduction accumulator's edge onto itself; None when
    the strips of those statements may fork."""
    return next((edge for edge in edges if edge.carried and not (
        edge.src == edge.dst
        and isinstance(stmts[edge.src].target, N.VarRef)
        and edge.reason == f"scalar {stmts[edge.src].target.sym.name}")),
        None)


def _hoistable(stmt: N.Stmt, loop: N.DoLoop) -> bool:
    """May ``stmt``, just after ``loop``, run before it instead?  Yes
    for a scalar assignment to a register-like local, with no call,
    load or volatile access, when ``loop`` neither reads nor writes
    its target and writes nothing it reads."""
    if not isinstance(stmt, N.Assign) \
            or not isinstance(stmt.target, N.VarRef):
        return False
    reads = set(N.vars_read(stmt.value))
    for sym in reads | {stmt.target.sym}:
        if sym.address_taken or sym.is_volatile \
                or sym.storage in ("global", "static", "extern"):
            return False
    if any(isinstance(e, (N.Mem, N.CallExpr))
           for e in N.walk_expr(stmt.value)):
        return False
    touched: Set[Symbol] = set(N.vars_read(loop.lo)) \
        | set(N.vars_read(loop.hi)) | {loop.var}
    written: Set[Symbol] = {loop.var}
    for inner in N.walk_statements(loop.body):
        touched |= utils.stmt_reads(inner)
        target = getattr(inner, "target", None)
        if isinstance(target, N.VarRef):
            written.add(target.sym)
    return stmt.target.sym not in touched | written \
        and not reads & written


def _describe_edge(body: List[N.Stmt], edge) -> str:
    """A carried dependence edge in words, naming the statement it
    leaves."""
    from ..il.printer import format_stmt
    stmt_text = format_stmt(body[edge.src])[0].strip().rstrip(";")
    parts = [f"{edge.kind} dependence carried by the loop"]
    if edge.distance is not None:
        parts.append(f"distance {edge.distance}")
    if edge.reason and edge.reason != "affine":
        parts.append(f"via {edge.reason}")
    return f"{', '.join(parts)} on '{stmt_text}'"


def _coeff_of(addr: N.Expr, loop_var: Symbol) -> int:
    from ..dependence.refs import _ParseState, _NotAffine
    state = _ParseState({loop_var}, _AllInvariants())
    try:
        state.walk(addr, 1)
    except _NotAffine:
        return 0
    return state.coeffs.get(loop_var, 0)


class _AllInvariants:
    """Set stand-in that treats every symbol as loop-invariant (used
    only after eligibility was already verified)."""

    def __contains__(self, item) -> bool:
        return True


def _with_marks(expr: N.Expr, marks) -> N.Expr:
    """``expr`` with its load sections' and index vectors' ``held``
    marks taken, in issue order, from ``marks``; the same node where
    nothing changes."""
    if isinstance(expr, N.Section):
        held = next(marks)
        if held == expr.held:
            return expr
        return N.Section(addr=expr.addr, length=expr.length,
                         stride=expr.stride, held=held, ctype=expr.ctype)
    if isinstance(expr, N.Iota):
        held = next(marks)
        if held == expr.held:
            return expr
        return N.Iota(start=expr.start, held=held, ctype=expr.ctype)
    if isinstance(expr, (N.BinOp, N.UnOp, N.Cast, N.Select)):
        kids = expr.children()
        new = [_with_marks(kid, marks) for kid in kids]
        if any(a is not b for a, b in zip(new, kids)):
            return expr.replace_children(new)
    return expr


def _section_name(section: N.Section) -> str:
    """The object a section addresses, as a remark names it."""
    for node in N.walk_expr(section.addr):
        if isinstance(node, N.AddrOf):
            return node.sym.name
    for node in N.walk_expr(section.addr):
        if isinstance(node, N.VarRef) and node.ctype.is_pointer:
            return node.sym.name
    return format_expr(section.addr)


def _rename_loop_var(stmt: N.Stmt, old: Symbol, new: Symbol) -> N.Stmt:
    (cloned,) = N.clone_statements([stmt])
    utils.substitute_in_stmt(cloned, old,
                             N.VarRef(sym=new, ctype=new.ctype))
    for sublist in cloned.substatements():
        for sub in sublist:
            utils.substitute_in_stmt(sub, old,
                                     N.VarRef(sym=new, ctype=new.ctype))
    return cloned


def _resimplify_stmt(stmt: N.Stmt) -> None:
    if isinstance(stmt, N.Assign):
        stmt.value = simplify(stmt.value)
        if isinstance(stmt.target, N.Mem):
            stmt.target = N.Mem(addr=simplify(stmt.target.addr),
                                ctype=stmt.target.ctype)


