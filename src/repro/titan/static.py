"""The static Titan price of a program's IL — no execution.

:class:`StaticCostEstimator` walks IL once under the prices simulated
runs are charged, each stated once in :mod:`repro.titan.cost_model`:
a vector statement's strips through
:func:`~repro.titan.cost_model.vector_prices` (:func:`vector_cost`),
scalar operations at their :data:`~repro.titan.cost_model.SCALAR_COSTS`
latencies, a ``do parallel`` region through
:func:`~repro.titan.cost_model.parallel_share` (and a forked
reduction's :func:`~repro.titan.cost_model.parallel_combine`); one
:class:`LoopCost` is recorded per loop and per vector statement
outside a strip loop.  On a machine with whole prices every figure
it sums is whole (the parallel share is truncated), so its float sums
are exact.  Two renderings read the walk: the report's
``titan.static`` (:mod:`repro.obs.report`: schedule-aware, ``cycles:
null`` for unknown trips) and the cycle attributor
(:mod:`repro.obs.attrib`: schedule-free, ``assumed_trips`` for
unknown trips).  The vectorizer reads it too: :func:`fork_decision` is when a strip loop forks, and
its prices whether two strip loops fuse.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from ..frontend.symtab import Symbol
from ..il import nodes as N
from ..opt.fold import const_int_value, static_trip_count
from ..sched.scheduler import LoopSchedule
from .config import TitanConfig
from .cost_model import (SCALAR_COSTS, parallel_combine, parallel_share,
                         vector_prices)
from .vector_ops import vector_instructions

#: Trips charged where a trip count is not a compile-time constant:
#: the same either side of a pass, so per-pass deltas stay meaningful.
DEFAULT_ASSUMED_TRIPS = 16

#: The :class:`TitanConfig` fields the report states, in order.
REPORTED_CONFIG = ("processors", "clock_mhz", "max_vector_length",
                   "vector_startup", "vector_element_cycles",
                   "parallel_startup")


class VectorCost(NamedTuple):
    """A vector statement's price over all its strips, in
    :class:`CycleBreakdown` buckets (``startup`` is a sub-share of the
    other two), and the MVL chunks each of its instructions ran as."""

    compute: float
    memory: float
    startup: float
    chunks: int


def vector_cost(config: TitanConfig, stmt: N.Stmt, total: int,
                step: Optional[int] = None) -> VectorCost:
    """``stmt`` over ``total`` elements: one statement of that length
    (``step`` None), or a strip loop's strips of ``step`` elements, the
    last one shorter — each strip priced by :func:`vector_prices`.  A
    statement of no element issues nothing: engines skip it."""
    if step is None:
        runs: Tuple[Tuple[int, int], ...] = ((total, 1),)
    else:
        full, rest = divmod(max(total, 0), max(1, step))
        runs = ((step, full), (rest, 1 if rest else 0))
    instructions = vector_instructions(stmt)
    compute = memory = startup = 0.0
    chunks = 0
    for length, count in runs:
        if count <= 0 or length <= 0:
            continue
        issued, _, _, fill, costs = vector_prices(config, instructions,
                                                  length)
        chunks += count * (issued // len(costs))
        for cost, memory_pipe in costs:
            if memory_pipe:
                memory += count * cost
            else:
                compute += count * cost
            startup += count * fill
    return VectorCost(compute, memory, startup, chunks)


class LoopCost(NamedTuple):
    """One loop's or vector statement's contribution to a function
    estimate, ``cycles`` scaled by enclosing trip counts; ``trips``
    (strips, for a strip loop) and ``elements`` are None unless
    constant.  Vector code carries each statement's unscaled
    :class:`VectorCost`, a scheduled loop its schedule."""

    function: str
    line: int
    # "do" | "do-parallel" | "vector" | "vector-parallel" | "while"
    # | "list" | "scheduled"
    kind: str
    trips: Optional[int]
    cycles: float
    elements: Optional[int] = None
    vectors: Tuple[VectorCost, ...] = ()
    schedule: Optional[LoopSchedule] = None


class StaticCostEstimator:
    """Whole-program static cycle estimate under the Titan model; a
    loop in ``schedules`` pays its initiation interval per trip plus
    the exit branch, as runs do.  The attributor runs it once per pass
    event, so the scalar walk has to be cheap."""

    def __init__(self, config: Optional[TitanConfig] = None,
                 assumed_trips: int = DEFAULT_ASSUMED_TRIPS,
                 schedules: Optional[Dict[int, LoopSchedule]] = None):
        self.config = config or TitanConfig()
        self.assumed_trips = max(1, assumed_trips)
        self.schedules = schedules or {}
        self._latency = {kind: getattr(self.config, latency)
                         for kind, (_, latency, _)
                         in SCALAR_COSTS.items()}
        # Variables living in memory that the walk prices as registers
        # (see register_price).
        self._registers: FrozenSet[Symbol] = frozenset()
        # Inside the body of a ``do parallel`` loop that is no strip
        # loop: runs execute it as one unit (see _do_loop_cycles).
        self._in_unit = False

    # -- expressions ---------------------------------------------------

    def expr_cycles(self, expr: N.Expr):
        """A scalar evaluation of ``expr``: a load per memory operand
        and per read of a variable living in memory
        (:func:`~repro.il.nodes.lives_in_memory`), an operation per
        operator, a call per call."""
        latency = self._latency
        total = 0
        pending = [expr]
        while pending:
            expr = pending.pop()
            kind = type(expr)
            if kind is N.Mem:
                total += latency["load"]
            elif kind is N.VarRef:
                if N.lives_in_memory(expr.sym) \
                        and expr.sym not in self._registers:
                    total += latency["load"]
            elif kind is N.BinOp or kind is N.UnOp or kind is N.Select:
                # A select is charged like the operator it is; the
                # static walk still visits both arms (worst-case
                # path), though execution is lazy.
                total += latency["flop" if expr.ctype.is_float
                                 else "intop"]
            elif kind is N.CallExpr:
                total += latency["call"]
            pending.extend(expr.children())
        return total

    # -- statements ----------------------------------------------------

    def _operand_cycles(self, stmt: N.Stmt):
        """The scalar work of one run of a vector statement: a
        reduction's read and write of an accumulator living in memory,
        its length, then — unless a constant length says it runs no
        element — its section addresses, iota starts and broadcast
        operands, each evaluated once as a scalar expression (the
        lanes' arithmetic is the vector instructions').  Both arms of
        a select and a masked store's value count, as the worst case;
        runs evaluate what some lane reaches."""
        total = 0
        if isinstance(stmt, N.VectorAssign):
            length = stmt.target.length
            pending = [stmt.target, stmt.value, stmt.mask]
        else:
            length = stmt.length
            pending = [value for _, value in stmt.terms()]
            if N.lives_in_memory(stmt.target.sym) \
                    and stmt.target.sym not in self._registers:
                # The accumulator is read and written whatever the
                # length.
                total = self._latency["load"] + self._latency["store"]
        total += self.expr_cycles(length)
        known = const_int_value(length)
        if known is not None and known <= 0:
            return total
        while pending:
            expr = pending.pop()
            kind = type(expr)
            if kind is N.Section:
                total += self.expr_cycles(expr.addr)
            elif kind is N.Iota:
                total += self.expr_cycles(expr.start)
            elif kind is N.BinOp or kind is N.UnOp or kind is N.Cast \
                    or kind is N.Select:
                pending.extend(expr.children())
            elif expr is not None:
                total += self.expr_cycles(expr)
        return total

    def _parallel(self, inner, trips: int, combines: bool = False):
        overhead = self.config.parallel_startup
        if combines:
            overhead += parallel_combine(self.config, trips)
        return overhead + parallel_share(self.config, inner, trips)

    def stmt_cycles(self, function: str, stmt: N.Stmt,
                    scale, loops: Optional[List[LoopCost]]):
        latency = self._latency
        if isinstance(stmt, N.Assign):
            cycles = self.expr_cycles(stmt.value)
            if isinstance(stmt.target, N.Mem):
                cycles += self.expr_cycles(stmt.target.addr) \
                    + latency["store"]
            elif N.lives_in_memory(stmt.target.sym) \
                    and stmt.target.sym not in self._registers:
                cycles += latency["store"]
            return cycles
        if isinstance(stmt, (N.VectorAssign, N.VectorReduce)):
            length = const_int_value(
                stmt.target.length if isinstance(stmt, N.VectorAssign)
                else stmt.length)
            cost = vector_cost(self.config, stmt, self.assumed_trips
                               if length is None else length)
            cycles = self._operand_cycles(stmt) + cost.compute + cost.memory
            if loops is not None:
                loops.append(LoopCost(function, stmt.line, "vector",
                                      length, cycles * scale, length,
                                      (cost,)))
            return cycles
        if isinstance(stmt, N.CallStmt):
            return self.expr_cycles(stmt.call)
        if isinstance(stmt, N.IfStmt):
            # Worst-case path: condition + branch + the dearer arm.
            return self.expr_cycles(stmt.cond) + latency["branch"] \
                + max(self.block_cycles(function, stmt.then, scale,
                                        loops),
                      self.block_cycles(function, stmt.otherwise,
                                        scale, loops))
        if isinstance(stmt, N.WhileLoop):
            trips = self.assumed_trips
            body = self.block_cycles(function, stmt.body,
                                     scale * trips, loops)
            cycles = trips * (self.expr_cycles(stmt.cond)
                              + latency["branch"] + body)
            if loops is not None:
                loops.append(LoopCost(function, stmt.line, "while",
                                      None, cycles * scale))
            return cycles
        if isinstance(stmt, N.DoLoop):
            return self._do_loop_cycles(function, stmt, scale, loops)
        if isinstance(stmt, N.ListParallelLoop):
            trips = self.assumed_trips
            chase = trips * (latency["load"] + latency["branch"])
            advance = self.block_cycles(function, stmt.advance,
                                        scale * trips, loops)
            body = self.block_cycles(function, stmt.body,
                                     scale * trips, loops)
            cycles = chase + trips * advance \
                + self._parallel(trips * body, trips)
            if loops is not None:
                loops.append(LoopCost(function, stmt.line, "list",
                                      None, cycles * scale))
            return cycles
        if isinstance(stmt, N.Return):
            return self.expr_cycles(stmt.value) \
                if stmt.value is not None else 0
        # Goto and LabelStmt (runs charge a jump nothing) and anything
        # costless.
        return 0

    def _do_loop_cycles(self, function: str, loop: N.DoLoop,
                        scale, loops: Optional[List[LoopCost]]):
        latency = self._latency
        known_trips = static_trip_count(loop)
        trips = known_trips if known_trips is not None \
            else self.assumed_trips
        setup = self.expr_cycles(loop.lo) + self.expr_cycles(loop.hi)
        # A loop in the body of a parallel unit runs serially, whatever
        # its flags, paying a branch per iteration and no increment,
        # and no branch for the test that fails.
        in_unit = self._in_unit
        if loop.vector:
            cycles, strips, elements, vectors = self._strips(
                function, loop, scale, setup)
            if in_unit:
                cycles += strips * latency["branch"]
            elif loop.parallel:
                cycles = setup + self._parallel(cycles - setup, strips,
                                                loop.combines())
            if loops is not None:
                kind = "vector-parallel" if loop.parallel else "vector"
                loops.append(LoopCost(function, loop.line, kind,
                                      known_trips, cycles * scale,
                                      elements, vectors))
            return cycles
        schedule = self.schedules.get(loop.sid)
        if schedule is not None:
            # Its body's operations are counted, not charged.
            cycles = setup + schedule.initiation_interval * trips \
                + latency["branch"]
            if loops is not None:
                loops.append(LoopCost(function, loop.line, "scheduled",
                                      known_trips, cycles * scale,
                                      schedule=schedule))
            return cycles
        unit = loop.parallel and not in_unit
        self._in_unit = in_unit or unit
        try:
            body = self.block_cycles(function, loop.body, scale * trips,
                                     loops)
        finally:
            self._in_unit = in_unit
        if unit:
            # Runs execute the parallel-only fallback's iterations as
            # one unit, charging them no loop control.
            cycles = setup + self._parallel(trips * body, trips)
        elif in_unit:
            cycles = setup + trips * (body + latency["branch"])
        else:
            # Runs also charge the loop test that fails.
            cycles = setup + trips * (body + latency["intop"]
                                      + latency["branch"]) \
                + latency["branch"]
        if loops is not None:
            kind = "do-parallel" if loop.parallel else "do"
            loops.append(LoopCost(function, loop.line, kind,
                                  known_trips, cycles * scale))
        return cycles

    def _strips(self, function: str, loop: N.DoLoop, scale, setup):
        """A strip loop run serially: ``(cycles, strips, elements,
        vector costs)``.  It covers lo..hi in strips of ``step``
        elements; vector substatements are costed over the whole
        element range, their operands and scalar substatements once
        per strip.  Runs execute it as one unit: no per-strip
        increment or branch."""
        lo = const_int_value(loop.lo)
        hi = const_int_value(loop.hi)
        elements = hi - lo + 1 if lo is not None \
            and hi is not None else None
        total = elements if elements is not None \
            else self.assumed_trips * max(1, loop.step)
        strips = max(1, -(-total // max(1, loop.step)))
        cycles = setup
        vectors = []
        for sub in loop.body:
            if isinstance(sub, (N.VectorAssign, N.VectorReduce)):
                cost = vector_cost(self.config, sub, total, loop.step)
                vectors.append(cost)
                cycles += strips * self._operand_cycles(sub) \
                    + cost.compute + cost.memory
            else:
                cycles += strips * self.stmt_cycles(
                    function, sub, scale * strips, None)
        return cycles, strips, elements, tuple(vectors)

    def strip_prices(self, loop: N.DoLoop) -> Tuple[float, float]:
        """Strip loop ``loop`` run serially and forked, whichever it
        is: one walk of its body."""
        setup = self.expr_cycles(loop.lo) + self.expr_cycles(loop.hi)
        serial, strips, _, _ = self._strips("", loop, 1, setup)
        reduces = any(isinstance(stmt, N.VectorReduce)
                      for stmt in loop.body)
        return serial, setup + self._parallel(serial - setup, strips,
                                              reduces)

    def register_price(self, function: str, loop: N.Stmt,
                       registers: FrozenSet[Symbol] = frozenset(),
                       written: int = 0):
        """Loop ``loop`` run once with the variables ``registers``,
        which live in memory, held in registers across it: a load of
        each before the loop, the loop reading and writing registers
        instead, and a store after it of the ``written`` ones the loop
        changes.  With no registers, the loop's own price."""
        self._registers = registers
        try:
            cycles = self.stmt_cycles(function, loop, 1, None)
        finally:
            self._registers = frozenset()
        return cycles + len(registers) * self._latency["load"] \
            + written * self._latency["store"]

    def block_cycles(self, function: str, stmts: List[N.Stmt],
                     scale, loops: Optional[List[LoopCost]]):
        total = 0
        for stmt in stmts:
            total += self.stmt_cycles(function, stmt, scale, loops)
        return total

    # -- functions / programs ------------------------------------------

    def function_cycles(self, name: str, fn: N.ILFunction,
                        loops: Optional[List[LoopCost]] = None):
        """Cycles for one invocation of ``fn`` (call overhead paid by
        the caller)."""
        return self.block_cycles(name, fn.body, 1, loops)

    def estimate_program(self, program: N.ILProgram
                         ) -> "ProgramEstimate":
        functions: Dict[str, float] = {}
        loops: List[LoopCost] = []
        for name in sorted(program.functions):
            functions[name] = self.function_cycles(
                name, program.functions[name], loops)
        return ProgramEstimate(functions=functions, loops=loops)


class ProgramEstimate(NamedTuple):
    """One snapshot's static cost: per-function cycles (one invocation
    each) plus the per-loop breakdown."""

    functions: Dict[str, float]
    loops: List[LoopCost]

    @property
    def total(self):
        return sum(self.functions.values())


class ForkDecision(NamedTuple):
    """Whether a strip loop runs ``do parallel``: ``outcome`` is
    ``forked``, ``unknown-trip``, ``does-not-pay`` or — decided before
    any price, by the vectorizer — ``illegal``; ``serial`` and
    ``forked`` are the walk's prices of the loop either way (None when
    it did not price them)."""

    outcome: str
    serial: Optional[float] = None
    forked: Optional[float] = None

    @property
    def parallel(self) -> bool:
        return self.outcome == "forked"

    def cycles(self) -> Optional[float]:
        """The walk's price of the loop as decided (None: unpriced)."""
        if self.serial is None:
            return None
        return self.forked if self.parallel else self.serial


def fork_decision(config: Optional[TitanConfig], loop: N.DoLoop,
                  legal: bool = True) -> ForkDecision:
    """The one rule for forking strip loop ``loop``, a vector region's
    or a reduction's alike: an ``illegal`` loop (a carried edge among
    its statements, decided by the vectorizer) stays serial; else,
    with a constant trip and a known processor count (``config``, the
    run configuration; None when unknown), it forks iff the walk
    prices the loop forked — fork/join startup, the processors' share
    of its strips and, for a reduction, the combine — below the loop
    run serially.  At one processor a fork never pays, nor does it for
    a few strips.  Unpriced, a loop of vector stores forks and one
    that reduces stays serial: an unknown trip could cost a combine
    per enclosing iteration.  The prices are given whenever they
    exist."""
    trips = static_trip_count(loop)
    serial = forked = None
    if trips is not None and config is not None:
        serial, forked = StaticCostEstimator(config).strip_prices(loop)
    if not legal:
        return ForkDecision("illegal", serial, forked)
    if serial is None:
        if not any(isinstance(stmt, N.VectorReduce) for stmt in loop.body):
            return ForkDecision("forked")
        return ForkDecision("unknown-trip" if trips is None
                            else "does-not-pay")
    return ForkDecision("forked" if forked < serial else "does-not-pay",
                        serial, forked)
