"""The Titan timing model, driven by interpreter cost events.

Receives the dynamic operation stream from the interpreter (the shared
execution semantics) and accumulates cycles under the machine model in
:class:`TitanConfig`:

* **unscheduled scalar code** pays full latencies per operation;
* **scheduled loops** (the section 6 dependence-driven scheduler) pay
  their initiation interval per iteration — operations inside are
  counted but not individually charged;
* **vector instructions** pay startup + elements (stride-penalized);
* **parallel regions** divide their enclosed cycles across processors
  (truncated to whole cycles) and pay a fork/join startup; a forked
  reduction also pays the combine of its processors' partial results.
"""

from __future__ import annotations

import collections
import operator
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..sched.scheduler import LoopSchedule
from .config import TitanConfig
from .vector_ops import _VECTOR_MEMORY_OPS


@dataclass
class OpCounters:
    flops: int = 0
    int_ops: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    calls: int = 0
    vector_instructions: int = 0
    vector_elements: int = 0
    parallel_loops: int = 0


@dataclass
class CycleBreakdown:
    """Where the simulated cycles went — the utilization split the
    compilation report exposes (vector vs. scalar, memory-pipe share,
    per-chunk vector startup overhead).

    Buckets mirror the charge sites exactly: ``vector_compute`` and
    ``vector_memory`` are whole vector-instruction charges (arithmetic
    vs. load/store pipes), of which ``vector_startup`` is the
    pipeline-fill sub-share (one fill per MVL chunk); ``scalar`` is
    unscheduled scalar arithmetic/branch/call latency; ``memory`` is
    scalar load/store (and list-chase) latency; ``scheduled`` is the
    §6 initiation-interval lump charge of software-pipelined loops;
    ``parallel_overhead`` is fork/join startup and forked reductions'
    combine.  Buckets sum to every cycle *charged*; the report's
    ``parallel_adjust`` residual (total minus charged) accounts for
    the divide-across-processors rescale of parallel regions.
    """

    vector_compute: float = 0.0
    vector_memory: float = 0.0
    vector_startup: float = 0.0  # sub-share of the two above
    scalar: float = 0.0
    memory: float = 0.0
    scheduled: float = 0.0
    parallel_overhead: float = 0.0

    def charged(self) -> float:
        return (self.vector_compute + self.vector_memory + self.scalar
                + self.memory + self.scheduled
                + self.parallel_overhead)

    def shares(self, total: float) -> Dict[str, float]:
        """Named shares of ``total`` cycles (0.0 when total is 0)."""
        if total <= 0:
            total = 1.0
        vector = self.vector_compute + self.vector_memory
        return {
            "vector_share": vector / total,
            "scalar_share": (self.scalar + self.scheduled) / total,
            "memory_pipe_share": (self.memory + self.vector_memory)
            / total,
            "vector_startup_share": self.vector_startup / total,
        }


#: The scalar cost table, stated once: event kind -> (OpCounters field,
#: TitanConfig latency field, CycleBreakdown bucket).  The model's
#: event handler and the accounting the fast engine emits into
#: generated code (via :meth:`TitanCostModel.inline_costs`) both read
#: it; the order is the order :meth:`TitanCostModel.absorb` takes its
#: counts in.
SCALAR_COSTS = {
    "flop": ("flops", "fp_latency", "scalar"),
    "intop": ("int_ops", "int_latency", "scalar"),
    "load": ("loads", "load_latency", "memory"),
    "store": ("stores", "store_latency", "memory"),
    "branch": ("branches", "branch_cycles", "scalar"),
    "call": ("calls", "call_overhead", "scalar"),
}

_NO_OPS = (0,) * len(SCALAR_COSTS)

#: Bound on a model's table of priced vector statements.
_VECTOR_PRICED_LIMIT = 1024


@dataclass(frozen=True)
class InlineCosts:
    """What an engine needs to account for scalar events itself:
    whole cycles per scalar event kind and the sids of the scheduled
    loops, whose bodies count operations without charging them."""

    latency: Dict[str, int]
    scheduled: frozenset


@dataclass(frozen=True)
class StripCharges:
    """What one statement of a strip loop charges per strip besides
    its vector instructions, for :meth:`TitanCostModel.strip_group`:
    ``(counter field, breakdown bucket, latency, events)`` per scalar
    event kind, for every strip (``counted``) and for a strip one lane
    of which got to the optional events (``optional``)."""

    instructions: tuple
    counted: tuple
    optional: tuple

    @classmethod
    def build(cls, plan: tuple, scalar: Dict[str, tuple]) -> "StripCharges":
        """From one statement's strip plan — ``(instructions, kinds,
        optional kinds)``: each strip charges ``kinds``, and
        ``optional`` when one of its lanes got to them — and the
        model's scalar table."""
        instructions, kinds, optional = plan

        def counted(kinds):
            return tuple((scalar[k][0], scalar[k][2], scalar[k][1], n)
                         for k, n in sorted(
                             collections.Counter(kinds).items()))

        return cls(instructions, counted(kinds), counted(optional))


def vector_prices(config: TitanConfig, instructions,
                  length: int) -> tuple:
    """What a statement issuing ``instructions`` (its
    ``vector_instructions``) over ``length`` elements counts and costs:
    ``(instructions issued, elements, flops, startup per instruction,
    ((cycles, memory pipe?) per instruction))``.  The one statement of
    a vector instruction's price, which runs charge and the static
    walk (:mod:`repro.titan.static`) sums.  An operand longer than the
    maximum vector length runs as back-to-back chunks, each paying its
    own pipeline-fill startup."""
    mvl = max(1, config.max_vector_length)
    chunks = max(1, -(-max(length, 0) // mvl))
    startup = config.vector_startup * chunks
    flop_ops, costs = 0, []
    for op, stride in instructions:
        per_element = config.vector_element_cycles
        memory_pipe = op in _VECTOR_MEMORY_OPS
        if memory_pipe and abs(stride) != 1:
            per_element *= config.vector_stride_penalty
        if not memory_pipe and op != "int_op":
            flop_ops += 1
        cost = startup + per_element * max(length, 0)
        if op == "reduce":
            # Pipelined, one element per cycle, plus a short tree
            # tail to collapse the partial sums.
            cost += max(1, length).bit_length() * config.fp_issue
        costs.append((cost, memory_pipe))
    return (chunks * len(costs), length * len(costs),
            length * flop_ops, startup, tuple(costs))


def _workers(config: TitanConfig, trips: int) -> int:
    """The processors a ``do parallel`` region of ``trips`` iterations
    forks: no more than its iterations."""
    return max(1, min(config.processors, max(trips, 1)))


def parallel_share(config: TitanConfig, inner, trips: int):
    """A ``do parallel`` region's ``inner`` cycles over ``trips``
    iterations, divided across the processors it forks at the bus
    efficiency and truncated to whole cycles.  The one division in the
    model: with whole prices every total it keeps is then a whole
    number, which float addition sums exactly in any order."""
    workers = _workers(config, trips)
    if workers > 1:
        return int(inner / (workers * config.parallel_efficiency))
    return inner


def parallel_combine(config: TitanConfig, trips: int) -> int:
    """What a forked reduction (``DoLoop.combines``) pays after its
    join to fold the processors' partial results into one: ⌈log₂ P⌉
    tree levels for the P processors it forked, each level a load of
    a partner's partial result and one operation on the floating-point
    unit, which executes every vector instruction."""
    levels = (_workers(config, trips) - 1).bit_length()
    return levels * (config.load_latency + config.fp_latency)


class TitanCostModel:
    """A callable usable as the interpreter's ``cost_hook``.

    An engine that can account for scalar events itself asks
    :meth:`inline_costs` for the table and then keeps ``cycles`` and
    its operation counts in its own locals, handing them back through
    :meth:`park` (before anything else may charge the model),
    :meth:`scheduled_exit`, :meth:`vector_statement` and
    :meth:`absorb`; everything else — parallel regions, list chases —
    stays an event.
    """

    def __init__(self, config: Optional[TitanConfig] = None,
                 schedules: Optional[Dict[int, LoopSchedule]] = None,
                 profiler=None):
        self.config = config or TitanConfig()
        self.schedules = schedules or {}
        # Optional HotLoopProfiler: sees every event plus what it was
        # charged (_profiled), for per-loop/function attribution.
        self.profiler = profiler
        cfg = self.config
        self._scalar = {kind: (field, getattr(cfg, latency), bucket)
                        for kind, (field, latency, bucket)
                        in SCALAR_COSTS.items()}
        self._handlers = {
            "do_enter": self._on_do_enter, "do_iter": self._on_do_iter,
            "do_exit": self._on_do_exit, "vector": self._on_vector,
            "list_chase": self._on_list_chase,
            "parallel_begin": self._on_parallel_begin,
            "parallel_end": self._on_parallel_end,
        }
        # See _price.
        self._vector_priced: Dict[tuple, tuple] = {}
        # See strip_group.
        self._strip_charges: Dict[tuple, StripCharges] = {}
        self.reset()

    def reset(self) -> None:
        """Back to zero cycles with fresh counter objects, so reports
        taken from earlier runs keep their numbers."""
        self.cycles: float = 0.0
        self.counters = OpCounters()
        self.breakdown = CycleBreakdown()
        # The two dataclasses' attribute dicts: table-driven updates
        # by field name without getattr/setattr.
        self._count = self.counters.__dict__
        self._spent = self.breakdown.__dict__
        # Stack of (loop_sid, iterations) for active scheduled loops.
        self._sched_stack: List[List] = []
        # Stack of (sid, cycles_at_entry) for active parallel regions.
        self._parallel_stack: List[List] = []
        if self.profiler is not None:
            self.profiler.reset()

    # ------------------------------------------------------------------

    def __call__(self, kind: str, *details) -> None:
        if self.profiler is None:
            self._apply(kind, details)
            return
        before = self._profiled()
        self._apply(kind, details)
        self.profiler.on_event(kind, details, *map(
            operator.sub, self._profiled(), before))

    def _profiled(self) -> tuple:
        """What the profiler attributes, read off the model's own
        accounts: cycles, flops, and the work cycles of the vector
        (compute + memory pipe), scalar (+ scheduled lumps) and scalar
        memory buckets — fork/join and rescale are in none of them."""
        spent = self._spent
        return (self.cycles, self._count["flops"],
                spent["vector_compute"], spent["vector_memory"],
                spent["scalar"], spent["scheduled"], spent["memory"])

    def _apply(self, kind: str, details: tuple) -> None:
        row = self._scalar.get(kind)
        if row is not None:
            field, latency, bucket = row
            self._count[field] += 1
            self._charge(latency, bucket)
            return
        handler = self._handlers.get(kind)
        if handler is not None:
            handler(*details)

    def _charge(self, cycles: float, bucket: str = "scalar") -> None:
        if not self._sched_stack:
            self.cycles += cycles
            self._spent[bucket] += cycles

    # -- accounting done by the engine ----------------------------------------

    def inline_costs(self):
        """The table for an engine that accounts for scalar events in
        its own code, or the reason (a tier-counter label) every
        event must be emitted instead — the fast engine then runs the
        tree oracle: a profiler needs every event, and only whole
        prices keep every total a whole number, so that the engine's
        sums, taken in its own order, equal the oracle's."""
        if self.profiler is not None:
            return "hook"
        latency = {kind: row[1] for kind, row in self._scalar.items()}
        cfg = self.config
        prices = [*latency.values(), cfg.vector_startup,
                  cfg.vector_element_cycles, cfg.vector_stride_penalty,
                  cfg.fp_issue, cfg.parallel_startup,
                  *(s.initiation_interval for s in self.schedules.values())]
        if any(v != int(v) for v in prices):
            return "noninteger-cost"
        return InlineCosts(latency, frozenset(self.schedules))

    def park(self, cycles: float) -> None:
        """Land the engine's running total before anything else (a
        callee, a vector or parallel event) charges the model."""
        self.cycles = cycles

    def scheduled_exit(self, cycles: float, sid: int,
                       iterations: int) -> float:
        """The lump a scheduled loop pays at exit, added to the
        engine's running total."""
        lump = self.schedules[sid].initiation_interval * iterations \
            + self.config.branch_cycles
        self._spent["scheduled"] += lump
        return cycles + lump

    def vector_statement(self, cycles: float, instructions,
                         length: int, times: int = 1) -> float:
        """A whole vector statement of ``length`` elements, ``times``
        over: its ``vector_instructions`` tuple — ``(op, stride)``
        each, a reduction one op ``"reduce"`` per term — charged on
        top of the engine's running total.  This is where a vector
        instruction's cost is stated (:func:`vector_prices`); the
        ``vector`` event charges one instruction through it."""
        priced = self._vector_priced.get((instructions, length))
        if priced is None:
            priced = self._price(instructions, length)
        issued, elements, flops, startup, costs = priced
        count = self._count
        count["vector_instructions"] += issued * times
        count["vector_elements"] += elements * times
        count["flops"] += flops * times
        if not self._sched_stack:
            spent = self._spent
            for cost, memory_pipe in costs:
                cycles += cost * times
                spent["vector_memory" if memory_pipe
                      else "vector_compute"] += cost * times
                spent["vector_startup"] += startup * times
        self.cycles = cycles
        return cycles

    def strip_group(self, cycles: float, plan: tuple, length: int,
                    reached=None) -> float:
        """The strips of a strip loop that one bulk operation per
        statement of ``length`` elements ran: full strips of the
        plan's width, the last one possibly shorter.  Each strip is
        charged what its own run would have been — per statement, its
        scalar events (``optional`` ones only for the strips its
        ``reached`` flags say a lane got to them; None: every strip)
        and its instructions through :meth:`vector_statement`.
        ``plan`` is ``(width, statement plans)``, each
        :meth:`StripCharges.build`'s."""
        charges = self._strip_charges.get(plan)
        if charges is None:
            if len(self._strip_charges) >= _VECTOR_PRICED_LIMIT:
                self._strip_charges.clear()
            charges = self._strip_charges[plan] = tuple(
                StripCharges.build(stmt, self._scalar)
                for stmt in plan[1])
        width = plan[0]
        full, rest = divmod(length, width)
        strips = full + (rest > 0)
        if reached is None:
            reached = (None,) * len(charges)
        count, spent = self._count, self._spent
        for stmt, flags in zip(charges, reached):
            hits = strips if flags is None else flags.count(True)
            for kinds, times in ((stmt.counted, strips),
                                 (stmt.optional, hits)):
                for field, bucket, latency, n in kinds:
                    count[field] += n * times
                    spent[bucket] += n * latency * times
                    cycles += n * latency * times
            for size, times in ((width, full), (rest, rest > 0)):
                if times:
                    cycles = self.vector_statement(
                        cycles, stmt.instructions, size, times)
        self.cycles = cycles
        return cycles

    def _price(self, instructions, length: int) -> tuple:
        """:func:`vector_prices`, kept per (statement shape, length) —
        strips of one loop share both — in a table cleared when full."""
        if len(self._vector_priced) >= _VECTOR_PRICED_LIMIT:
            self._vector_priced.clear()
        priced = vector_prices(self.config, instructions, length)
        self._vector_priced[instructions, length] = priced
        return priced

    def absorb(self, cycles: Optional[float], charged=_NO_OPS,
               counted=_NO_OPS) -> None:
        """Take back what the engine accounted for: its running total
        (None when already parked) and, per :data:`SCALAR_COSTS` kind,
        how many operations it charged and how many it only counted
        (inside scheduled loops)."""
        if cycles is not None:
            self.cycles = cycles
        count, spent = self._count, self._spent
        for (field, latency, bucket), paid, free in zip(
                self._scalar.values(), charged, counted):
            if paid or free:
                count[field] += paid + free
                spent[bucket] += paid * latency

    # -- scheduled loops -----------------------------------------------------

    def _on_do_enter(self, sid: int) -> None:
        if sid in self.schedules:
            self._sched_stack.append([sid, 0])

    def _on_do_iter(self, sid: int) -> None:
        if self._sched_stack and self._sched_stack[-1][0] == sid:
            self._sched_stack[-1][1] += 1

    def _on_do_exit(self, sid: int) -> None:
        if self._sched_stack and self._sched_stack[-1][0] == sid:
            _, iters = self._sched_stack.pop()
            schedule = self.schedules[sid]
            self._charge(schedule.initiation_interval * iters
                         + self.config.branch_cycles, "scheduled")

    # -- vector instructions ----------------------------------------------------

    def _on_vector(self, op: str, length: int, stride: int) -> None:
        self.vector_statement(self.cycles, ((op, stride),), length)

    def _on_list_chase(self, count: int = 1) -> None:
        """Serial pointer chase of a parallelized list loop: one
        dependent load plus a branch per node (it cannot pipeline —
        each address comes from the previous load)."""
        self._charge(count * (self.config.load_latency
                              + self.config.branch_cycles), "memory")

    # -- parallel regions ----------------------------------------------------------

    def _on_parallel_begin(self, sid: int) -> None:
        self._parallel_stack.append([sid, self.cycles])

    def _on_parallel_end(self, sid: int, trips: int,
                         combines: bool = False) -> None:
        """The join: fork/join startup plus the processors' share of
        the region's cycles, and :func:`parallel_combine` when the
        region ``combines`` partial results."""
        if not self._parallel_stack \
                or self._parallel_stack[-1][0] != sid:
            return
        _, start_cycles = self._parallel_stack.pop()
        self.counters.parallel_loops += 1
        cfg = self.config
        inner = parallel_share(cfg, self.cycles - start_cycles, trips)
        overhead = cfg.parallel_startup
        if combines:
            overhead += parallel_combine(cfg, trips)
        self.cycles = start_cycles + overhead + inner
        self.breakdown.parallel_overhead += overhead

    # -- reporting -------------------------------------------------------------------

    @property
    def parallel_adjust(self) -> float:
        """Residual between total cycles and the sum of breakdown
        buckets: the (negative) divide-across-processors rescale of
        parallel regions.  ``breakdown.charged() + parallel_adjust ==
        cycles`` exactly."""
        return self.cycles - self.breakdown.charged()

    @property
    def seconds(self) -> float:
        return self.config.seconds(self.cycles)

    @property
    def mflops(self) -> float:
        if self.seconds == 0:
            return 0.0
        return self.counters.flops / self.seconds / 1e6
