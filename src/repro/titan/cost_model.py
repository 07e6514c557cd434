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
  and pay a fork/join startup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    ``parallel_overhead`` is fork/join startup.  Buckets sum to every
    cycle *charged*; the report's ``parallel_adjust`` residual (total
    minus charged) accounts for the divide-across-processors rescale
    of parallel regions.
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
        # Optional HotLoopProfiler: sees every event plus the cycle
        # delta it was charged, for per-loop/function attribution.
        self.profiler = profiler
        cfg = self.config
        self._scalar = {kind: (field, getattr(cfg, latency), bucket)
                        for kind, (field, latency, bucket)
                        in SCALAR_COSTS.items()}
        self._handlers = {
            "do_enter": self._on_do_enter, "do_iter": self._on_do_iter,
            "do_exit": self._on_do_exit, "vector": self._on_vector,
            "vector_reduce": self._on_vector_reduce,
            "list_chase": self._on_list_chase,
            "parallel_begin": self._on_parallel_begin,
            "parallel_end": self._on_parallel_end,
        }
        # See _vector_prices.
        self._vector_priced: Dict[tuple, tuple] = {}
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
        before = self.cycles
        self._apply(kind, details)
        self.profiler.on_event(kind, details, self.cycles - before)

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
        tree oracle: a profiler needs every event, and only
        integer latencies make ``count * latency`` equal the bucket
        the events would have summed to."""
        if self.profiler is not None:
            return "hook"
        latency = {kind: row[1] for kind, row in self._scalar.items()}
        if any(v != int(v) for v in latency.values()):
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
                         length: int) -> float:
        """A whole vector statement of ``length`` elements: its
        ``vector_instructions`` tuple — ``(op, stride)`` each, a
        reduction the single op ``"reduce"`` — charged in issue order
        on top of the engine's running total.  This is where a vector
        instruction's cost is stated (:meth:`_vector_prices`); the
        ``vector`` and ``vector_reduce`` events charge one instruction
        through it, so a statement costs the same float additions
        either way."""
        priced = self._vector_priced.get((instructions, length))
        if priced is None:
            priced = self._vector_prices(instructions, length)
        issued, elements, flops, startup, costs = priced
        count = self._count
        count["vector_instructions"] += issued
        count["vector_elements"] += elements
        count["flops"] += flops
        if not self._sched_stack:
            spent = self._spent
            compute = spent["vector_compute"]
            memory = spent["vector_memory"]
            fill = spent["vector_startup"]
            for cost, memory_pipe in costs:
                cycles += cost
                if memory_pipe:
                    memory += cost
                else:
                    compute += cost
                fill += startup
            spent["vector_compute"] = compute
            spent["vector_memory"] = memory
            spent["vector_startup"] = fill
        self.cycles = cycles
        return cycles

    def _vector_prices(self, instructions, length: int) -> tuple:
        """What a statement issuing ``instructions`` over ``length``
        elements counts and costs: ``(instructions issued, elements,
        flops, startup per instruction, ((cycles, memory pipe?) per
        instruction))``.  Kept per (statement shape, length) — strips
        of one loop share both — in a table cleared when it fills."""
        cfg = self.config
        chunks = self._chunks(length)
        startup = cfg.vector_startup * chunks
        flop_ops, costs = 0, []
        for op, stride in instructions:
            per_element = cfg.vector_element_cycles
            memory_pipe = op in _VECTOR_MEMORY_OPS
            if memory_pipe and abs(stride) != 1:
                per_element *= cfg.vector_stride_penalty
            if not memory_pipe and op != "int_op":
                flop_ops += 1
            cost = startup + per_element * max(length, 0)
            if op == "reduce":
                # Pipelined, one element per cycle, plus a short tree
                # tail to collapse the partial sums.
                cost += max(1, length).bit_length() * cfg.fp_issue
            costs.append((cost, memory_pipe))
        priced = (chunks * len(costs), length * len(costs),
                  length * flop_ops, startup, tuple(costs))
        if len(self._vector_priced) >= _VECTOR_PRICED_LIMIT:
            self._vector_priced.clear()
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

    def _chunks(self, length: int) -> int:
        """A vector operand longer than the hardware maximum vector
        length executes as several back-to-back instructions, each
        paying its own pipeline-fill startup."""
        mvl = max(1, self.config.max_vector_length)
        return max(1, -(-max(length, 0) // mvl))

    def _on_vector(self, op: str, length: int, stride: int) -> None:
        self.vector_statement(self.cycles, ((op, stride),), length)

    def _on_vector_reduce(self, op: str, length: int) -> None:
        self.vector_statement(self.cycles, (("reduce", 1),), length)

    def _on_list_chase(self, count: int = 1) -> None:
        """Serial pointer chase of a parallelized list loop: one
        dependent load plus a branch per node (it cannot pipeline —
        each address comes from the previous load)."""
        self._charge(count * (self.config.load_latency
                              + self.config.branch_cycles), "memory")

    # -- parallel regions ----------------------------------------------------------

    def _on_parallel_begin(self, sid: int) -> None:
        self._parallel_stack.append([sid, self.cycles])

    def _on_parallel_end(self, sid: int, trips: int) -> None:
        if not self._parallel_stack \
                or self._parallel_stack[-1][0] != sid:
            return
        _, start_cycles = self._parallel_stack.pop()
        self.counters.parallel_loops += 1
        cfg = self.config
        inner = self.cycles - start_cycles
        workers = max(1, min(cfg.processors, max(trips, 1)))
        if workers > 1:
            inner = inner / (workers * cfg.parallel_efficiency)
        self.cycles = start_cycles + cfg.parallel_startup + inner
        self.breakdown.parallel_overhead += cfg.parallel_startup

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
