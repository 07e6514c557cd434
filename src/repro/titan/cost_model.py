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


class TitanCostModel:
    """A callable usable as the interpreter's ``cost_hook``."""

    def __init__(self, config: Optional[TitanConfig] = None,
                 schedules: Optional[Dict[int, LoopSchedule]] = None,
                 profiler=None):
        self.config = config or TitanConfig()
        self.schedules = schedules or {}
        self.cycles: float = 0.0
        self.counters = OpCounters()
        self.breakdown = CycleBreakdown()
        # Stack of (loop_sid, iterations) for active scheduled loops.
        self._sched_stack: List[List] = []
        # Stack of (sid, cycles_at_entry) for active parallel regions.
        self._parallel_stack: List[List] = []
        # Optional HotLoopProfiler: sees every event plus the cycle
        # delta it was charged, for per-loop/function attribution.
        self.profiler = profiler

    # ------------------------------------------------------------------

    def __call__(self, kind: str, *details) -> None:
        if self.profiler is None:
            handler = getattr(self, "_on_" + kind, None)
            if handler is not None:
                handler(*details)
            return
        before = self.cycles
        handler = getattr(self, "_on_" + kind, None)
        if handler is not None:
            handler(*details)
        self.profiler.on_event(kind, details, self.cycles - before)

    @property
    def _suppressed(self) -> bool:
        return bool(self._sched_stack)

    def _charge(self, cycles: float, bucket: str = "scalar") -> None:
        if not self._suppressed:
            self.cycles += cycles
            setattr(self.breakdown, bucket,
                    getattr(self.breakdown, bucket) + cycles)

    # -- scalar operations ---------------------------------------------------

    def _on_flop(self, op: str = "") -> None:
        self.counters.flops += 1
        self._charge(self.config.fp_latency)

    def _on_intop(self, op: str = "") -> None:
        self.counters.int_ops += 1
        self._charge(self.config.int_latency)

    def _on_load(self, ctype=None) -> None:
        self.counters.loads += 1
        self._charge(self.config.load_latency, "memory")

    def _on_store(self, ctype=None) -> None:
        self.counters.stores += 1
        self._charge(self.config.store_latency, "memory")

    def _on_branch(self) -> None:
        self.counters.branches += 1
        self._charge(self.config.branch_cycles)

    def _on_call(self, name: str = "") -> None:
        self.counters.calls += 1
        self._charge(self.config.call_overhead)

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
        cfg = self.config
        chunks = self._chunks(length)
        self.counters.vector_instructions += chunks
        self.counters.vector_elements += length
        if op not in _VECTOR_MEMORY_OPS and op != "int_op":
            self.counters.flops += length
        per_element = cfg.vector_element_cycles
        if op in _VECTOR_MEMORY_OPS and abs(stride) != 1:
            per_element *= cfg.vector_stride_penalty
        bucket = "vector_memory" if op in _VECTOR_MEMORY_OPS \
            else "vector_compute"
        startup = cfg.vector_startup * chunks
        self._charge(startup + per_element * max(length, 0), bucket)
        if not self._suppressed:
            self.breakdown.vector_startup += startup

    def _on_vector_reduce(self, op: str, length: int) -> None:
        """A pipelined vector reduction: startup, one element per
        cycle, plus a short tree tail to collapse the partial sums."""
        cfg = self.config
        chunks = self._chunks(length)
        self.counters.vector_instructions += chunks
        self.counters.vector_elements += length
        self.counters.flops += length
        tail = max(1, length).bit_length() * cfg.fp_issue
        startup = cfg.vector_startup * chunks
        self._charge(startup
                     + cfg.vector_element_cycles * max(length, 0)
                     + tail, "vector_compute")
        if not self._suppressed:
            self.breakdown.vector_startup += startup

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
