"""Hot-loop profiler for the Titan simulator.

The paper attributes its wins to specific loops — the §6 backsolve
goes 0.5→1.9 MFLOPS because *that loop's* recurrence is scheduled —
but the simulator reports one aggregate number.  This profiler rides
the interpreter's cost-event stream (the same hook the cost model
uses) and attributes every simulated cycle to the innermost active
loop and the current function:

* **cycles** — exact share of :class:`TitanReport` cycles, including
  scheduled-loop lump charges and parallel fork/join rescaling (a
  parallel region's divide-by-processors adjustment lands on the
  parallel loop itself, so per-loop cycles always sum to the total);
* **flops** and occupancy breakdown — vector-unit cycles vs scalar
  cycles vs memory-stall cycles (scalar load/store latency), each the
  change the cost model made to its own counter or breakdown bucket;
* **iterations / entries** — dynamic trip counts.

Cycle attribution is *self* time: a nested loop's cycles belong to the
inner loop, not its parent, so ``toplevel_cycles + Σ loop.cycles ==
total_cycles`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class LoopInfo:
    """Static identity of a loop, harvested from the compiled IL."""

    sid: int
    function: str = ""
    line: int = 0
    var: str = ""
    flavor: str = "do"  # do | vector | parallel | parallel-vector | list

    @property
    def label(self) -> str:
        where = f"{self.function}:{self.line}" if self.line \
            else self.function
        return f"{where} {self.flavor} loop ({self.var})" if self.var \
            else f"{where} {self.flavor} loop"


@dataclass
class LoopProfile:
    sid: int
    info: Optional[LoopInfo] = None
    cycles: float = 0.0
    flops: int = 0
    vector_cycles: float = 0.0
    scalar_cycles: float = 0.0
    memory_cycles: float = 0.0
    iterations: int = 0
    entries: int = 0

    @property
    def label(self) -> str:
        return self.info.label if self.info is not None \
            else f"loop S{self.sid}"

    def occupancy(self) -> Tuple[float, float, float]:
        """(vector, scalar, memory) shares of this loop's *work*
        cycles.  Parallel fork/join overhead and the divide-across-
        processors rescale are excluded, so the shares describe what
        the work looked like, independent of how it was spread."""
        charged = self.vector_cycles + self.scalar_cycles \
            + self.memory_cycles
        if charged <= 0:
            return (0.0, 0.0, 0.0)
        return (self.vector_cycles / charged,
                self.scalar_cycles / charged,
                self.memory_cycles / charged)


@dataclass
class FunctionProfile:
    name: str
    cycles: float = 0.0
    flops: int = 0
    calls: int = 0


@dataclass
class ProfileReport:
    loops: List[LoopProfile] = field(default_factory=list)
    functions: List[FunctionProfile] = field(default_factory=list)
    toplevel_cycles: float = 0.0
    total_cycles: float = 0.0

    def hottest(self) -> Optional[LoopProfile]:
        return self.loops[0] if self.loops else None

    def loop_by_sid(self, sid: int) -> LoopProfile:
        for loop in self.loops:
            if loop.sid == sid:
                return loop
        raise KeyError(sid)

    def format(self, top: int = 10) -> str:
        lines = ["/* hot-loop profile */",
                 f"{'cycles':>12s} {'%':>6s} {'flops':>10s} "
                 f"{'iters':>8s} {'vec%':>5s} {'mem%':>5s}  loop"]
        total = self.total_cycles or 1.0
        for loop in self.loops[:top]:
            vec, _, mem = loop.occupancy()
            lines.append(
                f"{loop.cycles:12.0f} {100 * loop.cycles / total:5.1f}% "
                f"{loop.flops:10d} {loop.iterations:8d} "
                f"{100 * vec:4.0f}% {100 * mem:4.0f}%  {loop.label}")
        lines.append(f"{self.toplevel_cycles:12.0f} "
                     f"{100 * self.toplevel_cycles / total:5.1f}% "
                     f"{'':10s} {'':8s} {'':5s} {'':5s}  "
                     "(straight-line code)")
        lines.append("/* per-function */")
        for fn in self.functions:
            lines.append(f"{fn.cycles:12.0f} "
                         f"{100 * fn.cycles / total:5.1f}% "
                         f"{fn.flops:10d} calls={fn.calls:<6d} "
                         f"{fn.name}")
        return "\n".join(lines)


class HotLoopProfiler:
    """Receives each cost event with what the cost model charged for
    it (:meth:`on_event`) and buckets that by innermost loop and
    current function.
    """

    def __init__(self, loop_info: Optional[Dict[int, LoopInfo]] = None):
        self.loop_info = loop_info or {}
        self.reset()

    def reset(self) -> None:
        """Start a new run; reports already taken keep their rows."""
        self.loops: Dict[int, LoopProfile] = {}
        self.functions: Dict[str, FunctionProfile] = {}
        self.toplevel_cycles: float = 0.0
        self._loop_stack: List[int] = []
        self._fn_stack: List[str] = []

    # ------------------------------------------------------------------

    def _loop(self, sid: int) -> LoopProfile:
        profile = self.loops.get(sid)
        if profile is None:
            profile = LoopProfile(sid=sid, info=self.loop_info.get(sid))
            self.loops[sid] = profile
        return profile

    def _function(self, name: str) -> FunctionProfile:
        profile = self.functions.get(name)
        if profile is None:
            profile = FunctionProfile(name=name)
            self.functions[name] = profile
        return profile

    def on_event(self, kind: str, details: tuple, cycles: float,
                 flops: int, vector_compute: float,
                 vector_memory: float, scalar: float, scheduled: float,
                 memory: float) -> None:
        """One event and the model's deltas for it: total cycles,
        flops, and its breakdown buckets (``TitanCostModel._profiled``)."""
        # Entries push *before* attribution, exits pop *after*, so a
        # loop's own enter/exit charges land in its bucket.
        if kind == "fn_enter":
            name = details[0] if details else "<unknown>"
            self._fn_stack.append(name)
            self._function(name).calls += 1
        elif kind == "do_enter" or kind == "parallel_begin":
            sid = details[0]
            self._loop_stack.append(sid)
            self._loop(sid).entries += 1
        elif kind == "do_iter":
            sid = details[0]
            if self._loop_stack and self._loop_stack[-1] == sid:
                self._loop(sid).iterations += 1

        if self._fn_stack:
            fn = self.functions[self._fn_stack[-1]]
            fn.cycles += cycles
            fn.flops += flops
        if self._loop_stack:
            loop = self.loops[self._loop_stack[-1]]
            loop.cycles += cycles
            loop.flops += flops
            loop.vector_cycles += vector_compute + vector_memory
            loop.scalar_cycles += scalar + scheduled
            loop.memory_cycles += memory
        else:
            self.toplevel_cycles += cycles

        if kind == "fn_exit":
            if self._fn_stack:
                self._fn_stack.pop()
        elif kind == "do_exit":
            if self._loop_stack and self._loop_stack[-1] == details[0]:
                self._loop_stack.pop()
        elif kind == "parallel_end":
            sid, trips = details[0], details[1]
            if self._loop_stack and self._loop_stack[-1] == sid:
                self._loop(sid).iterations += trips
                self._loop_stack.pop()

    # ------------------------------------------------------------------

    def report(self, total_cycles: float) -> ProfileReport:
        loops = sorted(self.loops.values(),
                       key=lambda p: (-p.cycles, p.sid))
        functions = sorted(self.functions.values(),
                           key=lambda p: (-p.cycles, p.name))
        return ProfileReport(loops=loops, functions=functions,
                             toplevel_cycles=self.toplevel_cycles,
                             total_cycles=total_cycles)


def collect_loop_info(program) -> Dict[int, LoopInfo]:
    """Harvest loop identities (sid → function/line/flavor) from a
    compiled IL program, for profiler labelling."""
    from ..il import nodes as N
    out: Dict[int, LoopInfo] = {}
    for name, fn in program.functions.items():
        for stmt in fn.all_statements():
            if isinstance(stmt, N.DoLoop):
                if stmt.parallel and stmt.vector:
                    flavor = "parallel-vector"
                elif stmt.parallel:
                    flavor = "parallel"
                elif stmt.vector:
                    flavor = "vector"
                else:
                    flavor = "do"
                out[stmt.sid] = LoopInfo(sid=stmt.sid, function=name,
                                         line=stmt.line,
                                         var=stmt.var.name,
                                         flavor=flavor)
            elif isinstance(stmt, N.WhileLoop):
                out[stmt.sid] = LoopInfo(sid=stmt.sid, function=name,
                                         line=stmt.line, flavor="while")
            elif isinstance(stmt, N.ListParallelLoop):
                out[stmt.sid] = LoopInfo(sid=stmt.sid, function=name,
                                         line=stmt.line,
                                         var=stmt.ptr.name,
                                         flavor="list")
    return out
