"""The Titan simulator facade: execute a compiled program and time it.

This is the substitution for the hardware the paper ran on (documented
in DESIGN.md): one shared execution semantics (the IL interpreter) with
the :class:`TitanCostModel` layered on top.  Scheduling information from
the section 6 pass feeds the model, so the same binary-equivalent IL can
be timed "as compiled" at different optimization levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..il import nodes as N
from ..interp.interpreter import Value, make_interpreter
from ..obs.profiler import (HotLoopProfiler, ProfileReport,
                            collect_loop_info)
from ..sched.scheduler import LoopSchedule, schedule_program
from .config import TitanConfig
from .cost_model import CycleBreakdown, OpCounters, TitanCostModel


@dataclass
class TitanReport:
    cycles: float
    seconds: float
    mflops: float
    counters: OpCounters
    result: Optional[Value] = None
    stdout: str = ""
    # Per-loop / per-function cycle attribution, present when the
    # simulator was built with profile=True.
    profile: Optional[ProfileReport] = None
    # Utilization split (vector/scalar/memory/scheduled cycles) and
    # the parallel-rescale residual; breakdown.charged() +
    # parallel_adjust == cycles exactly.  Always collected.
    breakdown: Optional[CycleBreakdown] = None
    parallel_adjust: float = 0.0

    def speedup_over(self, other: "TitanReport") -> float:
        if self.seconds == 0:
            return float("inf")
        return other.seconds / self.seconds


class TitanSimulator:
    """Runs one entry point of a compiled program under the machine
    model and reports simulated time and operation counts."""

    def __init__(self, program: N.ILProgram,
                 config: Optional[TitanConfig] = None,
                 use_scheduler: bool = True,
                 schedules: Optional[Dict[int, LoopSchedule]] = None,
                 memory_size: int = 1 << 22,
                 max_steps: int = 50_000_000,
                 profile: bool = False,
                 engine: str = "compiled"):
        self.program = program
        self.engine = engine
        self.config = config or TitanConfig()
        if schedules is None:
            schedules = schedule_program(program, self.config) \
                if use_scheduler else {}
        elif not use_scheduler:
            schedules = {}
        self.schedules = schedules
        self.profiler = HotLoopProfiler(collect_loop_info(program)) \
            if profile else None
        self.cost_model = TitanCostModel(self.config, schedules,
                                         profiler=self.profiler)
        # The fast engine is the default; it reads this model's scalar
        # cost table and accounts for scalar operations inside its
        # generated code (with a profiler attached it runs the tree
        # oracle, which emits every event): same cycles, counters and
        # breakdown as the oracle either way.  Pass engine="tree" to
        # time against the semantic oracle.
        self.interpreter = make_interpreter(program, engine=engine,
                                            memory_size=memory_size,
                                            max_steps=max_steps,
                                            cost_hook=self.cost_model)

    def close(self) -> None:
        """Release the engine's memory image, compiled functions and
        hook references once the last run's report has been taken."""
        self.interpreter.close()

    def __enter__(self) -> "TitanSimulator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # Convenience passthroughs for test setup.

    def set_global_array(self, name: str, values: Sequence[Value]) -> None:
        self.interpreter.set_global_array(name, values)

    def global_array(self, name: str, count: int) -> List[Value]:
        return self.interpreter.global_array(name, count)

    def set_global_scalar(self, name: str, value: Value) -> None:
        self.interpreter.set_global_scalar(name, value)

    def global_scalar(self, name: str) -> Value:
        return self.interpreter.global_scalar(name)

    def run(self, entry: str = "main", *args: Value) -> TitanReport:
        from ..obs import telemetry
        # Each run is timed from zero (the report owns its counters);
        # the memory image and the engine's step count carry over.
        self.cost_model.reset()
        with telemetry.span("simulate", cat="engine",
                            engine=self.engine, entry=entry) as targs:
            result = self.interpreter.run(entry, *args)
            if targs:
                targs["cycles"] = self.cost_model.cycles
        model = self.cost_model
        profile = self.profiler.report(model.cycles) \
            if self.profiler is not None else None
        return TitanReport(cycles=model.cycles, seconds=model.seconds,
                           mflops=model.mflops, counters=model.counters,
                           result=result,
                           stdout=self.interpreter.stdout,
                           profile=profile,
                           breakdown=model.breakdown,
                           parallel_adjust=model.parallel_adjust)


def simulate(program: N.ILProgram, entry: str = "main",
             config: Optional[TitanConfig] = None,
             use_scheduler: bool = True, profile: bool = False,
             engine: str = "compiled", *args: Value) -> TitanReport:
    with TitanSimulator(program, config, use_scheduler=use_scheduler,
                        profile=profile, engine=engine) as simulator:
        return simulator.run(entry, *args)
