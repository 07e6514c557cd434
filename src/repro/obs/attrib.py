"""Per-pass cycle attribution — the compilation-forensics waterfall.

The paper's §8 experiments argue for every optimization by showing
*which transformation bought which cycles*.  This module makes the
same argument about any compile: a :class:`CycleAttributor` rides the
:class:`~repro.pipeline.PipelineHook` seam (the same seam the per-pass
semantic checker snapshots through) and, after every transforming
pass, replays the live IL through the static Titan walk
(:class:`~repro.titan.static.StaticCostEstimator` — the walk the
compilation report's ``titan.static`` section renders too, under the
prices simulated runs are charged).  The result is a cycle waterfall:
estimated cycles after the front end (the O0 program — no pass has
run yet), after each pass event, and the per-pass deltas.

**The invariant** (gated by benchmark E15): the per-pass deltas sum
*exactly* — bit-exact, not approximately — to the O0→final total
delta.  Two design choices make that unconditional:

* every snapshot is costed by the *same* estimator under the same
  :class:`~repro.titan.config.TitanConfig`, so the sum telescopes
  mathematically;
* every estimate is a whole number of cycles (the machine's prices
  are whole and :func:`~repro.titan.cost_model.parallel_share`
  truncates), far below 2**53, so float sums and differences of them
  are exact and the telescoped sum is exact in the implementation
  too, not just on paper.

This module renders the walk as a waterfall: the hook, the waterfall
and their serialization.  The walk is deliberately *schedule-free*
here: mid-pipeline snapshots have no initiation-interval schedules
yet, so a uniform unscheduled scalar model keeps every snapshot
comparable (the ``schedule`` pass, which transforms no IL, correctly
attributes zero delta; register pipelining and strength reduction
show up through the loads and address arithmetic they remove).
Loops without compile-time-constant trip counts are charged
``assumed_trips`` iterations — a deterministic convention, the same
one either side of a pass, so deltas still mean "what this pass
did".

Artifact: schema ``titancc-attrib/1`` (``--attrib-json``); the human
waterfall prints with ``--attrib``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..il import nodes as N
from ..titan.config import TitanConfig
from ..titan.static import DEFAULT_ASSUMED_TRIPS, StaticCostEstimator
from . import schemas

ATTRIB_SCHEMA = schemas.ATTRIB


# ---------------------------------------------------------------------------
# The attributor hook
# ---------------------------------------------------------------------------


@dataclass
class AttributionStep:
    """The estimate right after one pass event."""

    index: int
    pass_name: str
    function: str
    round_no: int
    cycles: float
    delta: float  # vs. the previous step (0 for the first)
    per_function: Dict[str, float]

    def to_dict(self) -> dict:
        return {"index": self.index, "pass": self.pass_name,
                "function": self.function, "round": self.round_no,
                "cycles": float(self.cycles),
                "delta": float(self.delta),
                "per_function": {name: float(value) for name, value
                                 in sorted(self.per_function.items())}}


class CycleAttributor:
    """A :class:`~repro.pipeline.PipelineHook` recording the static
    cycle estimate after every pass event.

    Function-scoped passes re-estimate only the function they ran on
    (everything else is carried over), so attribution stays cheap
    enough to leave on; whole-program events (front-end, inline)
    re-estimate everything.  Not installing the hook is the disabled
    path — the pipeline's empty-hooks default is observation-free.
    """

    def __init__(self, config: Optional[TitanConfig] = None,
                 assumed_trips: int = DEFAULT_ASSUMED_TRIPS,
                 source: str = "<input>"):
        self.estimator = StaticCostEstimator(config, assumed_trips)
        self.source = source
        self.steps: List[AttributionStep] = []
        self._fn_cycles: Dict[str, float] = {}
        # The latest snapshot: its per-loop breakdown is walked once,
        # for the artifact.
        self._last_program: Optional[N.ILProgram] = None

    # -- PipelineHook --------------------------------------------------

    def before_pass(self, name: str, function: str = "",
                    round_no: int = 0) -> None:
        pass

    def after_pass(self, name: str, program: N.ILProgram,
                   function: str = "", round_no: int = 0) -> None:
        if function and function in program.functions \
                and self.steps:
            self._fn_cycles[function] = \
                self.estimator.function_cycles(
                    function, program.functions[function])
        else:
            self._fn_cycles = {
                fn: self.estimator.function_cycles(
                    fn, program.functions[fn])
                for fn in sorted(program.functions)}
        # Functions deleted from the program drop out of the total.
        self._fn_cycles = {fn: cycles for fn, cycles
                           in self._fn_cycles.items()
                           if fn in program.functions}
        total = sum(self._fn_cycles[fn]
                    for fn in sorted(self._fn_cycles))
        previous = self.steps[-1].cycles if self.steps else total
        self.steps.append(AttributionStep(
            index=len(self.steps), pass_name=name, function=function,
            round_no=round_no, cycles=total, delta=total - previous,
            per_function=dict(self._fn_cycles)))
        self._last_program = program

    # -- queries -------------------------------------------------------

    @property
    def o0_cycles(self):
        """The front-end snapshot's estimate — the O0 program."""
        return self.steps[0].cycles if self.steps else 0

    @property
    def final_cycles(self):
        return self.steps[-1].cycles if self.steps else 0

    @property
    def total_delta(self):
        return self.final_cycles - self.o0_cycles

    @property
    def sum_of_deltas(self):
        """Exact sum of every per-pass delta; equals
        :attr:`total_delta` bit-for-bit by telescoping."""
        return sum(step.delta for step in self.steps)

    def waterfall(self) -> List[dict]:
        """Per-pass aggregation in first-seen order: net delta and the
        cumulative estimate after the pass's last event."""
        order: List[str] = []
        agg: Dict[str, dict] = {}
        for step in self.steps:
            if step.pass_name not in agg:
                order.append(step.pass_name)
                agg[step.pass_name] = {"pass": step.pass_name,
                                       "events": 0, "delta": 0,
                                       "cycles_after": step.cycles}
            entry = agg[step.pass_name]
            entry["events"] += 1
            entry["delta"] += step.delta
            entry["cycles_after"] = step.cycles
        return [{"pass": name, "events": agg[name]["events"],
                 "delta": float(agg[name]["delta"]),
                 "cycles_after": float(agg[name]["cycles_after"])}
                for name in order]

    def function_waterfall(self) -> Dict[str, dict]:
        """Per-function O0/final cycles and per-pass net deltas."""
        out: Dict[str, dict] = {}
        if not self.steps:
            return out
        first = self.steps[0].per_function
        last = self.steps[-1].per_function
        for fn in sorted(set(first) | set(last)):
            passes: Dict[str, float] = {}
            prev = first.get(fn, 0)
            for step in self.steps[1:]:
                now = step.per_function.get(fn, 0)
                if now != prev:
                    passes[step.pass_name] = \
                        passes.get(step.pass_name, 0) + (now - prev)
                prev = now
            out[fn] = {
                "o0_cycles": float(first.get(fn, 0)),
                "final_cycles": float(last.get(fn, 0)),
                "delta": float(last.get(fn, 0) - first.get(fn, 0)),
                "passes": {name: float(delta) for name, delta
                           in passes.items()},
            }
        return out

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        loops = self.estimator.estimate_program(
            self._last_program).loops \
            if self._last_program is not None else []
        cfg = self.estimator.config
        return {
            "schema": ATTRIB_SCHEMA,
            "source": self.source,
            "config": {
                "processors": cfg.processors,
                "max_vector_length": cfg.max_vector_length,
                "vector_startup": cfg.vector_startup,
                "assumed_trips": self.estimator.assumed_trips,
            },
            "steps": [step.to_dict() for step in self.steps],
            "waterfall": self.waterfall(),
            "functions": self.function_waterfall(),
            "loops": [{"function": loop.function, "line": loop.line,
                       "kind": loop.kind, "trips": loop.trips,
                       "cycles": float(loop.cycles)}
                      for loop in loops],
            "totals": {
                "o0_cycles": float(self.o0_cycles),
                "final_cycles": float(self.final_cycles),
                "delta": float(self.total_delta),
                # Exact by telescoping: identical to "delta" above,
                # serialized separately so consumers can verify.
                "sum_of_deltas": float(self.sum_of_deltas),
                "exact": self.sum_of_deltas == self.total_delta,
            },
        }

    def write(self, path: str) -> None:
        schemas.write_json_artifact(path, self.to_dict())

    # -- the --attrib stderr table -------------------------------------

    def format_waterfall(self) -> str:
        lines = ["/* cycle attribution (static Titan estimate) */",
                 f"{'pass':<24} {'events':>6} {'cycles after':>14} "
                 f"{'delta':>14}"]
        for entry in self.waterfall():
            delta = entry["delta"]
            delta_text = "-" if entry["pass"] == "front-end" \
                else f"{delta:+,.1f}"
            lines.append(f"{entry['pass']:<24} "
                         f"{entry['events']:>6} "
                         f"{entry['cycles_after']:>14,.1f} "
                         f"{delta_text:>14}")
        exact = ("ok" if self.sum_of_deltas == self.total_delta
                 else "VIOLATED")
        lines.append(
            f"/* front-end {float(self.o0_cycles):,.1f} -> final "
            f"{float(self.final_cycles):,.1f} cycles "
            f"({float(self.total_delta):+,.1f}); per-pass deltas sum "
            f"exactly ({exact}) */")
        return "\n".join(lines)
