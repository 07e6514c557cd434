"""Per-pass cycle attribution — the compilation-forensics waterfall.

The paper's §8 experiments argue for every optimization by showing
*which transformation bought which cycles*.  This module makes the
same argument about any compile: a :class:`CycleAttributor` rides the
:class:`~repro.pipeline.PipelineHook` seam (the same seam the per-pass
semantic checker snapshots through) and, after every transforming
pass, replays the live IL through a *static* Titan cost estimate — the
whole-program generalization of the per-loop estimator the compilation
report's ``titan.static`` section uses.  The result is a cycle
waterfall: estimated cycles after the front end (the O0 program — no
pass has run yet), after each pass event, and the per-pass deltas.

**The invariant** (gated by benchmark E15): the per-pass deltas sum
*exactly* — bit-exact, not approximately — to the O0→final total
delta.  Two design choices make that unconditional:

* every snapshot is costed by the *same* estimator under the same
  :class:`~repro.titan.config.TitanConfig`, so the sum telescopes
  mathematically;
* all arithmetic is exact: plain Python integers on the scalar fast
  path, :class:`fractions.Fraction` wherever division or float-derived
  model parameters enter (floats convert to their exact binary
  rationals), so the telescoped sum is exact in the implementation
  too, not just on paper.

The estimator is deliberately *schedule-free*: mid-pipeline snapshots
have no initiation-interval schedules yet, so a uniform unscheduled
scalar model keeps every snapshot comparable (the ``schedule`` pass,
which transforms no IL, correctly attributes zero delta; register
pipelining and strength reduction show up through the loads and
address arithmetic they remove).  Loops without compile-time-constant
trip counts are charged ``assumed_trips`` iterations — a deterministic
convention, the same one either side of a pass, so deltas still mean
"what this pass did".

Artifact: schema ``titancc-attrib/1`` (``--attrib-json``); the human
waterfall prints with ``--attrib``.  The dashboard renders the same
document as its attribution-waterfall panel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

from ..il import nodes as N
from ..opt.fold import const_int_value
from ..titan.config import TitanConfig
from . import schemas
from .report import _estimate_vector_cost, _loop_trips

ATTRIB_SCHEMA = schemas.ATTRIB

#: Trip-count convention for loops whose bounds are not compile-time
#: constants.  Deterministic and applied uniformly to every snapshot,
#: so per-pass deltas stay meaningful even when absolute cycles are a
#: convention.
DEFAULT_ASSUMED_TRIPS = 16


def _frac(value) -> Fraction:
    """Exact rational of a model parameter (floats convert exactly)."""
    return Fraction(value) if not isinstance(value, Fraction) else value


def _exact(value):
    """Exact number for hot-path arithmetic: a plain ``int`` when the
    value is integral (int arithmetic is exact *and* fast), otherwise
    its exact :class:`Fraction`.  Mixed int/Fraction expressions stay
    exact — Python promotes to Fraction only where one appears."""
    frac = _frac(value)
    return int(frac) if frac.denominator == 1 else frac


@dataclass
class LoopCost:
    """One loop's contribution to a function estimate (already scaled
    by enclosing trip counts)."""

    function: str
    line: int
    kind: str  # "do" | "do-parallel" | "vector" | "while" | "list"
    trips: Optional[int]
    cycles: "int | Fraction"  # exact either way

    def to_dict(self) -> dict:
        return {"function": self.function, "line": self.line,
                "kind": self.kind, "trips": self.trips,
                "cycles": float(self.cycles)}


class StaticCostEstimator:
    """Whole-program static cycle estimate under the Titan model.

    Scalar statements pay full operation latencies (the unscheduled
    model in :class:`~repro.titan.cost_model.TitanCostModel`); vector
    statements pay startup + stride-penalized elements via the report's
    per-loop estimator; parallel loops divide their body across
    processors and pay the fork/join startup.  All arithmetic is exact:
    ints on the scalar path, Fractions where division or float model
    parameters enter — the attributor runs the estimator once per pass
    event, so the scalar walk has to be cheap.
    """

    def __init__(self, config: Optional[TitanConfig] = None,
                 assumed_trips: int = DEFAULT_ASSUMED_TRIPS):
        self.config = config or TitanConfig()
        self.assumed_trips = max(1, assumed_trips)
        cfg = self.config
        self._load = _exact(cfg.load_latency)
        self._store = _exact(cfg.store_latency)
        self._fp = _exact(cfg.fp_latency)
        self._int = _exact(cfg.int_latency)
        self._call = _exact(cfg.call_overhead)
        self._branch = _exact(cfg.branch_cycles)
        self._parallel_startup = _exact(cfg.parallel_startup)
        self._parallel_eff = _frac(cfg.parallel_efficiency)

    # -- expressions ---------------------------------------------------

    def expr_cycles(self, expr: N.Expr):
        total = 0
        if isinstance(expr, N.Mem):
            total = self._load
        elif isinstance(expr, (N.BinOp, N.UnOp, N.Select)):
            # A select is charged like the operator it is; the static
            # walk still visits both arms (worst-case path), though
            # execution is lazy.
            total = self._fp if expr.ctype.is_float else self._int
        elif isinstance(expr, N.CallExpr):
            total = self._call
        for child in expr.children():
            total += self.expr_cycles(child)
        return total

    # -- statements ----------------------------------------------------

    def _vector_stmt_cycles(self, stmt, total_elements: int,
                            step: int):
        cost = _estimate_vector_cost(stmt, total_elements,
                                     step, self.config)
        return _exact(cost["vector_compute"]) \
            + _exact(cost["vector_memory"])

    def _parallel_scale(self, inner, trips: int):
        workers = max(1, min(self.config.processors, max(trips, 1)))
        if workers > 1:
            inner = Fraction(inner) / (workers * self._parallel_eff)
        return self._parallel_startup + inner

    def stmt_cycles(self, function: str, stmt: N.Stmt,
                    scale, loops: Optional[List[LoopCost]]):
        if isinstance(stmt, N.Assign):
            cycles = self.expr_cycles(stmt.value)
            if isinstance(stmt.target, N.Mem):
                cycles += self.expr_cycles(stmt.target.addr) \
                    + self._store
            return cycles
        if isinstance(stmt, (N.VectorAssign, N.VectorReduce)):
            length = const_int_value(
                stmt.target.length if isinstance(stmt, N.VectorAssign)
                else stmt.length)
            total = length if length is not None \
                else self.assumed_trips
            cycles = self._vector_stmt_cycles(stmt, total, total or 1)
            if loops is not None:
                loops.append(LoopCost(function, stmt.line, "vector",
                                      length, cycles * scale))
            return cycles
        if isinstance(stmt, N.CallStmt):
            return self.expr_cycles(stmt.call)
        if isinstance(stmt, N.IfStmt):
            # Worst-case path: condition + branch + the dearer arm.
            return self.expr_cycles(stmt.cond) + self._branch \
                + max(self.block_cycles(function, stmt.then, scale,
                                        loops),
                      self.block_cycles(function, stmt.otherwise,
                                        scale, loops))
        if isinstance(stmt, N.WhileLoop):
            trips = self.assumed_trips
            body = self.block_cycles(function, stmt.body,
                                     scale * trips, loops)
            cycles = trips * (self.expr_cycles(stmt.cond)
                              + self._branch + body)
            if loops is not None:
                loops.append(LoopCost(function, stmt.line, "while",
                                      None, cycles * scale))
            return cycles
        if isinstance(stmt, N.DoLoop):
            return self._do_loop_cycles(function, stmt, scale, loops)
        if isinstance(stmt, N.ListParallelLoop):
            trips = self.assumed_trips
            chase = trips * (self._load + self._branch)
            advance = self.block_cycles(function, stmt.advance,
                                        scale * trips, loops)
            body = self.block_cycles(function, stmt.body,
                                     scale * trips, loops)
            cycles = chase + trips * advance \
                + self._parallel_scale(trips * body, trips)
            if loops is not None:
                loops.append(LoopCost(function, stmt.line, "list",
                                      None, cycles * scale))
            return cycles
        if isinstance(stmt, N.Goto):
            return self._branch
        if isinstance(stmt, N.Return):
            return self.expr_cycles(stmt.value) \
                if stmt.value is not None else 0
        # LabelStmt and anything costless.
        return 0

    def _do_loop_cycles(self, function: str, loop: N.DoLoop,
                        scale, loops: Optional[List[LoopCost]]):
        known_trips = _loop_trips(loop)
        trips = known_trips if known_trips is not None \
            else self.assumed_trips
        setup = self.expr_cycles(loop.lo) + self.expr_cycles(loop.hi)
        if loop.vector:
            # A strip loop covers lo..hi in strips of `step` elements;
            # vector substatements are costed over the whole element
            # range, scalar substatements once per strip iteration.
            lo = const_int_value(loop.lo)
            hi = const_int_value(loop.hi)
            total = (hi - lo + 1) if lo is not None \
                and hi is not None \
                else self.assumed_trips * max(1, loop.step)
            strips = max(1, -(-total // max(1, loop.step)))
            cycles = setup + strips * (self._int + self._branch)
            for sub in loop.body:
                if isinstance(sub, (N.VectorAssign, N.VectorReduce)):
                    cycles += self._vector_stmt_cycles(sub, total,
                                                       loop.step)
                else:
                    cycles += strips * self.stmt_cycles(
                        function, sub, scale * strips, None)
            if loop.parallel:
                cycles = setup + self._parallel_scale(cycles - setup,
                                                      strips)
            if loops is not None:
                kind = "vector-parallel" if loop.parallel else "vector"
                loops.append(LoopCost(function, loop.line, kind,
                                      known_trips, cycles * scale))
            return cycles
        body = self.block_cycles(function, loop.body, scale * trips,
                                 loops)
        inner = trips * (body + self._int + self._branch)
        if loop.parallel:
            cycles = setup + self._parallel_scale(inner, trips)
        else:
            cycles = setup + inner
        if loops is not None:
            kind = "do-parallel" if loop.parallel else "do"
            loops.append(LoopCost(function, loop.line, kind,
                                  known_trips, cycles * scale))
        return cycles

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
        functions: Dict[str, "int | Fraction"] = {}
        loops: List[LoopCost] = []
        for name in sorted(program.functions):
            functions[name] = self.function_cycles(
                name, program.functions[name], loops)
        return ProgramEstimate(functions=functions, loops=loops)


@dataclass
class ProgramEstimate:
    """One snapshot's static cost: per-function cycles (one invocation
    each) plus the per-loop breakdown."""

    functions: Dict[str, "int | Fraction"]
    loops: List[LoopCost] = field(default_factory=list)

    @property
    def total(self):
        return sum(self.functions.values())


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
    cycles: "int | Fraction"
    delta: "int | Fraction"  # vs. the previous step (0 for the first)
    per_function: Dict[str, "int | Fraction"]

    @property
    def label(self) -> str:
        where = f"({self.function})" if self.function else ""
        rnd = f" round {self.round_no}" if self.round_no else ""
        return f"{self.pass_name}{where}{rnd}"

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
        self._fn_cycles: Dict[str, "int | Fraction"] = {}
        self.final_loops: List[LoopCost] = []

    # -- PipelineHook --------------------------------------------------

    def before_pass(self, name: str, function: str = "",
                    round_no: int = 0) -> None:
        pass

    def after_pass(self, name: str, program: N.ILProgram,
                   function: str = "", round_no: int = 0) -> None:
        loops: List[LoopCost] = []
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
        # Keep the latest per-loop breakdown (cheap: only recompute at
        # the end would need the program again; recompute per event is
        # avoided by only walking loops for the *final* artifact).
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
        """Exact (int/Fraction) sum of every per-pass delta; equals
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
            passes: Dict[str, "int | Fraction"] = {}
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
        final_loops: List[LoopCost] = []
        program = getattr(self, "_last_program", None)
        if program is not None:
            for fn in sorted(program.functions):
                self.estimator.function_cycles(
                    fn, program.functions[fn], final_loops)
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
            "loops": [loop.to_dict() for loop in final_loops],
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
