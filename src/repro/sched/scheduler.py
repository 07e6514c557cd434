"""Dependence-driven instruction scheduling (section 6, optimization 2).

"The array dependence graph accurately indicates all the execution
constraints involving array references.  This information permits far
more levity in instruction scheduling ... to allow better overlap of
integer and floating point computations, and also ... of memory access
and computation."

For each residual straight-line DO loop this pass derives a steady-state
*initiation interval* (cycles per iteration) the code generator can
achieve once the dependence graph licenses reordering:

* **resource bound** — each functional unit's issue slots per
  iteration: integer unit, FP unit, memory pipe;
* **recurrence bound** — the longest latency cycle through loop-carried
  dependences (e.g. the backsolve ``f_reg`` chain costs two FP
  latencies per iteration and no amount of scheduling can hide it).

The initiation interval is max(resource bounds, recurrence bound).  The
Titan simulator charges scheduled loops this interval instead of the
latency-sum that unscheduled code pays.
"""

from __future__ import annotations

#: Canonical pass name used by the pipeline hook layer, the
#: per-pass checker, and bisection culprit reports.
PASS_NAME = "schedule"
PASS_DESCRIPTION = "loop scheduling from the dependence graph (section 6)"

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..dependence.graph import (ANTI_DEP, DependenceGraph, OUTPUT_DEP,
                                TRUE_DEP)
from ..il import nodes as N
from ..obs.remarks import RemarkCollector
from ..opt import utils
from ..titan.config import TitanConfig


@dataclass
class OpCounts:
    int_ops: int = 0
    fp_ops: int = 0
    loads: int = 0
    stores: int = 0

    def add_expr(self, expr: N.Expr) -> None:
        for node in N.walk_expr(expr):
            if isinstance(node, N.BinOp):
                if node.ctype.is_float:
                    self.fp_ops += 1
                else:
                    self.int_ops += 1
            elif isinstance(node, N.UnOp):
                if node.ctype.is_float:
                    self.fp_ops += 1
                else:
                    self.int_ops += 1
            elif isinstance(node, N.Mem):
                self.loads += 1


@dataclass
class LoopSchedule:
    loop_sid: int
    initiation_interval: float
    resource_bound: float
    recurrence_bound: float
    counts: OpCounts


class LoopScheduler:
    """Computes schedules for every eligible loop in a function."""

    def __init__(self, config: Optional[TitanConfig] = None,
                 remarks: Optional[RemarkCollector] = None):
        self.config = config or TitanConfig()
        self.schedules: Dict[int, LoopSchedule] = {}
        self.remarks = remarks

    def run(self, fn: N.ILFunction) -> Dict[int, LoopSchedule]:
        from ..obs import telemetry

        def visit(loop: N.Stmt, owner: List[N.Stmt], index: int) -> None:
            if isinstance(loop, N.DoLoop) and not loop.vector \
                    and not loop.parallel:
                schedule = self.schedule_loop(loop)
                if schedule is not None:
                    self.schedules[loop.sid] = schedule
                    if self.remarks is not None:
                        bound = "recurrence" if \
                            schedule.recurrence_bound > \
                            schedule.resource_bound else "resource"
                        self.remarks.analysis(
                            "schedule", fn.name,
                            f"residual loop scheduled at initiation "
                            f"interval "
                            f"{schedule.initiation_interval:.0f} "
                            f"cycles/iteration ({bound}-bound: "
                            f"resource "
                            f"{schedule.resource_bound:.0f}, "
                            f"recurrence "
                            f"{schedule.recurrence_bound:.0f})",
                            stmt=loop,
                            ii=schedule.initiation_interval,
                            resource_bound=schedule.resource_bound,
                            recurrence_bound=schedule.recurrence_bound)

        before = len(self.schedules)
        with telemetry.span("schedule-function", cat="analysis",
                            function=fn.name) as targs:
            utils.for_each_loop(fn.body, visit)
            if targs:
                targs["scheduled"] = len(self.schedules) - before
        return self.schedules

    # ------------------------------------------------------------------

    def schedule_loop(self, loop: N.DoLoop) -> Optional[LoopSchedule]:
        body = loop.body
        # Plain assigns with no call anywhere in them: a callee's
        # events inside a scheduled loop would be suppressed or not
        # depending on its caller.
        if not all(isinstance(s, N.Assign)
                   and not any(utils.expr_has_call(top)
                               for top in N.stmt_exprs(s))
                   for s in body):
            return None
        if any(utils.expr_has_volatile(s.value)
               or (isinstance(s.target, (N.VarRef, N.Mem))
                   and s.target.is_volatile)
               for s in body):
            return None
        counts = OpCounts()
        for stmt in body:
            counts.add_expr(stmt.value)
            if isinstance(stmt.target, N.Mem):
                counts.add_expr(stmt.target.addr)
                counts.stores += 1
        # Loop control: increment + compare on the integer unit.
        counts.int_ops += 2
        cfg = self.config
        resource = max(
            counts.int_ops * cfg.int_issue,
            counts.fp_ops * cfg.fp_issue,
            (counts.loads + counts.stores) * cfg.mem_issue,
        )
        recurrence = self._recurrence_bound(loop, body)
        ii = float(max(resource, recurrence, 1))
        return LoopSchedule(loop_sid=loop.sid, initiation_interval=ii,
                            resource_bound=float(resource),
                            recurrence_bound=float(recurrence),
                            counts=counts)

    def _recurrence_bound(self, loop: N.DoLoop,
                          body: List[N.Stmt]) -> float:
        """Longest latency cycle through carried true dependences.

        Approximation: for each statement on a carried-dependence cycle,
        charge the latency of the value computation feeding the carried
        value, and take the longest simple cycle (our loops are small —
        we walk cycles up to length 4).
        """
        graph = DependenceGraph(loop)
        carried = [(e.src, e.dst) for e in graph.edges
                   if e.carried and e.kind == TRUE_DEP]
        if not carried:
            return 0.0
        latency = [self._stmt_latency(s) for s in body]
        # Build successor map over carried+independent true deps.
        succ: Dict[int, List[Tuple[int, bool]]] = {}
        for e in graph.edges:
            if e.kind != TRUE_DEP:
                continue
            succ.setdefault(e.src, []).append((e.dst, e.carried))
        best = 0.0
        for start in range(len(body)):
            best = max(best, self._longest_cycle(start, start, succ,
                                                 latency, acc=0.0,
                                                 used_carried=False,
                                                 visited=frozenset()))
        return best

    def _longest_cycle(self, start: int, node: int, succ, latency,
                       acc: float, used_carried: bool,
                       visited: frozenset) -> float:
        best = 0.0
        for nxt, carried in succ.get(node, ()):
            total = acc + latency[node]
            if nxt == start and (carried or used_carried):
                best = max(best, total)
            elif nxt != start and nxt not in visited:
                best = max(best, self._longest_cycle(
                    start, nxt, succ, latency, total,
                    used_carried or carried, visited | {node}))
        return best

    def _stmt_latency(self, stmt: N.Stmt) -> float:
        cfg = self.config
        counts = OpCounts()
        if isinstance(stmt, N.Assign):
            counts.add_expr(stmt.value)
        # Loads add nothing: they are prefetchable in steady state.
        return counts.fp_ops * cfg.fp_latency


def schedule_program(program: N.ILProgram,
                     config: Optional[TitanConfig] = None,
                     remarks: Optional[RemarkCollector] = None
                     ) -> Dict[int, LoopSchedule]:
    """Schedules for every function in the program, keyed by loop sid."""
    scheduler = LoopScheduler(config, remarks=remarks)
    for fn in program.functions.values():
        scheduler.run(fn)
    return scheduler.schedules
