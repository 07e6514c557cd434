"""The machine-readable compilation report (``--report-json``).

One schema-versioned JSON document that unifies every observability
stream the compiler produces — the structured equivalent of LLVM's
``-fsave-optimization-record`` YAML, with the Titan twist that the
*performance model* is part of the compiler:

* **counters** — the LLVM ``-stats``-style per-pass counter table
  (:func:`repro.obs.counters.counter_records`), one record per (pass,
  function, counter);
* **remarks** — the PR 1 ``-Rpass``-style decision stream, serialized;
* **loops** — the per-loop vectorization coverage table: every loop
  the vectorizer examined, its outcome (vectorized / parallelized /
  serial), and for serial loops the aggregated miss reason plus the
  blocking dependence edge;
* **dependence_graphs** — DOT/JSON exports per innermost loop nest
  (:mod:`repro.obs.depviz`), present when dependence collection was
  enabled (``--dump-deps`` or ``--report-json``);
* **trace** — the per-phase wall-time/work spans;
* **titan** — machine utilization: the static estimate, this
  module's float, schedule-aware rendering of the static walk
  (:mod:`repro.titan.static`: vector startup per chunk, initiation
  intervals, memory-pipe pressure) and, when the program was simulated
  (``--run``), the measured cycle split (vector vs. scalar,
  memory-pipe share, startup overhead) with an exact cycles
  decomposition;
* **pass_checks** — schema /2: when the compile ran with the per-pass
  semantic checker (``--check-passes``), the per-pass snapshot table
  (validated? executed? outcome?) and the first divergence if any.

Each fact is stated once.  Schema /4 deleted /3's ``metrics`` section,
a :class:`~repro.obs.metrics.MetricsRegistry` snapshot derived from
``counters``, ``loops`` and ``trace``; the CLI's session registry
(``--metrics-prom``, ``--events-jsonl``) still gets those families
from :func:`metrics_from_result`.

The schema tag lives in :mod:`repro.obs.schemas` (bump it there when
the document shape changes); consumers dispatch on it.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..titan.config import TitanConfig
from ..titan.static import REPORTED_CONFIG, LoopCost, StaticCostEstimator
from . import schemas
from .counters import (counter_records, counter_value,
                       format_counters, record_pass_events)
from .metrics import MetricsRegistry
from .trace import jsonable

REPORT_SCHEMA = schemas.REPORT


# ---------------------------------------------------------------------------
# Per-loop vectorization coverage
# ---------------------------------------------------------------------------


def loop_coverage(result) -> List[Dict[str, object]]:
    """The per-loop coverage table from the vectorizer's outcomes."""
    rows: List[Dict[str, object]] = []
    for function, stats in result.vectorize_stats.items():
        for outcome in stats.outcomes:
            if outcome.vectorized and outcome.parallelized:
                status = "vectorized+parallel"
            elif outcome.vectorized:
                status = "vectorized"
            elif outcome.parallelized:
                status = "parallelized"
            else:
                status = "serial"
            rows.append({
                "function": function,
                "sid": outcome.loop_sid,
                "line": outcome.line,
                "status": status,
                "vector_statements": outcome.vector_statements,
                "sequential_statements":
                    outcome.sequential_statements,
                "reason": outcome.reason,
                "detail": outcome.detail,
                "blocking": jsonable(outcome.blocking)
                if outcome.blocking else None,
            })
    return rows


# ---------------------------------------------------------------------------
# Titan utilization — static estimate and measured split
# ---------------------------------------------------------------------------


def _static_titan(result, cfg: TitanConfig) -> Dict[str, object]:
    """The report's rendering of the static walk, schedule-aware and
    in floats: one entry per vector statement (a strip loop's with the
    loop's line and element count) and per scheduled loop, in program
    order; ``cycles: null`` where a trip count is not a compile-time
    constant."""
    walk = StaticCostEstimator(cfg, schedules=result.schedules)
    records: List[LoopCost] = []
    for name, fn in result.program.functions.items():
        walk.function_cycles(name, fn, records)
    loops: List[Dict[str, object]] = []
    totals = dict.fromkeys(("vector_compute_cycles",
                            "vector_memory_cycles",
                            "vector_startup_cycles",
                            "scheduled_cycles"), 0.0)
    for record in records:
        where = {"function": record.function, "line": record.line}
        for cost in record.vectors:
            entry = {**where, "kind": "vector",
                     "trips": record.elements, "cycles": None}
            if record.elements is not None:
                entry.update(cycles=cost.compute + cost.memory,
                             vector_startup_cycles=cost.startup,
                             chunks=cost.chunks)
                totals["vector_compute_cycles"] += cost.compute
                totals["vector_memory_cycles"] += cost.memory
                totals["vector_startup_cycles"] += cost.startup
            loops.append(entry)
        schedule = record.schedule
        if schedule is None:
            continue
        counts = schedule.counts
        interval = schedule.initiation_interval
        cycles = interval * record.trips \
            if record.trips is not None else None
        loops.append({
            **where, "kind": "scheduled", "trips": record.trips,
            "initiation_interval": interval,
            "recurrence_bound": schedule.recurrence_bound,
            "resource_bound": schedule.resource_bound,
            # Fraction of each interval the memory pipe is busy — the
            # §6 "most frequently accessed" signal.
            "memory_pipe_share":
                (counts.loads + counts.stores) * cfg.mem_issue
                / interval if interval > 0 else 0.0,
            "cycles": cycles})
        if cycles is not None:
            totals["scheduled_cycles"] += cycles
    unknown = sum(entry["cycles"] is None for entry in loops)
    return {"loops": loops, "totals": totals,
            "unknown_trip_loops": unknown}


def measured_titan(titan_report) -> Dict[str, object]:
    """The measured utilization split of a simulation run."""
    b = titan_report.breakdown
    util: Dict[str, object] = {}
    if b is not None:
        util = {
            "vector_cycles": b.vector_compute + b.vector_memory,
            "vector_compute_cycles": b.vector_compute,
            "vector_memory_cycles": b.vector_memory,
            "vector_startup_cycles": b.vector_startup,
            "scalar_cycles": b.scalar,
            "memory_cycles": b.memory,
            "scheduled_cycles": b.scheduled,
            "parallel_overhead_cycles": b.parallel_overhead,
            "parallel_adjust_cycles": titan_report.parallel_adjust,
        }
        util.update(b.shares(titan_report.cycles))
    return {
        "cycles": titan_report.cycles,
        "seconds": titan_report.seconds,
        "mflops": titan_report.mflops,
        "counters": dataclasses.asdict(titan_report.counters),
        "utilization": util,
    }


def titan_section(result, config: Optional[TitanConfig] = None,
                  titan_report=None) -> Dict[str, object]:
    cfg = config or TitanConfig()
    return {
        "config": {name: getattr(cfg, name)
                   for name in REPORTED_CONFIG},
        "static": _static_titan(result, cfg),
        "measured": measured_titan(titan_report)
        if titan_report is not None else None,
    }


# ---------------------------------------------------------------------------
# Pass checks (--check-passes)
# ---------------------------------------------------------------------------


def pass_checks_section(checker) -> Dict[str, object]:
    """Serialize a :class:`repro.check.checker.PassChecker`'s findings
    for the report: the per-pass snapshot table plus the first
    divergence (or ``None`` when every pass checked out)."""
    divergence = checker.first_divergence()
    return {
        "snapshots": checker.to_records(),
        "executions": checker.executions,
        "divergence": divergence.to_dict()
        if divergence is not None else None,
    }


# ---------------------------------------------------------------------------
# Session metrics (--metrics-prom, --events-jsonl)
# ---------------------------------------------------------------------------


def metrics_from_result(counters: List[Dict[str, object]],
                        loops: List[Dict[str, object]],
                        registry: MetricsRegistry) -> None:
    """Add a compile's pass counters (one labeled counter family) and
    its per-loop coverage and miss-reason counters to ``registry``.
    Span durations are not added: a session registry gets them live
    from its :class:`~repro.obs.metrics.SpanMetricsConsumer`."""
    record_pass_events(registry, counters)
    for row in loops:
        registry.counter("titancc_loops_total", {
            "function": row["function"], "status": row["status"],
        }).inc()
        if row["status"] == "serial" and row.get("reason"):
            registry.counter("titancc_loop_miss_reasons_total", {
                "reason": row["reason"],
            }).inc()


# ---------------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------------


@dataclass
class CompilationReport:
    """Everything one compilation produced, JSON-serializable."""

    source: str
    options: Dict[str, object]
    counters: List[Dict[str, object]]
    remarks: List[object] = field(default_factory=list)
    loops: List[Dict[str, object]] = field(default_factory=list)
    dep_graphs: List[object] = field(default_factory=list)
    trace_events: List[object] = field(default_factory=list)
    titan: Dict[str, object] = field(default_factory=dict)
    #: Per-pass semantic-check results (``--check-passes``): ``None``
    #: when the compile ran unchecked, else ``{"snapshots": [...],
    #: "executions": n, "divergence": {...}|None}``.
    pass_checks: Optional[Dict[str, object]] = None
    schema: str = REPORT_SCHEMA

    @classmethod
    def from_result(cls, result, filename: Optional[str] = None,
                    titan_report=None,
                    config: Optional[TitanConfig] = None,
                    checker=None) -> "CompilationReport":
        return cls(
            source=filename or result.remarks.filename,
            options=dataclasses.asdict(result.options),
            counters=counter_records(result),
            remarks=list(result.remarks),
            loops=loop_coverage(result),
            dep_graphs=list(result.dep_graphs),
            trace_events=list(result.trace.events),
            titan=titan_section(result, config, titan_report),
            pass_checks=pass_checks_section(checker)
            if checker is not None else None,
        )

    # -- queries -------------------------------------------------------

    def counter(self, pass_name: str, counter: str,
                function: str = None) -> int:
        return counter_value(self.counters, pass_name, counter, function)

    def format_stats(self) -> str:
        """The ``--stats`` text table (one source of truth: these are
        the same counters the JSON report carries)."""
        return "/* pass statistics */\n" + format_counters(self.counters)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "source": self.source,
            "options": jsonable(self.options),
            "counters": [dict(r) for r in self.counters],
            "remarks": [
                {"pass": r.pass_name, "kind": r.kind,
                 "function": r.function, "message": r.message,
                 "sid": r.sid, "line": r.line, "file": r.filename,
                 "args": jsonable(r.args)}
                for r in self.remarks
            ],
            "loops": jsonable(self.loops),
            "dependence_graphs": [
                {**g.to_json(), "dot": g.to_dot()}
                for g in self.dep_graphs
            ],
            "trace": [
                {"name": e.name, "cat": e.cat, "start_us": e.start_us,
                 "duration_us": e.duration_us,
                 "args": jsonable(e.args)}
                for e in self.trace_events
            ],
            "titan": jsonable(self.titan),
            "pass_checks": jsonable(self.pass_checks),
        }

    def to_json(self, indent: Optional[int] = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent,
                          ensure_ascii=True)

    def write(self, path: str) -> None:
        """Validated, atomic write; ``path == "-"`` streams to
        stdout."""
        schemas.write_json_artifact(path, self.to_dict())
