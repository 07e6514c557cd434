"""Per-pass statistics counters — the LLVM ``-stats`` layer.

Every transforming pass keeps a small stats dataclass
(``WhileToDoStats``, ``IVSubStats``, ``VectorizeStats``, …), and
``CompilationResult`` holds them in one table of :func:`stats_field`
fields, in phase order, each naming its pass by the pass module's
``PASS_NAME``.  A counter is ``(pass, function, name) -> int``, the
way LLVM's ``STATISTIC(...)`` registrations all land in one
``-stats`` table: every ``int`` field is a counter; every
``Dict[str, int]`` field — the ``rejected`` reason histograms —
flattens to ``field.reason`` counters.

:func:`counter_records` is the report's ``counters`` section; the
``--stats`` text, ``CompilationReport.counter`` and the
``titancc_pass_events_total`` family all read those records.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Optional, Tuple

from ..sched.scheduler import PASS_NAME as SCHEDULE

# Program-wide counters use this pseudo-function name in exports.
PROGRAM = "<program>"


def stats_field(pass_name: str, **kwargs) -> dataclasses.Field:
    """A ``CompilationResult`` field holding ``pass_name``'s
    statistics: a stats object for a whole-program pass, else a dict
    from function name to stats object."""
    return dataclasses.field(metadata={"pass": pass_name}, **kwargs)


def stats_fields(result) -> List[dataclasses.Field]:
    """The statistics table: ``result``'s :func:`stats_field` fields."""
    return [f for f in dataclasses.fields(result) if "pass" in f.metadata]


def _counted(stats: object) -> Iterator[Tuple[str, object]]:
    """``(field, value)`` for each counted field of a stats dataclass:
    its ``int`` fields and its histograms."""
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        if isinstance(value, dict) or (isinstance(value, int)
                                       and not isinstance(value, bool)):
            yield f.name, value


def stats_counters(stats: object) -> Iterator[Tuple[str, int]]:
    """``(name, value)`` for every counter a stats dataclass carries,
    a histogram entry as ``field.key``."""
    for name, value in _counted(stats):
        if isinstance(value, dict):
            for key, count in value.items():
                yield f"{name}.{key}", count
        else:
            yield name, value


def merge_stats(into: object, stats: object) -> None:
    """Add every counter of ``stats`` into ``into``, a stats object of
    the same pass (another round's run over the same function)."""
    for name, value in _counted(stats):
        if isinstance(value, dict):
            histogram = getattr(into, name)
            for key, count in value.items():
                histogram[key] = histogram.get(key, 0) + count
        else:
            setattr(into, name, getattr(into, name) + value)


def counter_records(result) -> List[Dict[str, object]]:
    """Every pass's counters in a ``CompilationResult``, JSON-ready:
    whole-program passes first, then each function's passes in phase
    order, then the loops scheduled."""
    records: List[Dict[str, object]] = []

    def add(pass_name: str, function: str, stats: object) -> None:
        records.extend({"pass": pass_name, "function": function,
                        "counter": name, "value": value}
                       for name, value in stats_counters(stats))

    per_function = []
    for f in stats_fields(result):
        stats = getattr(result, f.name)
        if isinstance(stats, dict):
            per_function.append((f.metadata["pass"], stats))
        elif stats is not None:
            add(f.metadata["pass"], PROGRAM, stats)
    for name in result.program.functions:
        for pass_name, by_function in per_function:
            if name in by_function:
                add(pass_name, name, by_function[name])
    records.append({"pass": SCHEDULE, "function": PROGRAM,
                    "counter": "loops_scheduled",
                    "value": len(result.schedules)})
    return records


def counter_value(records: List[Dict[str, object]], pass_name: str,
                  counter: str, function: Optional[str] = None) -> int:
    """One counter; ``function=None`` sums across functions."""
    return sum(r["value"] for r in records
               if r["pass"] == pass_name and r["counter"] == counter
               and function in (None, r["function"]))


def format_counters(records: List[Dict[str, object]]) -> str:
    """The ``--stats`` text table: one line per (function, pass),
    counters inline, zero-valued counters suppressed."""
    grouped: Dict[str, List[str]] = {}
    for r in records:
        if r["value"] == 0:
            continue
        prefix = r["pass"] if r["function"] == PROGRAM \
            else f"{r['function']}.{r['pass']}"
        grouped.setdefault(prefix, []).append(
            f"{r['counter']}={r['value']}")
    return "\n".join(f"{prefix}: {' '.join(items)}"
                     for prefix, items in grouped.items())


def record_pass_events(registry, records) -> None:
    """Add counter records to a registry as
    ``titancc_pass_events_total{pass, function, counter}``."""
    for r in records:
        registry.counter("titancc_pass_events_total", {
            "pass": r["pass"], "function": r["function"],
            "counter": r["counter"]}).inc(r["value"])


# ---------------------------------------------------------------------------
# Analysis reuse (the per-function holder's built/reused tallies)
# ---------------------------------------------------------------------------

ANALYSIS_SOLVES_FAMILY = "titancc_analysis_solves_total"


def _solve_tallies(solves):
    """Every (analysis, outcome, count) in a fixed order, zeros
    included — "reused=0" is the regression these exist to show."""
    for analysis in ("flowgraph", "liveness", "usedef"):
        for outcome in ("built", "reused"):
            yield analysis, outcome, solves.get((analysis, outcome), 0)


def format_analysis_solves(solves) -> str:
    """The ``--stats`` line for ``CompilationResult.analysis_solves``."""
    return "analysis: " + " ".join(
        f"{analysis}.{outcome}={count}"
        for analysis, outcome, count in _solve_tallies(solves))


def record_analysis_solves(registry, solves) -> None:
    """Add the tallies to a registry as
    ``titancc_analysis_solves_total{analysis, outcome}``.  They stay
    out of the compilation report on purpose: the report's bytes are
    cached and compared across versions, and how often an analysis was
    re-solved is a property of the compiler, not of the compiled
    program."""
    for analysis, outcome, count in _solve_tallies(solves):
        registry.counter(ANALYSIS_SOLVES_FAMILY, {
            "analysis": analysis, "outcome": outcome}).inc(count)


# ---------------------------------------------------------------------------
# Pass-level fixed points (section 5.3: "worst case n, ~1 in practice")
# ---------------------------------------------------------------------------

PASS_ITERATIONS_FAMILY = "titancc_pass_iterations"
#: Up to DCE's and constprop's bound of 50.
PASS_ITERATIONS_BUCKETS = (1, 2, 3, 4, 6, 10, 20, 50)


def record_pass_iterations(registry, iterations) -> None:
    """``CompilationResult.pass_iterations`` as the histogram
    ``titancc_pass_iterations{pass}``: sweeps per forward-substitution
    run, rounds per constprop run, iterations per DCE run.  Kept out
    of the report for :func:`record_analysis_solves`' reason."""
    for (pass_name, count), runs in sorted(iterations.items()):
        histogram = registry.histogram(
            PASS_ITERATIONS_FAMILY, {"pass": pass_name},
            buckets=PASS_ITERATIONS_BUCKETS)
        for _ in range(runs):
            histogram.observe(count)
