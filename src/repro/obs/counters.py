"""Per-pass statistics counters — the LLVM ``-stats`` layer.

Every transforming pass in the pipeline already keeps a small stats
dataclass (``WhileToDoStats``, ``IVSubStats``, ``VectorizeStats``, …).
This module turns those into one uniform, machine-readable counter
namespace, the way LLVM's ``STATISTIC(...)`` registrations all land in
one ``-stats`` table: a counter is ``(pass, function, name) -> int``,
harvested by introspecting the dataclass fields (every ``int`` field is
a counter; every ``Dict[str, int]`` field — the ``rejected`` reason
histograms — flattens to ``field.reason`` counters).

The :class:`CounterStore` is the single source of truth behind both the
``--stats`` text output and the ``counters`` section of the JSON
compilation report (``--report-json``).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Tuple

# Program-wide counters use this pseudo-function name in exports.
PROGRAM = "<program>"


class CounterStore:
    """Ordered collection of ``(pass, function, counter) -> int``."""

    def __init__(self) -> None:
        # Insertion-ordered: the pipeline registers counters in phase
        # order, which is also the order the text report prints them.
        self.values: Dict[Tuple[str, str, str], int] = {}

    # -- registration --------------------------------------------------

    def bump(self, pass_name: str, counter: str, n: int = 1,
             function: str = "") -> None:
        key = (pass_name, function, counter)
        self.values[key] = self.values.get(key, 0) + n

    def add_stats(self, pass_name: str, stats: object,
                  function: str = "") -> None:
        """Register every counter a pass-stats dataclass carries."""
        if not dataclasses.is_dataclass(stats):
            return
        for field in dataclasses.fields(stats):
            value = getattr(stats, field.name)
            if isinstance(value, bool):
                continue
            if isinstance(value, int):
                self.bump(pass_name, field.name, value, function)
            elif isinstance(value, dict):
                for reason, count in value.items():
                    if isinstance(count, int):
                        self.bump(pass_name,
                                  f"{field.name}.{reason}", count,
                                  function)

    # -- queries -------------------------------------------------------

    def get(self, pass_name: str, counter: str,
            function: str = None) -> int:
        """One counter; ``function=None`` sums across functions."""
        if function is not None:
            return self.values.get((pass_name, function, counter), 0)
        return sum(v for (p, _, c), v in self.values.items()
                   if p == pass_name and c == counter)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Tuple[str, str, str, int]]:
        for (p, fn, c), v in self.values.items():
            yield p, fn, c, v

    # -- export --------------------------------------------------------

    def to_records(self) -> List[Dict[str, object]]:
        """JSON-ready list of counter records (report ``counters``)."""
        return [{"pass": p, "function": fn or PROGRAM, "counter": c,
                 "value": v} for p, fn, c, v in self]

    def format(self) -> str:
        """The ``--stats`` text table: one line per (function, pass),
        counters inline, zero-valued counters suppressed."""
        grouped: Dict[Tuple[str, str], List[str]] = {}
        for p, fn, c, v in self:
            if v == 0:
                continue
            grouped.setdefault((fn, p), []).append(f"{c}={v}")
        lines = []
        for (fn, p), items in grouped.items():
            prefix = f"{fn}.{p}" if fn else p
            lines.append(f"{prefix}: {' '.join(items)}")
        return "\n".join(lines)


#: (pass name, CompilationResult attribute) for the per-function stats
#: dictionaries the pipeline aggregates.  Order mirrors phase order.
PER_FUNCTION_STATS = (
    ("while-to-do", "while_to_do_stats"),
    ("cond-split", "cond_split_stats"),
    ("ivsub", "ivsub_stats"),
    ("constprop", "constprop_stats"),
    ("dce", "dce_stats"),
    ("if-convert", "if_convert_stats"),
    ("vectorize", "vectorize_stats"),
    ("list-parallel", "listparallel_stats"),
    ("reg-pipeline", "regpipe_stats"),
    ("strength-reduction", "strength_stats"),
)


def counters_from_result(result) -> CounterStore:
    """Harvest every pass's counters from a ``CompilationResult``."""
    store = CounterStore()
    if result.inline_stats is not None:
        store.add_stats("inline", result.inline_stats)
    for name in result.program.functions:
        for pass_name, attr in PER_FUNCTION_STATS:
            stats = getattr(result, attr).get(name)
            if stats is not None:
                store.add_stats(pass_name, stats, function=name)
    store.bump("schedule", "loops_scheduled", len(result.schedules))
    return store


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
