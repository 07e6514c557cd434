"""Shared infrastructure for the paper-reproduction benchmarks.

Each benchmark regenerates one of the paper's quantitative claims
(there are no numbered tables; EXPERIMENTS.md maps claims to benches).
Benches print paper-vs-measured rows and assert the *shape* — who wins
and by roughly what factor — not the absolute numbers, since our
substrate is a simulator rather than Titan hardware.

Every simulated run can also be *recorded*: ``compile_and_simulate(...,
record="e2_daxpy/full")`` appends the run's metrics (cycles, MFLOPS,
vectorized-loop count, hottest-loop attribution) to
``BENCH_<name>.json`` under :func:`bench_dir`.  The metrics are fully
deterministic (the simulator is), so the JSON files double as committed
baselines for ``benchmarks/regress.py`` — the CI regression gate.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.obs import schemas
from repro.pipeline import CompilationResult, CompilerOptions, compile_c
from repro.titan.config import TitanConfig
from repro.titan.simulator import TitanReport, TitanSimulator

#: Version of the BENCH_*.json document shape.
BENCH_SCHEMA = schemas.BENCH

O0 = CompilerOptions(inline=False, scalar_opt=False, vectorize=False,
                     reg_pipeline=False, strength_reduction=False)
SCALAR_OPT_ONLY = CompilerOptions(vectorize=False, reg_pipeline=False,
                                  strength_reduction=False)
FULL = CompilerOptions()


def bench_dir() -> str:
    """Where BENCH_*.json telemetry lands.  Overridable so CI and the
    regression gate can point at a scratch directory."""
    return os.environ.get(
        "TITANCC_BENCH_DIR",
        os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "out"))


def record_bench(name: str, variant: str,
                 report: Optional[TitanReport] = None,
                 result: Optional[CompilationResult] = None,
                 metrics: Optional[Dict[str, float]] = None) -> str:
    """Merge one run's metrics into ``BENCH_<name>.json``.

    The document accumulates variants (``o0``, ``full``, …) across
    calls within one benchmark, so each file is the whole experiment.
    Returns the path written.
    """
    values: Dict[str, object] = {}
    if report is not None:
        values.update({
            "cycles": report.cycles,
            "seconds": report.seconds,
            "mflops": report.mflops,
            "flops": report.counters.flops,
            "vector_instructions":
                report.counters.vector_instructions,
        })
        hot = hottest_loop(report)
        if hot:
            values["hottest_loop"] = hot
    if result is not None:
        values["vectorized_loops"] = sum(
            s.loops_vectorized
            for s in result.vectorize_stats.values())
        values["parallelized_loops"] = sum(
            s.loops_parallelized
            for s in result.vectorize_stats.values())
    if metrics:
        values.update(metrics)
    directory = bench_dir()
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{name}.json")
    doc = {"schema": BENCH_SCHEMA, "name": name, "variants": {}}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                existing = json.load(handle)
            if existing.get("schema") == BENCH_SCHEMA:
                doc = existing
        except (OSError, ValueError):
            pass
    doc.setdefault("variants", {})[variant] = values
    schemas.write_json_artifact(path, doc, sort_keys=True)
    return path


def compile_and_simulate(source: str, entry: str,
                         options: CompilerOptions = FULL,
                         config: Optional[TitanConfig] = None,
                         arrays: Optional[Dict[str, Sequence]] = None,
                         scalars: Optional[Dict[str, float]] = None,
                         use_scheduler: Optional[bool] = None,
                         profile: bool = False,
                         engine: str = "compiled",
                         record: Optional[str] = None) -> TitanReport:
    compile_start = time.perf_counter()
    result = compile_c(source, options)
    compile_seconds = time.perf_counter() - compile_start
    if use_scheduler is None:
        use_scheduler = options.reg_pipeline or options.strength_reduction
    sim = TitanSimulator(result.program, config or TitanConfig(),
                         use_scheduler=use_scheduler,
                         schedules=result.schedules or None,
                         profile=profile, engine=engine)
    for name, values in (arrays or {}).items():
        sim.set_global_array(name, values)
    for name, value in (scalars or {}).items():
        sim.set_global_scalar(name, value)
    run_start = time.perf_counter()
    report = sim.run(entry)
    run_seconds = time.perf_counter() - run_start
    if record:
        bench_name, _, variant = record.partition("/")
        # Host-side throughput telemetry rides along with the simulated
        # metrics.  ``host_*`` values are wall-clock and therefore
        # machine-dependent; regress.py reports them but only gates on
        # machine-independent ratios (``host_*speedup*``).
        host: Dict[str, object] = {
            "host_compile_seconds": compile_seconds,
            "host_run_seconds": run_seconds}
        if run_seconds > 0:
            host["host_steps_per_sec"] = \
                sim.interpreter.steps / run_seconds
            host["host_cycles_per_sec"] = report.cycles / run_seconds
        record_bench(bench_name, variant or "default",
                     report=report, result=result, metrics=host)
    return report


def hottest_loop(report: TitanReport) -> str:
    """Name the loop where the report spent most of its cycles, for
    benchmark rows (empty string when not profiled or loop-free)."""
    if report.profile is None:
        return ""
    hottest = report.profile.hottest()
    if hottest is None or report.cycles <= 0:
        return ""
    share = 100.0 * hottest.cycles / report.cycles
    return f"{hottest.label} ({share:.0f}% of cycles)"


@dataclass
class Row:
    label: str
    paper: str
    measured: str
    ok: bool = True
    # Where the cycles went, from a profile=True run (optional).
    hot: str = ""


def print_table(title: str, rows: List[Row]) -> None:
    width = max(len(r.label) for r in rows) + 2
    print(f"\n=== {title} ===")
    print(f"{'':{width}s} {'paper':>18s} {'measured':>18s}")
    for row in rows:
        mark = "" if row.ok else "   <-- OUT OF SHAPE"
        hot = f"   hot: {row.hot}" if row.hot else ""
        print(f"{row.label:{width}s} {row.paper:>18s} "
              f"{row.measured:>18s}{mark}{hot}")
