#!/usr/bin/env python3
"""Benchmark regression gate over the BENCH_*.json telemetry.

Compares the current run's ``BENCH_<name>.json`` documents (written by
the benchmark suite into :func:`harness.bench_dir`, default
``benchmarks/out``) against the committed baselines in
``benchmarks/baselines``, metric by metric, with a direction-aware
tolerance:

* **lower is better** — a name containing ``cycles`` or ``seconds``;
* **higher is better** — ``mflops``, ``speedup*``, ``vectorized_loops``
  and every other metric.

Metrics prefixed ``host_`` are wall-clock measurements of the host
machine (compile seconds, interpreter steps/sec) — they are reported
for trend-watching but never fail the gate, with one exception:
``host_*speedup*`` ratios (compiled engine vs tree-walker) divide out
machine speed, so they *are* gated, higher-is-better, with a looser
tolerance (``SPEEDUP_TOLERANCE``) that absorbs scheduler noise.  The
rules are ``repro.obs.diff.bench_direction`` and
``repro.obs.diff.metric_tolerance``, which bench diffs read too.

A metric that moved in the *bad* direction by more than ``--tolerance``
(relative, default 5%) is a regression and the gate exits non-zero —
that is what fails CI.  Improvements and new metrics are reported but
never fail.  ``--update`` rewrites the baselines from the current run;
the previous values live in git, the one time axis.

Runnable as a plain script (it puts the ``src/`` tree alongside on
``sys.path``)::

    python benchmarks/regress.py                  # gate
    python benchmarks/regress.py --update         # accept current run
    python benchmarks/regress.py --tolerance 0.1
    python benchmarks/regress.py --explain        # red gate? write
                                                  # diff + attribution

``--explain`` makes a red gate self-diagnosing: for every regressed
bench it writes a ``titancc-reportdiff/1`` baseline-vs-current diff
(naming the worst-regressed metric) and, for benches with a registered
workload, a ``titancc-attrib/1`` per-pass cycle waterfall — the
artifacts CI uploads on failure.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import tempfile
from typing import Dict, Iterator, List, Tuple

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
from repro.obs.diff import (LOWER, bench_direction,  # noqa: E402
                            diff_benches, metric_tolerance)
from repro.obs.log import Logger  # noqa: E402

BENCH_SCHEMA = "titancc-bench/1"
BASELINE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "baselines")


def default_current_dir() -> str:
    return os.environ.get(
        "TITANCC_BENCH_DIR",
        os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "out"))


def load_benches(directory: str,
                 log: "Logger" = None) -> Dict[str, dict]:
    """``name -> document`` for every valid BENCH_*.json in a dir."""
    log = log or Logger("regress")
    out: Dict[str, dict] = {}
    for path in sorted(glob.glob(os.path.join(directory,
                                              "BENCH_*.json"))):
        try:
            with open(path) as handle:
                doc = json.load(handle)
        except (OSError, ValueError) as exc:
            log.warning(f"skipping unreadable {path}: {exc}")
            continue
        if doc.get("schema") != BENCH_SCHEMA:
            log.warning(f"skipping {path}: schema "
                        f"{doc.get('schema')!r} != {BENCH_SCHEMA!r}")
            continue
        out[doc.get("name") or os.path.basename(path)] = doc
    return out


def iter_metrics(doc: dict) -> Iterator[Tuple[str, str, float]]:
    """(variant, metric, value) for every numeric metric."""
    for variant, values in sorted((doc.get("variants") or {}).items()):
        if not isinstance(values, dict):
            continue
        for metric, value in sorted(values.items()):
            if isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                yield variant, metric, float(value)


def relative_change(baseline: float, current: float) -> float:
    """Signed relative move; positive = increased."""
    if baseline == 0:
        return 0.0 if current == 0 else float("inf")
    return (current - baseline) / abs(baseline)


def compare_structured(baselines: Dict[str, dict],
                       current: Dict[str, dict],
                       tolerance: float) -> List[dict]:
    """Metric-by-metric comparison records.  Each record carries
    ``kind`` (``regression`` / ``improvement`` / ``info`` /
    ``missing``), the bench/variant/metric coordinates, both values,
    and a preformatted human ``line`` — :func:`compare` and
    ``--explain`` both consume this one comparison."""
    records: List[dict] = []
    for name, base_doc in sorted(baselines.items()):
        cur_doc = current.get(name)
        if cur_doc is None:
            records.append({
                "kind": "missing", "bench": name, "variant": None,
                "metric": None, "baseline": None, "current": None,
                "line": f"{name}: missing from current run "
                        f"(benchmark deleted or not run)"})
            continue
        cur_variants = cur_doc.get("variants") or {}
        for variant, metric, base_value in iter_metrics(base_doc):
            effective = metric_tolerance(metric, tolerance)
            informational = effective == float("inf")
            cur_values = cur_variants.get(variant)
            if cur_values is None or metric not in cur_values:
                if not informational:
                    records.append({
                        "kind": "missing", "bench": name,
                        "variant": variant, "metric": metric,
                        "baseline": base_value, "current": None,
                        "line": f"{name}/{variant}: metric {metric} "
                                f"missing from current run"})
                continue
            cur_value = float(cur_values[metric])
            change = relative_change(base_value, cur_value)
            bad = change > effective \
                if bench_direction(metric) == LOWER \
                else change < -effective
            arrow = f"{base_value:g} -> {cur_value:g} " \
                    f"({change * 100:+.1f}%)"
            record = {"bench": name, "variant": variant,
                      "metric": metric, "baseline": base_value,
                      "current": cur_value, "change": change}
            if bad:
                record["kind"] = "regression"
                record["line"] = (
                    f"{name}/{variant}: {metric} regressed: {arrow} "
                    f"(tolerance {effective * 100:.0f}%)")
            elif informational:
                if abs(change) <= tolerance:
                    continue
                record["kind"] = "info"
                record["line"] = (f"info (not gated) "
                                  f"{name}/{variant} {metric}: "
                                  f"{arrow}")
            elif abs(change) > effective:
                record["kind"] = "improvement"
                record["line"] = (f"improvement {name}/{variant} "
                                  f"{metric}: {arrow}")
            else:
                continue
            records.append(record)
    return records


def compare(baselines: Dict[str, dict], current: Dict[str, dict],
            tolerance: float, log: "Logger" = None) -> List[str]:
    """Human-readable regression lines (empty = gate passes)."""
    log = log or Logger("regress", stream=sys.stdout)
    regressions: List[str] = []
    for record in compare_structured(baselines, current, tolerance):
        if record["kind"] in ("regression", "missing"):
            regressions.append(record["line"])
        else:
            log.info(record["line"])
    return regressions


def atomic_write_json(path: str, doc: dict) -> None:
    """Write then ``os.replace`` so a crash mid-write never leaves a
    truncated baseline (stdlib twin of repro.obs.schemas)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-bench-")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(doc, handle, indent=1, ensure_ascii=True,
                      sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def update_baselines(current: Dict[str, dict], baseline_dir: str,
                     log: "Logger" = None) -> None:
    """Accept the current run: each baseline becomes ``{schema, name,
    variants}`` with the current values (git keeps the old ones)."""
    log = log or Logger("regress", stream=sys.stdout)
    os.makedirs(baseline_dir, exist_ok=True)
    for name, doc in sorted(current.items()):
        path = os.path.join(baseline_dir, f"BENCH_{name}.json")
        atomic_write_json(path, {"schema": BENCH_SCHEMA, "name": name,
                                 "variants": doc.get("variants") or {}})
        log.info(f"baseline updated: {path}")


def _explain_workloads() -> Dict[str, object]:
    """Benchmarks ``--explain`` can recompile for a cycle-attribution
    waterfall: bench name -> zero-arg C-source maker.  Imported lazily:
    only a red gate compiles anything."""
    from repro.workloads import blas, stencils
    return {
        "e1_backsolve": lambda: stencils.backsolve(512),
        "e2_daxpy": lambda: blas.caller_program(n=2048),
        "e16_ifconvert": lambda: stencils.guarded_diff(512),
    }


def explain_failures(records: List[dict], baselines: Dict[str, dict],
                     current: Dict[str, dict], explain_dir: str,
                     log: "Logger" = None,
                     tolerance: float = 0.05) -> List[str]:
    """Self-diagnose a red gate: for every regressed bench, write a
    ``titancc-reportdiff/1`` baseline-vs-current diff, classified
    under the gate's ``tolerance``, plus a
    ``titancc-attrib/1`` per-pass cycle waterfall for benches whose
    workload is registered.  Returns the paths written."""
    log = log or Logger("regress")
    from repro.obs import schemas as obs_schemas
    from repro.obs.attrib import CycleAttributor
    from repro.pipeline import CompilerOptions, compile_c
    failed = sorted({record["bench"] for record in records
                     if record["kind"] in ("regression", "missing")
                     and record.get("bench")})
    if not failed:
        return []
    os.makedirs(explain_dir, exist_ok=True)
    workloads = _explain_workloads()
    written: List[str] = []
    for name in failed:
        base_doc = baselines.get(name)
        cur_doc = current.get(name)
        if base_doc is not None and cur_doc is not None:
            doc = diff_benches(
                base_doc, cur_doc, base_name=f"baseline/{name}",
                other_name=f"current/{name}", tolerance=tolerance)
            path = os.path.join(explain_dir,
                                f"explain_{name}.diff.json")
            obs_schemas.write_json_artifact(path, doc)
            written.append(path)
            worst = doc["summary"].get("worst_regression")
            log.info(f"explain: wrote {path}"
                     + (f" (worst: {worst})" if worst else ""))
        maker = workloads.get(name)
        if maker is not None:
            attributor = CycleAttributor(source=name)
            compile_c(maker(), CompilerOptions(),
                      hooks=[attributor])
            path = os.path.join(explain_dir,
                                f"explain_{name}.attrib.json")
            attributor.write(path)
            written.append(path)
            log.info(f"explain: wrote {path}")
    return written


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        description="benchmark telemetry regression gate")
    parser.add_argument("--current", default=None,
                        help="directory of the current run's "
                             "BENCH_*.json (default: "
                             "$TITANCC_BENCH_DIR or benchmarks/out)")
    parser.add_argument("--baselines", default=BASELINE_DIR,
                        help="committed baseline directory")
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="relative tolerance before a bad-"
                             "direction move fails (default 0.05)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite baselines from the current run "
                             "(git keeps the previous ones)")
    parser.add_argument("--explain", action="store_true",
                        help="on gate failure, write reportdiff + "
                             "attribution artifacts per regressed "
                             "bench (see --explain-dir)")
    parser.add_argument("--explain-dir", default=None,
                        help="where --explain artifacts land "
                             "(default: <current>/explain)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress info lines (improvements, "
                             "ungated host-metric drift)")
    parser.add_argument("--log-json", action="store_true",
                        help="emit diagnostics as JSONL (schema "
                             "titancc-events/1) instead of text")
    args = parser.parse_args(argv)

    log_out = Logger("regress", stream=sys.stdout,
                     json_mode=args.log_json, quiet=args.quiet)
    log_err = Logger("regress", json_mode=args.log_json)

    current_dir = args.current or default_current_dir()
    current = load_benches(current_dir, log=log_err)
    if not current:
        log_err.error(f"no BENCH_*.json found in {current_dir}; "
                      f"run the benchmark suite first "
                      f"(PYTHONPATH=src python -m pytest benchmarks)")
        return 2

    if args.update:
        update_baselines(current, args.baselines, log=log_out)
        return 0

    baselines = load_benches(args.baselines, log=log_err)
    if not baselines:
        log_err.error(f"no baselines in {args.baselines}; "
                      f"run with --update to create them")
        return 2

    records = compare_structured(baselines, current, args.tolerance)
    regressions = []
    for record in records:
        if record["kind"] in ("regression", "missing"):
            regressions.append(record["line"])
        else:
            log_out.info(record["line"])
    checked = sum(1 for doc in baselines.values()
                  for _ in iter_metrics(doc))
    if regressions:
        log_err.error(f"{len(regressions)} regression(s) across "
                      f"{checked} checked metric(s):")
        for line in regressions:
            log_err.error(f"  FAIL {line}")
        if args.explain:
            explain_dir = args.explain_dir or os.path.join(
                current_dir, "explain")
            explain_failures(records, baselines, current,
                             explain_dir, log=log_err,
                             tolerance=args.tolerance)
        return 1
    log_out.info(f"OK — {checked} metric(s) within "
                 f"{args.tolerance * 100:.0f}% of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
