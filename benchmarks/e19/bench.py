"""E19 — the repo's benchmark: four service-path workloads, end-to-end
and per-layer metrics, one traced run.

    python3 benchmarks/e19/bench.py [--seed N] [--workload NAME]
        [--seconds S] [--trace 0|1] [--quick] [--sets K] [--out FILE]
    python3 benchmarks/e19/bench.py --compare A.json B.json

Every workload runs in a fresh subprocess with ``PYTHONHASHSEED=0``.
Without ``--trace`` both runs are made: the untraced one gives the
end-to-end metrics, the traced one the per-layer metrics.  Every
answer is checked against a reference that does not come from the
compiler under test.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; with one
``--workload`` the metric names are bare, otherwise they are prefixed
``<workload>.``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "benchmarks", "out", "e19")

RESULT_SCHEMA = "e19-result/1"

#: (name, unit, better, bound): the end-to-end metrics, each reported
#: per workload.  ``bound`` is the share of the baseline by which the
#: metric may worsen before a change counts as a regression; on the
#: wall-clock metrics it is three times the widest run-to-run spread
#: seen on the shared machine the benchmark was built on.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("req_per_s", "1/s", "higher", 0.25),
    ("req_ms_p50", "ms", "lower", 0.25),
    ("req_ms_p90", "ms", "lower", 0.25),
    ("sim_cycles_geomean", "cycles", "lower", 0.001),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

WORKLOAD_NAMES = ("compile_cold", "edit_replay", "simulate_scalar",
                  "simulate_vector")

#: Units of per-layer metrics that are pure functions of the request
#: sequence: two runs of the same code must agree on them exactly.
EXACT_UNITS = ("count", "stmts", "bytes", "1/req", "ratio")

#: Full set-ups per run; ``setup_s`` reports the best of them.
SETUP_REPEATS = 3
#: Request seconds between two untimed ``gc.collect()`` calls.
GC_EVERY_S = 0.05
#: Requests of the worker-pool probe (traced run only).
JOBS_BATCH = 32


# -- the measured process (one workload, one run) ------------------------


def run_child(args) -> dict:
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from corpus import load_corpus
    from workloads import WORKLOADS

    repeats = 1 if args.quick else SETUP_REPEATS
    workload = None
    setups = []
    for _ in range(repeats):
        if workload is not None:
            workload.close()
        began = time.perf_counter()
        workload = WORKLOADS[args.workload](load_corpus(), args.seed,
                                            args.quick)
        workload.setup()
        setups.append(time.perf_counter() - began)
    try:
        if args.trace:
            metrics, samples = run_traced(workload, args)
        else:
            metrics, samples = run_untraced(workload, args.seconds)
            metrics["setup_s"] = (
                import_seconds(repeats) + min(setups), "s")
    finally:
        workload.close()
    return {
        "samples": samples,
        "attempted": workload.attempted,
        "failed": len(workload.failures),
        "failures": workload.failures[:10],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def import_seconds(repeats: int) -> float:
    """Interpreter start plus the imports a client of the service
    pays, in a fresh process each time; the best of ``repeats``."""
    code = (f"import sys; sys.path.insert(0, {SRC!r}); "
            f"import repro.service")
    best = math.inf
    for _ in range(repeats):
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        best = min(best, time.perf_counter() - began)
    return best


def run_untraced(workload, seconds: float):
    """Whole passes until ``seconds`` have gone by.

    The machine's noise is one-sided — a busy neighbour only ever
    slows a request — and comes in bursts shorter than a request, so
    each cell is reported at the best latency any of its requests saw.
    The end-to-end figures are over one pass's worth of requests, each
    at its cell's best: what the request mix costs on a quiet machine.
    """
    best = {}
    slots = None
    uncollected = 0.0
    began = time.perf_counter()
    while True:
        items = workload.next_pass()
        submit = workload.service.submit
        for item in items:
            # Dead IL graphs are cycles.  Collecting them between
            # requests, untimed, makes peak memory the live set plus a
            # few requests' garbage instead of a function of when the
            # collector last happened to run.
            if uncollected >= GC_EVERY_S:
                gc.collect()
                uncollected = 0.0
            sent = time.perf_counter()
            response = submit(item.request)
            took = time.perf_counter() - sent
            uncollected += took
            # A wrong answer has no latency: it never arrived.
            if workload.check(item, response) and \
                    took < best.get(item.cell, math.inf):
                best[item.cell] = took
        if slots is None:
            slots = [item.cell for item in items]
        if time.perf_counter() - began >= seconds:
            break
    # Read before the verification pass: that pass simulates, which
    # the workload it verifies never does.
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workload.verify()
    values = [best[cell] for cell in slots if cell in best]
    cycles = workload.cycles
    metrics = {
        "req_per_s": (len(values) / sum(values) if values else 0.0,
                      "1/s"),
        "req_ms_p50": (statistics.median(values) * 1e3
                       if values else 0.0, "ms"),
        "req_ms_p90": (statistics.quantiles(values, n=10)[8] * 1e3
                       if len(values) > 1 else 0.0, "ms"),
        "sim_cycles_geomean": (
            math.exp(sum(map(math.log, cycles)) / len(cycles))
            if cycles else 0.0, "cycles"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return metrics, len(values)


def run_traced(workload, args):
    """A fixed number of passes (so counts repeat exactly), each
    request answered by the service and then replayed under spans."""
    from collections import Counter

    from tracing import Replayer, Tracer, layer_metrics

    tracer = Tracer()
    counts: Counter = Counter()
    passes = max(1, round(args.seconds / workload.traced_pass_s))
    if args.quick:
        passes = 1
    cache_totals: Counter = Counter()
    service_wall = 0.0
    requests = 0
    replayer = None
    served = None
    before = None
    for _ in range(passes):
        items = workload.next_pass()
        service = workload.service
        if service is not served:
            _add_cache_stats(cache_totals, served, before)
            served = service
            # Bring the shadow caches to the state set-up left the
            # service in; those spans and counts are thrown away.
            replayer = Replayer(Tracer(), Counter(),
                                service.catalogs.lru.max_entries)
            for request in workload.setup_requests:
                replayer.replay(request)
            replayer.tracer, replayer.counts = tracer, counts
            before = service.cache_stats()
        for item in items:
            sent = time.perf_counter()
            response = service.submit(item.request)
            service_wall += time.perf_counter() - sent
            requests += 1
            if not workload.check(item, response):
                continue
            tracer.request = item.request["id"]
            workload.attempted += 1
            try:
                replayed = replayer.replay(item.request)
                with tracer.span("serialize", "wire"):
                    json.dumps(replayed)
            except Exception as exc:  # the run must report, not die
                workload.failures.append(
                    f"{item.request['id']}: replay raised {exc!r}")
                continue
            if replayed != response:
                workload.failures.append(
                    f"{item.request['id']}: replay differs from the "
                    f"service's answer")
    _add_cache_stats(cache_totals, served, before)

    metrics = layer_metrics(tracer.spans, counts, requests,
                            service_wall)
    for level in ("catalog", "artifact"):
        hits = cache_totals[level, "hits"]
        lookups = hits + cache_totals[level, "misses"]
        metrics[f"service.{level}_hit_ratio"] = (
            hits / lookups if lookups else 0.0, "ratio")
    metrics["service.catalog_evictions"] = (
        cache_totals["catalog", "evictions"], "count")
    metrics.update(jobs_probe(workload, args.quick))

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace_{workload.name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"schema": "e19-trace/1", "workload": workload.name,
                   "seed": args.seed, "spans": tracer.to_dicts()},
                  handle)
    return metrics, requests


def _add_cache_stats(totals, service, before) -> None:
    """Add what ``service``'s caches counted since ``before`` (set-up
    traffic is not the workload's)."""
    if service is None:
        return
    for level, stats in service.cache_stats().items():
        for event in ("hits", "misses", "evictions"):
            totals[level, event] += stats[event] - before[level][event]


def jobs_probe(workload, quick: bool) -> dict:
    """One cold compile batch through ``workers=2`` against the same
    batch in process: what the pool costs and buys.  Informational —
    the timed path never uses the pool."""
    from repro.service import CompileService

    batch = [{"id": p.name, "source": p.source, "filename": p.name}
             for p in workload.corpus.generated[
                 :4 if quick else JOBS_BATCH]]
    with CompileService(workers=0) as inline:
        began = time.perf_counter()
        expected = inline.compile_batch(batch)
        inline_wall = time.perf_counter() - began
    with CompileService(workers=2) as pooled:
        # Start the pool and let both workers finish their imports.
        pooled.compile_batch([
            {"source": p.source, "filename": p.name}
            for p in workload.corpus.generated[-4:]])
        busy_before = {pid: stats["seconds"]
                       for pid, stats in pooled.worker_stats.items()}
        began = time.perf_counter()
        answers = pooled.compile_batch(batch)
        pooled_wall = time.perf_counter() - began
        busiest = max(stats["seconds"] - busy_before.get(pid, 0.0)
                      for pid, stats in pooled.worker_stats.items())
    for ours, theirs in zip(expected, answers):
        workload.attempted += 1
        if ours["payload"] is None or \
                ours["payload"] != theirs["payload"]:
            workload.failures.append(
                f"{ours['id']}: pooled answer differs from in-process")
    return {
        "jobs.dispatch_overhead_ms": (
            (pooled_wall - busiest) / len(batch) * 1e3, "ms"),
        "jobs.batch_speedup_2w": (inline_wall / pooled_wall, "x"),
    }


# -- the parent: subprocesses, tables, comparison ------------------------


def run_workload(name: str, args, trace: int) -> dict:
    command = [sys.executable, os.path.abspath(__file__), "--child",
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.quick:
        command.append("--quick")
    proc = subprocess.run(
        command, stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONHASHSEED="0"))
    if proc.returncode != 0:
        sys.exit(f"e19: {name} (trace={trace}) exited "
                 f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_set(args) -> dict:
    """Every requested workload once, untraced and/or traced."""
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    modes = (0, 1) if args.trace is None else (args.trace,)
    result = {}
    for name in names:
        entry = result[name] = {"attempted": 0, "failed": 0,
                                "failures": []}
        for trace in modes:
            run = run_workload(name, args, trace)
            entry["per_layer" if trace else "end_to_end"] = \
                run["metrics"]
            entry["samples_traced" if trace else "samples"] = \
                run["samples"]
            entry["attempted"] += run["attempted"]
            entry["failed"] += run["failed"]
            entry["failures"] += run["failures"]
        print_workload(name, entry)
    return result


def print_workload(name: str, entry: dict) -> None:
    bounds = {m[0]: m[3] for m in END_TO_END}
    print(f"\n== {name}: {entry['attempted']} answers checked, "
          f"{entry['failed']} wrong "
          f"(fail_share {entry['failed'] / entry['attempted']:.4f})")
    for why in entry["failures"]:
        print(f"   FAILED {why}")
    for section, count in (("end_to_end", "samples"),
                           ("per_layer", "samples_traced")):
        for metric, cell in entry.get(section, {}).items():
            note = f"bound {bounds[metric]}" if metric in bounds else ""
            if metric.startswith("req_ms"):
                note += f", n={entry[count]}"
            print(f"{name:16s} {metric:30s} {cell['value']:16.6g} "
                  f"{cell['unit']:9s} {note}")


def _relative_range(values) -> float:
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def compare(a_sets, b_sets, same_code: bool) -> bool:
    """One row per (workload, metric): both medians, B as a multiple
    of A, the bound, and a verdict.  ``unresolved`` means the runs of
    one side differ among themselves by more than the bound.  With
    ``same_code`` the deterministic counts must also agree exactly."""
    print(f"{'workload':16s} {'metric':30s} {'A':>14s} {'B':>14s} "
          f"{'B/A':>8s} {'bound':>6s}  verdict")
    fine = True
    for name in WORKLOAD_NAMES:
        def cells(sets, section, metric):
            return [s[name][section][metric] for s in sets
                    if metric in s.get(name, {}).get(section, {})]

        for metric, _unit, better, bound in END_TO_END:
            a = [c["value"] for c in cells(a_sets, "end_to_end", metric)]
            b = [c["value"] for c in cells(b_sets, "end_to_end", metric)]
            if not a or not b:
                continue
            mid_a, mid_b = statistics.median(a), statistics.median(b)
            worse = (mid_b - mid_a) / mid_a if better == "lower" \
                else (mid_a - mid_b) / mid_a
            all_better = max(b) < min(a) if better == "lower" \
                else min(b) > max(a)
            spread = max(_relative_range(a), _relative_range(b))
            if spread > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok" if worse <= bound else "regressed"
            fine = fine and verdict == "ok"
            print(f"{name:16s} {metric:30s} {mid_a:14.6g} "
                  f"{mid_b:14.6g} {mid_b / mid_a:8.4f} {bound:6.3f}  "
                  f"{verdict}")
        for metric in sorted({m for s in a_sets + b_sets
                              for m in s.get(name, {}).get("per_layer",
                                                           ())}):
            a = cells(a_sets, "per_layer", metric)
            b = cells(b_sets, "per_layer", metric)
            if not a or not b or a[0]["unit"] not in EXACT_UNITS:
                continue
            same = all(c == a[0] for c in a + b)
            verdict = "ok" if same else \
                ("differs" if same_code else "changed")
            fine = fine and (same or not same_code)
            print(f"{name:16s} {metric:30s} {a[0]['value']:14.6g} "
                  f"{b[0]['value']:14.6g} {'':8s} {'exact':>6s}  "
                  f"{verdict}")
        for sets, side in ((a_sets, "A"), (b_sets, "B")):
            failed = sum(s[name]["failed"] for s in sets if name in s)
            if failed:
                fine = False
                print(f"{name:16s} {side} has {failed} wrong answers")
    return fine


def load_sets(path: str):
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    if doc.get("schema") != RESULT_SCHEMA:
        sys.exit(f"e19: {path} is not a {RESULT_SCHEMA} file")
    return doc["sets"]


def last_line(sets, single: bool) -> dict:
    """The one-object summary the driver reads."""
    latest = sets[-1]
    metrics = {}
    for name, entry in latest.items():
        for section in ("end_to_end", "per_layer"):
            for metric, cell in entry.get(section, {}).items():
                metrics[metric if single else f"{name}.{metric}"] = cell
    attempted = sum(e["attempted"] for s in sets for e in s.values())
    failed = sum(e["failed"] for s in sets for e in s.values())
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run "
                             "(default 20, 1 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=None,
                        help="1: traced run only; 0: untraced only; "
                             "absent: both")
    parser.add_argument("--quick", action="store_true",
                        help="tiny pools, same code paths, <= 20 s")
    parser.add_argument("--sets", type=int, default=1,
                        help="complete sets of runs; 2 or more are "
                             "compared, first against second")
    parser.add_argument("--out", help="result file (default "
                                      "benchmarks/out/e19/result.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else 20.0

    if args.compare:
        a_sets, b_sets = map(load_sets, args.compare)
        return 0 if compare(a_sets, b_sets, same_code=False) else 1
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"e19: no compiler to measure at {SRC}")
    if args.child:
        print(json.dumps(run_child(args)))
        return 0

    sets = [run_set(args) for _ in range(args.sets)]
    out = args.out or os.path.join(OUT_DIR, "result.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"schema": RESULT_SCHEMA, "seed": args.seed,
                   "seconds": args.seconds, "quick": args.quick,
                   "sets": sets}, handle, indent=1)
        handle.write("\n")
    agree = True
    if args.sets > 1:
        print("\n== set 1 (A) against set 2 (B), same code")
        agree = compare(sets[:1], sets[1:2], same_code=True)
    summary = last_line(sets, single=args.workload is not None)
    print(json.dumps(summary))
    return 0 if summary["correct"] and agree else 1


if __name__ == "__main__":
    sys.exit(main())
