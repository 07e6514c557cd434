"""``python -m repro.fuzz`` — the differential fuzzing CLI.

Examples::

    python -m repro.fuzz --seed 0 --count 200
    python -m repro.fuzz --seed 0 --count 200 --jobs 4
    python -m repro.fuzz --seed 7 --count 50 --out fuzz-out
    python -m repro.fuzz --replay tests/fuzz_corpus/global_string_init.c

``--jobs N`` fans the seed range out over N worker processes
(contiguous per-worker seed chunks, merged deterministically back into
seed order), so the summary — including its ``metrics`` block — is
byte-identical to a sequential run; ``summary.json`` additionally
records per-worker wall times.

By default (``--engine all``) every variant runs on both halves of
the fast engine — uninstrumented (generated code) and under the Titan
cost model (generated code with inline accounting, what every
simulated run executes; cycles, counters and breakdown must equal the
tree oracle's under the same model) — each checked against the tree
oracle (under any other cost hook the fast engine runs the tree
oracle itself); ``--engine compiled`` narrows the sweep to the
uninstrumented half, and ``summary.json`` carries the aggregate wall
times per engine half under ``engine_timings``.

With ``--out DIR`` every failure is minimized and written as
``DIR/repro_<name>.c`` (a self-contained one-command reproducer),
``DIR/summary.json`` records the whole run (schema ``titancc-fuzz/1``,
serialized through the same :func:`~repro.obs.trace.jsonable`
hardening the compilation report uses, with a merged metrics
registry), and ``DIR/events.jsonl`` holds the run's telemetry (the
``fuzz-run`` span, one ``worker`` event per chunk, and the final
metrics snapshot).  All artifacts are written atomically.  Exit
status is non-zero when any divergence or crash was found.

Diagnostics go through the structured :mod:`repro.obs.log` logger:
human text on stderr by default, one JSON object per line under
``--log-json``, and ``--quiet`` keeps only warnings and the final
summary line.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from ..interp import ENGINES
from ..obs import schemas
from ..obs.log import Logger
from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import EventLogWriter, Telemetry
from ..obs.trace import jsonable
from .generator import GeneratorOptions
from .harness import (DifferentialResult, fuzz, fuzz_parallel,
                      option_points, run_source)
from .reduce import ReduceStats, reduce_result


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differentially fuzz the Titan C compiler: "
                    "generated well-defined programs must compute the "
                    "same checksum at every optimization level.")
    parser.add_argument("--seed", type=int, default=0,
                        help="first generator seed (default 0)")
    parser.add_argument("--count", type=int, default=100,
                        help="number of programs (default 100)")
    parser.add_argument("--out", metavar="DIR",
                        help="write minimized reproducer .c files, "
                             "summary.json, and events.jsonl here")
    parser.add_argument("--replay", metavar="FILE", action="append",
                        default=[],
                        help="differentially test this .c file instead "
                             "of generating (repeatable)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fan the seed range out over N worker "
                             "processes (default 1; the merged "
                             "summary is identical either way)")
    parser.add_argument("--engine", choices=ENGINES + ("all",),
                        default="all",
                        help="execution engine for the optimized "
                             "variants (the reference always runs on "
                             "the tree-walking oracle); 'all' runs "
                             "the fast engine over each variant "
                             "uninstrumented and under the Titan "
                             "cost model (default)")
    parser.add_argument("--check-passes", action="store_true",
                        help="compile every variant with the per-pass "
                             "semantic checker installed: each pass's "
                             "output is re-validated and executed on "
                             "the tree oracle, attributing miscompiles "
                             "to the guilty pass (slower)")
    parser.add_argument("--max-steps", type=int, default=2_000_000,
                        help="interpreter step budget per run")
    parser.add_argument("--max-blocks", type=int, default=5,
                        help="max statement blocks per program")
    parser.add_argument("--no-reduce", action="store_true",
                        help="write failures unminimized")
    parser.add_argument("--quiet", action="store_true",
                        help="only print warnings and the final "
                             "summary line")
    parser.add_argument("--log-json", action="store_true",
                        help="emit diagnostics as JSONL (schema "
                             "titancc-events/1) instead of text")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    log = Logger("fuzz", json_mode=args.log_json, quiet=args.quiet)
    points = option_points()

    if args.replay:
        failures: List[DifferentialResult] = []
        for path in args.replay:
            with open(path) as handle:
                source = handle.read()
            result = run_source(source,
                                name=os.path.basename(path),
                                points=points,
                                max_steps=args.max_steps,
                                engine=args.engine,
                                check_passes=args.check_passes)
            print(f"{path}: {result.status} "
                  f"({result.signature()})")
            for variant in result.variants:
                if variant.culprit:
                    log.info("bisect verdict", path=path,
                             variant=variant.name,
                             status=variant.culprit["status"],
                             guilty_pass=variant.culprit["guilty_pass"])
            if result.failed:
                failures.append(result)
        return 1 if failures else 0

    # Run telemetry: the fuzz-run span, per-worker events, and the
    # final metrics snapshot stream to <out>/events.jsonl.  A private
    # Telemetry (not the global session) keeps the event log at run
    # granularity instead of recording every variant compile.
    writer: Optional[EventLogWriter] = None
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        writer = EventLogWriter(os.path.join(args.out, "events.jsonl"))
    telemetry = Telemetry(consumers=(writer,) if writer else (),
                          forward_global=False)

    done = [0]

    def on_result(result: DifferentialResult) -> None:
        done[0] += 1
        if done[0] % 25 == 0 or done[0] == args.count:
            log.info("progress", done=done[0], total=args.count)
        if result.status != "ok":
            log.info("failure", name=result.name,
                     status=result.status,
                     signature=result.signature())

    gen_options = GeneratorOptions(max_blocks=args.max_blocks)
    workers = None
    with telemetry.span("fuzz-run", cat="fuzz", seed=args.seed,
                        count=args.count, jobs=args.jobs) as targs:
        if args.jobs > 1:
            def on_chunk(chunk, seconds):
                done[0] += chunk.count
                log.info("worker chunk finished", seed=chunk.seed,
                         count=chunk.count,
                         seconds=round(seconds, 3),
                         failures=len(chunk.failures),
                         done=done[0], total=args.count)

            report, workers, metrics = fuzz_parallel(
                args.seed, args.count, args.jobs,
                generator_options=gen_options, points=points,
                max_steps=args.max_steps, engine=args.engine,
                check_passes=args.check_passes, on_chunk=on_chunk)
            for failure in report.failures:
                log.info("failure", name=failure.name,
                         status=failure.status,
                         signature=failure.signature())
        else:
            metrics = MetricsRegistry()
            report = fuzz(args.seed, args.count,
                          generator_options=gen_options, points=points,
                          max_steps=args.max_steps,
                          on_result=on_result,
                          engine=args.engine,
                          check_passes=args.check_passes,
                          registry=metrics)
        targs["ok"] = report.ok
        targs["failures"] = len(report.failures)

    if args.out:
        summary = report.to_dict()
        summary["engine"] = args.engine
        summary["jobs"] = args.jobs
        # Wall time per execution engine ("tree" is the reference
        # runs).  Nondeterministic by nature, so it rides next to the
        # per-worker timings instead of inside the report document.
        summary["engine_timings"] = {
            eng: round(seconds, 3)
            for eng, seconds in sorted(report.engine_seconds.items())}
        if workers is not None:
            summary["workers"] = workers
        summary["reproducers"] = []
        summary["bisections"] = []
        summary["reductions"] = []
        for failure in report.failures:
            source = failure.source
            if not args.no_reduce:
                # Bisection off inside the reducer: every candidate
                # re-test only needs the failure signature.  The span
                # and summary entry carry only deterministic counts,
                # keeping the --jobs summary byte-identical to a
                # sequential run.
                stats = ReduceStats()
                with telemetry.span("reduce", cat="fuzz",
                                    name=failure.name) as targs:
                    minimized = reduce_result(
                        failure,
                        lambda text: run_source(
                            text, points=points,
                            max_steps=args.max_steps,
                            engine=args.engine,
                            bisect_failures=False),
                        stats=stats, registry=metrics)
                    targs.update(stats.to_dict())
                summary["reductions"].append(
                    {"name": failure.name, **stats.to_dict()})
                log.info("reduced", name=failure.name,
                         lines_before=stats.lines_before,
                         lines_after=stats.lines_after,
                         oracle_runs=stats.oracle_runs)
                if minimized is not None:
                    source = minimized
            path = os.path.join(args.out, f"repro_{failure.name}.c")
            header = (f"// fuzz reproducer {failure.name}: "
                      f"{failure.signature()}\n"
                      f"// replay: python -m repro.fuzz --replay "
                      f"{path}\n")
            schemas.atomic_write_text(path, header + source)
            summary["reproducers"].append(path)
            log.info("wrote reproducer", path=path)
            culprit = next((v.culprit for v in failure.variants
                            if v.culprit), None)
            if culprit is not None:
                bisect_path = os.path.join(
                    args.out, f"bisect_{failure.name}.json")
                schemas.write_json_artifact(bisect_path,
                                            jsonable(culprit))
                summary["bisections"].append(bisect_path)
                log.info("wrote bisection", path=bisect_path,
                         status=culprit["status"],
                         guilty_pass=culprit["guilty_pass"] or "n/a")
        # Serialized after reduction so the titancc_reduce_* families
        # are in the snapshot; reduce counts are deterministic, so
        # --jobs N summaries stay byte-identical to sequential runs.
        summary["metrics"] = metrics.to_dict()
        schemas.write_json_artifact(
            os.path.join(args.out, "summary.json"), jsonable(summary))
        if writer is not None:
            if workers is not None:
                for entry in workers:
                    writer.emit("worker", **entry)
            writer.write_metrics(metrics)
            writer.close()

    print(f"fuzz: {report.count} programs from seed {report.seed}: "
          f"{report.ok} ok, {report.rejected} rejected, "
          f"{report.divergences} divergences, "
          f"{report.crashes} crashes")
    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())
