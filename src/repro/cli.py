"""``titancc`` — command-line driver for the Titan C compiler.

Usage examples::

    titancc file.c                        # compile, print optimized IL
    titancc file.c --dump-stages          # show every pipeline stage
    titancc file.c --run main             # compile and simulate
    titancc file.c --no-inline --no-vectorize
    titancc file.c --make-db lib.ildb     # build a procedure database
    titancc file.c --use-db lib.ildb      # inline from a database
    titancc file.c --processors 4 --run main
    titancc file.c --remarks              # why did each loop (not) vectorize?
    titancc file.c --trace-json t.json    # per-phase Chrome trace
    titancc file.c --run main --profile   # hot-loop cycle attribution
    titancc file.c --report-json r.json   # full machine-readable report
    titancc file.c --dump-deps deps/      # dependence graphs (DOT+JSON)
    titancc file.c --check-passes         # re-check IL after every pass
    titancc file.c --bisect               # convict a miscompiling pass
    titancc file.c --dump-code main       # fast engine's generated code
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .frontend.lower import compile_to_il
from .il.printer import format_program
from .inline.database import InlineDatabase
from .interp import ENGINES
from .obs import schemas, telemetry
from .obs.counters import (format_analysis_solves,
                           record_analysis_solves,
                           record_pass_iterations)
from .obs.log import Logger
from .obs.metrics import (REGISTRY, MetricsRegistry,
                          SpanMetricsConsumer)
from .obs.report import CompilationReport, metrics_from_result
from .obs.telemetry import EventLogWriter, SpanHook
from .pipeline import CompilerOptions, TitanCompiler
from .titan.config import TitanConfig
from .titan.simulator import TitanSimulator


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="titancc",
        description="Vectorizing, parallelizing, inlining C compiler "
                    "targeting a simulated Ardent Titan (Allen & "
                    "Johnson, PLDI 1988).")
    parser.add_argument("source", nargs="?",
                        help="C source file (omit with --serve)")
    parser.add_argument("--serve", action="store_true",
                        help="run as a compilation service instead of "
                             "compiling one file: JSONL compile "
                             "requests in, schema-validated responses "
                             "out, with a content-addressed two-level "
                             "cache.  Remaining arguments go to the "
                             "service (see python -m repro.service "
                             "--help)")
    parser.add_argument("--dump-stages", action="store_true",
                        help="print the IL after every pipeline stage")
    parser.add_argument("--no-inline", action="store_true")
    parser.add_argument("--no-vectorize", action="store_true")
    parser.add_argument("--no-parallelize", action="store_true")
    parser.add_argument("--no-scalar-opt", action="store_true")
    parser.add_argument("--no-reg-pipeline", action="store_true")
    parser.add_argument("--no-strength-reduction", action="store_true")
    parser.add_argument("--fortran-pointers", action="store_true",
                        help="assume pointer parameters never alias "
                             "(the paper's compiler option)")
    parser.add_argument("--strict-while", action="store_true",
                        help="never convert `while (v != k)` loops "
                             "without a termination proof")
    parser.add_argument("--parallelize-lists", action="store_true",
                        help="spread linked-list loops across "
                             "processors (asserts the paper's "
                             "independent-storage assumption, "
                             "section 10)")
    parser.add_argument("--vector-length", type=int, default=32)
    parser.add_argument("--processors", type=int, default=2)
    parser.add_argument("--run", metavar="ENTRY",
                        help="simulate ENTRY() on the Titan model and "
                             "report cycles/MFLOPS")
    parser.add_argument("--engine", choices=ENGINES,
                        default="compiled",
                        help="execution engine for --run: the fast "
                             "engine (default) or the tree-walking "
                             "semantic oracle")
    parser.add_argument("--dump-code", metavar="FN",
                        help="print the fast engine's generated "
                             "Python source and CPython disassembly "
                             "for function FN to stderr: the code an "
                             "uninstrumented run executes, or with "
                             "--run the variant with Titan accounting "
                             "inline that the simulation executes; "
                             "functions that run on the tree oracle "
                             "report why")
    parser.add_argument("--make-db", metavar="PATH",
                        help="save the parsed procedures as an inline "
                             "database instead of compiling")
    parser.add_argument("--use-db", metavar="PATH", action="append",
                        default=[],
                        help="inline from this procedure database "
                             "(repeatable)")
    parser.add_argument("--stats", action="store_true",
                        help="print per-pass statistics")
    parser.add_argument("--remarks", action="store_true",
                        help="print optimization remarks (what each "
                             "pass did to each loop, and why loops "
                             "were not vectorized) to stderr")
    parser.add_argument("--trace-json", metavar="PATH",
                        help="write per-phase wall times as Chrome "
                             "trace-event JSON (load in "
                             "chrome://tracing or Perfetto; '-' for "
                             "stdout)")
    parser.add_argument("--profile", action="store_true",
                        help="with --run: attribute simulated cycles "
                             "to the hottest loops and functions")
    parser.add_argument("--report-json", metavar="PATH",
                        help="write the full compilation report "
                             "(counters, remarks, per-loop coverage, "
                             "dependence graphs, Titan utilization) "
                             "as schema-versioned JSON ('-' for "
                             "stdout)")
    parser.add_argument("--metrics-prom", metavar="PATH",
                        help="export session metrics (pass counters, "
                             "loop coverage, span histograms) in "
                             "Prometheus text exposition format "
                             "('-' for stdout)")
    parser.add_argument("--events-jsonl", metavar="PATH",
                        help="stream telemetry spans and a final "
                             "metrics snapshot as JSONL events "
                             "(schema titancc-events/1)")
    parser.add_argument("--dump-deps", metavar="DIR",
                        help="write each innermost loop's dependence "
                             "graph to DIR as <function>_L<line>.dot "
                             "and .json")
    parser.add_argument("--print-lines", action="store_true",
                        help="annotate printed IL statements with "
                             "their C source lines")
    parser.add_argument("--check-passes", action="store_true",
                        help="snapshot the IL after every pass, "
                             "re-validate it, and execute it on the "
                             "tree oracle; prints the per-pass table "
                             "to stderr and exits non-zero on the "
                             "first divergence")
    parser.add_argument("--check-entry", metavar="ENTRY",
                        default="main",
                        help="entry point the per-pass checker and "
                             "the bisector execute (default: main)")
    parser.add_argument("--bisect", action="store_true",
                        help="replay the compile through the "
                             "miscompile bisector and print the "
                             "culprit verdict instead of IL; exits "
                             "non-zero unless every pass checks out")
    parser.add_argument("--bisect-json", metavar="PATH",
                        help="write the bisection verdict (schema "
                             "titancc-bisect/1) as JSON; implies "
                             "--bisect")
    parser.add_argument("--attrib", action="store_true",
                        help="print the per-pass cycle-attribution "
                             "waterfall (static Titan estimate after "
                             "every pass) to stderr")
    parser.add_argument("--attrib-json", metavar="PATH",
                        help="write the attribution waterfall as "
                             "schema titancc-attrib/1 JSON ('-' for "
                             "stdout); implies the attribution hook")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress informational diagnostics "
                             "(wrote-file notices); warnings and "
                             "errors still print")
    parser.add_argument("--log-json", action="store_true",
                        help="emit diagnostics as JSONL (schema "
                             "titancc-events/1) instead of text")
    return parser


def options_from_args(args: argparse.Namespace) -> CompilerOptions:
    return CompilerOptions(
        inline=not args.no_inline,
        scalar_opt=not args.no_scalar_opt,
        vectorize=not args.no_vectorize,
        parallelize=not args.no_parallelize,
        reg_pipeline=not args.no_reg_pipeline,
        strength_reduction=not args.no_strength_reduction,
        fortran_pointer_semantics=args.fortran_pointers,
        strict_while_conversion=args.strict_while,
        parallelize_lists=args.parallelize_lists,
        vector_length=args.vector_length,
        processors=args.processors,
        dump_stages=args.dump_stages,
        collect_deps=bool(args.report_json or args.dump_deps),
    )


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if "--serve" in argv:
        # Service mode owns its own argument set; everything except
        # the flag itself passes through.
        from .service.__main__ import main as serve_main
        argv.remove("--serve")
        return serve_main(argv)
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if args.source is None:
        parser.error("source is required unless --serve is given")
    if args.profile and not args.run:
        parser.error("--profile requires --run ENTRY")
    # Structured diagnostics: notices/warnings/errors go through the
    # logger (stderr; --log-json switches to JSONL, --quiet drops
    # info).  Artifact streams — the IL listing, dumps, reports — stay
    # plain prints.
    log = Logger("titancc", json_mode=args.log_json, quiet=args.quiet)
    try:
        with open(args.source) as handle:
            source = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(f"cannot read {args.source}: "
                     f"{getattr(exc, 'strerror', None) or exc}")

    if args.make_db:
        program = compile_to_il(source, args.source)
        db = InlineDatabase()
        db.add_program(program)
        db.save(args.make_db)
        # The procedure listing doubles as scriptable output, so this
        # one diagnostic logs to stdout.
        Logger("titancc", stream=sys.stdout,
               json_mode=args.log_json).info(
            f"wrote {len(db.names())} procedures to {args.make_db}: "
            f"{', '.join(db.names())}")
        return 0

    database: Optional[InlineDatabase] = None
    if args.use_db:
        # Databases load through the process-global catalog cache,
        # keyed by file *content* hash: repeated invocations in one
        # process (test suites, the service, tooling that drives
        # main() in a loop) unpickle each distinct database once
        # instead of rebuilding the catalog every time.
        from .service.cache import load_database
        database = InlineDatabase()
        origin = {}  # procedure name -> database path it came from
        for path in args.use_db:
            loaded = load_database(path)
            for name in loaded.entries:
                if name in origin:
                    log.warning(
                        f"procedure '{name}' in {path} overrides "
                        f"the definition from {origin[name]}")
                origin[name] = path
            database.entries.update(loaded.entries)

    if args.bisect or args.bisect_json:
        from .check.bisect import bisect_source
        verdict = bisect_source(source, options_from_args(args),
                                name=args.source,
                                entry=args.check_entry,
                                engine=args.engine,
                                database=database)
        print(verdict.format())
        if args.bisect_json:
            schemas.atomic_write_text(args.bisect_json,
                                      verdict.to_json() + "\n")
            log.info(f"wrote bisection verdict to "
                     f"{args.bisect_json}")
        return 0 if verdict.status == "clean" else 1

    checker = None
    if args.check_passes:
        from .check.checker import PassChecker
        checker = PassChecker(entry=args.check_entry)

    # Session telemetry: attach consumers to the global Telemetry so
    # spans from the tracer, the analyses, and the engines all land in
    # one registry / event log.  Off (observation-free) unless asked.
    session_registry = None
    event_writer = None
    consumers: list = []
    hooks: list = []
    if args.metrics_prom or args.events_jsonl:
        session_registry = MetricsRegistry()
        consumers.append(SpanMetricsConsumer(session_registry))
        if args.events_jsonl:
            event_writer = EventLogWriter(args.events_jsonl)
            consumers.append(event_writer)
        # Per-pass spans come from the hook seam (the tracer only
        # emits coarse phase spans), so the hook goes first.
        hooks.append(SpanHook())
    if checker is not None:
        hooks.append(checker)

    # Cycle attribution rides the same hook seam; without the flags no
    # hook is installed and the pipeline stays observation-free.
    attributor = None
    if args.attrib or args.attrib_json:
        from .obs.attrib import CycleAttributor
        attributor = CycleAttributor(
            config=TitanConfig(processors=args.processors,
                               max_vector_length=args.vector_length),
            source=args.source)
        hooks.append(attributor)

    compiler = TitanCompiler(options_from_args(args), database,
                             hooks=tuple(hooks))
    try:
        with telemetry.session(*consumers):
            return _compile_main(args, compiler, source, checker,
                                 session_registry, event_writer,
                                 attributor, log)
    finally:
        if event_writer is not None:
            event_writer.close()


def _compile_main(args: argparse.Namespace, compiler: TitanCompiler,
                  source: str, checker,
                  session_registry, event_writer,
                  attributor=None, log: Optional[Logger] = None) -> int:
    """The compile → dump → simulate → report path of :func:`main`,
    run inside the telemetry session (if one is active) so engine and
    analysis spans land in the session consumers."""
    log = log or Logger("titancc", json_mode=args.log_json,
                        quiet=args.quiet)
    result = compiler.compile(source, args.source)

    if checker is not None:
        print(checker.format_table(), file=sys.stderr)

    if attributor is not None:
        if args.attrib:
            print(attributor.format_waterfall(), file=sys.stderr)
        if args.attrib_json:
            attributor.write(args.attrib_json)
            if args.attrib_json != schemas.STDOUT:
                log.info(f"wrote cycle attribution to "
                         f"{args.attrib_json}")

    if args.remarks:
        for remark in result.remarks:
            print(remark.format(), file=sys.stderr)

    # An artifact routed to stdout ('-') owns the stream: the default
    # program listing and the simulation summary move out of the way
    # so the output stays machine-parseable.
    stdout_artifact = schemas.STDOUT in (args.report_json,
                                         args.trace_json,
                                         args.metrics_prom,
                                         args.attrib_json)
    if args.dump_stages:
        for dump in result.stages:
            print(f"/* ===== stage: {dump.stage} ===== */")
            print(dump.text)
            print()
    elif not stdout_artifact:
        print(format_program(result.program,
                             show_lines=args.print_lines))

    if args.dump_deps:
        import json as _json
        os.makedirs(args.dump_deps, exist_ok=True)
        for graph in result.dep_graphs:
            base = os.path.join(args.dump_deps, graph.slug)
            schemas.atomic_write_text(base + ".dot",
                                      graph.to_dot() + "\n")
            doc = {"schema": schemas.DEPGRAPH, **graph.to_json()}
            schemas.write_json_artifact(base + ".json", doc)
        log.info(f"wrote {len(result.dep_graphs)} dependence "
                 f"graph(s) to {args.dump_deps}")

    def dump_code(interp) -> bool:
        from .interp import InterpreterError
        try:
            sys.stderr.write(interp.disassemble(args.dump_code))
        except InterpreterError as exc:
            log.error(str(exc))
            return False
        return True

    # With --run on the fast engine the dump is what the simulation
    # executes (below); otherwise what an uninstrumented run would.
    dump_simulated = args.run and args.engine == "compiled"
    if args.dump_code and not dump_simulated:
        from .interp import make_interpreter
        if not dump_code(make_interpreter(result.program,
                                          engine="compiled")):
            return 1

    config = TitanConfig(processors=args.processors,
                         max_vector_length=args.vector_length)
    sim_report = None
    if args.run:
        with TitanSimulator(result.program, config,
                            schedules=result.schedules or None,
                            profile=args.profile,
                            engine=args.engine) as simulator:
            if args.dump_code and dump_simulated and \
                    not dump_code(simulator.interpreter):
                return 1
            sim_report = simulator.run(args.run)
        if sim_report.stdout:
            out = sys.stderr if stdout_artifact else sys.stdout
            out.write(sim_report.stdout)
        summary_stream = sys.stderr if stdout_artifact else sys.stdout
        print(f"\n/* simulated: {sim_report.cycles:.0f} cycles, "
              f"{sim_report.seconds * 1e3:.3f} ms, "
              f"{sim_report.mflops:.2f} MFLOPS, "
              f"result={sim_report.result} */", file=summary_stream)
        if args.profile and sim_report.profile is not None:
            print(sim_report.profile.format(), file=sys.stderr)

    # The report embeds everything above (counters, remarks, coverage,
    # dependence graphs, trace, simulation), so it is assembled last.
    report = CompilationReport.from_result(result, filename=args.source,
                                           titan_report=sim_report,
                                           config=config,
                                           checker=checker)
    if args.stats:
        print("\n" + report.format_stats(), file=sys.stderr)
        print(format_analysis_solves(result.analysis_solves),
              file=sys.stderr)

    if args.report_json:
        report.write(args.report_json)
        if args.report_json != schemas.STDOUT:
            log.info(f"wrote compilation report to "
                     f"{args.report_json}")

    if args.trace_json:
        result.trace.write(args.trace_json)
        if args.trace_json != schemas.STDOUT:
            log.info(f"wrote phase trace to {args.trace_json} "
                     f"(open in chrome://tracing)")

    if session_registry is not None:
        # Fold the pass-counter and loop-coverage families in next to
        # the session's span metrics (spans already streamed in live —
        # trace_spans=False avoids double counting them).
        metrics_from_result(result, report.counters, report.loops,
                            registry=session_registry,
                            trace_spans=False)
        record_analysis_solves(session_registry,
                               result.analysis_solves)
        record_pass_iterations(session_registry,
                               result.pass_iterations)
        # What the engines decided — tier per function, form per
        # vector statement, codegen-cache outcomes — is counted in
        # the process registry.
        session_registry.merge(REGISTRY.to_dict())
        if event_writer is not None:
            event_writer.write_metrics(session_registry)
        if args.metrics_prom:
            schemas.atomic_write_text(
                args.metrics_prom,
                session_registry.format_prometheus())
            if args.metrics_prom != schemas.STDOUT:
                log.info(f"wrote Prometheus metrics to "
                         f"{args.metrics_prom}")

    if checker is not None and checker.first_divergence() is not None:
        divergence = checker.first_divergence()
        log.error(f"pass check FAILED at {divergence.label}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
