"""The traced run: spans recorded from the benchmark's own files.

:class:`Replayer` answers a request by calling the layers' public
functions in the order ``service/server.py`` and ``service/worker.py``
call them, with a span around each call.  Inside the optimizer the
spans come from a :class:`repro.pipeline.PipelineHook`, so nothing in
``src/`` is edited.  The runner compares every replayed answer with the
answer ``CompileService`` gave to the same request: a replay that
drifts from the real path fails the run instead of reporting numbers
for a path nobody takes.

A span is ``[name, layer, parent, request, start, end]``; layers are
the ``src/repro`` packages.  Two layers are bookkeeping: ``request`` is
the root span of one replay (its self time is the replay's own glue),
and ``probe`` is work the real path does not do — printing a function
to see whether a pass changed it, solving each analysis once for its
unit cost.  Probe time is subtracted from every enclosing span.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.analysis.flowgraph import FlowGraph
from repro.analysis.liveness import Liveness
from repro.analysis.usedef import UseDefChains
from repro.frontend.lexer import tokenize
from repro.frontend.lower import lower
from repro.frontend.parser import Parser
from repro.frontend.preprocessor import preprocess
from repro.fuzz.harness import classify_exception
from repro.il import nodes as N
from repro.il.printer import format_function, format_program
from repro.inline.database import InlineDatabase
from repro.interp import make_interpreter
from repro.obs.report import CompilationReport
from repro.obs.trace import PassTracer
from repro.pipeline import PipelineHook, TitanCompiler
from repro.service.cache import CatalogEntry, LRUCache, content_hash
from repro.service.protocol import (CompileRequest, canonicalize_report,
                                    error_response, make_response)
from repro.service.worker import request_fingerprint
from repro.titan.config import TitanConfig
from repro.titan.simulator import TitanSimulator

NAME, LAYER, PARENT, REQUEST, START, END = range(6)

#: Pipeline pass name -> layer (the package the pass lives in).
PASS_LAYERS = {"inline": "inline", "vectorize": "vectorize",
               "list-parallel": "vectorize", "schedule": "sched"}
OPT_PASSES = ("forward-sub", "while-to-do", "cond-split", "ivsub",
              "constprop", "deadcode", "if-convert", "reg-pipeline",
              "strength")


class Tracer:
    """In-memory span store; nesting follows call order."""

    def __init__(self):
        self.spans: List[list] = []
        self.request: Optional[str] = None
        self._open: List[int] = []

    def begin(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, layer, parent, self.request,
                           time.perf_counter(), 0.0])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        """Close span ``index`` and anything left open inside it (a
        pass that raised never delivers ``after_pass``)."""
        now = time.perf_counter()
        while self._open and self._open[-1] >= index:
            self.spans[self._open.pop()][END] = now

    @contextmanager
    def span(self, name: str, layer: str):
        index = self.begin(name, layer)
        try:
            yield
        finally:
            self.end(index)

    def to_dicts(self) -> List[dict]:
        return [{"id": i, "parent": s[PARENT], "request": s[REQUEST],
                 "name": s[NAME], "layer": s[LAYER],
                 "start": s[START], "end": s[END]}
                for i, s in enumerate(self.spans)]


def _statements(program: N.ILProgram) -> int:
    return sum(1 for fn in program.functions.values()
               for _ in fn.all_statements())


class PassSpans(PipelineHook):
    """Per-pass spans (name ``pass`` or ``pass@round``) plus the
    probes that need the program mid-pipeline."""

    def __init__(self, tracer: Tracer, counts: Counter, inlines: bool):
        self.tracer = tracer
        self.counts = counts
        #: The IL the analyses are solved on once: post-inline, or the
        #: front end's when the request turns the inliner off.
        self._solve_after = "inline" if inlines else "front-end"
        self._printed: Dict[str, str] = {}
        self._open: Optional[int] = None

    def before_pass(self, name, function="", round_no=0):
        label = f"{name}@{round_no}" if round_no else name
        self._open = self.tracer.begin(
            label, PASS_LAYERS.get(name, "opt"))

    def after_pass(self, name, program, function="", round_no=0):
        if name != "front-end":
            self.tracer.end(self._open)
        with self.tracer.span("probe", "probe"):
            if name != "front-end":
                self.counts["opt.pass_runs"] += 1
            touched = [function] if function else list(program.functions)
            changed = False
            for fn_name in touched:
                text = format_function(program.functions[fn_name])
                if self._printed.get(fn_name) != text:
                    self._printed[fn_name] = text
                    changed = True
            if changed and name != "front-end":
                self.counts["opt.pass_changes"] += 1
            if name == self._solve_after:
                self.counts["inline.il_stmts_after"] += \
                    _statements(program)
                for fn in program.functions.values():
                    with self.tracer.span("analysis.flowgraph", "probe"):
                        graph = FlowGraph(fn)
                    with self.tracer.span("analysis.liveness", "probe"):
                        Liveness(graph, program.globals)
                    with self.tracer.span("analysis.usedef", "probe"):
                        UseDefChains(graph, program.globals)


class Replayer:
    """One service's worth of shadow state: both cache levels, bounded
    like the service's, and the counts the layers report."""

    def __init__(self, tracer: Tracer, counts: Counter,
                 max_catalog_entries: Optional[int] = None):
        self.tracer = tracer
        self.counts = counts
        self.catalogs = LRUCache(max_catalog_entries)
        self.artifacts = LRUCache()

    # -- server.py: CompileService._prepare ------------------------------

    def replay(self, raw: dict) -> dict:
        span = self.tracer.span
        root = self.tracer.begin("request", "request")
        try:
            with span("validate", "service"):
                request = CompileRequest.from_dict(raw)
            with span("hash", "service"):
                source_sha = content_hash(request.source)
            cache = {"catalog": "hit", "artifact": "hit",
                     "source_sha256": source_sha}
            with span("cache_probe", "service"):
                catalog = self.catalogs.get(source_sha)
            if catalog is None:
                cache["catalog"] = "miss"
                try:
                    catalog = self._build_catalog(request)
                except Exception as exc:
                    self.counts["frontend.rejects"] += 1
                    cache["artifact"] = None
                    with span("envelope", "service"):
                        return error_response(
                            request.id, exc, phase="frontend",
                            kind=classify_exception(exc), cache=cache)
                with span("cache_probe", "service"):
                    self.catalogs.put(source_sha, catalog)
            with span("hash", "service"):
                key = (catalog.il_sha256,
                       request_fingerprint(request, ()))
            with span("cache_probe", "service"):
                payload = self.artifacts.get(key)
            if payload is None:
                cache["artifact"] = "miss"
                payload = self._compile(request)
                with span("cache_probe", "service"):
                    self.artifacts.put(key, payload)
            with span("envelope", "service"):
                return make_response(request.id, "ok", payload=payload,
                                     cache=cache)
        finally:
            self.tracer.end(root)

    # -- cache.py: build_catalog -----------------------------------------

    def _build_catalog(self, request: CompileRequest) -> CatalogEntry:
        span = self.tracer.span
        N.reset_sids()
        program = self._front_end(request)
        with span("print", "il"):
            il_text = format_program(program, show_lines=True)
        with span("catalog", "inline"):
            database = InlineDatabase()
            database.add_program(program)
            blob, names = database.dumps(), database.names()
        with span("hash", "service"):
            return CatalogEntry(
                source_sha256=content_hash(request.source),
                il_sha256=content_hash(il_text), blob=blob, names=names)

    # -- lower.py: compile_to_il, with parser.py: parse opened up --------

    def _front_end(self, request: CompileRequest) -> N.ILProgram:
        span = self.tracer.span
        self.counts["frontend.parses"] += 1
        with span("preprocess", "frontend"):
            text = preprocess(request.source, request.filename)
        with span("lex", "frontend"):
            tokens = tokenize(text, request.filename)
        self.counts["frontend.tokens"] += len(tokens)
        with span("parse", "frontend"):
            unit = Parser(tokens).parse_translation_unit()
        with span("lower", "frontend"):
            program = lower(unit)
        self.counts["frontend.programs"] += 1
        self.counts["frontend.il_stmts"] += _statements(program)
        return program

    # -- worker.py: execute_request + compile_payload --------------------

    def _compile(self, request: CompileRequest) -> dict:
        span = self.tracer.span
        counts = self.counts
        counts["compiles"] += 1
        with span("hash", "service"):
            content_hash(request.source)
        N.reset_sids()
        phases = PassTracer()
        with phases.span("front-end") as args:
            program = self._front_end(request)
            args["statements"] = _statements(program)
            args["functions"] = len(program.functions)
        with span("print", "il"):
            il_text = format_program(program, show_lines=True)
        with span("hash", "service"):
            il_sha = content_hash(il_text)

        hook = PassSpans(self.tracer, counts, request.options.inline)
        pipeline = self.tracer.begin("pipeline", "pipeline")
        result = TitanCompiler(request.options, None, hooks=[hook]) \
            .compile_program(program, filename=request.filename,
                             tracer=phases)
        self.tracer.end(pipeline)
        # compile_program ends with validate_program under its own
        # phase span; re-file that interval as a child span.
        end = self.tracer.spans[pipeline][END]
        validate = phases.event_named("validate").duration_us / 1e6
        self.tracer.spans.append(["validate", "il", pipeline,
                                  self.tracer.request, end - validate,
                                  end])
        counts["opt.il_stmts_after"] += _statements(result.program)
        if result.inline_stats is not None:
            counts["inline.sites_inlined"] += \
                result.inline_stats.sites_inlined
        for stats in result.vectorize_stats.values():
            counts["vectorize.loops_vectorized"] += stats.loops_vectorized
            counts["vectorize.loops_parallelized"] += \
                stats.loops_parallelized

        config = TitanConfig(
            processors=request.options.processors,
            max_vector_length=request.options.vector_length)
        titan_report = None
        run_section = None
        if request.run:
            with span("build", "interp"):
                simulator = TitanSimulator(
                    result.program, config,
                    schedules=result.schedules or None,
                    max_steps=request.max_steps, engine=request.engine)
            with span("run", "interp"):
                titan_report = simulator.run(request.run)
            counts["interp.steps"] += simulator.interpreter.steps
            counts["titan.cycles"] += titan_report.cycles
            run_section = {
                "entry": request.run,
                "engine": request.engine,
                "result": titan_report.result,
                "cycles": titan_report.cycles,
                "seconds": titan_report.seconds,
                "mflops": titan_report.mflops,
                "stdout": titan_report.stdout,
            }
        with span("report", "obs"):
            report = CompilationReport.from_result(
                result, filename=request.filename,
                titan_report=titan_report, config=config).to_dict()
        with span("hash", "service"):
            fingerprint = request_fingerprint(request, ())
        with span("canonicalize", "obs"):
            report = canonicalize_report(report)
        with span("print", "il"):
            listing = format_program(result.program)
        counts["il.listings"] += 1
        counts["il.listing_bytes"] += len(listing)
        with span("artifact", "service"):
            artifact = self._artifact(result.program, request.engine)
        return {
            "filename": request.filename,
            "il_sha256": il_sha,
            "options_fingerprint": fingerprint,
            "catalog": {"db_sources": []},
            "report": report,
            "listing": listing,
            "run": run_section,
            "artifact": artifact,
        }

    @staticmethod
    def _artifact(program: N.ILProgram, engine: str) -> dict:
        if engine == "bytecode":
            interp = make_interpreter(program, engine="bytecode")
            functions = {name: interp.generated_code(name)
                         for name in sorted(program.functions)}
        else:
            functions = {
                name: {"tier": "closure",
                       "params": len(program.functions[name].params),
                       "statements": len(list(
                           program.functions[name].all_statements()))}
                for name in sorted(program.functions)}
        return {"engine": engine, "functions": functions}


# -- spans -> per-layer metrics ------------------------------------------


def self_times(spans: List[list]) -> List[float]:
    """Each span's self time: its duration minus its children's, with
    probe time removed from every span that encloses it.  A probe
    span's own entry is its full duration."""
    excluded = [0.0] * len(spans)
    children = [0.0] * len(spans)
    own = [0.0] * len(spans)
    for index in range(len(spans) - 1, -1, -1):
        span = spans[index]
        duration = span[END] - span[START]
        parent = span[PARENT]
        if span[LAYER] == "probe":
            own[index] = duration
            if parent >= 0 and spans[parent][LAYER] != "probe":
                excluded[parent] += duration
            continue
        adjusted = duration - excluded[index]
        own[index] = adjusted - children[index]
        if parent >= 0:
            excluded[parent] += excluded[index]
            children[parent] += adjusted
    return own


def layer_metrics(spans: List[list], counts: Counter, requests: int,
                  service_wall: float) -> Dict[str, tuple]:
    """``{metric: (value, unit)}`` from one traced run.  ``*_ms`` are
    mean self time per traced request; ``*_share`` are shares of the
    traced request time."""
    own = self_times(spans)
    by_name: Counter = Counter()
    by_layer: Counter = Counter()
    for span, seconds in zip(spans, own):
        by_name[span[LAYER], span[NAME].split("@")[0]] += seconds
        by_layer[span[LAYER]] += seconds
        if "@" in span[NAME]:
            by_name["round", span[NAME].split("@")[1]] += seconds
    in_request = sum(seconds for layer, seconds in by_layer.items()
                     if layer not in ("probe", "wire"))

    def ms(layer: str, name: str) -> tuple:
        return (by_name[layer, name] / requests * 1e3, "ms")

    def share(seconds: float) -> tuple:
        return (seconds / in_request, "share")

    def ratio(num: float, den: float, unit: str) -> tuple:
        return (num / den if den else 0.0, unit)

    lex_s = by_name["frontend", "lex"]
    run_s = by_name["interp", "run"]
    scalar_s = by_name["round", "1"] + by_name["round", "2"]
    compiles = counts["compiles"]
    metrics = {
        "service.validate_ms": ms("service", "validate"),
        "service.hash_ms": ms("service", "hash"),
        "service.cache_probe_ms": ms("service", "cache_probe"),
        "service.envelope_ms": ms("service", "envelope"),
        "service.artifact_ms": ms("service", "artifact"),
        "service.serialize_ms": ms("wire", "serialize"),
        "service.share": share(by_layer["service"]),
        "frontend.preprocess_ms": ms("frontend", "preprocess"),
        "frontend.lex_ms": ms("frontend", "lex"),
        "frontend.parse_ms": ms("frontend", "parse"),
        "frontend.lower_ms": ms("frontend", "lower"),
        "frontend.tokens_per_s": ratio(counts["frontend.tokens"], lex_s,
                                       "1/s"),
        "frontend.il_stmts": ratio(counts["frontend.il_stmts"],
                                   counts["frontend.programs"], "stmts"),
        "frontend.parses_per_request": ratio(counts["frontend.parses"],
                                             requests, "1/req"),
        "frontend.rejects": (counts["frontend.rejects"], "count"),
        "frontend.share": share(by_layer["frontend"]),
        "il.print_ms": ms("il", "print"),
        "il.validate_ms": ms("il", "validate"),
        "il.listing_bytes": ratio(counts["il.listing_bytes"],
                                  counts["il.listings"], "bytes"),
        "inline.ms": (by_layer["inline"] / requests * 1e3, "ms"),
        "inline.sites_inlined": (counts["inline.sites_inlined"],
                                 "count"),
        "inline.il_stmts_after": ratio(counts["inline.il_stmts_after"],
                                       compiles, "stmts"),
    }
    for name in OPT_PASSES:
        metrics[f"opt.{name}_ms"] = ms("opt", name)
    metrics.update({
        "opt.round1_ms": ms("round", "1"),
        "opt.round2_ms": ms("round", "2"),
        "opt.scalar_share": share(scalar_s),
        "opt.share": share(by_layer["opt"]),
        "opt.pass_change_ratio": ratio(counts["opt.pass_changes"],
                                       counts["opt.pass_runs"], "ratio"),
        "opt.il_stmts_after": ratio(counts["opt.il_stmts_after"],
                                    compiles, "stmts"),
        "analysis.flowgraph_ms": ms("probe", "analysis.flowgraph"),
        "analysis.liveness_ms": ms("probe", "analysis.liveness"),
        "analysis.usedef_ms": ms("probe", "analysis.usedef"),
        "vectorize.ms": (by_layer["vectorize"] / requests * 1e3, "ms"),
        "vectorize.loops_vectorized": (
            counts["vectorize.loops_vectorized"], "count"),
        "vectorize.loops_parallelized": (
            counts["vectorize.loops_parallelized"], "count"),
        "sched.schedule_ms": ms("sched", "schedule"),
        "pipeline.driver_ms": ms("pipeline", "pipeline"),
        "interp.build_ms": ms("interp", "build"),
        "interp.run_ms": ms("interp", "run"),
        "interp.steps_per_s": ratio(counts["interp.steps"], run_s,
                                    "1/s"),
        "interp.share": share(by_layer["interp"]),
        "titan.cycles_per_host_s": ratio(counts["titan.cycles"], run_s,
                                         "cycles/s"),
        "titan.host_ns_per_cycle": ratio(run_s * 1e9,
                                         counts["titan.cycles"],
                                         "ns/cycle"),
        "obs.report_ms": ms("obs", "report"),
        "obs.canonicalize_ms": ms("obs", "canonicalize"),
        "trace.coverage_share": share(in_request
                                      - by_layer["request"]),
        "trace.overhead_share": ((in_request - service_wall)
                                 / service_wall, "share"),
    })
    return metrics
