"""Per-request compile execution — the service's worker half.

:func:`execute_request` is a module-level, picklable function (the
jobs-layer contract) that turns one :class:`CompileRequest` into one
response envelope.  It never lets a per-request failure escape: front
end diagnostics become ``kind: "reject"`` error responses, anything
else escaping the compiler becomes ``kind: "crash"`` (the fuzz
harness's classification), and the pool lives on either way.

The compile itself mirrors ``TitanCompiler.compile`` exactly — same
tracer spans, same spans' args — but runs the front end separately so
the parsed IL can be hashed (the level-B cache key) before the
pipeline mutates it in place.  A request payload is therefore
byte-identical to what the CLI's direct path produces after
canonicalization, which is what makes artifact-cache hits
observationally invisible.

Or it resumes: in process, the server hands over its mid-end
snapshots (``TitanCompiler.resume``), and a request whose IL and
mid-end options a snapshot already covers runs the back end only — no
parse, no inlining, no scalar round — with the same spans (their
``args``; the resumed ones take no time) and the same payload bytes.
"""

from __future__ import annotations

import dataclasses
import os
from functools import partial
from typing import Dict, Optional, Tuple

from ..il import nodes as N
from ..il.printer import format_program
from ..inline.database import InlineDatabase
from ..obs.report import CompilationReport
from ..obs.trace import PassTracer
from ..pipeline import (BACK_END_OPTIONS, TitanCompiler,
                        _program_statements, titan_config)
from ..titan.simulator import TitanSimulator
from .cache import (CatalogEntry, LRUCache, ParsedSource, build_catalog,
                    content_hash, options_fingerprint, parse_source)
from .protocol import (CompileRequest, ServiceError, canonicalize_report,
                       error_response, make_response)


def request_fingerprint(request: CompileRequest,
                        db_shas) -> str:
    """The level-B "options fingerprint": every request fact beyond
    the source text that can change the payload — full compiler
    options, filename (reports embed it), simulation entry/engine/step
    budget, and the content hashes of the inline databases."""
    return options_fingerprint(request.options, extra={
        "filename": request.filename,
        "run": request.run,
        "engine": request.engine,
        "max_steps": request.max_steps,
        "db": list(db_shas),
    })


def _classify(exc: BaseException) -> str:
    from ..fuzz.harness import classify_exception
    return classify_exception(exc)


def _artifact_section(result, request: CompileRequest) -> dict:
    """The compiled-engine artifact: per-function metadata.  The
    ``"tier": "closure"`` label is a wire constant, not a description
    (no closure tier exists any more): a simulated request runs
    generated code with the cost model's accounting inline (the tree
    oracle only where the generator falls back), but E19's replay
    compares payload bytes, so the label stays until a benchmark-only
    change moves both sides.  Deterministic — it ships inside the
    cached payload."""
    functions: Dict[str, dict] = {}
    program = result.program
    for name in sorted(program.functions):
        fn = program.functions[name]
        functions[name] = {
            "tier": "closure",
            "params": len(fn.params),
            "statements": len(list(fn.all_statements())),
        }
    return {"engine": request.engine, "functions": functions}


def mid_end_fingerprint(request: CompileRequest, db_shas) -> str:
    """The mid-end snapshot's options fingerprint: what
    :func:`request_fingerprint` covers, less every fact only the back
    end or the simulation reads — the :data:`BACK_END_OPTIONS` fields
    (blanked), the entry point, engine and step budget.  The filename
    stays: remarks carry it."""
    options = dataclasses.replace(
        request.options, **dict.fromkeys(BACK_END_OPTIONS))
    return options_fingerprint(options, extra={
        "filename": request.filename, "db": list(db_shas)})


def _database(request: CompileRequest,
              catalogs: Dict[str, CatalogEntry]
              ) -> Optional[InlineDatabase]:
    """The inline database of the request's ``db_sources``, from the
    pre-built catalogs where there are any."""
    database = None
    for db_source in request.db_sources:
        entry = catalogs.get(content_hash(db_source))
        if entry is None:
            try:
                entry = build_catalog(db_source)
            except Exception as exc:
                exc._titancc_phase = "catalog"
                raise
        if database is None:
            database = InlineDatabase()
        database.entries.update(entry.database().entries)
    return database


def compile_payload(request: CompileRequest,
                    catalogs: Optional[Dict[str, CatalogEntry]] = None,
                    parsed: Optional[ParsedSource] = None,
                    stage: Optional[Tuple[LRUCache, tuple]] = None
                    ) -> dict:
    """Compile one request into its deterministic payload.  Raises on
    failure (callers classify); ``catalogs`` maps content hashes to
    pre-built §7 catalogs for the request's ``db_sources`` — any
    missing ones are built here.  ``parsed`` is the front end's result
    for ``request.source`` when the caller has just produced it (the
    in-process server on a catalog miss): the compile consumes that
    program instead of parsing the same bytes again.

    ``stage`` is ``(snapshots, key)``: the in-process server's mid-end
    snapshots and this request's ``(IL hash, mid_end_fingerprint)``.
    A snapshot under ``key`` is resumed — no parse, no inlining, no
    scalar round — and a compile that finds none leaves one there."""
    db_shas = [content_hash(db_source)
               for db_source in request.db_sources]
    snapshots, key = stage or (None, None)
    mid_end = snapshots.get(key) if snapshots is not None else None
    if mid_end is not None:
        il_sha = key[0]
        result = TitanCompiler(request.options).resume(mid_end)
    else:
        compiler = TitanCompiler(request.options,
                                 _database(request, catalogs or {}))
        # Front end split out of TitanCompiler.compile (same span,
        # same args) so the parsed IL is hashable before optimization.
        # Sids rewind first (in parse_source): the payload must not
        # depend on what this process parsed earlier (catalog builds
        # included), so every compile sees the counter state a fresh
        # ``titancc`` process would — and a handed-over parse resumes
        # the counter where that parse left it.
        tracer = PassTracer()
        try:
            with tracer.span("front-end") as args:
                if parsed is None:
                    parsed = parse_source(request.source,
                                          request.filename)
                else:
                    N.reset_sids(parsed.next_sid)
                program = parsed.program
                args["statements"] = _program_statements(program)
                args["functions"] = len(program.functions)
        except Exception as exc:
            # Phase tag for error responses: the server's prepare pass
            # reports front-end failures as phase="frontend", so the
            # direct path must classify identically (the transparency
            # battery diffs the two).
            exc._titancc_phase = "frontend"
            raise
        il_sha = parsed.il_sha256
        result = compiler.compile_program(
            program, filename=request.filename, tracer=tracer,
            on_mid_end=None if snapshots is None
            else partial(snapshots.put, key))

    config = titan_config(request.options)
    titan_report = None
    run_section = None
    if request.run:
        with TitanSimulator(result.program, config,
                            schedules=result.schedules or None,
                            max_steps=request.max_steps,
                            engine=request.engine) as simulator:
            titan_report = simulator.run(request.run)
        run_section = {
            "entry": request.run,
            "engine": request.engine,
            "result": titan_report.result,
            "cycles": titan_report.cycles,
            "seconds": titan_report.seconds,
            "mflops": titan_report.mflops,
            "stdout": titan_report.stdout,
        }

    report = CompilationReport.from_result(
        result, filename=request.filename, titan_report=titan_report,
        config=config)
    # No source hash here, deliberately: the payload is a pure
    # function of (front-end IL, options fingerprint) — per-request
    # provenance lives in the response envelope's cache metadata, so
    # whitespace-variant sources sharing an artifact still each see
    # their own source hash.
    return {
        "filename": request.filename,
        "il_sha256": il_sha,
        "options_fingerprint": request_fingerprint(request, db_shas),
        "catalog": {"db_sources": db_shas},
        "report": canonicalize_report(report.to_dict()),
        "listing": format_program(result.program),
        "run": run_section,
        "artifact": _artifact_section(result, request),
    }


def execute_request(request, catalogs=None, cache=None,
                    parsed=None, stage=None) -> dict:
    """The full per-request contract: request (dict or
    :class:`CompileRequest`) in, response envelope out, exceptions
    never.  This is both the in-process direct path (what the
    transparency tests diff against) and the body of the pool task;
    ``stage`` is :func:`compile_payload`'s."""
    request_id = request.get("id") if isinstance(request, dict) \
        else getattr(request, "id", None)
    try:
        request = CompileRequest.from_dict(request)
    except ServiceError as exc:
        return error_response(request_id, exc, phase="request",
                              kind="invalid", cache=cache)
    cache = dict(cache) if cache else \
        {"catalog": None, "artifact": None}
    cache.setdefault("source_sha256", content_hash(request.source))
    try:
        payload = compile_payload(request, catalogs, parsed, stage)
    except ServiceError as exc:
        return error_response(request.id, exc, phase="request",
                              kind="invalid", cache=cache)
    except Exception as exc:
        phase = getattr(exc, "_titancc_phase", "compile")
        return error_response(request.id, exc, phase=phase,
                              kind=_classify(exc), cache=cache)
    return make_response(request.id, "ok", payload=payload,
                         cache=cache)


def pool_task(task: dict) -> dict:
    """Jobs-layer entry point: ``{"request": CompileRequest,
    "catalogs": {sha: CatalogEntry}, "parsed": ParsedSource | None,
    "stage": (snapshots, key) | None}`` in, response plus a private
    ``_worker`` stamp (stripped by the server) out.  ``parsed`` is
    popped: the program it carries is consumed by the compile and must
    not outlive it.  ``stage`` only ever comes in-process: a live
    snapshot does not cross a process boundary."""
    response = execute_request(task["request"],
                               catalogs=task.get("catalogs"),
                               parsed=task.pop("parsed", None),
                               stage=task.get("stage"))
    response["_worker"] = {"pid": os.getpid()}
    return response
