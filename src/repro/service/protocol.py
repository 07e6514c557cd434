"""The service wire protocol (``titancc-service/1``).

A **request** is a JSON object (or a :class:`CompileRequest`)::

    {"id": 7,                    # echoed back; any JSON value
     "source": "int main() ...", # required: C source text
     "filename": "demo.c",       # report/listing attribution
     "options": {"vectorize": false, ...},   # CompilerOptions fields
     "run": "main",              # optional: simulate this entry point
     "engine": "compiled",       # execution engine for --run
     "max_steps": 50000000,      # simulation step budget
     "db_sources": ["..."]}      # C sources compiled into §7 catalogs

A **response** is a schema-validated envelope::

    {"schema": "titancc-service/1", "id": 7,
     "status": "ok" | "error",
     "cache": {"catalog": "hit"|"miss", "artifact": "hit"|"miss"|
               "coalesced"|null},       # metadata, NOT part of payload
     "payload": {...} | null,
     "error": null | {"phase", "kind", "type", "message"}}

The ``payload`` is the deterministic part — source/IL hashes, options
fingerprint, the **canonicalized** ``titancc-report/4`` document, the
optimized-IL listing, simulation results, and the engine artifact.  A
cache hit returns the stored payload verbatim, so cold, warm, and
direct compilations are byte-identical there; only the envelope's
``cache`` metadata reveals where the bytes came from.

Canonicalization strips exactly the wall-clock observations from a
report — trace span timings — because those are the only
nondeterministic bytes a compile produces.
Wall times are not lost: the service records them in its own metrics
(``titancc_service_request_seconds``), outside the deterministic
surface.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..interp import ENGINES
from ..obs import schemas
from ..pipeline import CompilerOptions

SERVICE_SCHEMA = schemas.SERVICE

#: CompilerOptions field names, for request validation.
OPTION_FIELDS = tuple(f.name for f in
                      dataclasses.fields(CompilerOptions))

#: Request keys beyond ``options``.
REQUEST_FIELDS = ("id", "source", "filename", "options", "run",
                  "engine", "max_steps", "db_sources")


class ServiceError(Exception):
    """A malformed request (never a compiler failure)."""


def options_from_dict(data: Dict[str, object]) -> CompilerOptions:
    """Build :class:`CompilerOptions` from a request's ``options``
    object, rejecting unknown fields loudly (a typo that silently
    compiled at defaults would poison the cache key *and* the user's
    expectations)."""
    if not isinstance(data, dict):
        raise ServiceError(
            f"options must be an object, not {type(data).__name__}")
    unknown = sorted(set(data) - set(OPTION_FIELDS))
    if unknown:
        raise ServiceError(
            f"unknown option(s): {', '.join(unknown)}")
    return CompilerOptions(**data)


@dataclass
class CompileRequest:
    """One compile request, validated and picklable (the form the
    jobs layer ships to worker processes)."""

    source: str
    id: object = None
    filename: str = "<service>"
    options: CompilerOptions = field(default_factory=CompilerOptions)
    #: Entry point to simulate on the Titan model (``None`` = compile
    #: only).
    run: Optional[str] = None
    engine: str = "compiled"
    max_steps: int = 50_000_000
    #: C sources whose procedures become §7 inline databases for this
    #: compile (each is cataloged through the level-A cache).
    db_sources: Tuple[str, ...] = ()

    @classmethod
    def from_dict(cls, data: object) -> "CompileRequest":
        if isinstance(data, CompileRequest):
            return data
        if not isinstance(data, dict):
            raise ServiceError(
                f"request must be an object, not "
                f"{type(data).__name__}")
        unknown = sorted(set(data) - set(REQUEST_FIELDS))
        if unknown:
            raise ServiceError(
                f"unknown request field(s): {', '.join(unknown)}")
        source = data.get("source")
        if not isinstance(source, str):
            raise ServiceError("request needs a string 'source'")
        engine = data.get("engine", "compiled")
        if engine not in ENGINES:
            raise ServiceError(
                f"unknown engine {engine!r}; known: "
                f"{', '.join(ENGINES)}")
        db_sources = data.get("db_sources", ())
        if not all(isinstance(s, str) for s in db_sources):
            raise ServiceError("db_sources must be source strings")
        try:
            options = options_from_dict(data.get("options", {}))
        except TypeError as exc:  # wrong value type for a field
            raise ServiceError(f"bad options: {exc}") from None
        return cls(source=source, id=data.get("id"),
                   filename=data.get("filename", "<service>"),
                   options=options, run=data.get("run"),
                   engine=engine,
                   max_steps=int(data.get("max_steps", 50_000_000)),
                   db_sources=tuple(db_sources))


def make_response(request_id: object, status: str,
                  payload: Optional[dict] = None,
                  cache: Optional[dict] = None,
                  error: Optional[dict] = None) -> dict:
    doc = {
        "schema": SERVICE_SCHEMA,
        "id": request_id,
        "status": status,
        "cache": cache or {"catalog": None, "artifact": None},
        "payload": payload,
        "error": error,
    }
    schemas.validate_document(doc)
    return doc


def error_response(request_id: object, exc: BaseException,
                   phase: str, kind: str,
                   cache: Optional[dict] = None) -> dict:
    return make_response(request_id, "error", cache=cache, error={
        "phase": phase, "kind": kind,
        "type": type(exc).__name__, "message": str(exc)})


def canonicalize_report(doc: dict) -> dict:
    """Strip the wall-clock observations from a ``titancc-report/4``
    document: per-span ``start_us``/``duration_us`` in the trace
    section.  Everything else a compile reports is deterministic, so
    the canonical report is byte-stable across runs, processes, and
    cache tiers."""
    out = dict(doc)
    out["trace"] = [
        {"name": event["name"], "cat": event["cat"],
         "args": event["args"]}
        for event in doc.get("trace", ())]
    return out
