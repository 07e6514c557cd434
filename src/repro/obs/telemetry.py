"""Hierarchical telemetry spans — one timing substrate for the whole
toolchain.

A *span* is a named, timed region with open ``args``; spans nest, and
the current span is context-local (``contextvars``), so a pass span
opened by the pipeline hook becomes a child of the phase span the
driver opened, and an ``engine-codegen`` span lands under the
``engine-run`` that triggered the lazy code generation.  The same API
instruments the front end, every pipeline pass (via
:class:`SpanHook` on the :class:`~repro.pipeline.PipelineHook` seam),
dependence-graph construction, the inliner, the loop scheduler, both
execution engines, and the Titan simulator.

Consumers subscribe to *finished* spans:

* :class:`~repro.obs.trace.PassTracer` (the ``--trace-json`` Chrome
  exporter) is one consumer — per-compile, always on, exactly as
  before;
* :class:`EventLogWriter` streams spans (and metric snapshots, and
  structured log records) as ``titancc-events/1`` JSONL — the session
  artifact the dashboard renders;
* :class:`~repro.obs.metrics.SpanMetricsConsumer` folds span durations
  into registry histograms.

**Fully off is observation-free.**  The process-global session
(:data:`TELEMETRY`) has no consumers by default; :func:`span` then
yields an empty dict without touching the clock or the context stack —
the same pattern as the pipeline's empty-hooks default.  Per-compile
tracers forward their spans to the global session's consumers when any
are installed, so enabling a session observes everything without
re-plumbing each producer.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    TextIO, Tuple)

__all__ = [
    "Span", "Telemetry", "SpanHook", "EventLogWriter", "TELEMETRY",
    "span", "session", "add_consumer", "remove_consumer", "enabled",
]

#: Context-local stack of open span ids: ``(span_id, depth)`` pairs.
#: Module-level so nesting works across Telemetry instances (a pass
#: span from the global session parents under a phase span from a
#: per-compile tracer).
_STACK: ContextVar[Tuple[Tuple[int, int], ...]] = ContextVar(
    "titancc_span_stack", default=())

_NEXT_ID = [0]


def _new_id() -> int:
    _NEXT_ID[0] += 1
    return _NEXT_ID[0]


@dataclass
class Span:
    """One finished span, delivered to consumers at close."""

    name: str
    cat: str
    #: Raw clock reading at open (``time.perf_counter`` seconds);
    #: consumers subtract their own origin for relative timestamps.
    start: float
    duration_us: float
    span_id: int
    parent_id: Optional[int]
    depth: int
    args: Dict[str, object] = field(default_factory=dict)

    def start_us(self, origin: float) -> float:
        return (self.start - origin) * 1e6


@dataclass
class _OpenSpan:
    name: str
    cat: str
    start: float
    span_id: int
    parent_id: Optional[int]
    depth: int
    args: Dict[str, object]
    token: object


class Telemetry:
    """A span source: times regions, notifies consumers at close.

    ``consumers`` are objects with an ``on_span(span)`` method.  When
    ``forward_global`` is true (the default for per-compile tracers),
    finished spans are also delivered to the global session's
    consumers, so one enabled session observes every producer in the
    process.  With no consumers reachable, :meth:`span` is a no-op
    that never reads the clock.
    """

    def __init__(self, consumers: Sequence[object] = (),
                 clock: Callable[[], float] = time.perf_counter,
                 forward_global: bool = True):
        self.consumers: List[object] = list(consumers)
        self._clock = clock
        self.origin = clock()
        self._forward_global = forward_global

    # -- sinks ---------------------------------------------------------

    def _sinks(self) -> Tuple[object, ...]:
        if self._forward_global and TELEMETRY is not self \
                and TELEMETRY.consumers:
            return tuple(self.consumers) + tuple(TELEMETRY.consumers)
        return tuple(self.consumers)

    @property
    def enabled(self) -> bool:
        return bool(self._sinks())

    # -- span lifecycle ------------------------------------------------

    def begin(self, name: str, cat: str = "phase",
              **static_args) -> Optional[_OpenSpan]:
        """Open a span without a ``with`` block (the pipeline-hook
        path, where open and close are separate callbacks).  Returns
        ``None`` — and records nothing — when no consumer is
        reachable."""
        if not self._sinks():
            return None
        stack = _STACK.get()
        parent_id, depth = (stack[-1][0], stack[-1][1] + 1) \
            if stack else (None, 0)
        span_id = _new_id()
        token = _STACK.set(stack + ((span_id, depth),))
        return _OpenSpan(name=name, cat=cat, start=self._clock(),
                         span_id=span_id, parent_id=parent_id,
                         depth=depth, args=dict(static_args),
                         token=token)

    def end(self, open_span: Optional[_OpenSpan]) -> Optional[Span]:
        if open_span is None:
            return None
        end = self._clock()
        _STACK.reset(open_span.token)
        finished = Span(name=open_span.name, cat=open_span.cat,
                        start=open_span.start,
                        duration_us=(end - open_span.start) * 1e6,
                        span_id=open_span.span_id,
                        parent_id=open_span.parent_id,
                        depth=open_span.depth, args=open_span.args)
        for sink in self._sinks():
            sink.on_span(finished)
        return finished

    @contextmanager
    def span(self, name: str, cat: str = "phase",
             **static_args) -> Iterator[Dict[str, object]]:
        """Time a region.  The yielded dict collects extra ``args``
        (work metrics) to attach to the finished span.  Disabled —
        no consumer reachable — this yields a throwaway dict without
        reading the clock."""
        if not self._sinks():
            yield {}
            return
        open_span = self.begin(name, cat, **static_args)
        try:
            yield open_span.args
        finally:
            self.end(open_span)


#: The process-global telemetry session.  No consumers by default:
#: every producer in the repo stays observation-free until a session
#: (CLI ``--events-jsonl``, the E14 benchmark, a test) attaches one.
TELEMETRY = Telemetry(forward_global=False)


def span(name: str, cat: str = "phase", **static_args):
    """Global-session span — what engine/analysis code calls."""
    return TELEMETRY.span(name, cat, **static_args)


def enabled() -> bool:
    return bool(TELEMETRY.consumers)


def add_consumer(consumer: object) -> None:
    TELEMETRY.consumers.append(consumer)


def remove_consumer(consumer: object) -> None:
    try:
        TELEMETRY.consumers.remove(consumer)
    except ValueError:
        pass


@contextmanager
def session(*consumers: object) -> Iterator[None]:
    """Attach consumers to the global session for a scope."""
    for consumer in consumers:
        add_consumer(consumer)
    try:
        yield
    finally:
        for consumer in consumers:
            remove_consumer(consumer)


def current_span_id() -> Optional[int]:
    stack = _STACK.get()
    return stack[-1][0] if stack else None


# ---------------------------------------------------------------------------
# Pipeline instrumentation
# ---------------------------------------------------------------------------


class SpanHook:
    """Turns the pipeline's per-pass hook callbacks into spans — a
    duck-typed :class:`~repro.pipeline.PipelineHook` (not a subclass,
    to keep ``obs`` importable without the pipeline).

    Installed (first, so checker work in later hooks stays outside the
    pass span) whenever a telemetry session is active; with the seam's
    empty-hooks default the pipeline remains observation-free.  The
    driver's stray ``after_pass("front-end", ...)`` without a paired
    ``before_pass`` is ignored via the name check, and a pass that
    raises simply leaves its span unclosed (the crash is attributed by
    the checker, not the trace).
    """

    def __init__(self, telemetry: Optional[Telemetry] = None):
        self._telemetry = telemetry or TELEMETRY
        self._open: List[Tuple[str, Optional[_OpenSpan]]] = []

    def before_pass(self, name: str, function: str = "",
                    round_no: int = 0) -> None:
        self._open.append(
            (name, self._telemetry.begin(name, cat="pass",
                                         function=function,
                                         round=round_no)))

    def after_pass(self, name: str, program, function: str = "",
                   round_no: int = 0) -> None:
        if self._open and self._open[-1][0] == name:
            _, open_span = self._open.pop()
            self._telemetry.end(open_span)


# ---------------------------------------------------------------------------
# JSONL event log (titancc-events/1)
# ---------------------------------------------------------------------------


class EventLogWriter:
    """Streams telemetry as ``titancc-events/1`` JSONL.

    One JSON object per line; every line carries the schema tag and a
    ``type`` (``span`` | ``metrics`` | ``log`` | ``worker`` | …), so a
    consumer can dispatch line-by-line without framing.  This is the
    session artifact (``events.jsonl``) the dashboard renders.
    """

    def __init__(self, stream_or_path, clock=time.perf_counter):
        from .schemas import EVENTS
        self._schema = EVENTS
        self._clock = clock
        self.origin = clock()
        if isinstance(stream_or_path, str):
            self._stream: TextIO = open(stream_or_path, "w")
            self._owns = True
        else:
            self._stream = stream_or_path
            self._owns = False
        self.lines_written = 0

    # -- consumer protocol --------------------------------------------

    def on_span(self, finished: Span) -> None:
        from .trace import jsonable
        self.emit("span", name=finished.name, cat=finished.cat,
                  ts_us=round(finished.start_us(self.origin), 3),
                  dur_us=round(finished.duration_us, 3),
                  id=finished.span_id, parent=finished.parent_id,
                  depth=finished.depth, args=jsonable(finished.args))

    # -- direct emission ----------------------------------------------

    def emit(self, type_: str, **fields) -> None:
        record = {"schema": self._schema, "type": type_,
                  "pid": os.getpid()}
        record.update(fields)
        self._stream.write(json.dumps(record, ensure_ascii=True)
                           + "\n")
        self.lines_written += 1

    def write_metrics(self, registry) -> None:
        """Snapshot a :class:`~repro.obs.metrics.MetricsRegistry` as
        one ``metrics`` event line."""
        self.emit("metrics", metrics=registry.to_dict())

    def close(self) -> None:
        self._stream.flush()
        if self._owns:
            self._stream.close()

    def __enter__(self) -> "EventLogWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
