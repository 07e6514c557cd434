"""Observability: telemetry spans, metrics, remarks, tracing,
profiling and structured logging.

The unified-telemetry stack, over the per-run views below:

* :mod:`.telemetry` — hierarchical, context-local spans over the
  front end, every pipeline pass, dependence analysis, the inliner,
  the scheduler, both execution engines, and the Titan simulator;
  process-global session with pluggable consumers, JSONL event log;
* :mod:`.metrics` — process-wide registry of labeled counters,
  gauges, and deterministic fixed-bucket histograms; merges across
  processes, exports Prometheus text and JSONL;
* :mod:`.schemas` — the one registry of every JSON artifact schema
  tag, plus validated atomic artifact writing;
* :mod:`.log` — structured stderr/JSONL logger for driver programs;
* :mod:`.attrib` / :mod:`.diff` — cycle waterfalls and report/bench
  diffs (a baseline's earlier values are its git history).

The per-run layers (all off by default):

* :mod:`.remarks` — LLVM-style per-decision remarks from every
  transforming pass (``--remarks``);
* :mod:`.trace` — wall-time + work spans per pipeline phase (a telemetry
  consumer), exported as Chrome trace-event JSON
  (``--trace-json``);
* :mod:`.profiler` — per-loop / per-function cycle attribution inside
  the Titan simulator (``--profile``).
"""

from .log import Logger, get_logger
from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      REGISTRY, SpanMetricsConsumer)
from .profiler import (FunctionProfile, HotLoopProfiler, LoopInfo,
                       LoopProfile, ProfileReport, collect_loop_info)
from .remarks import (ANALYSIS, MISSED, TRANSFORMED, Remark,
                      RemarkCollector)
from .telemetry import (EventLogWriter, Span, SpanHook, TELEMETRY,
                        Telemetry, session, span)
from .trace import PassTracer, TraceEvent

__all__ = [
    "ANALYSIS", "MISSED", "TRANSFORMED", "Remark", "RemarkCollector",
    "PassTracer", "TraceEvent",
    "Span", "Telemetry", "TELEMETRY", "SpanHook", "EventLogWriter",
    "session", "span",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "REGISTRY",
    "SpanMetricsConsumer",
    "Logger", "get_logger",
    "FunctionProfile", "HotLoopProfiler", "LoopInfo", "LoopProfile",
    "ProfileReport", "collect_loop_info",
]
