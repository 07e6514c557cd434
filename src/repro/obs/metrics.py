"""Process-wide metrics: labeled counters, gauges, and deterministic
fixed-bucket histograms.

The :class:`MetricsRegistry` is the durable, *mergeable* layer above
the per-run views PR 1–2 built: counters absorb the per-pass
:class:`~repro.obs.counters.CounterStore`, histograms absorb span
durations (:class:`SpanMetricsConsumer`), and a registry serializes to
a canonical, sorted snapshot that

* merges associatively and commutatively across processes (fuzz
  workers under ``--jobs N`` ship their snapshots to the parent, which
  merges in seed order — the merged block is byte-identical to a
  sequential run's);
* exports as Prometheus text format (``--metrics-prom``), as a
  ``metrics`` event line in the ``titancc-events/1`` JSONL log, and as
  the ``metrics`` section of the ``titancc-report/3`` compilation
  report.

Merge semantics: counters and histogram bucket counts/sums add;
gauges take the maximum (the only merge that is order-independent
without timestamps).  Histograms use *fixed* bucket bounds chosen at
first observation, so worker histograms always line up bucket-for-
bucket and a merged histogram equals the element-wise sum.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from typing import Dict, Iterator, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram bounds (seconds-ish scale); ``+inf`` is implicit.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0)

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_FIRST = operator.itemgetter(0)


# Cached: counters are looked up in hot paths, and a process names a
# few dozen metrics.
@functools.lru_cache(maxsize=1024)
def sanitize_name(name: str) -> str:
    """Prometheus metric-name charset (``[a-zA-Z_:][a-zA-Z0-9_:]*``)."""
    cleaned = _NAME_RE.sub("_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _label_key(labels: Optional[Dict[str, object]]) -> LabelKey:
    if not labels:
        return ()
    # No Python-level call per label: counters are looked up in hot
    # paths.
    return tuple(sorted(zip(map(str, labels), map(str, labels.values()))))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


def _format_labels(key: LabelKey) -> str:
    if not key:
        return ""
    quoted = ",".join(f'{k}="{_escape_label_value(v)}"'
                      for k, v in key)
    return "{" + quoted + "}"


class Counter:
    """Monotonically increasing value."""

    kind = "counter"

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, n: float = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n


class Gauge:
    """Point-in-time value (merge takes the max)."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, n: float = 1) -> None:
        self.value += n


class Histogram:
    """Fixed-bucket histogram: cumulative-style export, deterministic
    merge.  ``counts[i]`` counts observations ``<= buckets[i]``
    (non-cumulative internally); the final slot counts the overflow
    (``+inf`` bucket)."""

    kind = "histogram"

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be sorted and "
                             "non-empty")
        self.buckets: Tuple[float, ...] = tuple(float(b)
                                                for b in buckets)
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """Prometheus-style ``(le, cumulative count)`` pairs, ending
        with ``(+inf, count)``."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            out.append((bound, running))
        out.append((math.inf, self.count))
        return out


class MetricsRegistry:
    """Ordered collection of named, labeled metrics."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelKey], object] = {}
        self._kinds: Dict[str, str] = {}

    # -- registration --------------------------------------------------

    def _get(self, name: str, labels: Optional[Dict[str, object]],
             kind: str, factory):
        name = sanitize_name(name)
        prior_kind = self._kinds.get(name)
        if prior_kind is not None and prior_kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {prior_kind}")
        self._kinds[name] = kind
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
        return metric

    def counter(self, name: str,
                labels: Optional[Dict[str, object]] = None) -> Counter:
        return self._get(name, labels, "counter", Counter)

    def gauge(self, name: str,
              labels: Optional[Dict[str, object]] = None) -> Gauge:
        return self._get(name, labels, "gauge", Gauge)

    def histogram(self, name: str,
                  labels: Optional[Dict[str, object]] = None,
                  buckets: Tuple[float, ...] = DEFAULT_BUCKETS
                  ) -> Histogram:
        return self._get(name, labels, "histogram",
                         lambda: Histogram(buckets))

    def clear(self) -> None:
        self._metrics.clear()
        self._kinds.clear()

    # -- queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Tuple[str, LabelKey, object]]:
        for (name, key), metric in self._sorted():
            yield name, key, metric

    def _sorted(self) -> List[Tuple[Tuple[str, LabelKey], object]]:
        return sorted(self._metrics.items(), key=_FIRST)

    def value(self, name: str,
              labels: Optional[Dict[str, object]] = None) -> float:
        """One counter/gauge value (0 when absent); histograms raise."""
        metric = self._metrics.get((sanitize_name(name),
                                    _label_key(labels)))
        if metric is None:
            return 0
        if isinstance(metric, Histogram):
            raise TypeError(f"{name} is a histogram; read .sum/.count")
        return metric.value

    def sum_values(self, name: str) -> float:
        """Sum of a counter/gauge family across all label sets."""
        target = sanitize_name(name)
        return sum(m.value for (n, _), m in self._metrics.items()
                   if n == target and not isinstance(m, Histogram))

    # -- absorption ----------------------------------------------------

    def absorb_counters(self, store,
                        family: str = "titancc_pass_events_total"
                        ) -> None:
        """Fold a per-pass :class:`~repro.obs.counters.CounterStore`
        into one labeled counter family — the registry's pass-counter
        source."""
        from .counters import PROGRAM
        for pass_name, function, counter, value in store:
            self.counter(family, {
                "pass": pass_name,
                "function": function or PROGRAM,
                "counter": counter,
            }).inc(value)

    # -- serialization / merge ----------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Canonical snapshot: sorted by (name, labels), JSON-ready,
        identical bytes for identical contents regardless of
        registration order."""
        counters: List[Dict[str, object]] = []
        gauges: List[Dict[str, object]] = []
        histograms: List[Dict[str, object]] = []
        for (name, key), metric in self._sorted():
            entry: Dict[str, object] = {
                "name": name, "labels": dict(key)}
            if isinstance(metric, Histogram):
                entry.update({"buckets": list(metric.buckets),
                              "counts": list(metric.counts),
                              "sum": metric.sum,
                              "count": metric.count})
                histograms.append(entry)
            elif isinstance(metric, Gauge):
                entry["value"] = metric.value
                gauges.append(entry)
            else:
                entry["value"] = metric.value
                counters.append(entry)
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    @classmethod
    def from_dict(cls, snapshot: Dict[str, object]
                  ) -> "MetricsRegistry":
        registry = cls()
        registry.merge(snapshot)
        return registry

    def merge(self, snapshot: Dict[str, object]) -> None:
        """Fold a serialized snapshot in: counters add, gauges take
        the max, histograms add counts/sums (bucket bounds must
        match)."""
        for entry in snapshot.get("counters", ()):
            self.counter(entry["name"],
                         entry.get("labels")).inc(entry["value"])
        for entry in snapshot.get("gauges", ()):
            gauge = self.gauge(entry["name"], entry.get("labels"))
            gauge.set(max(gauge.value, entry["value"]))
        for entry in snapshot.get("histograms", ()):
            hist = self.histogram(entry["name"], entry.get("labels"),
                                  buckets=tuple(entry["buckets"]))
            if list(hist.buckets) != [float(b)
                                      for b in entry["buckets"]]:
                raise ValueError(
                    f"histogram {entry['name']!r} bucket bounds "
                    f"differ; cannot merge")
            for index, count in enumerate(entry["counts"]):
                hist.counts[index] += count
            hist.sum += entry["sum"]
            hist.count += entry["count"]

    # -- Prometheus export --------------------------------------------

    def format_prometheus(self) -> str:
        """Prometheus text exposition format, sorted and stable."""
        lines: List[str] = []
        seen_type: set = set()
        for name, key, metric in self:
            if name not in seen_type:
                lines.append(f"# TYPE {name} {metric.kind}")
                seen_type.add(name)
            if isinstance(metric, Histogram):
                for bound, running in metric.cumulative():
                    le = "+Inf" if math.isinf(bound) else f"{bound:g}"
                    bucket_key = key + (("le", le),)
                    lines.append(f"{name}_bucket"
                                 f"{_format_labels(bucket_key)} "
                                 f"{running}")
                lines.append(f"{name}_sum{_format_labels(key)} "
                             f"{metric.sum:g}")
                lines.append(f"{name}_count{_format_labels(key)} "
                             f"{metric.count}")
            else:
                lines.append(f"{name}{_format_labels(key)} "
                             f"{metric.value:g}")
        return "\n".join(lines) + ("\n" if lines else "")


class SpanMetricsConsumer:
    """Telemetry consumer folding span durations into a registry:
    ``titancc_spans_total{name,cat}`` and
    ``titancc_span_seconds{name,cat}`` histograms."""

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 buckets: Tuple[float, ...] = DEFAULT_BUCKETS):
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self._buckets = buckets

    def on_span(self, finished) -> None:
        labels = {"name": finished.name, "cat": finished.cat}
        self.registry.counter("titancc_spans_total", labels).inc()
        self.registry.histogram("titancc_span_seconds", labels,
                                buckets=self._buckets) \
            .observe(finished.duration_us / 1e6)


#: The process-wide default registry — what ad-hoc producers without a
#: session of their own record into.
REGISTRY = MetricsRegistry()
