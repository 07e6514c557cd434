"""Tests for the process-wide metrics registry: counter/gauge/
histogram semantics, canonical serialization, deterministic merge, and
the Prometheus exposition format."""

import json

import pytest

from repro.obs.counters import PROGRAM, record_pass_events
from repro.obs.metrics import (DEFAULT_BUCKETS, Counter, Gauge,
                               Histogram, MetricsRegistry,
                               SpanMetricsConsumer, sanitize_name)
from repro.obs.telemetry import Telemetry


class TestPrimitives:
    def test_counter_only_goes_up(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_sets_and_moves(self):
        gauge = Gauge()
        gauge.set(7)
        gauge.inc(-2)
        assert gauge.value == 5

    def test_histogram_bucket_placement(self):
        hist = Histogram(buckets=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            hist.observe(value)
        # counts are per-slot: <=1, <=10, overflow (+inf)
        assert hist.counts == [2, 1, 1]
        assert hist.count == 4
        assert hist.sum == pytest.approx(106.5)
        assert hist.cumulative() == [(1.0, 2), (10.0, 3),
                                     (float("inf"), 4)]

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())
        with pytest.raises(ValueError):
            Histogram(buckets=(2.0, 1.0))

    def test_sanitize_name(self):
        assert sanitize_name("titancc.span-seconds") == \
            "titancc_span_seconds"
        assert sanitize_name("9lives") == "_9lives"


class TestRegistry:
    def test_same_name_same_labels_is_one_metric(self):
        registry = MetricsRegistry()
        registry.counter("hits", {"kind": "a"}).inc()
        registry.counter("hits", {"kind": "a"}).inc()
        registry.counter("hits", {"kind": "b"}).inc()
        assert registry.value("hits", {"kind": "a"}) == 2
        assert registry.sum_values("hits") == 3
        assert len(registry) == 2

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_value_of_absent_metric_is_zero(self):
        assert MetricsRegistry().value("nothing") == 0

    def test_value_of_histogram_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(1)
        with pytest.raises(TypeError):
            registry.value("h")

    def test_iteration_is_sorted_by_name_and_labels(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.counter("a", {"z": "2"})
        registry.counter("a", {"z": "1"})
        order = [(name, key) for name, key, _ in registry]
        assert order == [("a", (("z", "1"),)), ("a", (("z", "2"),)),
                         ("b", ())]


class TestSerialization:
    def _populated(self, flip):
        registry = MetricsRegistry()
        names = ["beta", "alpha"] if flip else ["alpha", "beta"]
        for name in names:
            registry.counter("titancc_%s_total" % name,
                             {"status": "ok"}).inc(2)
        registry.gauge("depth").set(4)
        registry.histogram("sizes", buckets=(10.0, 100.0)).observe(42)
        return registry

    def test_to_dict_is_registration_order_independent(self):
        a = json.dumps(self._populated(False).to_dict(),
                       sort_keys=True)
        b = json.dumps(self._populated(True).to_dict(),
                       sort_keys=True)
        assert a == b

    def test_from_dict_round_trips(self):
        original = self._populated(False)
        clone = MetricsRegistry.from_dict(original.to_dict())
        assert clone.to_dict() == original.to_dict()

    def test_merge_adds_counters_and_histograms_maxes_gauges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for registry, count, depth in ((a, 2, 9), (b, 3, 4)):
            registry.counter("runs").inc(count)
            registry.gauge("depth").set(depth)
            hist = registry.histogram("sizes", buckets=(10.0,))
            for _ in range(count):
                hist.observe(5)
        a.merge(b.to_dict())
        assert a.value("runs") == 5
        assert a.value("depth") == 9  # max, not sum
        merged = a.histogram("sizes", buckets=(10.0,))
        assert merged.counts == [5, 0] and merged.count == 5

    def test_merge_is_order_independent(self):
        snapshots = []
        for seed in (1, 2, 3):
            registry = MetricsRegistry()
            registry.counter("n", {"w": str(seed)}).inc(seed)
            registry.histogram("t").observe(seed / 4.0)
            snapshots.append(registry.to_dict())
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for snap in snapshots:
            forward.merge(snap)
        for snap in reversed(snapshots):
            backward.merge(snap)
        assert forward.to_dict() == backward.to_dict()

    def test_merge_rejects_mismatched_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("t", buckets=(1.0, 2.0)).observe(1)
        b.histogram("t", buckets=(1.0, 3.0)).observe(1)
        with pytest.raises(ValueError):
            a.merge(b.to_dict())


class TestPrometheus:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("titancc_runs_total",
                         {"status": "ok"}).inc(3)
        registry.gauge("titancc_depth").set(2)
        text = registry.format_prometheus()
        assert "# TYPE titancc_runs_total counter" in text
        assert 'titancc_runs_total{status="ok"} 3' in text
        assert "# TYPE titancc_depth gauge" in text
        assert "titancc_depth 2" in text
        assert text.endswith("\n")

    def test_histogram_exports_cumulative_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        text = registry.format_prometheus()
        assert 't_bucket{le="1"} 1' in text
        assert 't_bucket{le="10"} 2' in text
        assert 't_bucket{le="+Inf"} 3' in text
        assert "t_sum 55.5" in text
        assert "t_count 3" in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", {"msg": 'a"b\nc'}).inc()
        assert 'msg="a\\"b\\nc"' in registry.format_prometheus()

    def test_empty_registry_formats_empty(self):
        assert MetricsRegistry().format_prometheus() == ""


class TestAbsorption:
    def test_pass_events_label_pass_function_counter(self):
        registry = MetricsRegistry()
        record_pass_events(registry, [
            {"pass": "vectorize", "function": "daxpy",
             "counter": "loops_vectorized", "value": 2},
            {"pass": "fold", "function": PROGRAM,
             "counter": "folded", "value": 5},
            {"pass": "fold", "function": PROGRAM,
             "counter": "cold", "value": 0}])
        assert registry.value("titancc_pass_events_total", {
            "pass": "vectorize", "function": "daxpy",
            "counter": "loops_vectorized"}) == 2
        assert registry.value("titancc_pass_events_total", {
            "pass": "fold", "function": PROGRAM,
            "counter": "folded"}) == 5
        # Zero-valued counters are exported too.
        assert 'counter="cold",function="<program>",pass="fold"} 0' \
            in registry.format_prometheus()

    def test_span_metrics_consumer_counts_and_times(self):
        registry = MetricsRegistry()
        consumer = SpanMetricsConsumer(registry)
        clock = iter(float(i) for i in range(10))
        source = Telemetry(consumers=(consumer,),
                           clock=lambda: next(clock),
                           forward_global=False)
        with source.span("compile", cat="phase"):
            pass
        labels = {"name": "compile", "cat": "phase"}
        assert registry.value("titancc_spans_total", labels) == 1
        hist = registry.histogram("titancc_span_seconds", labels,
                                  buckets=DEFAULT_BUCKETS)
        assert hist.count == 1
        assert hist.sum == pytest.approx(1.0)
