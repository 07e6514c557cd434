"""Tests for the session dashboard: artifact loading, the derived
views, and the static-HTML renderer."""

import json
import xml.etree.ElementTree as ET

import pytest

from repro.obs import schemas
from repro.obs.dashboard import SessionData, main, render
from repro.obs.metrics import MetricsRegistry


def write_events(directory, lines):
    with open(str(directory / "events.jsonl"), "w") as handle:
        for line in lines:
            line.setdefault("schema", schemas.EVENTS)
            handle.write(json.dumps(line) + "\n")


def span(name, cat, dur_us, **args):
    return {"type": "span", "name": name, "cat": cat,
            "ts_us": 0.0, "dur_us": dur_us, "id": 1, "parent": None,
            "depth": 0, "args": args}


@pytest.fixture
def session(tmp_path):
    """A session directory with an event log and a fuzz summary."""
    registry = MetricsRegistry()
    registry.counter("titancc_loops_total",
                     {"function": "daxpy",
                      "status": "vectorized"}).inc(2)
    registry.counter("titancc_loops_total",
                     {"function": "solve", "status": "scalar"}).inc()
    registry.counter("titancc_loop_miss_reasons_total",
                     {"reason": "dependence cycle"}).inc(3)
    registry.counter("titancc_fuzz_programs_total",
                     {"status": "ok"}).inc(9)
    registry.counter("titancc_fuzz_programs_total",
                     {"status": "reject"}).inc(1)
    write_events(tmp_path, [
        span("front-end", "phase", 2e6),
        span("vectorize", "pass", 1e6),
        span("vectorize", "pass", 5e5),
        span("engine-run", "engine", 9e6),  # not compile-side
        {"type": "worker", "seed": 3, "count": 5, "seconds": 2.0,
         "failures": 0},
        {"type": "worker", "seed": 8, "count": 5, "seconds": 4.0,
         "failures": 1},
        {"type": "metrics", "metrics": registry.to_dict()},
    ])
    (tmp_path / "summary.json").write_text(json.dumps({
        "schema": schemas.FUZZ, "seed": 3, "count": 10, "ok": 9,
        "rejected": 1, "divergences": 0, "crashes": 0,
        "failures": []}))
    return tmp_path


class TestSessionData:
    def test_pass_walltimes_sum_compile_side_spans(self, session):
        walltimes = SessionData(str(session)).pass_walltimes()
        assert walltimes == [("front-end", pytest.approx(2.0)),
                             ("vectorize", pytest.approx(1.5))]

    def test_walltimes_fall_back_to_metric_histograms(self, tmp_path):
        registry = MetricsRegistry()
        registry.histogram("titancc_span_seconds",
                           {"name": "fold", "cat": "pass"}) \
            .observe(0.25)
        write_events(tmp_path, [
            {"type": "metrics", "metrics": registry.to_dict()}])
        walltimes = SessionData(str(tmp_path)).pass_walltimes()
        assert walltimes == [("fold", pytest.approx(0.25))]

    def test_loop_coverage_and_miss_reasons(self, session):
        data = SessionData(str(session))
        assert data.loop_coverage() == [
            ("daxpy", {"vectorized": 2}), ("solve", {"scalar": 1})]
        assert data.miss_reasons() == [("dependence cycle", 3)]

    def test_fuzz_outcomes_sorted_by_count(self, session):
        assert SessionData(str(session)).fuzz_outcomes() == [
            ("ok", 9), ("reject", 1)]

    def test_worker_throughput_rates(self, session):
        rows = SessionData(str(session)).worker_throughput()
        assert [(label, rate) for label, rate, _ in rows] == [
            ("seed 3", pytest.approx(2.5)),
            ("seed 8", pytest.approx(1.25))]

    def test_summary_workers_used_when_event_log_absent(self,
                                                        tmp_path):
        (tmp_path / "summary.json").write_text(json.dumps({
            "schema": schemas.FUZZ, "seed": 0, "count": 4, "ok": 4,
            "rejected": 0, "divergences": 0, "crashes": 0,
            "failures": [], "workers": [
                {"seed": 0, "count": 4, "seconds": 2.0}]}))
        rows = SessionData(str(tmp_path)).worker_throughput()
        assert [(label, rate) for label, rate, _ in rows] == [
            ("seed 0", pytest.approx(2.0))]

    def test_malformed_artifacts_are_skipped(self, tmp_path):
        (tmp_path / "events.jsonl").write_text("not json\n\n")
        (tmp_path / "summary.json").write_text("{broken")
        (tmp_path / "BENCH_x.json").write_text('{"schema": "other"}')
        (tmp_path / "x.attrib.json").write_text("[1,")
        data = SessionData(str(tmp_path))
        assert data.spans == [] and data.summary is None
        assert data.attribs == []

    def test_attrib_docs_loaded_from_dir_and_explain(self, tmp_path):
        doc = {"schema": schemas.ATTRIB, "source": "d.c",
               "steps": [], "waterfall": [], "functions": {},
               "loops": [], "totals": {}}
        (tmp_path / "a.attrib.json").write_text(json.dumps(doc))
        explain = tmp_path / "explain"
        explain.mkdir()
        (explain / "explain_e1.attrib.json").write_text(
            json.dumps({**doc, "source": "e1"}))
        data = SessionData(str(tmp_path))
        assert sorted(d["source"] for d in data.attribs) == \
            ["d.c", "e1"]


@pytest.fixture
def service_session(tmp_path):
    """A session directory holding a compilation-service telemetry
    export (what ``python -m repro.service --events-jsonl`` writes)."""
    registry = MetricsRegistry()
    registry.counter("titancc_service_requests_total",
                     {"status": "ok"}).inc(7)
    registry.counter("titancc_service_requests_total",
                     {"status": "error"}).inc(1)
    for event, count in (("hit", 6), ("miss", 2), ("evict", 1)):
        registry.counter("titancc_service_cache_events_total",
                         {"level": "artifact",
                          "event": event}).inc(count)
    registry.counter("titancc_service_cache_events_total",
                     {"level": "catalog", "event": "miss"}).inc(2)
    write_events(tmp_path, [
        {"type": "service_worker", "pid": 101, "requests": 2,
         "seconds": 1.0},
        {"type": "service_worker", "pid": 102, "requests": 4,
         "seconds": 1.0},
        {"type": "metrics", "metrics": registry.to_dict()},
    ])
    return tmp_path


class TestServicePanel:
    def test_derived_views(self, service_session):
        data = SessionData(str(service_session))
        assert data.service_requests() == [("ok", 7), ("error", 1)]
        events = dict(data.service_cache_events())
        assert events["artifact"] == {"hit": 6, "miss": 2,
                                      "evict": 1}
        assert events["catalog"] == {"miss": 2}
        throughput = data.service_worker_throughput()
        assert [(label, rate) for label, rate, _ in throughput] == \
            [("pid 101", 2.0), ("pid 102", 4.0)]

    def test_panel_renders(self, service_session):
        html = render(SessionData(str(service_session)))
        assert "Compilation service" in html
        assert "service requests" in html
        # 6 hits / 8 lookups = 75%.
        assert "75%" in html
        assert "pid 102" in html

    def test_absent_without_service_metrics(self, session):
        assert "Compilation service" not in \
            render(SessionData(str(session)))


class TestRender:
    def test_all_sections_present(self, session):
        html = render(SessionData(str(session)))
        for heading in ("Pass wall time", "Vector coverage",
                        "Vectorization miss reasons",
                        "Fuzz throughput", "Fuzz outcomes",
                        "spans recorded"):
            assert heading in html

    def test_svgs_are_well_formed(self, session):
        html = render(SessionData(str(session)))
        svgs = html.split("<svg")[1:]
        assert len(svgs) >= 3
        for chunk in svgs:
            ET.fromstring("<svg" + chunk.split("</svg>")[0]
                          + "</svg>")
        assert "NaN" not in html

    def test_empty_session_renders_hint(self, tmp_path):
        html = render(SessionData(str(tmp_path)))
        assert "No telemetry artifacts found" in html

    def test_partial_session_renders_without_raising(self, tmp_path):
        # Only a truncated event log and a partial attrib doc: every
        # panel must degrade, not raise.
        (tmp_path / "events.jsonl").write_text(
            '{"type": "span", "name": "x"}\nnot json\n')
        (tmp_path / "p.attrib.json").write_text(json.dumps({
            "schema": schemas.ATTRIB, "source": "partial",
            "steps": [], "waterfall": [{"pass": "inline"}],
            "functions": {}, "loops": [], "totals": {}}))
        html = render(SessionData(str(tmp_path)))
        assert "Cycle attribution" in html
        assert "partial" in html

    def test_bench_documents_do_not_change_the_page(self, session):
        before = render(SessionData(str(session)))
        (session / "BENCH_e13_engine.json").write_text(json.dumps({
            "schema": schemas.BENCH, "name": "e13_engine",
            "variants": {"daxpy": {"host_engine_speedup_steps": 12.0}}}))
        assert render(SessionData(str(session))) == before

    def test_waterfall_panel(self, session):
        (session / "daxpy.attrib.json").write_text(json.dumps({
            "schema": schemas.ATTRIB, "source": "daxpy.c",
            "steps": [],
            "waterfall": [
                {"pass": "front-end", "events": 1, "delta": 0.0,
                 "cycles_after": 1000.0},
                {"pass": "vectorize", "events": 2, "delta": -700.0,
                 "cycles_after": 300.0},
                {"pass": "inline", "events": 1, "delta": 40.0,
                 "cycles_after": 340.0}],
            "functions": {}, "loops": [],
            "totals": {"o0_cycles": 1000.0, "final_cycles": 340.0,
                       "delta": -660.0, "sum_of_deltas": -660.0,
                       "exact": True}}))
        html = render(SessionData(str(session)))
        assert "Cycle attribution — daxpy.c" in html
        assert "deltas sum exactly: yes" in html
        # Diverging bars: savings and additions take different slots.
        assert "class='seg s3'" in html and "class='seg s2'" in html

    def test_directory_name_is_escaped(self, tmp_path):
        evil = tmp_path / "a<b>&c"
        evil.mkdir()
        html = render(SessionData(str(evil)))
        assert "a<b>&c" not in html
        assert "a&lt;b&gt;&amp;c" in html


class TestMain:
    def test_writes_dashboard_html(self, session, capsys):
        assert main([str(session)]) == 0
        html = (session / "dashboard.html").read_text()
        assert html.startswith("<!doctype html>")
        assert "Pass wall time" in html
        assert "dashboard: wrote" in capsys.readouterr().err

    def test_explicit_output_path(self, session, tmp_path):
        out = tmp_path / "elsewhere" / "index.html"
        assert main([str(session), "-o", str(out)]) == 0
        assert out.exists()

    def test_dash_streams_to_stdout(self, session, capsys):
        assert main([str(session), "-o", "-"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("<!doctype html>")
        assert "dashboard: wrote" not in captured.err

    def test_missing_directory_exits_2(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2
        assert "not a directory" in capsys.readouterr().err
