"""Static HTML session dashboard: ``python -m repro.obs.dashboard DIR``.

Renders one self-contained HTML file (inline CSS + SVG, no external
dependencies, light/dark via ``prefers-color-scheme``) from whatever
telemetry artifacts a session directory holds:

* ``events.jsonl`` (``titancc-events/1``) — span lines feed the
  pass/phase wall-time breakdown; ``worker`` lines and the final
  ``metrics`` snapshot feed the fuzz views;
* ``summary.json`` (``titancc-fuzz/1``) — outcome counts, per-worker
  throughput, and the merged metrics block;
* ``*.attrib.json`` / any ``titancc-attrib/1`` document (from
  ``--attrib-json`` or ``regress.py --explain``) — per-pass cycle
  attribution waterfalls.

Every chart keeps a table twin (the colors are never the only
channel), values are direct-labeled, and SVG ``<title>`` elements give
per-mark hover detail.
"""

from __future__ import annotations

import argparse
import glob
import html
import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from . import schemas
from .metrics import MetricsRegistry

# Categorical slots 1-3 (validated adjacent + all-pairs in both
# modes); sequential single hue = slot 1 blue.  Dark steps are the
# same hues re-stepped for the dark surface, not a second palette.
LIGHT = {"surface": "#fcfcfb", "grid": "#e7e6e2", "text": "#0b0b0b",
         "muted": "#52514e", "s1": "#2a78d6", "s2": "#eb6834",
         "s3": "#1baf7a"}
DARK = {"surface": "#1a1a19", "grid": "#34332f", "text": "#ffffff",
        "muted": "#c3c2b7", "s1": "#3987e5", "s2": "#d95926",
        "s3": "#199e70"}

BAR_H = 18          # bar thickness (<= 24px, air in the band)
BAR_GAP = 8
CHART_W = 640
LABEL_W = 190
VALUE_W = 110


# ---------------------------------------------------------------------------
# Session loading
# ---------------------------------------------------------------------------


class SessionData:
    """Everything the dashboard can find in one session directory."""

    def __init__(self, directory: str):
        self.directory = directory
        self.spans: List[dict] = []
        self.workers: List[dict] = []
        self.service_workers: List[dict] = []
        self.summary: Optional[dict] = None
        self.metrics = MetricsRegistry()
        self.attribs: List[dict] = []
        self._load()

    def _load(self) -> None:
        events_path = os.path.join(self.directory, "events.jsonl")
        if os.path.exists(events_path):
            with open(events_path) as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        event = json.loads(line)
                    except ValueError:
                        continue
                    kind = event.get("type")
                    if kind == "span":
                        self.spans.append(event)
                    elif kind == "worker":
                        self.workers.append(event)
                    elif kind == "service_worker":
                        self.service_workers.append(event)
                    elif kind == "metrics":
                        self.metrics.merge(event.get("metrics") or {})
        summary_path = os.path.join(self.directory, "summary.json")
        if os.path.exists(summary_path):
            try:
                with open(summary_path) as handle:
                    self.summary = json.load(handle)
            except ValueError:
                self.summary = None
        if self.summary:
            if not self.workers:
                self.workers = list(self.summary.get("workers") or ())
            if not len(self.metrics):
                self.metrics.merge(self.summary.get("metrics") or {})
        # Attribution waterfalls: any titancc-attrib/1 document in the
        # session dir or its explain/ subdir (regress.py --explain).
        for pattern in (os.path.join(self.directory, "*.json"),
                        os.path.join(self.directory, "explain",
                                     "*.json")):
            for path in sorted(glob.glob(pattern)):
                try:
                    with open(path) as handle:
                        doc = json.load(handle)
                except (OSError, ValueError):
                    continue
                if isinstance(doc, dict) \
                        and doc.get("schema") == schemas.ATTRIB:
                    self.attribs.append(doc)

    # -- derived views -------------------------------------------------

    def pass_walltimes(self) -> List[Tuple[str, float]]:
        """``(span name, total seconds)`` for compile-side spans,
        largest first.  Span lines win; the metrics histograms are the
        fallback when the event log only carried a snapshot."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            if span.get("cat") in ("phase", "pass", "analysis"):
                name = str(span.get("name"))
                totals[name] = totals.get(name, 0.0) + \
                    float(span.get("dur_us", 0.0)) / 1e6
        if not totals:
            for name, key, metric in self.metrics:
                if name != "titancc_span_seconds" \
                        or metric.kind != "histogram":
                    continue
                labels = dict(key)
                if labels.get("cat") in ("phase", "pass", "analysis"):
                    span_name = labels.get("name", "?")
                    totals[span_name] = totals.get(span_name, 0.0) + \
                        metric.sum
        return sorted(totals.items(), key=lambda kv: -kv[1])

    def loop_coverage(self) -> List[Tuple[str, Dict[str, int]]]:
        """``(function, {status: count})`` from the loops family."""
        rows: Dict[str, Dict[str, int]] = {}
        for name, key, metric in self.metrics:
            if name != "titancc_loops_total":
                continue
            labels = dict(key)
            fn = labels.get("function", "?")
            rows.setdefault(fn, {})[labels.get("status", "?")] = \
                int(metric.value)
        return sorted(rows.items())

    def miss_reasons(self) -> List[Tuple[str, int]]:
        out = []
        for name, key, metric in self.metrics:
            if name == "titancc_loop_miss_reasons_total":
                out.append((dict(key).get("reason", "?"),
                            int(metric.value)))
        return sorted(out, key=lambda kv: -kv[1])

    def fuzz_outcomes(self) -> List[Tuple[str, int]]:
        out = []
        for name, key, metric in self.metrics:
            if name == "titancc_fuzz_programs_total":
                out.append((dict(key).get("status", "?"),
                            int(metric.value)))
        return sorted(out, key=lambda kv: -kv[1])

    def worker_throughput(self) -> List[Tuple[str, float, dict]]:
        """``(label, programs/sec, raw entry)`` per fuzz worker."""
        rows = []
        for entry in self.workers:
            seconds = float(entry.get("seconds") or 0.0)
            count = float(entry.get("count") or 0.0)
            rate = count / seconds if seconds > 0 else 0.0
            rows.append((f"seed {entry.get('seed')}", rate, entry))
        return rows

    def service_requests(self) -> List[Tuple[str, int]]:
        """``(status, count)`` from the service request counters."""
        out = []
        for name, key, metric in self.metrics:
            if name == "titancc_service_requests_total":
                out.append((dict(key).get("status", "?"),
                            int(metric.value)))
        return sorted(out, key=lambda kv: -kv[1])

    def service_cache_events(self) -> List[Tuple[str, Dict[str, int]]]:
        """``(level, {event: count})`` for the two cache levels."""
        rows: Dict[str, Dict[str, int]] = {}
        for name, key, metric in self.metrics:
            if name != "titancc_service_cache_events_total":
                continue
            labels = dict(key)
            rows.setdefault(labels.get("level", "?"), {})[
                labels.get("event", "?")] = int(metric.value)
        return sorted(rows.items())

    def service_worker_throughput(self) -> List[Tuple[str, float,
                                                      dict]]:
        """``(label, requests/sec, raw entry)`` per service worker."""
        rows = []
        for entry in self.service_workers:
            seconds = float(entry.get("seconds") or 0.0)
            count = float(entry.get("requests") or 0.0)
            rate = count / seconds if seconds > 0 else 0.0
            rows.append((f"pid {entry.get('pid')}", rate, entry))
        return rows

    def attribution_waterfalls(self) -> List[Tuple[str, List[dict],
                                                   dict]]:
        """``(source, waterfall rows, totals)`` per attrib doc."""
        out = []
        for doc in self.attribs:
            out.append((str(doc.get("source", "?")),
                        list(doc.get("waterfall") or ()),
                        dict(doc.get("totals") or {})))
        return out


# ---------------------------------------------------------------------------
# SVG + HTML helpers
# ---------------------------------------------------------------------------


def _esc(text: object) -> str:
    return html.escape(str(text), quote=True)


def _fmt(value: float) -> str:
    if value >= 100:
        return f"{value:,.0f}"
    if value >= 1:
        return f"{value:.2f}".rstrip("0").rstrip(".")
    return f"{value:.4f}".rstrip("0").rstrip(".")


def _bar_chart(rows: Sequence[Tuple[str, float, str]],
               unit: str) -> str:
    """Horizontal single-series bar chart (sequential hue, slot 1):
    4px-rounded data ends, value labels at the tip, hover titles."""
    if not rows:
        return "<p class='empty'>no data</p>"
    peak = max(value for _, value, _ in rows) or 1.0
    height = len(rows) * (BAR_H + BAR_GAP) + BAR_GAP
    plot_w = CHART_W - LABEL_W - VALUE_W
    parts = [f"<svg role='img' width='{CHART_W}' height='{height}' "
             f"viewBox='0 0 {CHART_W} {height}'>"]
    for index, (label, value, tip) in enumerate(rows):
        y = BAR_GAP + index * (BAR_H + BAR_GAP)
        width = max(2.0, plot_w * value / peak)
        parts.append(
            f"<g><title>{_esc(tip)}</title>"
            f"<text x='{LABEL_W - 8}' y='{y + BAR_H - 5}' "
            f"text-anchor='end' class='lbl'>{_esc(label)}</text>"
            # Square at the baseline, 4px rounded data end: the body
            # rect plus a baseline patch squaring the left corners.
            f"<rect x='{LABEL_W}' y='{y}' width='{width:.1f}' "
            f"height='{BAR_H}' rx='4' class='bar'/>"
            f"<rect x='{LABEL_W}' y='{y}' width='4' "
            f"height='{BAR_H}' class='bar'/>"
            f"<text x='{LABEL_W + width + 6:.1f}' "
            f"y='{y + BAR_H - 5}' class='val'>"
            f"{_fmt(value)}{_esc(unit)}</text></g>")
    parts.append("</svg>")
    return "".join(parts)


def _stacked_chart(rows: Sequence[Tuple[str, Dict[str, int]]],
                   statuses: Sequence[str]) -> str:
    """Horizontal stacked bars (categorical slots, 2px surface gaps)
    for per-function loop coverage."""
    if not rows:
        return "<p class='empty'>no data</p>"
    peak = max(sum(counts.values()) for _, counts in rows) or 1
    height = len(rows) * (BAR_H + BAR_GAP) + BAR_GAP
    plot_w = CHART_W - LABEL_W - VALUE_W
    parts = [f"<svg role='img' width='{CHART_W}' height='{height}' "
             f"viewBox='0 0 {CHART_W} {height}'>"]
    for index, (label, counts) in enumerate(rows):
        y = BAR_GAP + index * (BAR_H + BAR_GAP)
        x = float(LABEL_W)
        total = sum(counts.values())
        parts.append(
            f"<text x='{LABEL_W - 8}' y='{y + BAR_H - 5}' "
            f"text-anchor='end' class='lbl'>{_esc(label)}</text>")
        for slot, status in enumerate(statuses):
            count = counts.get(status, 0)
            if not count:
                continue
            width = plot_w * count / peak
            # 2px surface gap between touching segments.
            parts.append(
                f"<g><title>{_esc(label)}: {count} {_esc(status)} "
                f"loop(s)</title>"
                f"<rect x='{x:.1f}' y='{y}' "
                f"width='{max(2.0, width - 2):.1f}' "
                f"height='{BAR_H}' class='seg s{slot % 3 + 1}'/></g>")
            x += width
        parts.append(
            f"<text x='{x + 6:.1f}' y='{y + BAR_H - 5}' "
            f"class='val'>{total}</text>")
    parts.append("</svg>")
    return "".join(parts)


def _waterfall_chart(rows: Sequence[Tuple[str, float, str]]) -> str:
    """Diverging horizontal bars around a zero baseline: cycle savings
    (negative deltas) grow left in slot 3, cost increases grow right
    in slot 2."""
    if not rows:
        return "<p class='empty'>no data</p>"
    peak = max(abs(value) for _, value, _ in rows) or 1.0
    height = len(rows) * (BAR_H + BAR_GAP) + BAR_GAP
    plot_w = CHART_W - LABEL_W - VALUE_W
    zero_x = LABEL_W + plot_w / 2.0
    parts = [f"<svg role='img' width='{CHART_W}' height='{height}' "
             f"viewBox='0 0 {CHART_W} {height}'>",
             f"<line x1='{zero_x:.1f}' y1='0' x2='{zero_x:.1f}' "
             f"y2='{height}' class='axis'/>"]
    for index, (label, value, tip) in enumerate(rows):
        y = BAR_GAP + index * (BAR_H + BAR_GAP)
        width = max(2.0, (plot_w / 2.0) * abs(value) / peak)
        slot = "s2" if value > 0 else "s3"
        x = zero_x if value > 0 else zero_x - width
        text_x = zero_x + width + 6 if value > 0 \
            else zero_x - width - 6
        anchor = "start" if value > 0 else "end"
        parts.append(
            f"<g><title>{_esc(tip)}</title>"
            f"<text x='{LABEL_W - 8}' y='{y + BAR_H - 5}' "
            f"text-anchor='end' class='lbl'>{_esc(label)}</text>"
            f"<rect x='{x:.1f}' y='{y}' width='{width:.1f}' "
            f"height='{BAR_H}' rx='4' class='seg {slot}'/>"
            f"<text x='{text_x:.1f}' y='{y + BAR_H - 5}' "
            f"text-anchor='{anchor}' class='val'>"
            f"{value:+,.0f}</text></g>")
    parts.append("</svg>")
    return "".join(parts)


def _table(headers: Sequence[str],
           rows: Sequence[Sequence[object]]) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(cell)}</td>" for cell in row)
        + "</tr>" for row in rows)
    return (f"<table><thead><tr>{head}</tr></thead>"
            f"<tbody>{body}</tbody></table>")


def _legend(entries: Sequence[Tuple[str, int]]) -> str:
    chips = "".join(
        f"<span class='key'><span class='chip s{slot}'></span>"
        f"{_esc(label)}</span>" for label, slot in entries)
    return f"<div class='legend'>{chips}</div>"


def _stat(value: str, caption: str) -> str:
    return (f"<div class='stat'><div class='stat-value'>"
            f"{_esc(value)}</div><div class='stat-caption'>"
            f"{_esc(caption)}</div></div>")


def _css() -> str:
    light, dark = LIGHT, DARK

    def block(palette: Dict[str, str]) -> str:
        return (f"--surface:{palette['surface']};"
                f"--grid:{palette['grid']};"
                f"--text:{palette['text']};"
                f"--muted:{palette['muted']};"
                f"--s1:{palette['s1']};--s2:{palette['s2']};"
                f"--s3:{palette['s3']};")

    return f"""
:root {{ color-scheme: light; {block(light)} }}
@media (prefers-color-scheme: dark) {{
  :root {{ color-scheme: dark; {block(dark)} }}
}}
body {{ background: var(--surface); color: var(--text);
  font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto;
  max-width: 60rem; padding: 0 1rem; }}
h1 {{ font-size: 1.4rem; }} h2 {{ font-size: 1.05rem;
  margin-top: 2.2rem; }}
.sub {{ color: var(--muted); }}
.stats {{ display: flex; gap: 2.5rem; flex-wrap: wrap;
  margin: 1.5rem 0; }}
.stat-value {{ font-size: 2.4rem; font-weight: 600; }}
.stat-caption {{ color: var(--muted); }}
svg {{ display: block; }}
svg text {{ font: 12px system-ui, sans-serif;
  fill: var(--text); }}
svg .lbl {{ fill: var(--muted); }}
svg .val {{ fill: var(--text); }}
.bar, .seg.s1 {{ fill: var(--s1); }}
.seg.s2 {{ fill: var(--s2); }} .seg.s3 {{ fill: var(--s3); }}
.axis {{ stroke: var(--grid); stroke-width: 1; }}
.legend {{ margin: .4rem 0; }}
.key {{ margin-right: 1.2rem; color: var(--muted); }}
.chip {{ display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin-right: .35rem; }}
.chip.s1 {{ background: var(--s1); }}
.chip.s2 {{ background: var(--s2); }}
.chip.s3 {{ background: var(--s3); }}
table {{ border-collapse: collapse; margin: .6rem 0; }}
th, td {{ text-align: left; padding: .15rem 1.2rem .15rem 0;
  border-bottom: 1px solid var(--grid); }}
th {{ color: var(--muted); font-weight: 500; }}
details summary {{ color: var(--muted); cursor: pointer;
  margin-top: .4rem; }}
.empty {{ color: var(--muted); font-style: italic; }}
"""


# ---------------------------------------------------------------------------
# Page assembly
# ---------------------------------------------------------------------------


def render(data: SessionData) -> str:
    sections: List[str] = []

    # Headline stats.
    walltimes = data.pass_walltimes()
    total_compile = sum(seconds for _, seconds in walltimes)
    stats = []
    if walltimes:
        stats.append(_stat(f"{_fmt(total_compile)}s",
                           "compile-side span time"))
    span_count = len(data.spans) or int(sum(
        metric.value for name, _, metric in data.metrics
        if name == "titancc_spans_total"))
    if span_count:
        stats.append(_stat(f"{span_count:,}", "spans recorded"))
    if data.summary:
        stats.append(_stat(str(data.summary.get("count", 0)),
                           "fuzz programs"))
        failures = len(data.summary.get("failures") or ())
        stats.append(_stat(str(failures), "fuzz failures"))
    if stats:
        sections.append(f"<div class='stats'>{''.join(stats)}</div>")

    # Pass wall-time breakdown.
    if walltimes:
        rows = [(name, seconds,
                 f"{name}: {_fmt(seconds)}s total "
                 f"({100 * seconds / total_compile:.1f}% of "
                 f"compile-side span time)")
                for name, seconds in walltimes[:14]]
        sections.append(
            "<h2>Pass wall time</h2>"
            "<p class='sub'>total seconds per compile-side span "
            "(phases, passes, analyses), largest first</p>"
            + _bar_chart(rows, "s")
            + "<details><summary>table</summary>"
            + _table(("span", "seconds"),
                     [(n, _fmt(s)) for n, s in walltimes])
            + "</details>")

    # Vector coverage + miss reasons.
    coverage = data.loop_coverage()
    if coverage:
        statuses = sorted({status for _, counts in coverage
                           for status in counts})[:3]
        sections.append(
            "<h2>Vector coverage</h2>"
            "<p class='sub'>loops per function by final status</p>"
            + _legend([(status, slot + 1)
                       for slot, status in enumerate(statuses)])
            + _stacked_chart(coverage, statuses)
            + _table(("function",) + tuple(statuses),
                     [(fn,) + tuple(counts.get(s, 0)
                                    for s in statuses)
                      for fn, counts in coverage]))
    reasons = data.miss_reasons()
    if reasons:
        sections.append(
            "<h2>Vectorization miss reasons</h2>"
            + _table(("reason", "loops"), reasons))

    # Fuzz throughput.
    workers = data.worker_throughput()
    if workers:
        rows = [(label, rate,
                 f"{label}: {entry.get('count')} programs in "
                 f"{_fmt(float(entry.get('seconds') or 0))}s, "
                 f"{entry.get('failures', 0)} failure(s)")
                for label, rate, entry in workers]
        sections.append(
            "<h2>Fuzz throughput</h2>"
            "<p class='sub'>differential programs per second, one "
            "bar per worker chunk</p>"
            + _bar_chart(rows, " prog/s")
            + _table(("worker", "programs", "seconds", "failures"),
                     [(label, entry.get("count"),
                       _fmt(float(entry.get("seconds") or 0)),
                       entry.get("failures", 0))
                      for label, _, entry in workers]))
    outcomes = data.fuzz_outcomes()
    if outcomes:
        sections.append(
            "<h2>Fuzz outcomes</h2>"
            + _table(("status", "programs"), outcomes))

    # Compilation service: request counters, cache hit rates, and
    # per-worker throughput from the service's telemetry export.
    service_requests = data.service_requests()
    cache_events = data.service_cache_events()
    if service_requests or cache_events:
        total_requests = sum(count for _, count in service_requests)
        service_stats = []
        if total_requests:
            service_stats.append(_stat(f"{total_requests:,}",
                                       "service requests"))
        artifact = dict(cache_events).get("artifact", {})
        lookups = artifact.get("hit", 0) + artifact.get("miss", 0)
        if lookups:
            rate = 100.0 * artifact.get("hit", 0) / lookups
            service_stats.append(_stat(f"{rate:.0f}%",
                                       "artifact cache hit rate"))
        parts = ["<h2>Compilation service</h2>"]
        if service_stats:
            parts.append(
                f"<div class='stats'>{''.join(service_stats)}</div>")
        if service_requests:
            parts.append(_table(("status", "requests"),
                                service_requests))
        if cache_events:
            events = sorted({event for _, counts in cache_events
                             for event in counts})
            parts.append(
                "<p class='sub'>cache events per level (content-"
                "addressed: catalog = parsed-IL procedures by source "
                "hash, artifact = compiled payloads by IL hash + "
                "options fingerprint)</p>"
                + _table(("level",) + tuple(events),
                         [(level,) + tuple(counts.get(e, 0)
                                           for e in events)
                          for level, counts in cache_events]))
        service_workers = data.service_worker_throughput()
        if service_workers:
            rows = [(label, rate,
                     f"{label}: {entry.get('requests')} request(s) "
                     f"in {_fmt(float(entry.get('seconds') or 0))}s")
                    for label, rate, entry in service_workers]
            parts.append(
                "<p class='sub'>dispatched requests per second, one "
                "bar per worker process</p>"
                + _bar_chart(rows, " req/s")
                + _table(("worker", "requests", "seconds"),
                         [(label, entry.get("requests"),
                           _fmt(float(entry.get("seconds") or 0)))
                          for label, _, entry in service_workers]))
        sections.append("".join(parts))

    # Per-pass cycle-attribution waterfalls.  Entries are read with
    # defaults so a partial/hand-edited document renders instead of
    # raising.
    waterfalls = data.attribution_waterfalls()
    for source, rows, totals in waterfalls:
        chart_rows = []
        table_rows = []
        for entry in rows:
            name = str(entry.get("pass", "?"))
            delta = float(entry.get("delta") or 0.0)
            after = float(entry.get("cycles_after") or 0.0)
            events = entry.get("events", 0)
            table_rows.append((name, events, f"{delta:+,.1f}",
                               f"{after:,.1f}"))
            if name != "front-end":
                chart_rows.append(
                    (name, delta,
                     f"{name}: {delta:+,.1f} estimated cycles over "
                     f"{events} event(s), {after:,.1f} after"))
        o0 = float(totals.get("o0_cycles") or 0.0)
        final = float(totals.get("final_cycles") or 0.0)
        sections.append(
            f"<h2>Cycle attribution — {_esc(source)}</h2>"
            f"<p class='sub'>static Titan estimate: "
            f"{o0:,.1f} cycles at O0 &rarr; {final:,.1f} final "
            f"({float(totals.get('delta') or 0.0):+,.1f}); per-pass "
            f"deltas sum exactly: "
            f"{'yes' if totals.get('exact') else 'NO'}</p>"
            + _legend([("cycles saved", 3), ("cycles added", 2)])
            + _waterfall_chart(chart_rows)
            + "<details><summary>table</summary>"
            + _table(("pass", "events", "delta", "cycles after"),
                     table_rows)
            + "</details>")

    if not sections:
        sections.append("<p class='empty'>No telemetry artifacts "
                        "found — run with --events-jsonl, fuzz with "
                        "--out, or record benchmarks first.</p>")

    return (
        "<!doctype html><html lang='en'><head>"
        "<meta charset='utf-8'>"
        "<meta name='viewport' "
        "content='width=device-width,initial-scale=1'>"
        "<title>titancc session dashboard</title>"
        f"<style>{_css()}</style></head><body>"
        "<h1>titancc session dashboard</h1>"
        f"<p class='sub'>{_esc(data.directory)}</p>"
        + "".join(sections)
        + "</body></html>\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.dashboard",
        description="Render a static HTML dashboard from a session "
                    "directory's telemetry artifacts.")
    parser.add_argument("session_dir",
                        help="directory holding events.jsonl / "
                             "summary.json / *.attrib.json")
    parser.add_argument("-o", "--output", default=None,
                        help="output HTML path (default "
                             "<session_dir>/dashboard.html; '-' for "
                             "stdout)")
    args = parser.parse_args(argv)
    if not os.path.isdir(args.session_dir):
        print(f"dashboard: {args.session_dir} is not a directory",
              file=sys.stderr)
        return 2
    data = SessionData(args.session_dir)
    output = args.output or os.path.join(args.session_dir,
                                         "dashboard.html")
    schemas.atomic_write_text(output, render(data))
    if output != schemas.STDOUT:
        print(f"dashboard: wrote {output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
