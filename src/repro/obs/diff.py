"""Structured diffing of forensics artifacts (``titancc-reportdiff/1``).

Two entry points, one output schema:

* :func:`diff_reports` — compare two ``titancc-report/3`` documents:
  estimated/measured cycles, per-loop vectorization coverage, pass
  counters, remark population, and metrics.
* :func:`diff_benches` — compare two ``titancc-bench/1`` documents
  variant-by-variant, metric-by-metric, under the direction rule the
  regression gate uses (:func:`bench_direction`; ``regress.py
  --explain`` calls this to make a red gate self-diagnosing).

Every observed difference is classified **regression**, **improvement**
or **neutral**; the emitted document is schema-validated like every
other artifact, so downstream consumers (CI, the autotuner reward
signal) can trust its shape.  CLI::

    python -m repro.obs.diff A.json B.json [--json OUT] [--gate]

The diff reads *A as the baseline* and *B as the candidate*: a metric
that got worse going A→B is a regression.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

from . import schemas

DIFF_SCHEMA = schemas.REPORTDIFF

#: Loop-status ladder: higher is better.  A loop moving down the
#: ladder between two compiles is the classic silent performance bug
#: this tool exists to catch.
LOOP_STATUS_RANK = {"serial": 0, "parallelized": 1, "vectorized": 2,
                    "vectorized+parallel": 3}

#: Relative change below this is classified neutral (floating-point
#: metrics only; integral metrics compare exactly).
NEUTRAL_REL = 1e-9


# ---------------------------------------------------------------------------
# Entry construction
# ---------------------------------------------------------------------------


def _entry(metric: str, base, other, classification: str,
           note: str = "", **extra) -> Dict[str, object]:
    row: Dict[str, object] = {"metric": metric, "base": base,
                              "other": other,
                              "class": classification}
    if isinstance(base, (int, float)) and isinstance(other,
                                                     (int, float)):
        row["delta"] = other - base
        if base:
            row["relative"] = (other - base) / abs(base)
    if note:
        row["note"] = note
    row.update(extra)
    return row


def _classify_numeric(metric: str, base: float, other: float,
                      lower_is_better: Optional[bool],
                      note: str = "") -> Dict[str, object]:
    if lower_is_better is None or base == other:
        cls = "neutral"
    elif abs(other - base) <= NEUTRAL_REL * max(abs(base),
                                                abs(other)):
        cls = "neutral"
    elif (other > base) == lower_is_better:
        cls = "regression"
    else:
        cls = "improvement"
    return _entry(metric, base, other, cls, note)


def _report_cycles(doc: dict) -> Tuple[Optional[float], str]:
    """Best-available cycle figure of a report: measured simulation
    cycles when present, else the static estimate's total."""
    titan = doc.get("titan") or {}
    measured = titan.get("measured")
    if measured and measured.get("cycles") is not None:
        return float(measured["cycles"]), "measured"
    static = titan.get("static") or {}
    totals = static.get("totals") or {}
    if totals:
        # vector_startup_cycles is a sub-share of the compute/memory
        # buckets; adding it would double count.
        cycles = (totals.get("vector_compute_cycles", 0.0)
                  + totals.get("vector_memory_cycles", 0.0)
                  + totals.get("scheduled_cycles", 0.0))
        # The static section covers only vector/scheduled work; an
        # all-zero total (e.g. a scalar compile that was never run)
        # means "no figure", not "zero cycles" — comparing it against
        # a vectorized compile would brand every vectorization a
        # cycles regression.
        if cycles > 0:
            return float(cycles), "static"
    return None, "none"


def _counter_map(doc: dict) -> Dict[Tuple[str, str, str], float]:
    out: Dict[Tuple[str, str, str], float] = {}
    for rec in doc.get("counters") or []:
        key = (str(rec.get("pass")), str(rec.get("function")),
               str(rec.get("counter")))
        out[key] = out.get(key, 0) + rec.get("value", 0)
    return out


def _metric_map(doc: dict) -> Dict[Tuple[str, str], float]:
    out: Dict[Tuple[str, str], float] = {}
    metrics = doc.get("metrics") or {}
    for family in ("counters", "gauges"):
        for rec in metrics.get(family) or []:
            labels = ",".join(f"{k}={v}" for k, v in
                              sorted((rec.get("labels") or {}).items()))
            out[(str(rec.get("name")), labels)] = rec.get("value", 0)
    return out


def _loop_map(doc: dict) -> Dict[Tuple[str, int], dict]:
    """Loops keyed by (function, source line) — ``sid`` values are not
    stable across separate compiles, lines are."""
    out: Dict[Tuple[str, int], dict] = {}
    for row in doc.get("loops") or []:
        out[(str(row.get("function")), int(row.get("line") or 0))] = row
    return out


# ---------------------------------------------------------------------------
# Report vs. report
# ---------------------------------------------------------------------------


def diff_reports(base: dict, other: dict,
                 base_name: str = "base",
                 other_name: str = "other") -> dict:
    """Diff two ``titancc-report/3`` documents into a
    ``titancc-reportdiff/1`` document."""
    schemas.validate_document(base)
    schemas.validate_document(other)
    entries: List[Dict[str, object]] = []

    # Cycles: measured beats static; mixed provenance is still
    # comparable but flagged in the note.
    base_cycles, base_kind = _report_cycles(base)
    other_cycles, other_kind = _report_cycles(other)
    if base_cycles is not None and other_cycles is not None:
        note = base_kind if base_kind == other_kind \
            else f"{base_kind} vs {other_kind}"
        entries.append(_classify_numeric(
            "cycles", base_cycles, other_cycles,
            lower_is_better=True, note=note))

    # Per-loop coverage transitions.
    base_loops = _loop_map(base)
    other_loops = _loop_map(other)
    for key in sorted(set(base_loops) | set(other_loops)):
        b = base_loops.get(key)
        o = other_loops.get(key)
        function, line = key
        metric = f"loop[{function}:{line}].status"
        if b is None or o is None:
            entries.append(_entry(
                metric, b and b.get("status"), o and o.get("status"),
                "neutral", note="loop only on one side"))
            continue
        b_rank = LOOP_STATUS_RANK.get(str(b.get("status")), 0)
        o_rank = LOOP_STATUS_RANK.get(str(o.get("status")), 0)
        if o_rank < b_rank:
            cls = "regression"
        elif o_rank > b_rank:
            cls = "improvement"
        else:
            cls = "neutral"
        if cls != "neutral" or b.get("status") != o.get("status"):
            entries.append(_entry(metric, b.get("status"),
                                  o.get("status"), cls,
                                  reason=o.get("reason")))

    # Aggregate coverage: number of vectorized loops (higher better).
    def _vec_count(loops: Dict[Tuple[str, int], dict]) -> int:
        return sum(1 for row in loops.values()
                   if LOOP_STATUS_RANK.get(str(row.get("status")),
                                           0) >= 2)
    entries.append(_classify_numeric(
        "vectorized_loops", _vec_count(base_loops),
        _vec_count(other_loops), lower_is_better=False))

    # Pass counters and metrics: informational (neutral) — they
    # explain *why* cycles moved, they are not goodness by themselves.
    base_counters = _counter_map(base)
    other_counters = _counter_map(other)
    for key in sorted(set(base_counters) | set(other_counters)):
        b = base_counters.get(key, 0)
        o = other_counters.get(key, 0)
        if b != o:
            pass_name, function, counter = key
            entries.append(_entry(
                f"counter[{pass_name}.{function}.{counter}]", b, o,
                "neutral"))

    base_metrics = _metric_map(base)
    other_metrics = _metric_map(other)
    for key in sorted(set(base_metrics) | set(other_metrics)):
        b = base_metrics.get(key, 0)
        o = other_metrics.get(key, 0)
        if b != o:
            name, labels = key
            label = f"{name}{{{labels}}}" if labels else name
            entries.append(_entry(f"metric[{label}]", b, o, "neutral"))

    # Remark population by (pass, kind): purely informational.
    def _remark_counts(doc: dict) -> Dict[Tuple[str, str], int]:
        out: Dict[Tuple[str, str], int] = {}
        for r in doc.get("remarks") or []:
            key = (str(r.get("pass")), str(r.get("kind")))
            out[key] = out.get(key, 0) + 1
        return out
    base_remarks = _remark_counts(base)
    other_remarks = _remark_counts(other)
    for key in sorted(set(base_remarks) | set(other_remarks)):
        b = base_remarks.get(key, 0)
        o = other_remarks.get(key, 0)
        if b != o:
            entries.append(_entry(
                f"remarks[{key[0]}.{key[1]}]", b, o, "neutral"))

    return _build_doc("report", base_name, other_name, base, other,
                      entries)


# ---------------------------------------------------------------------------
# Bench vs. bench (the regression gate's vocabulary)
# ---------------------------------------------------------------------------


#: The directions :func:`bench_direction` gives.
LOWER, HIGHER, INFORMATIONAL = "lower", "higher", "informational"
#: Names of host wall-clock metrics start with this.
HOST_PREFIX = "host_"


def bench_direction(metric: str) -> str:
    """Which way a ``titancc-bench/1`` metric is better — the one rule
    the regression gate (``benchmarks/regress.py``) and bench diffs
    share.  ``host_`` metrics are wall-clock measurements of the host,
    informational, except ``speedup`` ratios (machine speed divides
    out), which are higher-is-better; a name containing ``cycles`` or
    ``seconds`` is lower-is-better; every other metric is
    higher-is-better."""
    if metric.startswith(HOST_PREFIX):
        return HIGHER if "speedup" in metric else INFORMATIONAL
    if "cycles" in metric or "seconds" in metric:
        return LOWER
    return HIGHER


def diff_benches(base: dict, other: dict,
                 base_name: str = "base",
                 other_name: str = "other") -> dict:
    """Diff two ``titancc-bench/1`` documents into a
    ``titancc-reportdiff/1`` document (``kind: "bench"``)."""
    schemas.validate_document(base)
    schemas.validate_document(other)
    entries: List[Dict[str, object]] = []
    base_variants = base.get("variants") or {}
    other_variants = other.get("variants") or {}
    for variant in sorted(set(base_variants) | set(other_variants)):
        b_metrics = base_variants.get(variant) or {}
        o_metrics = other_variants.get(variant) or {}
        for metric in sorted(set(b_metrics) | set(o_metrics)):
            b = b_metrics.get(metric)
            o = o_metrics.get(metric)
            name = f"{variant}.{metric}"
            if b is None or o is None:
                entries.append(_entry(name, b, o, "neutral",
                                      note="only on one side"))
                continue
            if not isinstance(b, (int, float)) \
                    or not isinstance(o, (int, float)):
                if b != o:
                    entries.append(_entry(name, b, o, "neutral"))
                continue
            direction = bench_direction(metric)
            entries.append(_classify_numeric(
                name, b, o, None if direction == INFORMATIONAL
                else direction == LOWER))
    return _build_doc("bench", base_name, other_name, base, other,
                      entries)


# ---------------------------------------------------------------------------
# Document assembly / formatting / CLI
# ---------------------------------------------------------------------------


def _build_doc(kind: str, base_name: str, other_name: str,
               base: dict, other: dict,
               entries: List[Dict[str, object]]) -> dict:
    classified = {"regressions": [], "improvements": [],
                  "neutral": []}  # type: Dict[str, List[dict]]
    for entry in entries:
        bucket = {"regression": "regressions",
                  "improvement": "improvements"}.get(
                      entry["class"], "neutral")
        classified[bucket].append(entry)
    doc = {
        "schema": DIFF_SCHEMA,
        "kind": kind,
        "base": {"name": base_name,
                 "source": base.get("source") or base.get("name")},
        "other": {"name": other_name,
                  "source": other.get("source") or other.get("name")},
        "classified": classified,
        "summary": {
            "regressions": len(classified["regressions"]),
            "improvements": len(classified["improvements"]),
            "neutral": len(classified["neutral"]),
            "worst_regression":
                (classified["regressions"][0]["metric"]
                 if classified["regressions"] else None),
        },
    }
    # Rank regressions by |relative| (largest first) so "the regressed
    # metric" is the first entry — and summary.worst_regression names
    # it.
    doc["classified"]["regressions"].sort(
        key=lambda e: -abs(e.get("relative", e.get("delta", 0)) or 0))
    if doc["classified"]["regressions"]:
        doc["summary"]["worst_regression"] = \
            doc["classified"]["regressions"][0]["metric"]
    return doc


def format_diff(doc: dict) -> str:
    """Human rendering of a reportdiff document."""
    lines = [f"/* {doc['kind']} diff: "
             f"{doc['base'].get('name')} -> "
             f"{doc['other'].get('name')} */"]
    for bucket, mark in (("regressions", "!"), ("improvements", "+"),
                         ("neutral", " ")):
        for entry in doc["classified"][bucket]:
            rel = entry.get("relative")
            rel_text = f" ({rel:+.1%})" if isinstance(
                rel, (int, float)) else ""
            note = entry.get("note")
            note_text = f"  [{note}]" if note else ""
            lines.append(f" {mark} {entry['metric']}: "
                         f"{entry.get('base')} -> "
                         f"{entry.get('other')}{rel_text}{note_text}")
    summary = doc["summary"]
    lines.append(f"/* {summary['regressions']} regression(s), "
                 f"{summary['improvements']} improvement(s), "
                 f"{summary['neutral']} neutral */")
    if summary.get("worst_regression"):
        lines.append(f"/* worst regression: "
                     f"{summary['worst_regression']} */")
    return "\n".join(lines)


def diff_documents(base: dict, other: dict, base_name: str = "base",
                   other_name: str = "other") -> dict:
    """Dispatch on the documents' schema tags."""
    base_tag = schemas.validate_document(base)
    other_tag = schemas.validate_document(other)
    if base_tag != other_tag:
        raise schemas.SchemaError(
            f"cannot diff {base_tag} against {other_tag}")
    if base_tag == schemas.REPORT:
        return diff_reports(base, other, base_name, other_name)
    if base_tag == schemas.BENCH:
        return diff_benches(base, other, base_name, other_name)
    raise schemas.SchemaError(
        f"no diff strategy for {base_tag} documents")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.diff",
        description="Diff two titancc report or bench JSON artifacts.")
    parser.add_argument("base", help="baseline document")
    parser.add_argument("other", help="candidate document")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the titancc-reportdiff/1 "
                             "document ('-' = stdout)")
    parser.add_argument("--gate", action="store_true",
                        help="exit 1 when regressions are present")
    args = parser.parse_args(argv)
    with open(args.base) as handle:
        base = json.load(handle)
    with open(args.other) as handle:
        other = json.load(handle)
    doc = diff_documents(base, other,
                         base_name=args.base, other_name=args.other)
    print(format_diff(doc))
    if args.json:
        schemas.write_json_artifact(args.json, doc)
    if args.gate and doc["summary"]["regressions"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
