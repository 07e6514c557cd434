"""``python -m repro.service`` — the JSONL service loop.

Requests stream in as JSON lines (stdin or ``--requests``), response
envelopes stream out in request order (stdout or ``--out``), one JSON
line each.  Requests are processed in windows (``--window``) so long
streams get progressive responses while batches still coalesce
duplicates and share catalogs; a malformed JSON line yields an
``invalid`` error response in its slot rather than killing the loop.

``--metrics-prom`` and ``--events-jsonl`` export the service-side
telemetry: request counters, cache hit/miss/eviction events and
request latency histograms, plus one ``service_worker`` line per
worker (requests, seconds) in the event log.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..obs import schemas
from ..obs.log import Logger
from ..obs.telemetry import EventLogWriter
from .protocol import ServiceError, error_response
from .server import CompileService


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Long-running titancc compilation service: "
                    "JSONL compile requests in, schema-validated "
                    "JSONL responses out, with a content-addressed "
                    "two-level cache.")
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes (0 = in-process)")
    parser.add_argument("--window", type=int, default=32,
                        help="requests per batch window (duplicates "
                             "inside a window coalesce onto one "
                             "compile)")
    parser.add_argument("--requests", metavar="PATH",
                        help="read request JSONL from PATH instead "
                             "of stdin")
    parser.add_argument("--out", metavar="PATH",
                        help="write response JSONL to PATH instead "
                             "of stdout")
    parser.add_argument("--max-catalog-entries", type=int,
                        default=None,
                        help="LRU bound for the parsed-IL catalog "
                             "cache (default: unbounded)")
    parser.add_argument("--max-artifact-entries", type=int,
                        default=None,
                        help="LRU bound for the compiled-artifact "
                             "cache (default: unbounded)")
    parser.add_argument("--metrics-prom", metavar="PATH",
                        help="write the service metrics snapshot in "
                             "Prometheus text format on exit "
                             "('-' for stdout)")
    parser.add_argument("--events-jsonl", metavar="PATH",
                        help="write per-worker throughput events and "
                             "the final metrics snapshot as "
                             "titancc-events/1 JSONL")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress informational diagnostics")
    parser.add_argument("--log-json", action="store_true",
                        help="emit diagnostics as JSONL")
    return parser


def _windows(lines: List[str], size: int):
    size = max(1, size)
    for start in range(0, len(lines), size):
        yield lines[start:start + size]


def main(argv: Optional[List[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    log = Logger("titancc-service", json_mode=args.log_json,
                 quiet=args.quiet)

    if args.requests:
        with open(args.requests) as handle:
            lines = handle.read().splitlines()
    else:
        lines = sys.stdin.read().splitlines()
    lines = [line for line in lines if line.strip()]

    out = sys.stdout if not args.out or args.out == schemas.STDOUT \
        else open(args.out, "w")
    served = 0
    errors = 0
    with CompileService(
            workers=args.workers,
            max_catalog_entries=args.max_catalog_entries,
            max_artifact_entries=args.max_artifact_entries) as service:
        for window in _windows(lines, args.window):
            batch = []
            slots = []  # parallel list: parsed request or response
            for line in window:
                try:
                    batch.append(json.loads(line))
                    slots.append(None)
                except ValueError as exc:
                    slots.append(error_response(
                        None, ServiceError(f"bad JSON line: {exc}"),
                        phase="request", kind="invalid"))
            computed = iter(service.compile_batch(batch))
            for slot in slots:
                response = slot if slot is not None else \
                    next(computed)
                served += 1
                errors += response["status"] == "error"
                out.write(json.dumps(response, ensure_ascii=True)
                          + "\n")
            out.flush()

        stats = service.cache_stats()
        log.info(
            f"served {served} request(s) ({errors} error(s)); "
            f"catalog {stats['catalog']['hits']}h/"
            f"{stats['catalog']['misses']}m, tokens "
            f"{stats['tokens']['hits']}h/"
            f"{stats['tokens']['misses']}m, artifact "
            f"{stats['artifact']['hits']}h/"
            f"{stats['artifact']['misses']}m/"
            f"{stats['artifact']['evictions']}e")

        if args.events_jsonl:
            writer = EventLogWriter(args.events_jsonl)
            for pid in sorted(service.worker_stats):
                entry = service.worker_stats[pid]
                writer.emit("service_worker", pid=pid,
                            requests=entry["requests"],
                            seconds=entry["seconds"])
            writer.write_metrics(service.registry)
            writer.close()
        if args.metrics_prom:
            schemas.atomic_write_text(
                args.metrics_prom,
                service.registry.format_prometheus())
    if out is not sys.stdout:
        out.close()
        log.info(f"wrote {served} response(s) to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
