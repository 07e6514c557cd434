"""The service front door: :class:`CompileService`.

The parent process owns the two cache levels and derives every cache
key itself: for each request it takes the source through the level-A
catalog cache — bytes never seen are lexed, tokens never seen are
parsed, once each — and uses the resulting IL hash plus the request's
options fingerprint to probe the level-B artifact cache.  Full hits
answer without touching a worker; everything else is dispatched to the
shared jobs layer, with pre-built §7 catalogs shipped along so workers
never rebuild a database the parent already has.

Determinism contract (pinned by the stress tests): responses come
back in request order; cache events, request-status counters, and
cache contents after a batch are pure functions of the request
sequence — never of worker scheduling.  Duplicate in-flight requests
(same IL hash + fingerprint in one batch) are coalesced onto one
compile and share its payload.

In process, a level-B miss also probes the *mid-end stage*: a
bounded cache of compiles as the scalar rounds leave them
(``TitanCompiler.resume``), keyed by IL hash and the options the mid
end reads.  The same source at another vector length or processor
count then runs the back end only.  A pooled worker never resumes (a
live snapshot cannot cross a process boundary, and pickling one costs
more than it saves); the payload bytes are the same either way.

Wall-clock observations (``titancc_service_request_seconds``,
per-worker throughput) and the stage's events (where a compile ran
decides whether it resumed) are collected separately;
:meth:`CompileService.deterministic_metrics` excludes them so merged
metrics can be compared byte-for-byte across worker counts.
"""

from __future__ import annotations

import os
import pickle
from typing import Dict, List, Optional, Sequence

from ..jobs import TaskOutcome, WorkerPool
from ..obs.metrics import MetricsRegistry
from ..pipeline import CompilerOptions
from .cache import CatalogCache, LRUCache, content_hash
from .protocol import (CompileRequest, ServiceError, error_response,
                       make_response)
from .worker import mid_end_fingerprint, pool_task, request_fingerprint

#: Mid-end snapshots the in-process service keeps (``MidEnd``: one
#: program skeleton each).  The traffic that resumes is one source at
#: several back-end option points — E19's ``simulate_vector`` sends each
#: kernel at three (vector length, processors) points and keeps at most
#: 6 such sweeps open at once; 8 entries measured 36 hits of 36 with 10
#: evictions, where 64 cost ``compile_cold`` 19 % of its peak RSS.
MID_END_ENTRIES = 8

#: The stage's hit/miss/evict counter.  Only in-process compiles
#: resume, so its values depend on where a compile ran.
STAGE_EVENTS = "titancc_service_stage_events_total"


class CompileService:
    """Long-running compilation service and in-process client API.

    ``workers=0`` (or 1) executes compiles in-process; ``workers=N``
    shards them across a persistent pool of N processes.  Either way
    the observable responses are identical.
    """

    def __init__(self, workers: int = 0,
                 max_catalog_entries: Optional[int] = None,
                 max_artifact_entries: Optional[int] = None,
                 registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.catalogs = CatalogCache(max_catalog_entries,
                                     self.registry)
        self.artifacts = LRUCache(max_artifact_entries, self.registry,
                                  level="artifact")
        self.stages = LRUCache(MID_END_ENTRIES, self.registry,
                               level=None, family=STAGE_EVENTS)
        self.workers = max(0, int(workers))
        self.pool = WorkerPool(self.workers)
        #: pid -> {"requests", "seconds"} for dispatched compiles
        #: (in-process work books under this process's pid).
        self.worker_stats: Dict[int, Dict[str, float]] = {}

    # -- client API ----------------------------------------------------

    def submit(self, request) -> dict:
        """Compile one request (dict or :class:`CompileRequest`)."""
        return self.compile_batch([request])[0]

    def compile_source(self, source: str, options=None,
                       **fields) -> dict:
        """Convenience: build a request from keyword fields."""
        request = CompileRequest(source=source,
                                 options=options or CompilerOptions(),
                                 **fields)
        return self.submit(request)

    def compile_batch(self, requests: Sequence[object]) -> List[dict]:
        """Compile a batch; responses return in request order."""
        responses: Dict[int, dict] = {}
        tasks: List[dict] = []
        #: (il_sha, fingerprint) -> task slot; duplicates coalesce.
        inflight: Dict[tuple, dict] = {}

        for index, raw in enumerate(requests):
            prepared = self._prepare(raw)
            if "response" in prepared:
                responses[index] = prepared["response"]
                continue
            key = prepared["key"]
            slot = inflight.get(key)
            if slot is not None:
                self._cache_event("artifact", "coalesced")
                slot["followers"].append(
                    (index, prepared["request"].id,
                     dict(prepared["cache"],
                          artifact="coalesced")))
                continue
            slot = {"index": index, "key": key,
                    "request": prepared["request"],
                    "cache": prepared["cache"],
                    "catalogs": prepared["catalogs"],
                    "parsed": prepared["parsed"],
                    "stage": prepared["stage"],
                    "followers": []}
            inflight[key] = slot
            tasks.append(slot)

        if tasks:
            outcomes = self.pool.map_ordered(
                pool_task,
                [{"request": slot["request"],
                  "catalogs": slot["catalogs"],
                  "parsed": slot.pop("parsed"),
                  "stage": slot.pop("stage")} for slot in tasks])
            for slot, outcome in zip(tasks, outcomes):
                self._merge(slot, outcome, responses)

        ordered = [responses[index] for index in
                   sorted(responses)]
        for response in ordered:
            self.registry.counter("titancc_service_requests_total",
                                  {"status": response["status"]}).inc()
        return ordered

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        self.pool.close()

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- metrics -------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        return self.registry.to_dict()

    def deterministic_metrics(self) -> dict:
        """The registry snapshot minus wall-clock families and the
        mid-end stage events — equal byte-for-byte across worker counts
        and completion orders for the same request sequence.  Whether a
        compile resumed from a snapshot depends on where it ran (only
        in-process compiles do), not on the request sequence."""
        snapshot = self.registry.to_dict()
        snapshot["histograms"] = [
            entry for entry in snapshot["histograms"]
            if not entry["name"].endswith("_seconds")]
        snapshot["counters"] = [
            entry for entry in snapshot["counters"]
            if entry["name"] != STAGE_EVENTS]
        return snapshot

    def cache_stats(self) -> dict:
        return {"catalog": self.catalogs.stats(),
                "tokens": self.catalogs.tokens.stats(),
                "artifact": self.artifacts.stats()}

    # -- internals -----------------------------------------------------

    def _cache_event(self, level: str, event: str) -> None:
        self.registry.counter("titancc_service_cache_events_total",
                              {"level": level, "event": event}).inc()

    def _prepare(self, raw) -> dict:
        """Pass 1, in the parent: validate, derive both cache keys
        through the catalog cache, and answer outright on a full hit
        or a front-end failure.  Returns either ``{"response": ...}``
        or a dispatch descriptor."""
        request_id = raw.get("id") if isinstance(raw, dict) \
            else getattr(raw, "id", None)
        try:
            request = CompileRequest.from_dict(raw)
        except ServiceError as exc:
            return {"response": error_response(
                request_id, exc, phase="request", kind="invalid")}

        # Level A for the main source: one front-end parse per
        # distinct token stream, shared with later requests that name
        # this source as a db_source.  The envelope's "catalog" says
        # whether these *bytes* were known, whatever the token index
        # saves behind it.
        source_sha = content_hash(request.source)
        cache_meta = {"catalog": "hit" if source_sha in self.catalogs.lru
                      else "miss",
                      "artifact": None, "source_sha256": source_sha}
        try:
            # ``parsed`` is the parse a build ran: kept for the compile
            # that follows in-process (a pooled worker parses for
            # itself: shipping IL costs more than the front end).
            # Transient by design — it rides the dispatch descriptor
            # and is never cached.
            catalog, parsed = self.catalogs.for_source(
                source_sha, request.source, request.filename)
        except Exception as exc:
            from ..fuzz.harness import classify_exception
            return {"response": error_response(
                request_id, exc, phase="frontend",
                kind=classify_exception(exc), cache=cache_meta)}

        # §7 catalogs for the request's inline databases.
        catalogs: Dict[str, object] = {}
        db_shas = []
        try:
            for db_source in request.db_sources:
                sha = content_hash(db_source)
                db_shas.append(sha)
                catalogs[sha], _ = self.catalogs.for_source(
                    sha, db_source)
        except Exception as exc:
            from ..fuzz.harness import classify_exception
            return {"response": error_response(
                request_id, exc, phase="catalog",
                kind=classify_exception(exc), cache=cache_meta)}

        fingerprint = request_fingerprint(request, db_shas)
        key = (catalog.il_sha256, fingerprint)
        blob = self.artifacts.get(key)
        if blob is not None:
            cache_meta["artifact"] = "hit"
            return {"response": make_response(
                request.id, "ok", payload=pickle.loads(blob),
                cache=cache_meta)}
        cache_meta["artifact"] = "miss"
        if self.pool.parallel:  # a live snapshot stays in this process
            parsed = stage = None
        else:
            stage = (self.stages, (catalog.il_sha256,
                                   mid_end_fingerprint(request, db_shas)))
        return {"request": request, "key": key, "cache": cache_meta,
                "catalogs": catalogs, "parsed": parsed, "stage": stage}

    def _merge(self, slot: dict, outcome: TaskOutcome,
               responses: Dict[int, dict]) -> None:
        """Fold one dispatched compile back in: stamp caches, book
        worker stats, fan the payload out to coalesced followers."""
        if outcome.ok:
            response = outcome.value
            stamp = response.pop("_worker", None) or {}
            pid = stamp.get("pid", os.getpid())
        else:
            # The worker *function* never raises by contract; this is
            # a transport-level failure (e.g. unpicklable payload).
            failure = RuntimeError(
                f"{outcome.error['type']}: "
                f"{outcome.error['message']}")
            response = error_response(slot["request"].id, failure,
                                      phase="transport", kind="crash")
            pid = os.getpid()
        stats = self.worker_stats.setdefault(
            pid, {"requests": 0, "seconds": 0.0})
        stats["requests"] += 1
        stats["seconds"] += outcome.seconds
        self.registry.counter("titancc_service_dispatches_total").inc()
        self.registry.histogram(
            "titancc_service_request_seconds").observe(outcome.seconds)

        response["cache"] = slot["cache"]
        if response["status"] == "ok":
            # Kept pickled, like the catalogs: a payload is a tree of
            # thousands of small objects, several times its own bytes,
            # and the cache holds every answer ever given.
            self.artifacts.put(slot["key"], pickle.dumps(
                response["payload"], pickle.HIGHEST_PROTOCOL))
        responses[slot["index"]] = response
        for index, follower_id, follower_cache in slot["followers"]:
            follower = dict(response)
            follower["id"] = follower_id
            follower["cache"] = follower_cache
            responses[index] = follower
