"""The compilation service: a long-running, cache-fronted compiler.

The CLI compiles one file per process; this package turns the same
pipeline into a service — compile requests go in (source +
``CompilerOptions``), schema-validated response envelopes come back,
work is sharded across a multiprocess worker pool (the shared
``repro.jobs`` layer), and everything content-addressable is memoized
in a two-level cache:

* **catalog** (level A) — parsed-IL procedure catalogs, the paper's
  §7 databases, keyed by the sha256 of the *source content bytes*
  and, behind that, by a fingerprint of the *tokens and their lines*,
  so an edited comment is lexed but never parsed;
* **artifact** (level B) — finished response payloads (canonical
  report, listing, simulation results, engine artifact), keyed by
  ``(front-end IL sha256, options fingerprint)``.

Cache hits are observationally invisible: a warm response's payload is
byte-identical to the cold compile's, which is byte-identical to what
the CLI produces directly (the transparency differential in
``tests/test_service_stress.py`` pins this).

Entry points: :class:`CompileService` (in-process client API),
``python -m repro.service`` (JSONL over stdin/stdout), and
``titancc --serve``.
"""

from .cache import (CatalogCache, LRUCache, content_hash,
                    options_fingerprint)
from .protocol import CompileRequest, ServiceError, canonicalize_report
from .server import CompileService
from .worker import execute_request

__all__ = [
    "CatalogCache", "CompileRequest", "CompileService", "LRUCache",
    "ServiceError", "canonicalize_report", "content_hash",
    "execute_request", "options_fingerprint",
]
