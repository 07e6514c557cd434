"""One registry for every JSON artifact schema the repo emits.

Each machine-readable document ``titancc`` writes — compilation
reports, benchmark telemetry, fuzz summaries, bisection verdicts, and
the telemetry event log — carries a ``schema`` tag of the form
``titancc-<kind>/<version>``.  Before this module the tags were string
literals scattered across five files; now every producer imports its
tag from here, and :func:`validate_document` is the one place that
knows what a well-formed artifact of each kind looks like (the
round-trip check the report tests and the schema test run every
artifact through).

The module also owns *atomic* artifact writing: every JSON document
lands via a temp file + ``os.replace`` in the target directory, so an
interrupted run can never leave a truncated ``summary.json`` or
report behind — the old bytes survive until the new ones are complete.
"""

from __future__ import annotations

import errno
import json
import os
import sys
import tempfile
from typing import Dict, Optional, Tuple

# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

#: The full machine-readable compilation report (``--report-json``).
#: /4 deleted /3's ``metrics`` section: every fact in it is already
#: in ``counters``, ``loops`` or ``trace``.
REPORT = "titancc-report/4"
#: Benchmark telemetry documents (``BENCH_<name>.json``).
BENCH = "titancc-bench/1"
#: Differential-fuzz run summaries (``summary.json``).
FUZZ = "titancc-fuzz/1"
#: Miscompile-bisection verdicts (``--bisect-json``).
BISECT = "titancc-bisect/1"
#: Telemetry event-log lines (``events.jsonl``): spans, metric
#: snapshots, and structured log records share one stream schema.
EVENTS = "titancc-events/1"
#: Chrome trace-event export (``--trace-json``).  The tag rides as an
#: extra top-level key; ``chrome://tracing``/Perfetto ignore it.
TRACE = "titancc-trace/1"
#: Per-loop dependence-graph exports (``--dump-deps`` ``.json`` files).
DEPGRAPH = "titancc-depgraph/1"
#: Per-pass cycle-attribution waterfalls (``--attrib-json``).
ATTRIB = "titancc-attrib/1"
#: Structured diffs of two reports or two bench documents
#: (``python -m repro.obs.diff``, ``regress.py --explain``).
REPORTDIFF = "titancc-reportdiff/1"
#: Compilation-service response envelopes (``python -m repro.service``
#: JSONL stream and the in-process client API).  The ``payload``
#: carries a canonicalized ``titancc-report/4`` plus the listing,
#: simulation results, and engine artifact.
SERVICE = "titancc-service/1"

#: tag -> (description, required top-level keys).  ``validate_document``
#: checks the keys; producers and the schema test iterate the registry.
REGISTERED: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    REPORT: ("compilation report",
             ("schema", "source", "options", "counters", "remarks",
              "loops", "dependence_graphs", "trace", "titan",
              "pass_checks")),
    BENCH: ("benchmark telemetry", ("schema", "name", "variants")),
    FUZZ: ("fuzz run summary",
           ("schema", "seed", "count", "ok", "rejected", "divergences",
            "crashes", "failures")),
    BISECT: ("bisection verdict",
             ("schema", "name", "status", "guilty_pass", "passes")),
    EVENTS: ("telemetry event", ("schema", "type")),
    TRACE: ("Chrome trace export", ("schema", "traceEvents")),
    DEPGRAPH: ("dependence-graph export", ("schema", "nodes", "edges")),
    ATTRIB: ("per-pass cycle attribution",
             ("schema", "source", "steps", "waterfall", "functions",
              "loops", "totals")),
    REPORTDIFF: ("report/bench diff",
                 ("schema", "kind", "base", "other", "classified",
                  "summary")),
    SERVICE: ("compilation-service response",
              ("schema", "id", "status", "cache", "payload", "error")),
}


class SchemaError(ValueError):
    """An artifact without a registered, well-formed schema tag."""


def is_registered(tag: object) -> bool:
    return tag in REGISTERED


def validate_tag(tag: object) -> str:
    if not is_registered(tag):
        raise SchemaError(
            f"unregistered schema tag {tag!r}; known: "
            f"{', '.join(sorted(REGISTERED))}")
    return tag  # type: ignore[return-value]


def validate_document(doc: object) -> str:
    """Check one parsed JSON artifact: a dict, a registered ``schema``
    tag, and that kind's required top-level keys.  Returns the tag."""
    if not isinstance(doc, dict):
        raise SchemaError(
            f"artifact is {type(doc).__name__}, not an object")
    tag = validate_tag(doc.get("schema"))
    _, required = REGISTERED[tag]
    missing = [key for key in required if key not in doc]
    if missing:
        raise SchemaError(
            f"{tag} document missing key(s): {', '.join(missing)}")
    return tag


# ---------------------------------------------------------------------------
# Atomic artifact writing
# ---------------------------------------------------------------------------

#: Path spelling for "write to stdout instead of a file".
STDOUT = "-"


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (same-directory temp file
    + ``os.replace``), or to stdout when ``path`` is ``"-"``."""
    if path == STDOUT:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
    except FileExistsError:
        # Something on the way is a file, not a directory.
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR),
                                 directory) from None
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json_artifact(path: str, doc: dict,
                        indent: Optional[int] = 1,
                        sort_keys: bool = False) -> None:
    """Validate ``doc`` against the registry, then write it atomically
    (``"-"`` writes to stdout).  Every schema-tagged JSON file the repo
    produces should leave through here."""
    validate_document(doc)
    atomic_write_text(path,
                      json.dumps(doc, indent=indent,
                                 ensure_ascii=True,
                                 sort_keys=sort_keys) + "\n")
