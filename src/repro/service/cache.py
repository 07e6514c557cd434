"""Content-addressed caching: the service's two levels plus the
process-global catalog cache the CLI's ``--use-db`` path shares.

**Three keys, each over what the next stage consumes.**

1. *Bytes* — ``content_hash`` is sha256 of the exact source bytes.  A
   level-A (catalog) hit on it costs one hash; any edit at all misses.
2. *Tokens and their lines* — on a byte miss the source is
   preprocessed and lexed, and :func:`token_fingerprint` keys level A's
   second index.  It covers everything a successful parse can observe
   (kind, text, decoded constant, suffix, line of every token) and
   nothing it cannot (columns, white space, comments, the filename), so
   an edited comment stops here: the entry is shared under the new
   byte key and nothing is parsed.  An edit that moves a token to
   another line misses — reports embed line numbers.
3. *IL and options* — ``(IL hash, options fingerprint)`` keys level B
   (artifacts).  Sources that differ in their tokens but lower to the
   same IL on the same lines still share one optimized artifact.

No key needs a canonicalizer: each is a hash of a representation the
compiler already produces on the way to the next one.

**Eviction is deterministic.**  :class:`LRUCache` is an ordered dict
whose eviction order is a pure function of the get/put sequence, so a
replayed request stream evicts the same keys in the same order — the
property-test battery (``tests/test_service_cache.py``) checks this
against a model.

Hit/miss/eviction counters land in a :class:`MetricsRegistry` under
``titancc_service_cache_events_total{level,event}``, ``level`` one of
``catalog`` (bytes), ``tokens`` and ``artifact``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import OrderedDict
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..inline.database import InlineDatabase
from ..obs.metrics import MetricsRegistry
from ..pipeline import CompilerOptions


def content_hash(data: Union[str, bytes]) -> str:
    """sha256 hex digest of the content *bytes* (text is UTF-8
    encoded first).  The one hash every cache key derives from."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def options_fingerprint(options: CompilerOptions,
                        extra: Optional[dict] = None) -> str:
    """Canonical digest of a full :class:`CompilerOptions` (every
    field, sorted) plus any request-shape ``extra`` facts that affect
    the response payload (entry point, engine, database hashes...).
    Two requests share an artifact entry iff their fingerprints and
    front-end IL hashes both match."""
    payload: Dict[str, object] = {
        "options": dataclasses.asdict(options)}
    if extra:
        payload["extra"] = extra
    return content_hash(json.dumps(payload, sort_keys=True,
                                   separators=(",", ":")))


class LRUCache:
    """Bounded mapping with deterministic least-recently-used
    eviction.  ``get`` refreshes recency; ``put`` inserts/refreshes
    and evicts the oldest entries past ``max_entries`` (``None`` =
    unbounded).  Lookups count hit/miss events, evictions count evict
    events; ``record=False`` peeks without touching the counters *or*
    the recency order."""

    def __init__(self, max_entries: Optional[int] = None,
                 registry: Optional[MetricsRegistry] = None,
                 level: str = "cache"):
        self.max_entries = max_entries
        self.level = level
        self.registry = registry
        self._entries: "OrderedDict[object, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _event(self, event: str) -> None:
        if self.registry is not None:
            self.registry.counter(
                "titancc_service_cache_events_total",
                {"level": self.level, "event": event}).inc()

    def get(self, key, record: bool = True):
        if key in self._entries:
            if record:
                self._entries.move_to_end(key)
                self.hits += 1
                self._event("hit")
            return self._entries[key]
        if record:
            self.misses += 1
            self._event("miss")
        return None

    def put(self, key, value) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while self.max_entries is not None \
                and len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
            self._event("evict")

    def __contains__(self, key) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> List[object]:
        """Keys oldest-first (the eviction order)."""
        return list(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._entries), "hits": self.hits,
                "misses": self.misses, "evictions": self.evictions}


@dataclasses.dataclass
class CatalogEntry:
    """One §7 procedure catalog: the parsed-IL procedures of one
    source, content-addressed at both levels.

    ``blob`` is the pickled :class:`InlineDatabase` entries, snapshot
    *before* any optimization touches the IL, so the catalog can be
    shipped to worker processes and imported into other programs
    (``import_entry`` clones on use — cached catalogs are never
    mutated).  ``il_sha256`` hashes the printed front-end IL, the key
    that lets whitespace-variant sources share level-B artifacts."""

    source_sha256: str
    il_sha256: str
    blob: bytes
    names: List[str]

    def database(self) -> InlineDatabase:
        return InlineDatabase.loads(self.blob)


@dataclasses.dataclass
class ParsedSource:
    """One front-end parse, as both cache levels need it: the program
    (unoptimized), the hash of its printed IL, and the sid the next
    statement would draw — what a compile resuming from this parse must
    pass to ``reset_sids`` to number new statements as a fresh parse
    would."""

    program: object  # ILProgram
    il_sha256: str
    next_sid: int

    def catalog(self, source: str) -> CatalogEntry:
        """Snapshot the program's procedures (a pickle, so optimizing
        the program afterwards cannot reach the catalog)."""
        db = InlineDatabase()
        db.add_program(self.program)
        return CatalogEntry(source_sha256=content_hash(source),
                            il_sha256=self.il_sha256,
                            blob=db.dumps(), names=db.names())


def lex_source(source: str, filename: str) -> list:
    """The front end as far as a comment edit reaches: preprocess and
    tokenize."""
    from ..frontend.lexer import tokenize
    from ..frontend.preprocessor import preprocess
    return tokenize(preprocess(source, filename), filename)


_TOKEN_FIELDS = attrgetter("kind", "value", "int_value", "float_value",
                           "suffix", "coord.line")


def token_fingerprint(tokens) -> str:
    """sha256 over everything a successful parse can observe of a
    token stream, and nothing else: two streams with one fingerprint
    parse and lower to the same program.  Columns and the filename
    reach only diagnostics, and a failed parse is never cached.  The
    encoding is a ``repr`` of the field tuples, which is injective
    (string literals decode to arbitrary characters, NUL included, so
    joining fields on a separator would not be)."""
    return content_hash(repr(list(map(_TOKEN_FIELDS, tokens))))


def parse_tokens(tokens) -> ParsedSource:
    """Parse and lower a token stream.  The sid counter is rewound
    first so identical content always yields identical sids (hence an
    identical catalog blob, IL hash and payload), whatever the process
    parsed before."""
    from ..frontend.lower import lower
    from ..frontend.parser import Parser
    from ..il import nodes as N
    from ..il.printer import format_program
    N.reset_sids()
    program = lower(Parser(tokens).parse_translation_unit())
    # The IL hash includes source-line annotations: reports embed
    # line numbers, so two sources may print identical IL yet compile
    # to different payloads if their statements sit on different
    # lines.  Hashing lines in keeps level B exactly as strong as the
    # payload it addresses.
    il_text = format_program(program, show_lines=True)
    return ParsedSource(program, content_hash(il_text),
                        N.sid_position())


def parse_source(source: str, filename: str) -> ParsedSource:
    """Run the whole front end on one source."""
    return parse_tokens(lex_source(source, filename))


def build_catalog(source: str,
                  filename: str = "<catalog>") -> CatalogEntry:
    """Front-end parse + catalog one source (no optimization)."""
    return parse_source(source, filename).catalog(source)


class CatalogCache:
    """Level A: content hash → built catalog, with a build counter
    (``titancc_service_catalog_builds_total``) proving each distinct
    content is parsed exactly once — and, for C sources, each distinct
    token stream: ``tokens`` is the second index, token fingerprint →
    the entry first built from those tokens, under the same bound."""

    def __init__(self, max_entries: Optional[int] = None,
                 registry: Optional[MetricsRegistry] = None):
        self.lru = LRUCache(max_entries, registry, level="catalog")
        self.tokens = LRUCache(max_entries, registry, level="tokens")
        self.registry = registry
        self.builds = 0

    def _built(self) -> None:
        self.builds += 1
        if self.registry is not None:
            self.registry.counter(
                "titancc_service_catalog_builds_total").inc()

    def get_or_build(self, key: str, builder: Callable[[], object]):
        entry = self.lru.get(key)
        if entry is None:
            entry = builder()
            self._built()
            self.lru.put(key, entry)
        return entry

    def for_source(self, sha: str, source: str,
                   filename: str = "<catalog>"
                   ) -> Tuple[CatalogEntry, Optional[ParsedSource]]:
        """The catalog of one C source whose content hash is ``sha``,
        through both indexes, plus the parse when this call needed one
        (a build).  Bytes never seen are lexed; tokens seen before
        share that entry's blob under the new byte key, so the byte
        index sees the same get/put sequence either way."""
        entry = self.lru.get(sha)
        if entry is not None:
            return entry, None
        tokens = lex_source(source, filename)
        fingerprint = token_fingerprint(tokens)
        parsed = None
        twin = self.tokens.get(fingerprint)
        if twin is not None:
            entry = dataclasses.replace(twin, source_sha256=sha)
        else:
            parsed = parse_tokens(tokens)
            entry = parsed.catalog(source)
            self._built()
            self.tokens.put(fingerprint, entry)
        self.lru.put(sha, entry)
        return entry, parsed

    def stats(self) -> Dict[str, int]:
        return {**self.lru.stats(), "builds": self.builds}

    def clear(self) -> None:
        self.lru.clear()
        self.tokens.clear()
        self.builds = 0


#: Process-global catalog cache for ``--use-db`` database files,
#: keyed by *file content* hash — the fix for the CLI rebuilding its
#: procedure catalog from scratch on every invocation.  Values are
#: :class:`InlineDatabase` objects; entries are cloned on import, so
#: sharing one loaded database across invocations is safe.
GLOBAL_CATALOGS = CatalogCache()


def load_database(path: str,
                  cache: Optional[CatalogCache] = None
                  ) -> InlineDatabase:
    """Load a pickled ``.ildb`` procedure database through the catalog
    cache: the file's content hash is the key, so re-reading the same
    bytes (same path or a copy) unpickles once per process."""
    cache = GLOBAL_CATALOGS if cache is None else cache
    with open(path, "rb") as handle:
        blob = handle.read()
    return cache.get_or_build(content_hash(blob),
                              lambda: InlineDatabase.loads(blob))
