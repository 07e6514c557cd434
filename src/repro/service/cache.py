"""Content-addressed caching: the service's two levels plus the
process-global catalog cache the CLI's ``--use-db`` path shares.

**Three keys, each over what the next stage consumes.**

1. *Bytes* — ``content_hash`` is sha256 of the exact source bytes.  A
   level-A (catalog) hit on it costs one hash; any edit at all misses.
2. *Tokens and their lines* — on a byte miss the source is lexed and
   :func:`token_fingerprint` keys level A's second index.  It covers
   everything a successful parse can observe (kind, text, decoded
   constant, suffix, line of every token) and nothing it cannot
   (columns, white space, comments, the filename), so an edited
   comment stops here: the entry is shared under the new byte key and
   nothing is parsed.  An edit that moves a token to another line
   misses — reports embed line numbers.

   The key is line-addressed, and a memo ``(line text, starts inside a
   block comment) → (digest, ends inside one)`` makes a byte miss lex
   only lines never seen before — sound because no token spans a line
   (DESIGN.md, S23).  What the line lexer cannot take is lexed whole.
3. *IL and options* — ``(IL hash, options fingerprint)`` keys level B
   (artifacts).  Sources that differ in their tokens but lower to the
   same IL on the same lines still share one optimized artifact.

No key needs a canonicalizer: each is a hash of a representation the
compiler already produces on the way to the next one.

**Beside level B, the mid-end stage.**  A level-B miss compiled in
process is keyed a second time, by ``(IL hash, the options fingerprint
with every back-end option blanked)``, and finds or leaves there a
``MidEnd``: the compile as the scalar rounds leave it.  The same source
at another vector length or processor count then runs the back end
only.  It is an :class:`LRUCache` of ``MID_END_ENTRIES`` = 8 live
snapshots (``service/server.py``), bounded because a snapshot is a
program, not bytes; its events book under their own family,
``titancc_service_stage_events_total{event}``.

**Eviction is deterministic.**  :class:`LRUCache` is an ordered dict
whose eviction order is a pure function of the get/put sequence, so a
replayed request stream evicts the same keys in the same order — the
property-test battery (``tests/test_service_cache.py``) checks this
against a model.

Hit/miss/eviction counters land in a :class:`MetricsRegistry` under
``titancc_service_cache_events_total{level,event}``, ``level`` one of
``catalog`` (bytes), ``tokens``, ``lines`` (the memo) and ``artifact``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from collections import OrderedDict
from itertools import groupby
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


#: Every :class:`CompilerOptions` field is a JSON scalar: reading them
#: is ``dataclasses.asdict`` without its deep copy.
_OPTION_NAMES = tuple(f.name for f in dataclasses.fields(CompilerOptions))
_OPTION_VALUES = attrgetter(*_OPTION_NAMES)


def options_fingerprint(options: CompilerOptions,
                        extra: Optional[dict] = None) -> str:
    """Canonical digest of a full :class:`CompilerOptions` (every
    field, sorted) plus any request-shape ``extra`` facts that affect
    the response payload (entry point, engine, database hashes...).
    Two requests share an artifact entry iff their fingerprints and
    front-end IL hashes both match."""
    payload: Dict[str, object] = {
        "options": dict(zip(_OPTION_NAMES, _OPTION_VALUES(options)))}
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
                 level: Optional[str] = "cache",
                 family: str = "titancc_service_cache_events_total"):
        self.max_entries = max_entries
        self.level = level
        self.registry = registry
        #: Events book as ``family{level, event}`` (no ``level`` label
        #: when ``level`` is None).
        self.family = family
        self._labels = {"level": level} if level is not None else {}
        self._entries: "OrderedDict[object, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _event(self, event: str) -> None:
        if self.registry is not None:
            self.registry.counter(
                self.family, {**self._labels, "event": event}).inc()

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
                           "suffix")
#: A line the preprocessor may read as a directive.
_DIRECTIVE_LINE = re.compile(r"^[^\S\n]*#", re.M)


def _line_digest(tokens) -> bytes:
    """sha256 of a ``repr`` of one line's token field tuples: injective,
    where joining fields on a separator would not be (a string literal
    decodes to anything, NUL included)."""
    return hashlib.sha256(repr(list(map(_TOKEN_FIELDS, tokens)))
                          .encode("utf-8")).digest()


def token_fingerprint(tokens) -> str:
    """sha256 of a :func:`_line_digest` per line up to the EOF token's,
    then its line: everything a successful parse can observe, so two
    streams with one fingerprint parse and lower to the same program.
    Columns and the filename reach only diagnostics, and a failed
    parse is never cached."""
    eof_line = tokens[-1].coord.line
    digests = [_line_digest(())] * eof_line
    for line, group in groupby(tokens[:-1], attrgetter("coord.line")):
        digests[line - 1] = _line_digest(group)
    return content_hash(b"".join(digests) + b"%d" % eof_line)


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


#: Lines the memo keeps, ~0.4 KB each (1.7 MB full).  E19's
#: ``edit_replay`` reads ~1,130 distinct lines and adds one to three
#: per request; a full memo costs it ~2.5 % of peak RSS (EXPERIMENTS.md).
LINE_MEMO_ENTRIES = 4096
#: Longer lines are lexed by line but never memoized, so the memo is
#: bounded in bytes too (~2 MB of keys at most), whatever a source
#: holds.  No C file in the repository or the E19 corpus comes near:
#: the longest line is 136 characters.
LINE_MEMO_MAX_CHARS = 512


class CatalogCache:
    """Level A: content hash → built catalog, with a build counter
    (``titancc_service_catalog_builds_total``) proving each distinct
    content is parsed exactly once — and, for C sources, each distinct
    token stream: ``tokens`` is the second index, token fingerprint →
    the entry first built from those tokens, under the same bound,
    and ``lines`` the memo of each line's part of the fingerprint."""

    def __init__(self, max_entries: Optional[int] = None,
                 registry: Optional[MetricsRegistry] = None):
        self.lru = LRUCache(max_entries, registry, level="catalog")
        self.tokens = LRUCache(max_entries, registry, level="tokens")
        self.lines = LRUCache(LINE_MEMO_ENTRIES)  # booked by ``lex``
        self.registry = registry
        self.builds = 0
        self.whole_lexes = 0  # sources preprocessed and lexed whole

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
        (a build).  Bytes never seen are fingerprinted; tokens seen
        before share that entry's blob under the new byte key, so the
        byte index sees the same get/put sequence either way."""
        entry = self.lru.get(sha)
        if entry is not None:
            return entry, None
        fingerprint, tokens = self.lex(source, filename)
        parsed = None
        twin = self.tokens.get(fingerprint)
        if twin is not None:
            entry = dataclasses.replace(twin, source_sha256=sha)
        else:
            parsed = parse_tokens(tokens())
            entry = parsed.catalog(source)
            self._built()
            self.tokens.put(fingerprint, entry)
        self.lru.put(sha, entry)
        return entry, parsed

    def lex(self, source: str, filename: str
            ) -> Tuple[str, Callable[[], list]]:
        """``source``'s token fingerprint and a function returning its
        tokens.  Lexed line by line, lines the memo knows only if a
        parse needs them, where that provably equals lexing the whole
        text; else preprocessed and lexed whole, as it always was."""
        from ..frontend.lexer import EOF, Coord, LexError, Token, \
            tokenize_line
        # Without these, preprocessing only appends a newline.
        reason = ("non-ascii" if not source.isascii()
                  else "directive" if _DIRECTIVE_LINE.search(source)
                  else "splice" if "\\\n" in source
                  or source.endswith("\\") else "")
        lines = (source + "\n").split("\n")
        memo, before = self.lines, self.lines.stats()
        recall, refresh = memo._entries.get, memo._entries.move_to_end
        known = []  # per line: (digest, ends inside a block comment)
        lexed: Dict[int, list] = {}
        inside = False
        try:
            for number, text in enumerate([] if reason else lines, 1):
                key = (text, inside)
                facts = recall(key)
                if facts is None:
                    tokens, after = tokenize_line(text, number, filename,
                                                  inside)
                    memo.misses += 1
                    lexed[number] = tokens
                    facts = (_line_digest(tokens), after)
                    if len(text) <= LINE_MEMO_MAX_CHARS:
                        memo.put(key, facts)
                else:
                    memo.hits += 1
                    refresh(key)
                known.append(facts)
                inside = facts[1]
        except LexError:
            reason = "lex-error"
        reason = reason or ("open-comment" if inside else "")
        if self.registry is not None:  # once per source, not per line
            counter, after = self.registry.counter, memo.stats()
            counter("titancc_service_lex_path_total",
                    {"path": "whole" if reason else "lines",
                     "reason": reason}).inc()
            for event, field in (("hit", "hits"), ("miss", "misses"),
                                 ("evict", "evictions")):
                if after[field] > before[field]:
                    counter("titancc_service_cache_events_total",
                            {"level": "lines", "event": event}
                            ).inc(after[field] - before[field])
        if reason:
            self.whole_lexes += 1
            whole = lex_source(source, filename)
            return token_fingerprint(whole), lambda: whole

        def tokens() -> list:  # each line lexed once, at its own line
            out = []
            for number, text in enumerate(lines, 1):
                if number not in lexed:
                    lexed[number], _ = tokenize_line(
                        text, number, filename,
                        number > 1 and known[number - 2][1])
                out += lexed[number]
            out.append(Token(EOF, "", Coord(filename, len(lines), 1)))
            return out

        digests = b"".join([digest for digest, _ in known])
        return content_hash(digests + b"%d" % len(lines)), tokens

    def stats(self) -> Dict[str, int]:
        return {**self.lru.stats(), "builds": self.builds}

    def clear(self) -> None:
        self.lru.clear()
        self.tokens.clear()
        self.lines.clear()
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
