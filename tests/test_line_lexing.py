"""Level A's line-addressed token key: the line path cannot be told from
lexing the whole text, and a comment edit costs the lines it touches.

*Equivalence* — wherever :meth:`CatalogCache.lex` answers line by line,
its tokens are ``tokenize(preprocess(source))``'s, coordinates
included, and its fingerprint is the one the whole token stream gets;
wherever it falls back, it raises what the whole-file path raises.
Checked on every C file the repo holds and under hypothesis edits of
them (inert and line-shifting edits, tokens inserted and deleted,
``/*``, ``*/``, quotes, backslashes and ``#`` injected, block comments
opened and closed anywhere), with the memo warm from the unedited text.

*Work* — counts under ``sys.setprofile``, identical across hash seeds,
so a return to whole-file lexing fails here on any host:
- a comment edit of a served source constructs tokens for that line
  only, and a never-seen source constructs each of its tokens once;
- an E19-shaped variant request makes at most the Python and C calls
  measured when the line path landed, plus 10 %;
- over a pass of such requests the memo lexes only the edited lines.

*Bound* — the memo holds :data:`LINE_MEMO_ENTRIES` lines, evicts the
least recently used ones deterministically, and a full memo answers as
an empty one does; a line longer than :data:`LINE_MEMO_MAX_CHARS` is
lexed on the line path but never memoized.
"""

import gc
import glob
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import lexer as lexer_module
from repro.frontend.lexer import LexError
from repro.frontend.preprocessor import PreprocessorError
from repro.obs.metrics import MetricsRegistry
from repro.service import CatalogCache, CompileService
from repro.service.cache import (LINE_MEMO_ENTRIES, LINE_MEMO_MAX_CHARS,
                                 lex_source, token_fingerprint)
from tests.test_service_stress import comparable, corpus_requests

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GENERATED = sorted(glob.glob(os.path.join(
    ROOT, "benchmarks", "e19", "corpus", "generated", "*.c")))


def _read(path):
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    # E19's kernel templates, rendered as its workloads render them.
    return text.replace("{n}", "256").replace("{s}", "1")


FILES = GENERATED + sorted(
    glob.glob(os.path.join(ROOT, "benchmarks", "e19", "corpus", "kernels",
                           "*.c"))
    + glob.glob(os.path.join(ROOT, "examples", "*.c"))
    + glob.glob(os.path.join(ROOT, "tests", "fuzz_corpus", "*.c")))
SOURCES = [_read(path) for path in FILES]


def dump(tokens):
    return [(t.kind, t.value, t.int_value, t.float_value, t.suffix,
             t.coord.filename, t.coord.line, t.coord.column)
            for t in tokens]


def lex_path(cache, source, filename="f.c"):
    """``cache.lex(source)`` checked against the whole-file path:
    ``"lines"`` or ``"whole"`` for the path it took, ``"error"`` when
    both raised the same diagnostic."""
    try:
        expected = lex_source(source, filename)
    except (LexError, PreprocessorError) as exc:
        expected = exc
    whole = cache.whole_lexes
    try:
        fingerprint, tokens = cache.lex(source, filename)
    except (LexError, PreprocessorError) as exc:
        assert (type(exc), str(exc)) == (type(expected), str(expected))
        assert cache.whole_lexes == whole + 1
        return "error"
    assert not isinstance(expected, Exception), expected
    assert dump(tokens()) == dump(expected)
    assert fingerprint == token_fingerprint(expected)
    if cache.whole_lexes == whole:
        return "lines"
    # Only a text the line lexer cannot take is lexed whole and lexes.
    assert not source.isascii() or "#" in source or "\\" in source
    return "whole"


def decisions(registry):
    return {(c["labels"]["path"], c["labels"]["reason"]): c["value"]
            for c in registry.to_dict()["counters"]
            if c["name"] == "titancc_service_lex_path_total"}


class TestEquivalence:
    def test_every_file_lexes_line_by_line_unless_it_cannot(self):
        registry = MetricsRegistry()
        cache = CatalogCache(registry=registry)
        paths = [lex_path(cache, source) for source in SOURCES]
        # Three fuzz corpus files do not lex, one holds non-ASCII text,
        # one a ``#pragma`` line.
        assert decisions(registry) == {("lines", ""): 71,
                                       ("whole", "directive"): 1,
                                       ("whole", "lex-error"): 3,
                                       ("whole", "non-ascii"): 1}
        # A warm memo answers with the same fingerprints.
        assert [lex_path(cache, source) for source in SOURCES] == paths

    @pytest.mark.parametrize("source, reason, path", [
        ("#define N 4\nint x[N];\n", "directive", "whole"),
        ("int x;\n  # pragma ivdep\n", "directive", "whole"),
        ("int \\\nx;\n", "splice", "whole"),
        ("int x; /* café */\n", "non-ascii", "whole"),
        ("int x = 1 @ 2;\n", "lex-error", "error"),
        ('int x;\nchar *s = "ab\ncd";\n', "lex-error", "error"),
        ("int x; /* never\nclosed\n", "open-comment", "error"),
        ("int /* one\ntwo */ x; /* three\n\nfour */ int y;\n", "", "lines"),
        ("int x; // #define N 4\n", "", "lines"),
        ('char *s = "# \\\\";\n', "", "lines"),
    ])
    def test_each_decision_is_counted(self, source, reason, path):
        registry = MetricsRegistry()
        cache = CatalogCache(registry=registry)
        assert lex_path(cache, source) == path
        assert decisions(registry) == {
            ("whole" if reason else "lines", reason): 1}


#: Edits drawn at any offset, token boundary or not.
SNIPPETS = [" ", "\t", "/* note */", "\n", "// note\n", " \n ",
            "/* one\ntwo */", "x", " 0 ", "1.5f", ";", "'a'", '"a"',
            "/*", "*/", '"', "'", "\\", "\\\n", "#", "\n#pragma ivdep\n",
            "\n# define Q 1\n", "é", "@", "//"]

edits = st.lists(st.tuples(
    st.floats(min_value=0, max_value=1),
    st.one_of(st.sampled_from(SNIPPETS),
              st.integers(min_value=1, max_value=6))),
    min_size=1, max_size=4)


def apply(source, drawn):
    """Insert each snippet, or delete each run of that many
    characters, at its drawn fraction of the text."""
    for where, what in drawn:
        at = int(where * len(source))
        if isinstance(what, int):
            source = source[:at] + source[at + what:]
        else:
            source = source[:at] + what + source[at:]
    return source


class TestEditedEquivalence:
    @given(index=st.integers(min_value=0, max_value=len(SOURCES) - 1),
           drawn=edits)
    @settings(max_examples=300, deadline=None)
    def test_the_line_path_is_the_whole_file_path(self, index, drawn):
        cache = CatalogCache()
        lex_path(cache, SOURCES[index])
        lex_path(cache, apply(SOURCES[index], drawn))

    @given(index=st.integers(min_value=0, max_value=len(GENERATED) - 1),
           opens=st.floats(min_value=0, max_value=1),
           closes=st.floats(min_value=0, max_value=1))
    @settings(max_examples=100, deadline=None)
    def test_block_comments_opened_and_closed_anywhere(self, index, opens,
                                                       closes):
        source = SOURCES[index]
        cache = CatalogCache()
        lex_path(cache, source)
        first, second = sorted((int(opens * len(source)),
                                int(closes * len(source))))
        assert lex_path(cache, source[:first] + "/*" + source[first:second]
                        + "*/" + source[second:]) != "whole"


# -- work, counted -----------------------------------------------------

def counted(work):
    """``work()``'s result, and the Python calls, C calls and ``Token``
    constructions it made."""
    counts = {"call": 0, "c_call": 0, "tokens": 0}
    token_init = lexer_module.Token.__init__.__code__

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1
            if frame.f_code is token_init:
                counts["tokens"] += 1

    # A collection would run whatever finalizers earlier tests left
    # behind inside the counted region.
    gc.collect()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = work()
    finally:
        sys.setprofile(previous)
        gc.enable()
    return result, counts


def variant(source, rng, note):
    """E19 ``edit_replay``'s variant: a comment on one line, trailing
    blanks on up to two."""
    lines = source.split("\n")
    lines[rng.randrange(len(lines))] += f" /* edit {note} */"
    for _ in range(rng.randrange(3)):
        lines[rng.randrange(len(lines))] += " " * rng.randint(1, 4)
    return "\n".join(lines)


#: Programs and variants per program in :func:`variant_work`.
POOL, VARIANTS = 6, 8
#: Per variant request, as measured (CPython 3.11) + 10 %.  Lexing
#: every byte miss whole made 1,335 Python and 2,443 C calls here.
PYTHON_CALLS_PER_VARIANT = 148.73 * 1.1
C_CALLS_PER_VARIANT = 323.19 * 1.1


def variant_work():
    """Python calls, C calls, ``Token`` constructions and lines lexed
    per E19-shaped variant request, and whether the memo lexed exactly
    the edited lines never seen before."""
    pool = [_read(path) for path in GENERATED[:POOL]]
    rng = random.Random(41)
    with CompileService(workers=0) as service:
        for index, source in enumerate(pool):
            service.submit({"source": source, "run": "main"})
            service.submit({"source": variant(source, rng, index),
                            "run": "main"})
        seen = {line for source in pool for line in source.split("\n")}
        requests = [variant(source, rng, f"{n}.{index}")
                    for n in range(VARIANTS)
                    for index, source in enumerate(pool)]
        new_lines = 0
        for source in requests:
            fresh = set(source.split("\n")) - seen
            new_lines += len(fresh)
            seen |= fresh
        lexed = service.catalogs.lines.misses
        answers, counts = counted(lambda: [
            service.submit({"source": source, "run": "main"})
            for source in requests])
        lexed = service.catalogs.lines.misses - lexed
        assert all(a["cache"]["artifact"] == "hit" for a in answers)
    return {"python": counts["call"] / len(requests),
            "c": counts["c_call"] / len(requests),
            "tokens": counts["tokens"] / len(requests),
            "lines": lexed / len(requests),
            "only_new_lines": lexed == new_lines}


@pytest.fixture(scope="module")
def work():
    return variant_work()


class TestWork:
    def test_a_comment_edit_lexes_its_line_only(self):
        source = SOURCES[0]
        lines = source.split("\n")
        with CompileService(workers=0) as service:
            service.submit({"source": source})
            lexed = service.catalogs.lines.misses
            lines[9] += " /* edit */"
            answer, counts = counted(
                lambda: service.submit({"source": "\n".join(lines)}))
            assert service.catalogs.lines.misses - lexed == 1
        assert answer["cache"]["artifact"] == "hit"
        on_line = [t for t in lex_source(source, "f.c")
                   if t.coord.line == 10]
        assert counts["tokens"] == len(on_line) > 0

    def test_a_new_source_constructs_each_token_once(self):
        source = SOURCES[1]
        with CompileService(workers=0) as service:
            answer, counts = counted(
                lambda: service.submit({"source": source}))
            assert service.catalogs.whole_lexes == 0
        assert answer["status"] == "ok"
        assert counts["tokens"] == len(lex_source(source, "f.c"))

    def test_a_variant_costs_the_lines_it_touches(self, work):
        assert work["only_new_lines"]
        assert 1 <= work["lines"] <= 3
        assert work["python"] <= PYTHON_CALLS_PER_VARIANT, work
        assert work["c"] <= C_CALLS_PER_VARIANT, work

    def test_the_counts_repeat_across_hash_seeds(self, work):
        runs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(
                           [os.path.join(ROOT, "src"), ROOT]))
            out = subprocess.run(
                [sys.executable, "-c",
                 "import json; from tests.test_line_lexing import "
                 "variant_work; print(json.dumps(variant_work()))"],
                cwd=ROOT, env=env, capture_output=True, text=True,
                check=True).stdout
            runs.append(json.loads(out))
        assert runs[0] == runs[1] == work


# -- the memo's bound --------------------------------------------------

class TestMemoBound:
    def test_a_full_memo_evicts_in_order_and_answers_alike(self):
        registry = MetricsRegistry()
        filler = "".join(f"int v{n};\n" for n in range(LINE_MEMO_ENTRIES
                                                       + 100))
        requests = [r for r in corpus_requests() if r.get("run")][:3]
        with CompileService(workers=0, registry=registry) as full:
            memo = full.catalogs.lines
            full.catalogs.lex(filler, "fill.c")
            # The walk puts LINE_MEMO_ENTRIES + 100 declarations, then
            # the empty line after them: the oldest 101 go.
            assert (len(memo), memo.evictions) == (LINE_MEMO_ENTRIES, 101)
            assert [text for text, _ in memo.keys()] == [
                f"int v{n};" for n in range(101, LINE_MEMO_ENTRIES + 100)
            ] + [""]
            served = [full.submit(r) for r in requests]
        with CompileService(workers=0) as empty:
            fresh = [empty.submit(r) for r in requests]
        assert [comparable(a) for a in served] == \
            [comparable(a) for a in fresh]
        events = {c["labels"]["event"]: c["value"]
                  for c in registry.to_dict()["counters"]
                  if c["name"] == "titancc_service_cache_events_total"
                  and c["labels"]["level"] == "lines"}
        assert events["evict"] == memo.evictions > 101

    def test_a_long_line_is_lexed_but_not_memoized(self):
        long_line = "int big = " + " + ".join(["1"] * 33333) + ";"
        assert len(long_line) > 100_000 > LINE_MEMO_MAX_CHARS
        source = f"int a;\n{long_line}\nint main(void) {{ return a; }}\n"
        cache = CatalogCache()
        lexed = []
        for _ in range(2):
            before = cache.lines.misses
            assert lex_path(cache, source) == "lines"
            lexed.append(cache.lines.misses - before)
            assert all(len(text) <= LINE_MEMO_MAX_CHARS
                       for text, _ in cache.lines.keys())
        assert ("int a;", False) in cache.lines.keys()
        # Four distinct lines (the last one blank), then the long one
        # again: the memo never learns it.
        assert lexed == [4, 1]

    def test_no_repo_line_reaches_the_bound(self):
        """So the bound cannot move E19's ``edit_replay``: every line it
        and the tests send is memoized as before."""
        longest = max(len(line) for source in SOURCES
                      for line in source.split("\n"))
        assert longest == 136 < LINE_MEMO_MAX_CHARS
