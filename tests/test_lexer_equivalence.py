"""The master-pattern lexer against the character loop it replaced.

``tests/support/reference_lexer.py`` is that loop, verbatim but for
the end-of-input hang in ``\\x`` and for ending a literal at a raw
new-line, as C11 says and the new lexer does.  Both lexers must produce the same
``(kind, value, int_value, float_value, suffix, filename, line,
column)`` stream, or raise ``LexError`` with the same text, over every
C file the repo holds, the E19 corpus under its malformed recipes, and
whatever hypothesis can draw.

One divergence is deliberate.  Where the oracle lets a raw
``ValueError`` out of ``int()``/``float()`` (``0x1uf``, or digits like
``²`` that ``str.isdigit`` admits and ``int`` refuses), the new lexer
raises ``LexError``: the service files the former as a crash and the
latter as a rejection.
"""

import glob
import json
import os
import signal
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import lexer
from tests.support import reference_lexer

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
E19_CORPUS = os.path.join(ROOT, "benchmarks", "e19", "corpus")


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


REPO_FILES = sorted(
    glob.glob(os.path.join(ROOT, "examples", "*.c"))
    + glob.glob(os.path.join(ROOT, "tests", "fuzz_corpus", "*.c")))
E19_FILES = sorted(glob.glob(os.path.join(E19_CORPUS, "*", "*.c")))
RECIPES = json.loads(_read(os.path.join(E19_CORPUS, "malformed.json")))


def outcome(module, text):
    """The token dump, or the diagnostic's text."""
    try:
        return [(t.kind, t.value, t.int_value, t.float_value, t.suffix,
                 t.coord.filename, t.coord.line, t.coord.column)
                for t in module.tokenize(text, "f.c")]
    except module.LexError as exc:
        return str(exc)


def assert_same(text):
    try:
        expected = outcome(reference_lexer, text)
    except ValueError:
        assert isinstance(outcome(lexer, text), str)
        return
    assert outcome(lexer, text) == expected


def malformed(source, recipe):
    """``benchmarks/e19/corpus.py``'s ``Recipe.apply``; None where the
    recipe finds nothing to break."""
    if recipe["find"] not in source:
        return None
    at = source.index(recipe["find"]) if recipe["which"] == "first" \
        else source.rindex(recipe["find"])
    return source[:at] + recipe["replace"] \
        + source[at + len(recipe["find"]):]


@contextmanager
def deadline(seconds):
    """Fail instead of hanging: the defect under test was a loop that
    never ended."""
    def expired(signum, frame):
        raise AssertionError(f"still lexing after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestCorpora:
    def test_the_corpora_are_there(self):
        assert len(REPO_FILES) >= 10
        assert len(E19_FILES) == 60 and len(RECIPES) == 5

    @pytest.mark.parametrize("path", REPO_FILES, ids=os.path.basename)
    def test_examples_and_fuzz_corpus(self, path):
        assert_same(_read(path))

    @pytest.mark.parametrize("path", E19_FILES, ids=os.path.basename)
    def test_e19_corpus_under_every_malformed_recipe(self, path):
        source = _read(path)
        assert_same(source)
        for recipe in RECIPES:
            broken = malformed(source, recipe)
            if broken is not None:
                assert_same(broken)

    def test_every_recipe_breaks_some_file(self):
        for recipe in RECIPES:
            assert any(malformed(_read(path), recipe) is not None
                       for path in E19_FILES), recipe["name"]


#: Openers with no end, numbers and escapes cut short: every form the
#: lexer can be inside when the input stops.
CUT_SHORT = [
    "'", "'a", "'\\", "'\\n", "'\\x", "'\\x4", "'\\1", "'\\12", "'\\123",
    '"', '"abc', '"\\', '"a\\n', '"\\x', '"\\x4', '"\\1', '"\\12',
    '"\\123', '"\\q', "/*", "/* *", "/* */ /*", "/", "//", "// x", "#",
    "#pragma", "#pragma safe", "#define", "0", "0x", "0X", "0xf", "0x1u",
    "00", "08", "1", "1.", "1.5", ".", ".5", "1e", "1e+", "1e-", "1.5e",
    "1.5e+", "1e5", "1u", "1ul", "1f", "1.f", "1.5e-3f", "x", "x0", "_",
    "<", "<<", "<<=", "-", "->", "..", "...", "@", "\\", "", " ", "\n",
]


class TestEndOfInput:
    def test_hex_escape_at_end_of_input_returns(self):
        # Regression: ``"" in "0123...F"`` is true, so the old escape
        # loop never left end of input.
        with deadline(2):
            with pytest.raises(lexer.LexError,
                               match="no following hex digits"):
                lexer.tokenize("char c = '\\x")

    def test_final_zero_is_a_zero(self):
        # The same ``"" in "xX"`` made a last ``0`` scan as a hex
        # prefix and step past the end.
        tokens = lexer.tokenize("x = 0")
        assert [(t.kind, t.value, t.int_value) for t in tokens] == [
            ("id", "x", 0), ("punct", "=", 0), ("int", "0", 0),
            ("eof", "", 0)]
        assert str(tokens[-1].coord) == "<input>:1:6"

    @pytest.mark.parametrize("prefix", ["", "char c = ", "x\n  + "])
    @pytest.mark.parametrize("form", CUT_SHORT)
    def test_every_form_cut_short_ends(self, prefix, form):
        with deadline(2):
            assert_same(prefix + form)


class TestHostileInput:
    def test_a_megabyte_of_comment_openers_is_rejected_in_a_second(self):
        text = "/* " * (2 ** 20 // 3)
        began = time.perf_counter()
        with pytest.raises(lexer.LexError) as info:
            lexer.tokenize(text, "big.c")
        assert time.perf_counter() - began < 1.0
        assert str(info.value) == "big.c:1:1: unterminated comment"

    def test_packed_comment_openers_lex_as_the_loop_lexed_them(self):
        # ``/*/*/`` is a whole comment, so this one is comments and
        # ``*`` tokens all the way to an opener that never closes.
        assert_same("/*" * 4096)

    def test_an_escape_per_character_does_not_stack_up(self):
        text = '"' + "\\a" * 200_000
        with pytest.raises(lexer.LexError,
                           match="1:1: unterminated string literal"):
            lexer.tokenize(text)
        assert lexer.tokenize(text + '"')[0].value == "\a" * 200_000


PIECES = [
    # numbers, whole and cut short
    "0", "0x", "0X1f", "1", "9", "08", "017", "1.5e+3", "1e", "1e+",
    "0.", ".5", "e", "E", "+", "-", "f", "F", "u", "L", "l", "x",
    # punctuation
    ".", "..", "...", "<<=", ">>", "->", "/", "*", "=", ";", "(", "{",
    # literals and escapes
    "'", '"', "\\", "\\x", "\\0", "\\8", "\\n", "\\'", '\\"', "\\777",
    "\\400", "\\xff", "\\x100", "\\q",
    # comments, directives, white space
    "/*", "*/", "//", "#", "#pragma", "#pragma safe", "#include",
    "\n", " ", "\t", "\r", "\f", "\v",
    # words
    "a", "_", "int", "abc", "while",
    # non-ASCII: digits that are not decimals, decimals that are not
    # ASCII, numerics that are neither, letters, letter-numerics,
    # white space ``str.strip`` knows and the lexer does not
    "²", "①", "٣", "०", "½", "Ⅷ", "三", "é", "ǅ", "ʰ", "\xa0", "\x85",
    "\x1c",
    # strays
    "@", "$", "`", "\x00",
]

soup = st.lists(st.sampled_from(PIECES), min_size=1, max_size=14) \
    .map("".join)

SEEDS = [_read(path) for path in
         REPO_FILES[:4] + E19_FILES[:3] + E19_FILES[-3:]]

edits = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "replace", "cut"]),
              st.floats(min_value=0, max_value=1, exclude_max=True),
              st.one_of(st.sampled_from(PIECES),
                        st.characters(min_codepoint=1,
                                      max_codepoint=0x2FF))),
    min_size=1, max_size=6)


def mutate(text, changes):
    for op, where, piece in changes:
        at = int(where * (len(text) + 1))
        if op == "insert":
            text = text[:at] + piece + text[at:]
        elif op == "delete":
            text = text[:at] + text[at + len(piece):]
        elif op == "replace":
            text = text[:at] + piece + text[at + len(piece):]
        else:
            text = text[:at]
    return text


class TestProperties:
    @given(text=soup)
    @settings(max_examples=600, deadline=None)
    def test_token_soup(self, text):
        assert_same(text)

    @given(seed=st.sampled_from(SEEDS), changes=edits)
    @settings(max_examples=200, deadline=None)
    def test_mutated_corpus_files(self, seed, changes):
        assert_same(mutate(seed, changes))

    @given(text=st.text(max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text(self, text):
        assert_same(text)
