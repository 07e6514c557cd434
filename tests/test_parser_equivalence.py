"""The precedence-climbing parser against the per-level recursion it
replaced.

``tests/support/reference_parser.py`` is that parser: today's class
with every rewritten method put back verbatim.  Both must build the
same AST -- ``c_ast`` nodes are dataclasses that compare field by
field, ``Coord``s and types included, so ``==`` is a full oracle -- or
raise the same exception with the same text, over four input sets:
every C file the repo holds, the E19 programs under every malformed
recipe, hypothesis expression trees over every operator printed with
minimal parentheses, and token-deletion and token-duplication mutants
of corpus files (plus insertions of any token, string literals that
spell a punctuator or keyword among them).  The ASTs' pickles are
compared too, so the two parsers also share type objects between
declarations alike: the catalog pickle records that sharing.
"""

import glob
import itertools
import json
import os
import pickle
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import c_ast as A
from repro.frontend import lexer as L
from repro.frontend.lexer import LexError, tokenize
from repro.frontend.parser import Parser
from repro.frontend.preprocessor import PreprocessorError, preprocess
from tests.support.reference_parser import ReferenceParser

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
E19_CORPUS = os.path.join(ROOT, "benchmarks", "e19", "corpus")


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


REPO_FILES = sorted(
    glob.glob(os.path.join(ROOT, "examples", "*.c"))
    + glob.glob(os.path.join(ROOT, "tests", "fuzz_corpus", "*.c")))
#: The 48 generated programs and the 12 kernel templates, rendered as
#: E19's ``compile_cold`` renders them.
E19_FILES = sorted(glob.glob(os.path.join(E19_CORPUS, "*", "*.c")))
E19_SOURCES = {os.path.basename(path): _read(path).replace("{n}", "256")
               .replace("{s}", "1") for path in E19_FILES}
RECIPES = json.loads(_read(os.path.join(E19_CORPUS, "malformed.json")))


def tokens_of(text):
    """The token stream, or None when the text never reaches a parser."""
    try:
        return tokenize(preprocess(text, "f.c"), "f.c")
    except (LexError, PreprocessorError):
        return None


def outcome(parser, tokens):
    """The AST, or the diagnostic -- whatever exception it is."""
    try:
        return parser(tokens).parse_translation_unit()
    except Exception as exc:  # noqa: BLE001 -- compared, not handled
        return f"{type(exc).__name__}: {exc}"


def assert_same(tokens):
    """Both parsers' outcome, asserted equal; returns ours."""
    ours, theirs = outcome(Parser, tokens), outcome(ReferenceParser, tokens)
    assert ours == theirs
    assert pickle.dumps(ours) == pickle.dumps(theirs)
    return ours


def malformed(source, recipe):
    """``benchmarks/e19/corpus.py``'s ``Recipe.apply``; None where the
    recipe finds nothing to break."""
    if recipe["find"] not in source:
        return None
    at = source.index(recipe["find"]) if recipe["which"] == "first" \
        else source.rindex(recipe["find"])
    return source[:at] + recipe["replace"] \
        + source[at + len(recipe["find"]):]


class TestCorpora:
    def test_the_corpora_are_there(self):
        assert len(REPO_FILES) >= 10
        assert len(E19_SOURCES) == 60 and len(RECIPES) == 5

    @pytest.mark.parametrize("path", REPO_FILES, ids=os.path.basename)
    def test_examples_and_fuzz_corpus(self, path):
        tokens = tokens_of(_read(path))
        if tokens is not None:
            assert_same(tokens)

    @pytest.mark.parametrize("name", sorted(E19_SOURCES))
    def test_e19_programs_under_every_malformed_recipe(self, name):
        source = E19_SOURCES[name]
        assert isinstance(outcome(Parser, tokens_of(source)),
                          A.TranslationUnit)
        assert_same(tokens_of(source))
        for recipe in RECIPES:
            broken = malformed(source, recipe)
            tokens = None if broken is None else tokens_of(broken)
            if tokens is not None:
                assert_same(tokens)

    def test_every_combination_of_type_specifiers(self):
        words = ["void", "char", "short", "int", "long", "float",
                 "double", "signed", "unsigned"]
        for count in (1, 2, 3):
            for combo in itertools.product(words, repeat=count):
                assert_same(tokenize(f"{' '.join(combo)} a, *b; "
                                     f"{' '.join(combo)} c;"))

    def test_some_recipe_reaches_the_parser_and_fails_there(self):
        failed = [outcome(Parser, tokens) for tokens in (
            tokens_of(malformed(source, recipe) or source)
            for source in E19_SOURCES.values() for recipe in RECIPES)
            if tokens is not None]
        assert any(isinstance(result, str)
                   and result.startswith("ParseError")
                   for result in failed)


# -- expression trees ------------------------------------------------------

class Tree(NamedTuple):
    """A generated expression: its precedence (1 = comma ... 17 =
    primary), its text with the fewest parentheses that keep the
    shape, and its shape fully parenthesized, as :func:`shape` prints a
    parsed one."""

    prec: int
    text: str
    shape: str


def wrap(tree, least):
    return tree.text if tree.prec >= least else f"( {tree.text} )"


#: All 18 binary operators, with their precedence.
BINARY = [(op, 4 + level)
          for level, ops in enumerate(Parser._BINARY_LEVELS) for op in ops]
ASSIGN = ["=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "^=",
          "|="]
#: Type name as written, and as ``str(ctype)`` prints it.
CASTS = [("int", "int"), ("unsigned", "unsigned int"),
         ("float", "float"), ("char *", "char *"),
         ("const int", "const int")]
#: Prefix operator and the least precedence of its operand.
PREFIX = [("+", 14), ("-", 14), ("!", 14), ("~", 14), ("*", 14),
          ("&", 14), ("++", 15), ("--", 15), ("sizeof", 15)]
LEAVES = [Tree(17, "x", "x"), Tree(17, "y", "y"), Tree(17, "1", "1"),
          Tree(17, "2.5", "2.5"), Tree(17, "'c'", "99"),
          Tree(17, '"s"', "'s'"),
          Tree(15, "sizeof ( int )", "sizeof(int)")]


def binary(op, left, right):
    prec = dict(BINARY)[op]
    return Tree(prec, f"{wrap(left, prec)} {op} {wrap(right, prec + 1)}",
                f"({left.shape} {op} {right.shape})")


def assign(op, target, value):
    return Tree(2, f"{wrap(target, 15)} {op} {wrap(value, 2)}",
                f"({target.shape} {op} {value.shape})")


def conditional(cond, then, otherwise):
    return Tree(3, f"{wrap(cond, 4)} ? {wrap(then, 1)} : "
                   f"{wrap(otherwise, 3)}",
                f"({cond.shape} ? {then.shape} : {otherwise.shape})")


def comma(left, right):
    return Tree(1, f"{wrap(left, 1)} , {wrap(right, 2)}",
                f"({left.shape} , {right.shape})")


def cast(type_name, operand):
    written, printed = type_name
    return Tree(14, f"( {written} ) {wrap(operand, 14)}",
                f"(({printed}) {operand.shape})")


def prefix(op, operand):
    op, least = op
    return Tree(15, f"{op} {wrap(operand, least)}",
                f"({op} {operand.shape})")


def postfix(form, base, extra):
    text = wrap(base, 16)
    if form == "[]":
        return Tree(16, f"{text} [ {wrap(extra[0], 1)} ]",
                    f"({base.shape}[{extra[0].shape}])")
    if form == "()":
        return Tree(16, f"{text} ( "
                        f"{' , '.join(wrap(a, 2) for a in extra)} )",
                    f"({base.shape}("
                    f"{', '.join(a.shape for a in extra)}))")
    if form in (".", "->"):
        return Tree(16, f"{text} {form} f", f"({base.shape}{form}f)")
    return Tree(16, f"{text} {form}", f"({base.shape} p{form})")


def shape(expr):
    """A parsed expression, fully parenthesized."""
    if isinstance(expr, A.Ident):
        return expr.name
    if isinstance(expr, (A.IntLit, A.CharLit)):
        return str(expr.value)
    if isinstance(expr, (A.FloatLit, A.StringLit)):
        return repr(expr.value)
    if isinstance(expr, A.SizeofType):
        return f"sizeof({expr.of_type.ctype})"
    if isinstance(expr, A.BinaryOp):
        return f"({shape(expr.left)} {expr.op} {shape(expr.right)})"
    if isinstance(expr, A.Assignment):
        return f"({shape(expr.target)} {expr.op} {shape(expr.value)})"
    if isinstance(expr, A.Conditional):
        return (f"({shape(expr.cond)} ? {shape(expr.then)} : "
                f"{shape(expr.otherwise)})")
    if isinstance(expr, A.Cast):
        return f"(({expr.to_type.ctype}) {shape(expr.operand)})"
    if isinstance(expr, A.UnaryOp):
        return f"({expr.op} {shape(expr.operand)})"
    if isinstance(expr, A.PostfixOp):
        return f"({shape(expr.operand)} {expr.op})"
    if isinstance(expr, A.Subscript):
        return f"({shape(expr.base)}[{shape(expr.index)}])"
    if isinstance(expr, A.Call):
        return (f"({shape(expr.func)}("
                f"{', '.join(shape(a) for a in expr.args)}))")
    assert isinstance(expr, A.Member)
    return f"({shape(expr.base)}{'->' if expr.arrow else '.'}" \
        f"{expr.field_name})"


def _extend(inner):
    return st.one_of(
        st.builds(binary, st.sampled_from([op for op, _ in BINARY]),
                  inner, inner),
        st.builds(assign, st.sampled_from(ASSIGN), inner, inner),
        st.builds(conditional, inner, inner, inner),
        st.builds(comma, inner, inner),
        st.builds(cast, st.sampled_from(CASTS), inner),
        st.builds(prefix, st.sampled_from(PREFIX), inner),
        st.builds(postfix, st.sampled_from(["[]", "()", ".", "->", "++",
                                            "--"]),
                  inner, st.lists(inner, min_size=1, max_size=2)))


trees = st.recursive(st.sampled_from(LEAVES), _extend, max_leaves=14)


class TestExpressionTrees:
    @given(tree=trees)
    @settings(max_examples=400, deadline=None)
    def test_minimally_parenthesized_trees(self, tree):
        unit = assert_same(
            tokenize(f"int f(void) {{ return {tree.text}; }}"))
        assert shape(unit.items[0].body.items[0].value) == tree.shape

    def test_every_binary_operator_is_drawn_from_the_table(self):
        assert len(BINARY) == 18
        assert set(Parser._PRECEDENCE) >= {op for op, _ in BINARY}

    @pytest.mark.parametrize("text, expected", [
        ("a - b - c", "((a - b) - c)"),
        ("a - b * c - d", "((a - (b * c)) - d)"),
        ("a || b && c | d ^ e & f == g < h << i + j * k",
         "(a || (b && (c | (d ^ (e & (f == (g < (h << (i + (j * k))"
         "))))))))"),
        ("a * b + c << d < e == f & g ^ h | i && j || k",
         "((((((((((a * b) + c) << d) < e) == f) & g) ^ h) | i) && j)"
         " || k)"),
        ("a = b += c ? d : e ? f : g",
         "(a = (b += (c ? d : (e ? f : g))))"),
    ])
    def test_precedence_and_associativity(self, text, expected):
        unit = assert_same(tokenize(f"int f(void) {{ return {text}; }}"))
        assert shape(unit.items[0].body.items[0].value) == expected


# -- token mutants ---------------------------------------------------------

#: Every statement form and operator the corpora use rarely or never.
EVERYTHING = """
typedef unsigned int word;
enum color { RED, GREEN = 4, BLUE };
struct pair { int a; float b[2]; } g;
union both { int i; float f; };
static const char *names[] = { "a" "b", "c" };
long double wide(register short s, ...);
int (*handler)(int);
#pragma safe
int f(int n, struct pair *p)
{
    word w = sizeof (word) + sizeof w + sizeof (struct pair);
    typedef int local;
    const local c = 2;
    volatile int v = c;
    int i = 0, j, k[3];
    for (i = 0, j = n; i < j && !(i == 3 || j != 2); i++, j--)
        k[i % 3] += (int) (p->b[1] * 2.5f) << 1 >> 1 | 1 ^ 2 & ~3;
    do { w -= -w; } while (w > 0 && w <= 9 || w >= 100);
    switch (n) { case RED: case BLUE + 1: n *= 2; break;
                 default: n /= 2; }
again:
    if (n) { n = n ? n - 1 : g.a--; goto again; } else ;
    while (--n) continue;
    return (p->a = *&i), ++i, i-- - -i;
}
"""

SEEDS = {os.path.basename(path): tokens_of(_read(path))
         for path in REPO_FILES}
SEEDS["everything.c"] = tokens_of(EVERYTHING)
SEEDS.update((name, tokens_of(source))
             for name, source in list(E19_SOURCES.items())[::6])
SEEDS = {name: tokens for name, tokens in SEEDS.items()
         if tokens is not None}


def mutants(tokens):
    """Every stream with one token deleted or one token doubled, every
    punctuator or keyword replaced by a string literal of the same
    text, and every prefix of the stream."""
    body, eof = tokens[:-1], tokens[-1:]
    for at, tok in enumerate(body):
        yield body[:at] + eof
        yield body[:at] + body[at + 1:] + eof
        yield body[:at + 1] + body[at:] + eof
        if tok.kind in (L.PUNCT, L.KEYWORD):
            lookalike = L.Token(L.STRING, tok.value, tok.coord)
            yield body[:at] + [lookalike] + body[at + 1:] + eof


#: Tokens to insert: every punctuator and keyword, a name, a number,
#: and string literals spelling each punctuator and keyword.
_AT = A.Coord("f.c", 1, 1)
VOCABULARY = [L.Token(L.PUNCT, p, _AT) for p in L.PUNCTUATORS] \
    + [L.Token(L.KEYWORD, k, _AT) for k in sorted(L.KEYWORDS)] \
    + [L.Token(L.STRING, w, _AT) for w in L.PUNCTUATORS
       + sorted(L.KEYWORDS)] \
    + [L.Token(L.ID, "z", _AT), L.Token(L.INT_CONST, "7", _AT,
                                        int_value=7)]


class TestTokenMutants:
    def test_the_hand_written_seed_parses(self):
        assert isinstance(outcome(Parser, SEEDS["everything.c"]),
                          A.TranslationUnit)

    @pytest.mark.parametrize("name", ["everything.c", "daxpy.c",
                                      "backsolve.c",
                                      "liveness_call_kill.c"])
    def test_every_single_token_edit(self, name):
        for tokens in mutants(SEEDS[name]):
            assert_same(tokens)

    @given(name=st.sampled_from(sorted(SEEDS)),
           edits=st.lists(st.tuples(
               st.sampled_from(["delete", "duplicate", "insert"]),
               st.floats(min_value=0, max_value=1, exclude_max=True),
               st.sampled_from(VOCABULARY)), min_size=1, max_size=4))
    @settings(max_examples=400, deadline=None)
    def test_random_deletions_duplications_and_insertions(self, name,
                                                          edits):
        body, eof = list(SEEDS[name][:-1]), SEEDS[name][-1]
        for edit, where, token in edits:
            at = int(where * len(body))
            if edit == "delete":
                del body[at]
            elif edit == "duplicate":
                body.insert(at, body[at])
            else:
                body.insert(at, token)
        assert_same(body + [eof])
