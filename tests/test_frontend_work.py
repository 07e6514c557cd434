"""A host-independent guard on the front end's work.

Parsing and lowering E19's twelve kernel templates (rendered at
n = 256, as ``compile_cold`` renders them) under ``sys.setprofile``
makes a fixed number of Python-level calls: a count, not a time, so it
repeats exactly across runs, hosts and hash seeds.  The bounds are the
counts measured when precedence climbing replaced per-level recursive
descent, plus 10 %; the per-level parser made 23.3 calls a token to
parse (16.7 of them in ``parser.py``) and the lowering 11.9, so a
return to either fails here on any host.
"""

import glob
import os
import sys

import pytest

from repro.frontend import parser as parser_module
from repro.frontend.lexer import tokenize
from repro.frontend.lower import lower
from repro.frontend.parser import Parser
from repro.frontend.preprocessor import preprocess
from repro.il import nodes as N

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
KERNELS = sorted(glob.glob(os.path.join(ROOT, "benchmarks", "e19", "corpus",
                                        "kernels", "*.c")))

#: Python-level calls per token, as measured (CPython 3.11), + 10 %.
PARSE_CALLS_PER_TOKEN = 7.77 * 1.1
PARSER_PY_CALLS_PER_TOKEN = 5.76 * 1.1
LOWER_CALLS_PER_TOKEN = 7.30 * 1.1


def _sources():
    for path in KERNELS:
        with open(path, encoding="utf-8") as handle:
            text = handle.read().replace("{n}", "256").replace("{s}", "1")
        yield os.path.basename(path), text


def counted(work):
    """``work()``'s result and the Python-level calls it made, in all
    and in ``parser.py``."""
    counts = {"all": 0, "parser.py": 0}
    parser_file = parser_module.__file__

    def profile(frame, event, arg):
        if event == "call":
            counts["all"] += 1
            if frame.f_code.co_filename == parser_file:
                counts["parser.py"] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = work()
    finally:
        sys.setprofile(previous)
    return result, counts


def front_end_work():
    """Calls per token to parse, to parse within ``parser.py``, and
    to lower, over the twelve kernels."""
    tokens = parse = in_parser = lowering = 0
    for name, text in _sources():
        stream = tokenize(preprocess(text, name), name)
        unit, counts = counted(
            lambda: Parser(stream).parse_translation_unit())
        N.reset_sids()
        _, lowered = counted(lambda: lower(unit))
        tokens += len(stream)
        parse += counts["all"]
        in_parser += counts["parser.py"]
        lowering += lowered["all"]
    return parse / tokens, in_parser / tokens, lowering / tokens


@pytest.fixture(scope="module")
def work():
    front_end_work()  # first-call work (imports, caches) is not counted
    return front_end_work()


def test_the_kernels_are_there():
    assert len(KERNELS) == 12


def test_the_count_repeats(work):
    assert front_end_work() == work


def test_parsing_costs_what_a_token_costs(work):
    parse, in_parser, _ = work
    assert parse <= PARSE_CALLS_PER_TOKEN, parse
    assert in_parser <= PARSER_PY_CALLS_PER_TOKEN, in_parser


def test_lowering_builds_no_type_it_need_not(work):
    _, _, lowering = work
    assert lowering <= LOWER_CALLS_PER_TOKEN, lowering
