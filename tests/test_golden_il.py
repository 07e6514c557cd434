"""Golden IL snapshots: the printer output after each major pipeline
stage, checked verbatim against files in ``tests/golden/``.

These catch *silent* changes in what the compiler produces — a pass
reordering, a different strip-mine shape, a renamed temp — that the
behavioural tests (which only compare execution results) would never
see.  When an intentional change shifts the IL, regenerate with::

    pytest tests/test_golden_il.py --update-goldens

and review the golden diffs like any other code change.  The paper
itself argues by transcript (its figures are compiler output); these
snapshots are the repository's equivalent of those figures.
"""

import pathlib

import pytest

from repro.pipeline import CompilerOptions, compile_c

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"
CORPUS = pathlib.Path(__file__).parent / "fuzz_corpus"

#: Every stage the driver dumps for the default option set, in
#: pipeline order.
STAGES = ("front-end", "inline", "scalar-opt", "vectorize",
          "dependence-opt", "final")

CASES = {
    "daxpy": EXAMPLES / "daxpy.c",
    "backsolve": EXAMPLES / "backsolve.c",
    "inline_chain": GOLDEN_DIR / "inline_chain.c",
    "ifconvert": GOLDEN_DIR / "ifconvert.c",
    # One loop per vectorizer code-generation shape: sequential
    # recurrence loop, serial and parallel strip loops, direct vector
    # statement and reduction.
    "strip_regions": CORPUS / "strip_regions.c",
}


@pytest.fixture(scope="module")
def compiled():
    results = {}
    for case, path in CASES.items():
        results[case] = compile_c(path.read_text(),
                                  CompilerOptions(dump_stages=True))
    return results


def _golden_path(case: str, stage: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{case}.{stage}.il"


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("stage", STAGES)
def test_stage_matches_golden(case, stage, compiled, request):
    text = compiled[case].stage_text(stage)
    path = _golden_path(case, stage)
    if request.config.getoption("--update-goldens"):
        path.write_text(text)
        return
    assert path.exists(), (
        f"missing golden snapshot {path}; generate it with "
        f"`pytest {__file__} --update-goldens`")
    assert text == path.read_text(), (
        f"IL after stage {stage!r} of {case} changed; if intentional, "
        f"regenerate with `pytest {__file__} --update-goldens` and "
        f"review the diff")


def test_all_stages_dumped(compiled):
    for case, result in compiled.items():
        assert [d.stage for d in result.stages] == list(STAGES), case


def test_dumps_are_deterministic():
    source = CASES["daxpy"].read_text()
    first = compile_c(source, CompilerOptions(dump_stages=True))
    second = compile_c(source, CompilerOptions(dump_stages=True))
    for a, b in zip(first.stages, second.stages):
        assert a.stage == b.stage
        assert a.text == b.text


def test_inline_stage_expanded_the_chain(compiled):
    """The inliner fixture really exercises the inliner: the call
    chain is gone from the inlined dump but present at the front end."""
    front = compiled["inline_chain"].stage_text("front-end")
    inlined = compiled["inline_chain"].stage_text("inline")
    assert "combine(" in front and "apply(32)" in front
    body = inlined.split("int main()", 1)[1]
    assert "combine(" not in body
    assert "apply(32)" not in body
