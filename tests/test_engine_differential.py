"""Differential sweep: the fast engine vs the tree-walking oracle.

Replays the entire ``tests/fuzz_corpus/`` plus a fixed-seed generated
batch under both execution engines and every parallel iteration
order, once per half of the fast engine.  Hook-free it runs
observation-free generated code: identical return values, stdout and
dynamic step counts.  Under a :class:`TitanCostModel` — every
simulation — it runs generated code with inline accounting, which has
its own sweep at the bottom: examples, corpus and the E19 kernels
across processors x vector length x parallel order, every reported
field (cycles exactly) equal to the oracle's; one test also compares
end-to-end :class:`TitanSimulator` totals directly.  Under any other
hook the fast engine runs the tree oracle itself, so a recording-hook
sweep would compare the oracle with itself (the routing is pinned by
``test_bytecode_engine.py``'s event-stream test).

Each comparison compiles the program ONCE and runs all engines over
the same IL object — statement ids are a global counter, so compiling
twice would produce graphs the shared cost model keys differently.
"""

import os

import pytest

from repro.frontend.lower import compile_to_il
from repro.fuzz import generate_program
from repro.fuzz.harness import run_costed
from repro.interp import ENGINES, make_interpreter
from repro.pipeline import CompilerOptions, compile_c
from repro.titan.config import TitanConfig
from repro.titan.simulator import TitanSimulator

HERE = os.path.dirname(__file__)
CORPUS_DIR = os.path.join(HERE, "fuzz_corpus")
EXAMPLES_DIR = os.path.join(HERE, os.pardir, "examples")
E19_KERNELS_DIR = os.path.join(HERE, os.pardir, "benchmarks", "e19",
                               "corpus", "kernels")
ORDERS = ("forward", "reverse", "shuffle")
GENERATED_SEEDS = tuple(range(3000, 3008))

O0 = CompilerOptions(inline=False, scalar_opt=False, vectorize=False,
                     parallelize=False, reg_pipeline=False,
                     strength_reduction=False)
FULL = CompilerOptions()


def _runnable_corpus():
    out = []
    for name in sorted(os.listdir(CORPUS_DIR)):
        if not name.endswith(".c"):
            continue
        with open(os.path.join(CORPUS_DIR, name)) as handle:
            source = handle.read()
        if source.splitlines()[0].strip() == "// expect: run":
            out.append((name, source))
    return out


def _observe(program, engine, order):
    """(result, stdout, steps) of one hook-free run."""
    interp = make_interpreter(
        program, engine=engine, parallel_order=order, seed=7,
        max_steps=2_000_000)
    return interp.run("main"), interp.stdout, interp.steps


def _assert_engines_agree(program, label):
    for order in ORDERS:
        tree = _observe(program, "tree", order)
        for engine in ENGINES[1:]:
            fast = _observe(program, engine, order)
            for what, a, b in zip(("result", "stdout", "steps"),
                                  tree, fast):
                assert a == b, (
                    f"{label}@{order}: {engine} disagrees with tree "
                    f"on {what}")


@pytest.mark.parametrize("name,source",
                         _runnable_corpus(),
                         ids=lambda v: v if isinstance(v, str)
                         and v.endswith(".c") else "")
def test_corpus_both_engines_all_orders(name, source):
    for options in (O0, FULL):
        program = compile_c(source, options).program
        _assert_engines_agree(program, name)


@pytest.mark.parametrize("seed", GENERATED_SEEDS)
def test_generated_batch_both_engines(seed):
    source = generate_program(seed).source
    for options in (O0, FULL):
        program = compile_c(source, options).program
        _assert_engines_agree(program, f"seed-{seed}")


def test_unoptimized_il_both_engines():
    # The fuzz reference path (front-end IL, no optimizer) must agree
    # between engines too.
    for seed in GENERATED_SEEDS[:3]:
        source = generate_program(seed).source
        program = compile_to_il(source, f"seed-{seed}")
        _assert_engines_agree(program, f"seed-{seed}-O0il")


def test_titan_cycle_totals_identical():
    # End-to-end: the full simulator stack reports identical cycles,
    # counters, and utilization breakdown under either engine.
    source = generate_program(3100).source
    program = compile_c(source, FULL).program
    reports = {}
    for engine in ENGINES:
        sim = TitanSimulator(program, TitanConfig(),
                             use_scheduler=False, engine=engine)
        reports[engine] = sim.run("main")
    tree = reports["tree"]
    for engine in ENGINES[1:]:
        fast = reports[engine]
        assert fast.cycles == tree.cycles, engine
        assert fast.counters == tree.counters, engine
        assert fast.breakdown == tree.breakdown, engine
        assert fast.result == tree.result, engine
        assert fast.stdout == tree.stdout, engine


# ---------------------------------------------------------------------------
# The costed half: generated code with inline Titan accounting
# ---------------------------------------------------------------------------

PROCESSORS = (1, 2, 4)
VECTOR_LENGTHS = (32, 64, 128, 2048)


def _c_files(directory):
    out = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".c"):
            with open(os.path.join(directory, name)) as handle:
                out.append((name, handle.read()))
    return out


def _costed_sources():
    """Examples with a ``main``, the runnable corpus, and the E19
    kernel templates rendered at a length that leaves a short last
    strip at every vector length."""
    out = [(f"examples/{name}", source)
           for name, source in _c_files(EXAMPLES_DIR)
           if "main(" in source]
    out += [(f"corpus/{name}", source)
            for name, source in _runnable_corpus()]
    out += [(f"e19/{name}",
             source.replace("{n}", "200").replace("{s}", "3"))
            for name, source in _c_files(E19_KERNELS_DIR)]
    return out


def _assert_costed_agrees(program, options, label):
    for order in ORDERS if options.parallelize else ORDERS[:1]:
        _, differs = run_costed(program, options, 2_000_000, order)
        assert not differs, (
            f"{label}@{order}: compiled under TitanCostModel "
            f"disagrees with tree on {differs}")


@pytest.mark.parametrize("name,source", _costed_sources(),
                         ids=lambda v: v if isinstance(v, str)
                         and v.endswith(".c") else "")
def test_costed_sweep_processors_vector_lengths_orders(name, source):
    _assert_costed_agrees(compile_c(source, O0).program, O0,
                          f"{name}/O0")
    for processors in PROCESSORS:
        for vector_length in VECTOR_LENGTHS:
            options = CompilerOptions(processors=processors,
                                      vector_length=vector_length)
            _assert_costed_agrees(
                compile_c(source, options).program, options,
                f"{name}/p{processors}/vl{vector_length}")


@pytest.mark.parametrize("seed", GENERATED_SEEDS)
def test_costed_generated_batch(seed):
    source = generate_program(seed).source
    for options in (O0, FULL):
        _assert_costed_agrees(compile_c(source, options).program,
                              options, f"seed-{seed}")
