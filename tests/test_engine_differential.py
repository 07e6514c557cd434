"""Differential sweep: the fast engine vs the tree-walking oracle.

Replays the entire ``tests/fuzz_corpus/`` plus a fixed-seed generated
batch under both execution engines and every parallel iteration
order, asserting identical return values, stdout, dynamic step
counts, and cost-event streams (the event stream determines the Titan
cycle breakdown, so stream equality is the strongest cycle check; one
test also compares end-to-end :class:`TitanSimulator` cycle totals
directly).

Each engine runs twice per order, once per half of the fast engine:
with a cost hook installed it runs its event-emitting closures (the
hook-stream assertions pin them down), hook-free it runs generated
code — a hooked-only sweep would never execute a generated function,
a hook-free one would never touch the closures every simulation uses.

Each comparison compiles the program ONCE and runs all engines over
the same IL object — statement ids are a global counter, so compiling
twice would produce graphs the shared cost model keys differently.
"""

import os

import pytest

from repro.frontend.lower import compile_to_il
from repro.fuzz import generate_program
from repro.interp import ENGINES, make_interpreter
from repro.pipeline import CompilerOptions, compile_c
from repro.titan.config import TitanConfig
from repro.titan.simulator import TitanSimulator

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "fuzz_corpus")
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


def _observe(program, engine, order, hooked=True):
    """(result, stdout, steps[, cost events]) of one run."""
    events = []
    kwargs = {}
    if hooked:
        kwargs["cost_hook"] = lambda *event: events.append(event)
    interp = make_interpreter(
        program, engine=engine, parallel_order=order, seed=7,
        max_steps=2_000_000, **kwargs)
    result = interp.run("main")
    obs = [result, interp.stdout, interp.steps]
    if hooked:
        obs.append(events)
    return obs


def _assert_engines_agree(program, label):
    for order in ORDERS:
        for hooked in (True, False):
            kinds = ("result", "stdout", "steps", "events")
            tree = _observe(program, "tree", order, hooked)
            for engine in ENGINES[1:]:
                fast = _observe(program, engine, order, hooked)
                for what, a, b in zip(kinds, tree, fast):
                    assert a == b, (
                        f"{label}@{order} hooked={hooked}: {engine} "
                        f"disagrees with tree on {what}")


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
