"""A host-independent guard on the fast engine's work per strip.

One costed run of E19's daxpy kernel at n = 24,576 and vector length
32 (768 strips in each of its four strip loops) under
``sys.setprofile`` makes a fixed number of Python-level calls: a
count, not a time, so it repeats exactly across runs, hosts and hash
seeds.  The bound is the count measured when a strip loop began to run
as a few host-sized bulk operations (strip groups), plus 10 %; run one
strip at a time, the same run made 28,075 calls, so a return to
per-strip host work fails here on any host.
"""

import gc
import os
import subprocess
import sys

import pytest

from repro.pipeline import CompilerOptions, compile_c
from repro.titan.config import TitanConfig
from repro.titan.simulator import TitanSimulator

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DAXPY = os.path.join(ROOT, "benchmarks", "e19", "corpus", "kernels",
                     "daxpy.c")

#: Python-level calls of the run, as measured (CPython 3.11), + 10 %.
RUN_CALLS = 2240 * 1.1


def daxpy_program():
    with open(DAXPY, encoding="utf-8") as handle:
        text = handle.read().replace("{n}", "24576").replace("{s}", "1")
    return compile_c(text, CompilerOptions(vector_length=32)).program


def run_calls(program) -> tuple:
    """Python-level and C calls of one costed run of ``program``'s
    ``main`` (its generated code already built), and its cycles."""
    def run():
        with TitanSimulator(program, TitanConfig(processors=2)) as sim:
            return sim.run("main").cycles

    # Not counted: the first run's code generation, and the counter
    # the second creates for its codegen-cache hit.
    run()
    run()
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    # A collection mid-run would count its finalizers' calls too.
    gc.collect()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        cycles = run()
    finally:
        sys.setprofile(previous)
        gc.enable()
    return counts["call"], counts["c_call"], cycles


@pytest.fixture(scope="module")
def program():
    return daxpy_program()


@pytest.fixture(scope="module")
def work(program):
    return run_calls(program)


def test_the_count_repeats(program, work):
    assert run_calls(program) == work


def test_a_strip_loop_costs_a_few_bulk_operations(work):
    calls, _, _ = work
    assert calls <= RUN_CALLS, calls


def test_the_count_does_not_depend_on_the_hash_seed(work):
    script = ("from tests.test_engine_work import daxpy_program, run_calls;"
              "print(run_calls(daxpy_program()))")
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       (os.path.join(ROOT, "src"), ROOT)))
        out = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             check=True).stdout
        assert out.strip() == repr(work)
