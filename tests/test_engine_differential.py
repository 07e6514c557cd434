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
from hypothesis import HealthCheck, given, settings, strategies as st

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


# -- random integer expression trees in C --------------------------------------
#
# The generated programs above keep their values small; these do not.
# Operands sit at the edges of 32 (and 16, and 8) bits, so a chain of
# ring operators overflows, and the trees put observers — comparisons,
# shifts right, division, remainder, conversions, conditions — right
# above such chains: a wrap the scalar generator deferred past one of
# them, or proved away from a wrong interval, changes the checksum.

INT_TABLE = (-2147483647 - 1, 2147483647, 46341, -46341, 65535, 65536,
             -65536, 1073741824, -1073741824, 32767, -32768, 255, 3, -1, 0,
             7)
C_LEAVES = ("i", "g[i & 15]", "g[(i + 5) & 15]", "u[i & 15]",
            "h[(i + 2) & 15]", "out[i]", "2147483647", "46341", "65536",
            "65535", "4294967295U", "1073741824", "31", "3", "(-7)")
C_RING = ("+", "-", "*", "&", "|", "^", "<<")
C_CASTS = ("(short) {}", "(unsigned short) {}", "(char) {}",
           "(unsigned char) {}", "(unsigned int) {}", "(int) {}",
           "(int) (float) {}", "(int) (0.5f * (float) {})")


@st.composite
def c_ring_chains(draw, depth):
    """Ring operators only: a chain that overflows 32 bits."""
    if depth <= 0:
        return draw(st.sampled_from(C_LEAVES))
    below = c_ring_chains(depth - 1)
    return f"({draw(below)} {draw(st.sampled_from(C_RING))} {draw(below)})"


@st.composite
def c_int_trees(draw, depth):
    """Observers right above overflowing ring chains."""
    chain = c_ring_chains(draw(st.integers(1, 2)))
    if depth <= 0:
        return draw(chain)
    below = st.one_of(chain, c_int_trees(depth - 1))
    pick = draw(st.integers(0, 9))
    if pick <= 1:
        return f"({draw(below)} {draw(st.sampled_from(C_RING))} " \
               f"{draw(below)})"
    if pick == 2:
        return f"({draw(chain)} >> {draw(below)})"
    if pick <= 4:
        # A divisor with its low bit set is never zero.
        return f"({draw(chain)} {draw(st.sampled_from('/%'))} " \
               f"({draw(below)} | 1))"
    if pick <= 6:
        op = draw(st.sampled_from(("<", ">", "<=", ">=", "==", "!=")))
        return f"({draw(chain)} {op} {draw(below)})"
    if pick == 7:
        return f"({draw(st.sampled_from('-~!'))}{draw(chain)})"
    if pick == 8:
        return "(" + draw(st.sampled_from(C_CASTS)).format(draw(chain)) \
            + ")"
    return f"({draw(chain)} ? {draw(below)} : {draw(chain)})"


@st.composite
def c_int_programs(draw):
    table = ", ".join(map(str, INT_TABLE))
    first = draw(c_int_trees(draw(st.integers(1, 3))))
    second = draw(c_int_trees(draw(st.integers(1, 3))))
    return (f"int g[16] = {{ {table} }};\n"
            f"unsigned int u[16] = {{ {table.replace('-', '')} }};\n"
            "short h[16] = { 32767, -32768, 255, -1, 3, 181, -182, 0,\n"
            "                1, 2, 16384, -16384, 7, 100, -100, 9 };\n"
            "int out[40];\n"
            "int main(void)\n{\n    int i, r;\n"
            "    for (i = 0; i < 40; i++)\n        out[i] = i * 3 - 7;\n"
            f"    for (i = 0; i < 40; i++)\n        out[i] = {first};\n"
            "    r = 0;\n"
            "    for (i = 0; i < 40; i++)\n"
            f"        r = r * 31 + (int) ({second});\n"
            "    return r;\n}\n")


SCALAR_LOOPS = CompilerOptions(vectorize=False, parallelize=False)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(source=c_int_programs())
def test_random_int_expression_trees_plain_and_costed(source):
    for options in (O0, SCALAR_LOOPS, FULL):
        program = compile_c(source, options).program
        tree = _observe(program, "tree", "forward")
        assert _observe(program, "compiled", "forward") == tree, source
        _assert_costed_agrees(program, options, source)


#: One loop per observer, each reading a chain that overflows: what the
#: random trees find by chance, pinned.  ``k`` and ``m`` are registers,
#: so ``k * 46341`` is shared within a statement (a bound temp must be
#: exact: its second reader is an observer); in the vectorized loop
#: ``i * 12000000`` leaves 32 bits inside the strip variable's range
#: (from i = 179) and ``i * 9000000`` does not.
PINNED_OBSERVERS = """
int g[16] = { %s };
unsigned int u[16] = { %s };
int a[40], b[40], c[40], d[40], e[200], f[40];
float x[40];
int main(void)
{
    int i, k, m, r;
    for (i = 0; i < 40; i++) {
        k = g[i & 15];
        m = g[(i + 5) & 15];
        a[i] = ((k * 46341) * 3) + ((k * 46341 - (m << 9)) > m);
        b[i] = ((k * 46341 - (m << 9)) >> 3) ^ ((k * 46341) / (m | 1));
        c[i] = ((k * 46341) %% (m | 1)) + ((k << 31) ? k : m)
             + !(k * 65536 * 65536 + (m & 1));
        d[i] = (short) (k * 46341) + (unsigned char) (k * 255)
             + ((unsigned int) (k - m) / 3U > u[i & 15]);
        x[i] = (float) (k * 46341 + m);
        f[i] = (int) (0.5f * (float) (k * m)) + (-(k * 46341) > ~(m * k));
    }
    for (i = 0; i < 200; i++)
        e[i] = (i * 12000000) / 7 + (i * 9000000) / 7;
    r = 0;
    for (i = 0; i < 40; i++)
        r = r * 31 + (a[i] ^ b[i] ^ c[i] ^ d[i] ^ e[i * 5 + 4] ^ f[i])
          + (int) (x[i] * 0.001f);
    return r;
}
""" % (", ".join(map(str, INT_TABLE)),
       ", ".join(str(v).lstrip("-") for v in INT_TABLE))


def test_pinned_observers_of_overflowing_chains():
    for options in (O0, SCALAR_LOOPS, FULL):
        program = compile_c(PINNED_OBSERVERS, options).program
        _assert_engines_agree(program, "pinned-observers")
        _assert_costed_agrees(program, options, "pinned-observers")
