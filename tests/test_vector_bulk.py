"""The bulk lowering of vector statements, against the tree oracle.

``repro.interp.vectorgen`` turns a ``VectorAssign``/``VectorReduce``
into whole-vector operations on the byte image; the oracle's per-lane
loop stays the definition.  One construct each is pinned in
``tests/vector_cases.py`` (run from ``test_bytecode_engine.py`` and
``test_costed_codegen.py``); here: random well-typed vector IL
executed both ways on identical images, which lowering every
statement of the examples and the E19 kernels took, and the bound on
what the bulk path keeps.
"""

import math
import os
import struct

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.frontend.ctypes_ import (CHAR, DOUBLE, FLOAT, INT, SHORT, UCHAR,
                                    UINT)
from repro.il import nodes as N
from repro.il.validate import validate_function
from repro.interp import make_interpreter, vectorgen
from repro.pipeline import CompilerOptions, compile_c, titan_config
from repro.titan.config import TitanConfig
from repro.titan.simulator import TitanSimulator
from tests import vector_cases as vc

HERE = os.path.dirname(__file__)
EXAMPLES_DIR = os.path.join(HERE, os.pardir, "examples")
E19_KERNELS_DIR = os.path.join(HERE, os.pardir, "benchmarks", "e19",
                               "corpus", "kernels")

TYPES = (FLOAT, DOUBLE, INT, CHAR, UINT, SHORT)
STRIDES = (-2, -1, 1, 2, 3)
ARITHMETIC = ("+", "-", "*", "/", "%", "min", "max",
              "<<", ">>", "&", "|", "^")
COMPARISONS = ("==", "!=", "<", ">", "<=", ">=")
FLOAT_VALUES = (0.0, -0.0, 1.0, -1.5, 0.1, 3.0e38, -3.0e38, 1e300,
                math.inf, -math.inf, math.nan)
#: Small ints never overflow a drawn chain; these do (a wrap wrongly
#: deferred past an observer shows only then).
INT_VALUES = st.integers(-9, 9) | st.sampled_from(vc.BOUNDARY_INTS)
INT32_VALUES = st.integers(-5, 5) | st.sampled_from(
    [v for v in vc.BOUNDARY_INTS if -(1 << 31) <= v < 1 << 31])


@st.composite
def sections(draw, vp, lanes, ctype=None):
    """A section of ``lanes`` elements wholly inside one of the
    arrays — or, rarely, hanging off either end of the image."""
    array = draw(st.sampled_from(sorted(vc.ARRAYS)))
    elem = vc.ARRAYS[array]
    stride = draw(st.sampled_from(STRIDES))
    if draw(st.integers(0, 23)) == 0:
        address = draw(st.sampled_from((0, 4, 9, vc.END - 3, vc.END - 10,
                                        vc.END - 32)))
        return vp.at(address, ctype or elem, stride)
    reach = max(lanes - 1, 0) * abs(stride)
    start = draw(st.integers(0, vc.ELEMS - 1 - reach))
    if stride < 0:
        start += reach
    skew = 0
    if ctype is not None and ctype.sizeof() > elem.sizeof():
        # Reinterpreted wider: stay inside the array's bytes.
        start = min(start, max(0, (vc.ELEMS * elem.sizeof()
                                   - (reach + 1) * ctype.sizeof())
                               // elem.sizeof()))
        if stride < 0:
            return vp.section(array, 0, abs(stride), ctype, 0)
    elif draw(st.integers(0, 9)) == 0 and start + reach + 1 < vc.ELEMS:
        skew = draw(st.integers(1, elem.sizeof()))  # unaligned
    return vp.section(array, start, stride, ctype, skew)


@st.composite
def scalars(draw, vp):
    """Something evaluated once per statement."""
    pick = draw(st.integers(0, 23)) % 12 if draw(st.booleans()) \
        else draw(st.integers(0, 10))
    if pick <= 3:
        return vc.const(draw(INT_VALUES), INT)
    if pick <= 5:
        return vc.const(draw(st.sampled_from(FLOAT_VALUES)),
                        draw(st.sampled_from((FLOAT, DOUBLE))))
    if pick <= 7:
        return vp.var(draw(st.sampled_from(sorted(vc.GLOBAL_SCALARS))))
    if pick <= 10:
        return vp.var(draw(st.sampled_from(sorted(vc.REGISTERS))))
    return vp.var("unset")


RING = ("+", "-", "*", "&", "|", "^", "<<")
OBSERVERS = ("/", "%", ">>", "min", "max") + COMPARISONS
INT_TYPES = (INT, INT, UINT, SHORT, CHAR)


@st.composite
def ring_chains(draw, vp, depth):
    """Ring operators only, over values near the 32-bit edges: the
    chain overflows, so its wrap matters to whatever reads it."""
    if depth <= 0:
        pick = draw(st.integers(0, 4))
        if pick <= 1:
            return vp.section(draw(st.sampled_from(("ia", "ib", "ua"))),
                              draw(st.integers(0, vc.ELEMS - 8)))
        if pick == 2:
            return vc.iota(draw(INT_VALUES))
        if pick == 3:
            return vp.var(draw(st.sampled_from(("ri", "gi", "rc"))))
        return vc.const(draw(INT_VALUES), INT)
    below = ring_chains(vp, depth - 1)
    return vc.binop(draw(st.sampled_from(RING)), draw(below), draw(below),
                    draw(st.sampled_from((INT, INT, UINT))))


@st.composite
def int_chains(draw, vp, lanes, depth):
    """An integer tree whose observers — operators that can tell a
    wrapped value from an unwrapped one — sit right above overflowing
    ring chains (as do a float operator or the store in
    :func:`lanes_of`)."""
    chain = ring_chains(vp, draw(st.integers(1, 2)))
    if depth <= 0:
        return draw(chain)
    below = int_chains(vp, lanes, depth - 1)
    ctype = draw(st.sampled_from(INT_TYPES))
    pick = draw(st.integers(0, 9))
    if pick <= 1:
        return vc.binop(draw(st.sampled_from(RING)), draw(below),
                        draw(below), ctype)
    if pick <= 5:
        return vc.binop(draw(st.sampled_from(OBSERVERS)), draw(chain),
                        draw(st.one_of(chain, below)), ctype)
    if pick == 6:
        return N.UnOp(op=draw(st.sampled_from(("neg", "not", "bnot"))),
                      operand=draw(chain), ctype=ctype)
    if pick <= 8:
        return N.Cast(operand=draw(chain), ctype=draw(
            st.sampled_from(INT_TYPES + (FLOAT, DOUBLE))))
    return vc.select(draw(chain), draw(below), draw(chain), ctype)


@st.composite
def lanes_of(draw, vp, lanes, depth):
    """A vector expression: operator trees over sections, iotas,
    broadcast scalars, casts and selects."""
    if draw(st.integers(0, 3)) == 0:
        return draw(int_chains(vp, lanes, depth))
    if depth <= 0 or draw(st.integers(0, 4)) == 0:
        pick = draw(st.integers(0, 5))
        if pick <= 2:
            return draw(sections(vp, lanes))
        if pick == 3:
            return vc.iota(draw(st.integers(-3, 5) | INT_VALUES))
        return draw(scalars(vp))
    below = lanes_of(vp, lanes, depth - 1)
    ctype = draw(st.sampled_from(TYPES))
    pick = draw(st.integers(0, 9))
    if pick <= 3:
        return vc.binop(draw(st.sampled_from(ARITHMETIC)), draw(below),
                        draw(below), ctype)
    if pick <= 5:
        return vc.binop(draw(st.sampled_from(COMPARISONS)), draw(below),
                        draw(below), INT)
    if pick == 6:
        op = draw(st.sampled_from(("neg", "not", "bnot")))
        return N.UnOp(op=op, operand=draw(below),
                      ctype=INT if op == "not" else ctype)
    if pick == 7:
        return N.Cast(operand=draw(below), ctype=ctype)
    return vc.select(draw(below), draw(below), draw(below), ctype)


@st.composite
def statements(draw, vp):
    lanes = draw(st.sampled_from((0, 1, 2, 3, 3, 4, 5, 5, 6, 7, 8, 8)))
    depth = draw(st.integers(0, 3))
    if draw(st.integers(0, 3)) == 0:
        target = draw(st.sampled_from(sorted(vc.REGISTERS)
                                      + sorted(vc.GLOBAL_SCALARS)))
        value = draw(lanes_of(vp, lanes, depth))
        if not any(isinstance(e, N.Section) for e in N.walk_expr(value)):
            # A reduction reduces over a section (IL invariant).
            value = vc.binop("+", value, draw(sections(vp, lanes)),
                             value.ctype)
        return vp.reduce(target, draw(st.sampled_from(("+", "min",
                                                       "max"))),
                         value, lanes)
    ctype = draw(st.sampled_from((None, None, FLOAT, SHORT, UCHAR, UINT)))
    mask = None
    if draw(st.booleans()):
        mask = draw(lanes_of(vp, lanes, min(depth, 2)))
        if not mask.ctype.is_integer:
            mask = vc.binop("!=", mask, vc.const(0, mask.ctype), INT)
    return vp.assign(draw(sections(vp, lanes, ctype)),
                     draw(lanes_of(vp, lanes, depth)), lanes, mask)


@st.composite
def programs(draw):
    vp = vc.VectorProgram()
    body = [draw(statements(vp))
            for _ in range(draw(st.integers(1, 2)))]
    registers = {"rf": draw(st.sampled_from(FLOAT_VALUES)),
                 "rd": draw(st.sampled_from(FLOAT_VALUES)),
                 "ri": draw(INT32_VALUES),
                 "rc": draw(st.integers(-128, 127))}
    scalars_ = {"gf": draw(st.sampled_from(FLOAT_VALUES[:8])),
                "gd": draw(st.sampled_from(FLOAT_VALUES)),
                "gi": draw(INT32_VALUES)}
    data = vc.boundary_data() if draw(st.booleans()) else None
    return vp.program(body, registers), scalars_, data


def _bnot_of_a_float():
    """A masked ``char`` store at stride -2, length 1, under a ``Select``
    whose double arm is ``bnot`` of a float constant: the bulk lowering
    took ``~int(3e38)`` for a float already, skipped its conversion to
    double, and the ``int`` select wrapped -N - 1 to -1 where the
    oracle wrapped float(-N - 1) = -N to 0."""
    vp = vc.VectorProgram()
    big = N.UnOp(op="bnot", operand=vc.const(3.0000000054977558e+38, FLOAT),
                 ctype=DOUBLE)  # 3e38 as a float32
    total = N.UnOp(op="neg", operand=vc.binop("+", vp.var("ri"),
                                              vc.const(7, INT), INT),
                   ctype=INT)
    mask = vc.select(vp.section("ca", 5), big, total, INT)
    store = vp.assign(vp.section("ca", 47, -2), vp.section("fa"), 1, mask)
    return vp.program([store], {"ri": -5}), {}, None


class TestRandomVectorIL:
    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(drawn=programs(), costed=st.booleans())
    @example(drawn=_bnot_of_a_float(), costed=False)
    def test_bulk_equals_the_oracle(self, drawn, costed):
        # Identical images in, identical images out — and identical
        # outcome, steps, cycles, counters and breakdown, whether the
        # statement ran in bulk, fell back, or faulted.
        program, scalars_, data = drawn
        validate_function(program.functions["main"])
        fast = vc.assert_parity(program, costed, data, scalars_)
        assert set(fast["forms"]) <= {("bulk", "")}, fast["forms"]


# -- strip groups ----------------------------------------------------------


@st.composite
def strip_loops(draw, vp):
    """A strip loop of the vectorizer's shape around one statement — or
    a fused loop's two or three — over sections that move with the
    strip: same array or not, a few elements apart (read behind, in
    place, ahead of a store, its own or another statement's)."""
    width = draw(st.sampled_from((1, 2, 3, 7, 32, 33)))
    count = draw(st.sampled_from((1, 2, 3, 5))) * width \
        + draw(st.integers(-1, 1))
    if draw(st.integers(0, 7)) == 0:
        count = draw(st.sampled_from((4095, 4097)))  # past one group
    count = max(count, 1)
    ints = draw(st.booleans())
    arrays = ("ia", "ib") if ints else ("fa", "fb")
    ctype = INT if ints else FLOAT
    offsets = st.integers(0, 3)
    plans = []
    for _ in range(draw(st.sampled_from((1, 1, 2, 3)))):
        plans.append((
            draw(st.sampled_from(("assign", "masked", "reduce"))),
            (draw(st.sampled_from(arrays)), draw(offsets)),
            (draw(st.sampled_from(arrays)), draw(offsets)),
            (draw(st.sampled_from(arrays)), draw(offsets)),
            draw(st.sampled_from(("+", "-", "*", "min"))),
            vc.const(3, INT) if ints else draw(st.sampled_from(
                (vc.const(0.5, FLOAT), vp.var("gf")))),
            # Two reductions into one register do not group.
            draw(st.sampled_from(("ri", "rc") if ints else ("rf", "rd")))))

    def statement(strip, kind, read, other, target, op, scalar, register):
        value = vc.binop(op, strip.section(*read), vc.binop(
            "+", strip.section(*other), N.clone_expr(scalar), ctype),
            ctype)
        if kind == "reduce":
            return strip.reduce(register, "+", value)
        mask = None
        if kind == "masked":
            mask = vc.binop("<", vc.binop("%", strip.iota(),
                                          N.int_const(11), INT),
                            N.int_const(4), INT)
        return strip.assign(strip.section(*target), value, mask)

    parallel = draw(st.booleans())
    return vp.strip_loop(width, count, lambda strip: [
        statement(strip, *plan) for plan in plans], parallel)


@st.composite
def strip_programs(draw):
    vp = vc.VectorProgram(vc.STRIP_ELEMS)
    body = [draw(strip_loops(vp)) for _ in range(draw(st.integers(1, 2)))]
    run = {"parallel_order": draw(st.sampled_from(
        ("forward", "forward", "reverse", "shuffle"))),
        "processors": draw(st.integers(1, 3))}
    if draw(st.integers(0, 3)) == 0:
        run["max_steps"] = draw(st.integers(4, 60))
    return vp.program(body, {"rf": 0.25, "ri": 1}), run


def _lone_strip_step_limit():
    """One strip of a loop that cannot group (two reductions into
    ``ri``), the step limit landing on its first reduction's tick: the
    generated body left the length header's two integer operations
    pending and the oracle had charged them."""
    vp = vc.VectorProgram(vc.STRIP_ELEMS)

    def reductions(strip):
        return [strip.reduce("ri", "+", vc.binop(
            "+", strip.section("ia"),
            vc.binop("+", strip.section("ia"), vc.const(3, INT), INT),
            INT)) for _ in range(2)]

    loop = vp.strip_loop(1, 1, reductions, parallel=False)
    return vp.program([loop], {"rf": 0.25, "ri": 1}), {
        "parallel_order": "forward", "processors": 1, "max_steps": 5}


class TestStripGroups:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(drawn=strip_programs(), costed=st.booleans())
    @example(drawn=_lone_strip_step_limit(), costed=True)
    def test_grouped_strips_equal_the_oracle(self, drawn, costed):
        # Image bytes, outcome, steps, cycles, counters and breakdown
        # equal the oracle's per-strip run whether a group ran as one,
        # fell back (overlap, order, steps, fault) or never formed.
        program, run = drawn
        validate_function(program.functions["main"])
        fast = vc.assert_parity(program, costed, None, {"gf": 1.5},
                                memory=vc.STRIP_MEMORY, **run)
        assert set(fast["forms"]) <= {("bulk", "")}, fast["forms"]
        assert set(fast["groups"]) <= {
            ("grouped", ""), ("strips", "overlap"), ("strips", "order"),
            ("strips", "steps"), ("strips", "fault")}, fast["groups"]

    @pytest.mark.parametrize("kernel", ("daxpy", "sscal", "vadd",
                                        "smooth", "guarded_diff",
                                        "clamp"))
    def test_every_e19_vector_kernel_strip_loop_is_grouped(self, kernel):
        # The simulate_vector workload's kernels and vector lengths:
        # every strip loop runs as groups, none strip by strip.
        source = _source(E19_KERNELS_DIR, kernel + ".c", n=2000)
        for width in (32, 64, 128):
            program = compile_c(source, CompilerOptions(
                vector_length=width)).program
            loops = [s for s in program.functions["main"].all_statements()
                     if isinstance(s, N.DoLoop) and s.vector]
            before = vc.strip_groups()
            with TitanSimulator(program, TitanConfig(processors=2)) as sim:
                sim.run("main")
            delta = {key: value - before.get(key, 0)
                     for key, value in vc.strip_groups().items()
                     if value != before.get(key, 0)}
            assert loops and delta == {("grouped", ""): len(loops)}

    @pytest.mark.parametrize("kernel", ("daxpy", "sscal", "vadd",
                                        "smooth", "guarded_diff",
                                        "clamp"))
    def test_e19_vector_kernels_equal_the_oracle(self, kernel):
        # Grouped at vector length 1 and 33 (a remainder strip), one
        # strip of a short loop at 128; a rescale by three processors
        # leaves the running total fractional.
        source = _source(E19_KERNELS_DIR, kernel + ".c", n=300)
        for width in (1, 33, 128):
            program = compile_c(source, CompilerOptions(
                vector_length=width)).program
            seen = []
            for engine in ("tree", "compiled"):
                with TitanSimulator(program, TitanConfig(processors=3),
                                    engine=engine) as sim:
                    report = sim.run("main")
                    seen.append((report.cycles, report.result,
                                 report.counters, report.breakdown,
                                 report.stdout, sim.interpreter.steps,
                                 bytes(sim.interpreter.memory.data)))
            assert seen[0] == seen[1], (kernel, width)

    @pytest.mark.parametrize("kernel", ("daxpy", "sscal", "vadd",
                                        "smooth", "guarded_diff",
                                        "clamp"))
    def test_fused_e19_kernels_group_at_the_workload_size(self, kernel):
        # simulate_vector's n and VL: every strip loop — fused ones
        # with up to four statements — runs as groups of 128 strips,
        # none strip by strip, at every processor count.
        from repro.opt.fold import static_trip_count
        source = _source(E19_KERNELS_DIR, kernel + ".c", n=24576)
        for processors in (1, 2, 4):
            options = CompilerOptions(vector_length=32,
                                      processors=processors)
            program = compile_c(source, options).program
            loops = [s for s in program.functions["main"].all_statements()
                     if isinstance(s, N.DoLoop) and s.vector]
            before = vc.strip_groups()
            with TitanSimulator(program, titan_config(options)) as sim:
                sim.run("main")
            delta = {key: value - before.get(key, 0)
                     for key, value in vc.strip_groups().items()
                     if value != before.get(key, 0)}
            assert delta == {("grouped", ""): sum(
                -(-static_trip_count(loop) // 128) for loop in loops)}, \
                (kernel, processors)

    def test_dump_code_names_the_group_bound(self):
        program = compile_c(_source(E19_KERNELS_DIR, "daxpy.c", n=100),
                            CompilerOptions(vector_length=32)).program
        dump = make_interpreter(program, engine="compiled").disassemble(
            "main")
        # Init, daxpy and sum: one fused strip loop.
        assert dump.count(": groups of up to 128 strips\n") == 1
        assert dump.count("# strip loop ") == 1


# -- float32 sums ----------------------------------------------------------

SUM_SOURCE = ("float x[70]; float s0; float out; int n;"
              "int main(void) { int i; float s; s = s0;"
              " for (i = 0; i < n; i++) s = s + x[i];"
              " out = s; return 0; }")
#: Raw float32 patterns: zeros of both signs, the smallest and largest
#: subnormals, infinities, a NaN, values whose sum overflows
#: (3e38 + 3e38), 2**24 and 1 (the first sum float32 cannot hold),
#: 1e8 and -1e8 (cancellation), 0.1f (no partial sum is exact), -1.
F32_PATTERNS = (0x00000000, 0x80000000, 0x00000001, 0x807FFFFF,
                0x7F800000, 0xFF800000, 0x7FC00000, 0x7F61B1E6,
                0xFF61B1E6, 0x4B800000, 0x3F800000, 0x4CBEBC20,
                0xCCBEBC20, 0x3DCCCCCD, 0xBF800000)
F32_BITS = st.sampled_from(F32_PATTERNS) | st.integers(0, (1 << 32) - 1)


def _f32(pattern):
    """The float32 with these bits — every NaN the one quiet NaN:
    which payload NaN + NaN keeps is the host's business (CPython's
    specialized float add and its generic one order their operands
    differently), not the engines'."""
    value = struct.unpack("<f", struct.pack("<I", pattern))[0]
    return math.nan if value != value else value


def _stepwise():
    return vc.REGISTRY.value("titancc_vector_reduce_stepwise_total")


def _observe_sum(program, fmt, engine, lanes, start):
    """Result bits, steps and model state of one sum's run."""
    model = vc.TitanCostModel(vc.TitanConfig(processors=2))
    model.cycles = vc.START_CYCLES
    interp = make_interpreter(program, engine=engine, cost_hook=model)
    interp.set_global_array("x", lanes + [0.0] * (70 - len(lanes)))
    interp.set_global_scalar("s0", start)
    interp.set_global_scalar("n", len(lanes))
    interp.run("main")
    return (struct.pack(fmt, interp.global_scalar("out")),
            interp.steps, model.cycles, model.counters, model.breakdown)


class TestFloat32Sums:
    """``reduce+`` over float32 lanes takes the running double sums in
    one pass when a float32 round trip leaves every one of them alone
    (rounding at each step then changed nothing), else rounds step by
    step — either way bit for bit the oracle's sum, cycles and model
    state, three strips long or empty."""

    program = None

    def _observe(self, engine, lanes, start):
        # The section 6 passes off: the strip length reads the global
        # ``n`` from memory, so the loop runs strip by strip.  Held in
        # a register, ``n`` would let its strips run as one strip
        # group (``interp/strips.py``), which steps once per group.
        if TestFloat32Sums.program is None:
            TestFloat32Sums.program = compile_c(
                SUM_SOURCE, CompilerOptions(vector_length=32,
                                            reg_pipeline=False)).program
        return _observe_sum(self.program, "<f", engine, lanes, start)

    @settings(max_examples=150, deadline=None)
    @given(patterns=st.lists(F32_BITS, max_size=70), start=F32_BITS)
    # inf + -inf is a NaN, then a NaN lane: the sum's NaN stays.
    @example(patterns=[39409, 0x7F800000, 0xFF800000, 39409, 5394,
                       39409, 0x7FC00000, 0x7F800000], start=0)
    def test_sum_equals_the_oracle(self, patterns, start):
        lanes = [_f32(p) for p in patterns]
        misses = vc.bulk_misses()
        fast = self._observe("compiled", lanes, _f32(start))
        assert fast == self._observe("tree", lanes, _f32(start))
        # Nothing short of an overflow leaves the bulk form.
        if all(math.isfinite(v) and abs(v) < 1e36
               for v in lanes + [_f32(start)]):
            assert vc.bulk_misses() == misses

    def test_exact_prefixes_never_step(self):
        before = _stepwise()
        lanes = [float((k * 7) % 16) for k in range(70)]
        assert self._observe("compiled", lanes, 2.0) \
            == self._observe("tree", lanes, 2.0)
        assert _stepwise() == before

    def test_inexact_prefixes_step_and_are_counted(self):
        before = _stepwise()
        lanes = [_f32(0x3DCCCCCD) * k for k in range(70)]
        assert self._observe("compiled", lanes, 0.0) \
            == self._observe("tree", lanes, 0.0)
        assert _stepwise() - before == 3  # one per strip

    def test_round_returns_one_type(self):
        access = vectorgen.LaneAccess("f", 4, 4)
        assert access.round((1.5, 0.1)) == (1.5, _f32(0x3DCCCCCD))
        assert access.round([1.5, 1e39, -1e39]) == (1.5, math.inf,
                                                    -math.inf)


#: Raw double patterns: zeros of both signs, the smallest subnormal,
#: infinities, quiet NaNs of both signs and with a payload, a
#: signalling NaN, the largest double (its sum overflows), 2**53 and 1
#: (the first sum a double cannot hold), 0.1, -1.
F64_PATTERNS = (0x0000000000000000, 0x8000000000000000,
                0x0000000000000001, 0x7FF0000000000000,
                0xFFF0000000000000, 0x7FF8000000000000,
                0xFFF8000000000000, 0x7FF8000000000001,
                0x7FF0000000000001, 0x7FEFFFFFFFFFFFFF,
                0x4340000000000000, 0x3FF0000000000000,
                0x3FB999999999999A, 0xBFF0000000000000)
F64_BITS = st.sampled_from(F64_PATTERNS) | st.integers(0, (1 << 64) - 1)


def _f64(pattern):
    """The double with these bits, NaN payloads kept."""
    return struct.unpack("<d", struct.pack("<Q", pattern))[0]


class TestDoubleSums:
    """``reduce+`` over double lanes sums in one pass and, when the sum
    is a NaN, reruns the lanes keeping the first NaN accumulator as the
    oracle does: bit for bit the oracle's result, NaN payload and sign
    included, with its cycles and model state."""

    program = None

    @settings(max_examples=100, deadline=None)
    @given(patterns=st.lists(F64_BITS, max_size=70), start=F64_BITS)
    # Two NaNs: the first one the sum meets is the answer.
    @example(patterns=[0xFFF8000000000000, 0x7FF8000000000001], start=0)
    def test_sum_equals_the_oracle(self, patterns, start):
        if TestDoubleSums.program is None:
            TestDoubleSums.program = compile_c(
                SUM_SOURCE.replace("float", "double"),
                CompilerOptions(vector_length=32)).program
        lanes = [_f64(p) for p in patterns]
        assert _observe_sum(self.program, "<d", "compiled", lanes,
                            _f64(start)) \
            == _observe_sum(self.program, "<d", "tree", lanes, _f64(start))


def _source(directory, name, n=None):
    with open(os.path.join(directory, name)) as handle:
        source = handle.read()
    if n is not None:
        source = source.replace("{n}", str(n)).replace("{s}", "3")
    return source


class TestLoweringCounter:
    """``titancc_vector_lowering_total{form,reason}``: one increment
    per vector statement generated."""

    def _simulate(self, source, **options):
        program = compile_c(source, CompilerOptions(**options)).program
        forms, misses = vc.lowerings(), vc.bulk_misses()
        with TitanSimulator(program, TitanConfig(processors=2)) as sim:
            sim.run("main")
        delta = {key: value - forms.get(key, 0)
                 for key, value in vc.lowerings().items()
                 if value != forms.get(key, 0)}
        return program, delta, vc.bulk_misses() - misses

    def test_daxpy_example_is_all_bulk(self):
        program, forms, misses = self._simulate(
            _source(EXAMPLES_DIR, "daxpy.c"))
        # Only main runs (daxpy itself was inlined into it).
        vector = [s for s in program.functions["main"].all_statements()
                  if isinstance(s, (N.VectorAssign, N.VectorReduce))]
        assert vector
        assert forms == {("bulk", ""): len(vector)}
        assert misses == 0

    @pytest.mark.parametrize("kernel", ("daxpy", "sscal", "vadd",
                                        "smooth", "guarded_diff",
                                        "clamp"))
    def test_e19_vector_kernels_have_no_lane_form(self, kernel):
        # n = 70 leaves a remainder strip shorter than the vector
        # length; nothing falls back at run time either.
        _, forms, misses = self._simulate(
            _source(E19_KERNELS_DIR, kernel + ".c", n=70))
        assert set(forms) == {("bulk", "")} and forms[("bulk", "")] >= 3
        assert misses == 0

    def test_a_call_among_the_scalars_takes_the_lane_form(self):
        # Lowering hoists calls out of expressions, so it takes IL
        # surgery: a broadcast scalar that is a call.
        source = ("float a[8];"
                  "float two(void) { return 2.0f; }"
                  "int main(void) { int i;"
                  " for (i = 0; i < 8; i++) a[i] = i * 3.0f;"
                  " return (int) a[7]; }")
        program = compile_c(source, CompilerOptions()).program
        stmt = next(s for s in program.functions["main"].all_statements()
                    if isinstance(s, N.VectorAssign))
        factor = next(e for e in N.walk_expr(stmt.value)
                      if isinstance(e, N.Const) and e.value == 3.0)
        call = N.CallExpr(ctype=FLOAT, name="two", args=[])
        stmt.value = N.map_expr(
            stmt.value, lambda e: call if e is factor else e)
        assert vectorgen.bulk_obstacle(stmt) == "call"
        forms = vc.lowerings()
        for costed in (False, True):
            oracle = _run(program, "tree", costed)
            assert _run(program, "compiled", costed) == oracle
            assert oracle[0] == 14
        assert vc.lowerings().get(("lane", "call"), 0) \
            - forms.get(("lane", "call"), 0) == 2

    def test_dump_code_names_the_form(self):
        program = compile_c(_source(EXAMPLES_DIR, "daxpy.c"),
                            CompilerOptions()).program
        text = make_interpreter(program,
                                engine="compiled").disassemble("main")
        assert "# vector statement" in text and ": bulk" in text

    def test_dump_code_prints_the_proved_interval(self):
        # b[i] = (i + 3) & 7: a mask is its own wrap, whatever i is.
        program = compile_c(_source(E19_KERNELS_DIR, "daxpy.c", n=256),
                            CompilerOptions()).program
        text = make_interpreter(program,
                                engine="compiled").disassemble("main")
        assert ": bulk, int lanes in [0, 7]\n" in text
        assert ": bulk, int lanes in [0, 3]\n" in text
        # The one wrap left is ``return (int) s``.
        assert text.split("# CPython")[0].count("4294967295") == 1


def _conversions():
    """``(site, outcome) -> count`` of
    ``titancc_engine_int_conversions_total``."""
    return {(dict(key)["site"], dict(key)["outcome"]): metric.value
            for name, key, metric in vc.REGISTRY
            if name == "titancc_engine_int_conversions_total"}


class TestConversionCounter:
    """``titancc_engine_int_conversions_total{site,outcome}``: every
    integer conversion of the oracle's the generators met, by what
    they did about it — counted when a function is generated."""

    def _generated(self, source, **options):
        program = compile_c(source, CompilerOptions(**options)).program
        before, stepwise = _conversions(), _stepwise()
        with TitanSimulator(program, TitanConfig(processors=2)) as sim:
            sim.run("main")
        assert _stepwise() == stepwise
        return {key: value - before.get(key, 0)
                for key, value in _conversions().items()
                if value != before.get(key, 0)}

    def test_daxpy_example(self):
        # All double arithmetic: what is left is strip headers and
        # section bases, every one inside its type by the strip
        # variable's range — and main's ``(int) ddot()``, a float.
        assert self._generated(_source(EXAMPLES_DIR, "daxpy.c")) == {
            ("scalar", "proved"): 19, ("scalar", "emitted"): 1}

    def test_e19_daxpy_kernel(self):
        # (i + s) & 7 and (i + 3) & 3: the sums stay unwrapped under
        # the masks, which prove themselves; (int) s is the float.
        assert self._generated(
            _source(E19_KERNELS_DIR, "daxpy.c", n=256)) == {
                ("vector", "deferred"): 2, ("vector", "proved"): 2,
                ("scalar", "proved"): 17, ("scalar", "emitted"): 1}


def _run(program, engine, costed):
    from repro.titan.cost_model import TitanCostModel
    model = TitanCostModel() if costed else None
    interp = make_interpreter(program, engine=engine, cost_hook=model)
    result = interp.run("main")
    return result, interp.steps, model and (model.cycles, model.counters,
                                            model.breakdown)


class TestWhatTheBulkPathKeeps:
    def test_codec_cache_is_bounded(self):
        codecs = vectorgen.LaneCodecs(limit=4)
        first = codecs.get("f", 1)
        assert codecs.get("f", 1) is first
        for lanes in range(2, 9):
            codec = codecs.get("f", lanes)
            assert codec.size == 4 * lanes
            assert len(codecs) <= 4
        # The oldest went first; asking again rebuilds it.
        assert codecs.get("f", 1) is not first
        assert codecs.get("d", 3).unpack(struct.pack("<3d", 1, 2, 3)) \
            == (1.0, 2.0, 3.0)

    def test_process_cache_hits_its_limit_and_stays_there(self):
        limit = vectorgen.CODECS.limit
        data = bytearray(1 << 14)
        access = vectorgen.LaneAccess("b", 1, 1)
        for lanes in range(1, limit + 40):
            access.load(data, 64, lanes)
        assert len(vectorgen.CODECS) == limit

    def test_no_view_of_the_image_outlives_close(self):
        # A memoryview export would make resizing the bytearray fail;
        # the bulk path takes copies only.
        program = compile_c(_source(E19_KERNELS_DIR, "daxpy.c", n=256),
                            CompilerOptions()).program
        interp = make_interpreter(program, engine="compiled")
        image = interp.memory.data
        interp.run("main")
        interp.close()
        image.extend(b"x")  # BufferError if anything still exports it
        assert len(interp.memory.data) == 0
