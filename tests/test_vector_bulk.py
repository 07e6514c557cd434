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
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.frontend.ctypes_ import (CHAR, DOUBLE, FLOAT, INT, SHORT, UCHAR,
                                    UINT)
from repro.il import nodes as N
from repro.interp import make_interpreter, vectorgen
from repro.pipeline import CompilerOptions, compile_c
from repro.titan.config import TitanConfig
from repro.titan.simulator import TitanSimulator
from tests import vector_cases as vc

HERE = os.path.dirname(__file__)
EXAMPLES_DIR = os.path.join(HERE, os.pardir, "examples")
E19_KERNELS_DIR = os.path.join(HERE, os.pardir, "benchmarks", "e19",
                               "corpus", "kernels")

TYPES = (FLOAT, DOUBLE, INT, CHAR)
STRIDES = (-2, -1, 1, 2, 3)
ARITHMETIC = ("+", "-", "*", "/", "%", "min", "max",
              "<<", ">>", "&", "|", "^")
COMPARISONS = ("==", "!=", "<", ">", "<=", ">=")
FLOAT_VALUES = (0.0, -0.0, 1.0, -1.5, 0.1, 3.0e38, -3.0e38, 1e300,
                math.inf, -math.inf, math.nan)


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
        return vc.const(draw(st.integers(-9, 9)), INT)
    if pick <= 5:
        return vc.const(draw(st.sampled_from(FLOAT_VALUES)),
                        draw(st.sampled_from((FLOAT, DOUBLE))))
    if pick <= 7:
        return vp.var(draw(st.sampled_from(sorted(vc.GLOBAL_SCALARS))))
    if pick <= 10:
        return vp.var(draw(st.sampled_from(sorted(vc.REGISTERS))))
    return vp.var("unset")


@st.composite
def lanes_of(draw, vp, lanes, depth):
    """A vector expression: operator trees over sections, iotas,
    broadcast scalars, casts and selects."""
    if depth <= 0 or draw(st.integers(0, 4)) == 0:
        pick = draw(st.integers(0, 5))
        if pick <= 2:
            return draw(sections(vp, lanes))
        if pick == 3:
            return vc.iota(draw(st.integers(-3, 5)))
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
        return vp.reduce(target, draw(st.sampled_from(("+", "min",
                                                       "max"))),
                         draw(lanes_of(vp, lanes, depth)), lanes)
    ctype = draw(st.sampled_from((None, None, FLOAT, SHORT, UCHAR, UINT)))
    mask = None
    if draw(st.booleans()):
        mask = draw(lanes_of(vp, lanes, min(depth, 2)))
    return vp.assign(draw(sections(vp, lanes, ctype)),
                     draw(lanes_of(vp, lanes, depth)), lanes, mask)


@st.composite
def programs(draw):
    vp = vc.VectorProgram()
    body = [draw(statements(vp))
            for _ in range(draw(st.integers(1, 2)))]
    registers = {"rf": draw(st.sampled_from(FLOAT_VALUES)),
                 "rd": draw(st.sampled_from(FLOAT_VALUES)),
                 "ri": draw(st.integers(-5, 5)),
                 "rc": draw(st.integers(-128, 127))}
    scalars_ = {"gf": draw(st.sampled_from(FLOAT_VALUES[:8])),
                "gd": draw(st.sampled_from(FLOAT_VALUES)),
                "gi": draw(st.integers(-3, 3))}
    return vp.program(body, registers), scalars_


class TestRandomVectorIL:
    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(drawn=programs(), costed=st.booleans())
    def test_bulk_equals_the_oracle(self, drawn, costed):
        # Identical images in, identical images out — and identical
        # outcome, steps, cycles, counters and breakdown, whether the
        # statement ran in bulk, fell back, or faulted.
        program, scalars_ = drawn
        fast = vc.assert_parity(program, costed, scalars=scalars_)
        assert set(fast["forms"]) <= {("bulk", "")}, fast["forms"]


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
