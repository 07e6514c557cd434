"""Reductions in the shapes C programs write run like the scalar loop.

A chained accumulation ``s = s ± E₁ ± … ± Eₖ``, a subtraction
``s = s - E`` and a conditional min/max ``if (E > m) m = E;`` (or its
ternary spelling ``m = E > m ? E : m;``) each become one
``VectorReduce`` that applies its terms per element, in
index order and then chain order.  Drawn here over int, float and
double lanes, with NaNs (payload and sign), ±0 and ±inf in the data
and in the initial accumulator, at every vector length × processor
count of the grid and under every ``parallel_order``: the vectorized
program's result and memory image equal the unvectorized loop's (and,
for a min/max, the loop's with its branch kept), the tree oracle and
the compiled engine agree on everything a costed run counts, and the
static walk of ``main`` is the costed run's cycles.

NaN arithmetic is deterministic only with one NaN operand: CPython's
float ``+`` on two NaNs returns either, by the path it takes.  So data
holding a NaN holds one, and data holding infinities (whose
differences are NaNs) holds no NaN, and their terms are single
elements (no product of two specials); a broadcast term, which adds
the same element at every step, is drawn only where no element is a
NaN.
"""

import math
import struct

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.il import nodes as N
from repro.interp import make_interpreter
from repro.pipeline import CompilerOptions, compile_c, titan_config
from repro.titan.cost_model import TitanCostModel
from repro.titan.static import StaticCostEstimator

TYPES = ("int", "float", "double")
TRIPS = (1, 31, 33, 100, 1000)
VECTOR_LENGTHS = (32, 33, 2048)
PROCESSORS = (1, 2, 4)
ORDERS = ("forward", "reverse", "shuffle")
ARRAYS = ("a", "b", "c")


def nan(payload: int, negative: bool) -> float:
    """A quiet double NaN whose payload survives a float32 store."""
    bits = 0x7FF8000000000000 | (payload << 29)
    if negative:
        bits |= 1 << 63
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def source(ctype: str, trip: int, shape: tuple, store: bool) -> str:
    kind = shape[0]
    if kind == "chain":
        spine = "s"
        for op, term in shape[1]:
            spine = f"{spine} {op} {term}"
        update = f"s = {spine};"
    elif shape[2] == "if":
        update = f"if ({shape[1]}) s = a[i];"
    else:
        update = f"s = {shape[1]} ? a[i] : s;"
    extra = "d[i] = a[i] + b[i];" if store else ""
    return f"""{ctype} a[{trip}], b[{trip}], c[{trip}], d[{trip}];
{ctype} s0, r;

int main(void)
{{
    int i;
    {ctype} s;
    s = s0;
    for (i = 0; i < {trip}; i++) {{
        {extra}
        {update}
    }}
    r = s;
    return 0;
}}
"""


@st.composite
def cases(draw):
    ctype = draw(st.sampled_from(TYPES))
    trip = draw(st.sampled_from(TRIPS))
    floats = ctype != "int"
    mode = draw(st.sampled_from(("plain", "zeros", "inf", "nan")
                                if floats else ("plain", "wrap")))
    if draw(st.booleans()):
        sections = [f"{name}[i]" for name in ARRAYS]
        if mode not in ("inf", "nan"):
            sections += ["a[i] * b[i]", "(b[i] - c[i])"]
        # A broadcast element and the index: terms of no section, beside
        # the first one, which has one.
        others = sections + (["c[0]", "i"] if mode != "nan" else [])
        ops = st.sampled_from(("+", "-"))
        terms = [draw(st.tuples(ops, st.sampled_from(sections)))]
        terms += draw(st.lists(st.tuples(ops, st.sampled_from(others)),
                               max_size=3))
        shape = ("chain", tuple(terms))
    else:
        test = draw(st.sampled_from(("a[i] > s", "s < a[i]", "a[i] < s",
                                     "s > a[i]")))
        shape = ("minmax", test, draw(st.sampled_from(("if", "?:"))))
    small = st.integers(-50, 50).map(float if floats else int)
    pool = {"plain": small,
            "wrap": st.one_of(small, st.integers(2**31 - 64, 2**31 - 1),
                              st.integers(-2**31, -2**31 + 64)),
            "zeros": st.one_of(small, st.sampled_from((0.0, -0.0))),
            "inf": st.one_of(small, st.sampled_from(
                (0.0, -0.0, math.inf, -math.inf))),
            "nan": st.one_of(small, st.sampled_from((0.0, -0.0)))}[mode]
    data = {name: draw(st.lists(pool, min_size=trip, max_size=trip))
            for name in ARRAYS}
    start = draw(pool)
    if mode == "nan":
        special = nan(draw(st.integers(1, 0x3FF)), draw(st.booleans()))
        where = draw(st.sampled_from(ARRAYS + ("s0",)))
        if where == "s0":
            start = special
        else:
            data[where][draw(st.integers(0, trip - 1))] = special
    return (ctype, trip, shape, draw(st.booleans()), data, start,
            draw(st.sampled_from(VECTOR_LENGTHS)),
            draw(st.sampled_from(PROCESSORS)))


def observe(program, data, start, engine="tree", order="forward",
            config=None, schedules=None) -> dict:
    model = config and TitanCostModel(config, schedules)
    interp = make_interpreter(program, engine=engine, cost_hook=model,
                              parallel_order=order, seed=11)
    for name, values in data.items():
        interp.set_global_array(name, values)
    interp.set_global_scalar("s0", start)
    seen = {"result": interp.run("main"),
            "memory": bytes(interp.memory.data), "steps": interp.steps}
    if model is not None:
        seen.update(cycles=model.cycles, counters=model.counters,
                    breakdown=model.breakdown)
    return seen


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(cases())
def test_reductions_run_like_the_scalar_loop(case):
    ctype, trip, shape, store, data, start, width, processors = case
    text = source(ctype, trip, shape, store)
    reference = observe(compile_c(text, CompilerOptions(
        vectorize=False)).program, data, start)
    if shape[0] == "minmax":
        branchy = observe(compile_c(text, CompilerOptions(
            vectorize=False, if_convert=False)).program, data, start)
        assert branchy["memory"] == reference["memory"], case
    options = CompilerOptions(vector_length=width, processors=processors)
    config = titan_config(options)
    result = compile_c(text, options)
    main = result.program.functions["main"]
    (reduce,) = [stmt for stmt in main.all_statements()
                 if isinstance(stmt, N.VectorReduce)]
    if shape[0] == "chain":
        assert [op for op, _ in reduce.terms()] == \
            [op for op, _ in shape[1]], case
    walk = StaticCostEstimator(
        config, schedules=result.schedules).function_cycles("main", main)
    for order in ORDERS:
        for costed in (None, config):
            tree = observe(result.program, data, start, "tree", order,
                           costed, result.schedules)
            fast = observe(result.program, data, start, "compiled",
                           order, costed, result.schedules)
            assert fast == tree, (case, order, costed)
            for field in ("result", "memory"):
                assert tree[field] == reference[field], (case, field)
            if costed is not None:
                assert tree["cycles"] == walk, (case, order)
