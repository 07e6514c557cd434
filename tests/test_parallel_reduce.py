"""Forked reductions run like the serial loop they came from.

The vectorizer decides ``do parallel`` per strip region: a vector
store forks when no carried edge lies within it, a reduction when its
static price says the fork pays (``titan/static.py::fork_decision``).
Engines run a forked reduction's strips in index order under every
``parallel_order``, so whatever forks, every engine must give the
scalar loop's result and memory bit for bit, and the tree oracle and
the compiled engine must agree on steps and, under the Titan model, on
cycles, counters and breakdown.

The loops are built in IL, because C has no spelling for the IL's
``min``/``max`` reductions: random mixes of vector stores and
``+``/``min``/``max`` accumulations over int or float lanes, whose
values stay integers far below 2**24.
"""

from typing import List, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.frontend.ctypes_ import FLOAT, INT, ArrayType, PointerType
from repro.frontend.symtab import SymbolTable
from repro.il import nodes as N
from repro.interp import make_interpreter
from repro.pipeline import CompilerOptions, titan_config
from repro.titan.cost_model import TitanCostModel
from repro.vectorize.vectorizer import VectorizeOptions, Vectorizer

TRIPS = (33, 100, 1000, 4096)
VECTOR_LENGTHS = (32, 33, 2048)
PROCESSORS = (1, 2, 4)
ORDERS = ("forward", "reverse", "shuffle")
INPUTS = ("a", "b")
OUTPUTS = ("c", "d")
MEMORY = 1 << 18


def build(lanes, trip: int, plan: List[tuple]) -> N.ILProgram:
    """``main``: zero the accumulators, run one loop of ``plan``'s
    statements over ``trip`` elements, store the accumulators to
    ``r``.  A store is ``("store", target, op, left, right, shift)``:
    ``target[i] = left[i + shift] op right[i]``; a reduction is
    ``("reduce", op, source, factor)``: ``s_k = s_k op source[i]`` (times
    ``factor[i]`` when given)."""
    table = SymbolTable()
    arrays = {name: table.declare(name, ArrayType(base=lanes,
                                                  length=trip + 1),
                                  "global")
              for name in INPUTS + OUTPUTS}
    arrays["r"] = table.declare("r", ArrayType(base=lanes, length=8),
                                "global")
    index = table.declare("i", INT)
    accumulators = []

    def element(name: str, shift=None) -> N.Mem:
        offset = N.BinOp(op="*", left=N.int_const(lanes.sizeof()),
                         right=N.VarRef(sym=index, ctype=INT), ctype=INT)
        if shift:
            offset = N.BinOp(op="+", left=offset,
                             right=N.int_const(shift * lanes.sizeof()),
                             ctype=INT)
        return N.Mem(addr=N.BinOp(
            op="+", left=N.AddrOf(sym=arrays[name],
                                  ctype=PointerType(base=lanes)),
            right=offset, ctype=PointerType(base=lanes)), ctype=lanes)

    body: List[N.Stmt] = []
    for step in plan:
        if step[0] == "store":
            _, target, op, left, right, shift = step
            body.append(N.Assign(target=element(target), value=N.BinOp(
                op=op, left=element(left, shift), right=element(right),
                ctype=lanes)))
        else:
            _, op, source, factor = step
            acc = table.declare(f"s{len(accumulators)}", lanes)
            accumulators.append(acc)
            term = element(source)
            if factor is not None:
                term = N.BinOp(op="*", left=term, right=element(factor),
                               ctype=lanes)
            body.append(N.Assign(
                target=N.VarRef(sym=acc, ctype=lanes),
                value=N.BinOp(op=op, left=N.VarRef(sym=acc, ctype=lanes),
                              right=term, ctype=lanes)))
    zero = N.Const(value=0.0 if lanes.is_float else 0, ctype=lanes)
    start = [N.Assign(target=N.VarRef(sym=acc, ctype=lanes),
                      value=N.clone_expr(zero)) for acc in accumulators]
    loop = N.DoLoop(var=index, lo=N.int_const(0),
                    hi=N.int_const(trip - 1), step=1, body=body)
    finish = [N.Assign(
        target=N.Mem(addr=N.BinOp(
            op="+", left=N.AddrOf(sym=arrays["r"],
                                  ctype=PointerType(base=lanes)),
            right=N.int_const(k * lanes.sizeof()),
            ctype=PointerType(base=lanes)), ctype=lanes),
        value=N.VarRef(sym=acc, ctype=lanes))
        for k, acc in enumerate(accumulators)]
    fn = N.ILFunction(name="main", params=[], ret_type=INT,
                      body=start + [loop] + finish
                      + [N.Return(value=N.int_const(0))],
                      local_syms=[index] + accumulators)
    return N.ILProgram(functions={"main": fn},
                       globals=[N.GlobalVar(sym=sym)
                                for sym in arrays.values()],
                       symtab=table)


@st.composite
def loops(draw) -> Tuple:
    lanes = draw(st.sampled_from((INT, FLOAT)))
    trip = draw(st.sampled_from(TRIPS))
    plan, written = [], []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()) and len(written) < 2:
            # Products of inputs only, so values stay small; a store
            # may read its own target one element ahead (a carried
            # anti edge within its region: its strips must not fork).
            op = draw(st.sampled_from(("+", "-", "*")))
            target = OUTPUTS[len(written)]
            readable = INPUTS if op == "*" else INPUTS + tuple(written)
            left = readable if op == "*" else readable + (target,)
            plan.append(("store", target, op,
                         draw(st.sampled_from(left)),
                         draw(st.sampled_from(readable)),
                         draw(st.sampled_from((0, 1)))))
            written.append(target)
        else:
            readable = INPUTS + tuple(written)
            plan.append(("reduce", draw(st.sampled_from(("+", "min",
                                                         "max"))),
                         draw(st.sampled_from(readable)),
                         draw(st.sampled_from((None,) + INPUTS))))
    return (lanes, trip, plan, draw(st.sampled_from(VECTOR_LENGTHS)),
            draw(st.sampled_from(PROCESSORS)),
            draw(st.sampled_from(ORDERS)))


def integers(k: int, scale: int) -> int:
    return (k * scale) % 7 - 3


def tenths(k: int, scale: int) -> float:
    """Data whose float32 partial sums round: a sum taken in another
    order comes out different."""
    return ((k * scale) % 7) * 0.1 + 0.01


def observe(program: N.ILProgram, engine: str, order: str,
            config=None, inputs=integers) -> dict:
    """Everything a run of ``main`` shows, under a Titan model of
    ``config`` when given."""
    model = config and TitanCostModel(config)
    interp = make_interpreter(program, engine=engine, cost_hook=model,
                              memory_size=MEMORY, parallel_order=order,
                              seed=7)
    trip = program.global_named("a").sym.ctype.length
    for name, scale in (("a", 5), ("b", 3)):
        interp.set_global_array(name, [inputs(k, scale)
                                       for k in range(trip)])
    seen = {"result": interp.run("main"), "stdout": interp.stdout,
            "memory": bytes(interp.memory.data), "steps": interp.steps}
    if model is not None:
        seen.update(cycles=model.cycles, counters=model.counters,
                    breakdown=model.breakdown)
    return seen


def vectorized(lanes, trip: int, plan: List[tuple], width: int,
               processors: int):
    """The program vectorized for ``processors`` CPUs at vector
    length ``width``, and the configuration its runs are charged
    under."""
    program = build(lanes, trip, plan)
    config = titan_config(CompilerOptions(vector_length=width,
                                          processors=processors))
    Vectorizer(program.symtab, VectorizeOptions(
        vector_length=width, config=config)).run(
            program.functions["main"])
    return program, config


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(loops())
def test_forked_regions_run_like_the_scalar_loop(case):
    lanes, trip, plan, width, processors, order = case
    reference = observe(build(lanes, trip, plan), "tree", "forward")
    program, config = vectorized(lanes, trip, plan, width, processors)
    for costed in (None, config):
        tree = observe(program, "tree", order, costed)
        fast = observe(program, "compiled", order, costed)
        assert fast == tree, (case, costed)
        for field in ("result", "stdout", "memory"):
            assert tree[field] == reference[field], (case, field)


def test_a_forked_sum_that_rounds_keeps_index_order():
    plan = [("store", "c", "+", "a", "b", 0), ("reduce", "+", "a", "b")]
    reference = observe(build(FLOAT, 4096, plan), "tree", "forward",
                        inputs=tenths)
    program, config = vectorized(FLOAT, 4096, plan, 32, 4)
    strips = [stmt for stmt in program.functions["main"].body
              if isinstance(stmt, N.DoLoop)]
    # The store and the sum share one forked strip loop.
    assert [(loop.parallel, loop.combines()) for loop in strips] \
        == [(True, True)]
    for order in ORDERS:
        for engine in ("tree", "compiled"):
            for costed in (None, config):
                seen = observe(program, engine, order, costed,
                               inputs=tenths)
                assert seen["memory"] == reference["memory"], \
                    (order, engine, costed)
