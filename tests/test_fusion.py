"""Strip-loop fusion changes when strips run, never what they compute.

After distribution the vectorizer merges neighbouring strip loops with
equal bounds — regions of one source loop, or of consecutive source
loops — when no dependence runs from the later part back to an earlier
iteration of the first (``Vectorizer._fuse``).  Whatever fuses, every
engine must give the scalar loops' result, stdout and memory bit for
bit under every ``parallel_order``, the fused program must give what
the unfused one gives, and the tree oracle and the compiled engine
must agree on steps and, under the Titan model, on cycles, counters
and breakdown.

The loops are built in IL: pairs of loops over one trip, each a mix
of stores reading one element behind, at or ahead of the index (so
forward, backward and loop-independent edges between the statements
and across the pair) and ``+``/``min``/``max`` accumulations, with an
optional scalar statement between the two loops.
"""

from typing import List, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.frontend.ctypes_ import FLOAT, INT, ArrayType, PointerType
from repro.frontend.symtab import SymbolTable
from repro.il import nodes as N
from repro.il.validate import validate_function
from repro.interp import make_interpreter
from repro.obs.metrics import REGISTRY
from repro.obs.remarks import RemarkCollector
from repro.pipeline import CompilerOptions, titan_config
from repro.titan.cost_model import TitanCostModel
from repro.titan.static import StaticCostEstimator
from repro.vectorize.vectorizer import VectorizeOptions, Vectorizer

TRIPS = (31, 32, 33, 64, 65, 100, 2047, 2049)
VECTOR_LENGTHS = (32, 33, 2048)
PROCESSORS = (1, 2, 4)
ORDERS = ("forward", "reverse", "shuffle")
ARRAYS = ("a", "b", "c", "d")
MEMORY = 1 << 17


def build(lanes, trip: int, loops: List[List[tuple]],
          between: str = "") -> N.ILProgram:
    """``main``: zero the accumulators, run each loop of ``loops`` over
    ``trip`` elements (with ``between`` — ``"reset"`` an accumulator
    the last loop uses, ``"other"`` an unrelated scalar — before the
    last), store the accumulators to ``r``.  A store is ``("store",
    target, op, left, shift, right)``: ``target[i] = left[i + shift]
    op right[i]``; ``"masked"`` in place of ``"store"`` stores only
    where ``i > 0``; a reduction is ``("reduce", op, source, shift)``:
    ``s_k = s_k op source[i + shift]``.  An array named ``p`` is ``c``
    through a local pointer.  Loop ``k`` runs over index ``i_k``."""
    table = SymbolTable()
    arrays = {name: table.declare(name, ArrayType(base=lanes,
                                                  length=trip + 2),
                                  "global")
              for name in ARRAYS}
    arrays["r"] = table.declare("r", ArrayType(base=lanes, length=8),
                                "global")
    pointer = table.declare("p", PointerType(base=lanes))
    accumulators = {}

    def element(name: str, index, shift: int = 0) -> N.Mem:
        offset = N.BinOp(op="*", left=N.int_const(lanes.sizeof()),
                         right=N.VarRef(sym=index, ctype=INT), ctype=INT)
        offset = N.BinOp(op="+", left=offset,
                         right=N.int_const((1 + shift) * lanes.sizeof()),
                         ctype=INT)
        base = N.VarRef(sym=pointer, ctype=pointer.ctype) if name == "p" \
            else N.AddrOf(sym=arrays[name], ctype=PointerType(base=lanes))
        return N.Mem(addr=N.BinOp(
            op="+", left=base, right=offset,
            ctype=PointerType(base=lanes)), ctype=lanes)

    def accumulator(name: str):
        if name not in accumulators:
            accumulators[name] = table.declare(name, lanes)
        return N.VarRef(sym=accumulators[name], ctype=lanes)

    zero = N.Const(value=0.0 if lanes.is_float else 0, ctype=lanes)
    body: List[N.Stmt] = []
    indices = []
    for number, plan in enumerate(loops):
        index = table.declare(f"i{number}", INT)
        indices.append(index)
        stmts: List[N.Stmt] = []
        for step in plan:
            if step[0] in ("store", "masked"):
                kind, target, op, left, shift, right = step
                value = N.BinOp(op=op, left=element(left, index, shift),
                                right=element(right, index), ctype=lanes)
                if kind == "masked":
                    value = N.Select(
                        cond=N.BinOp(op=">", left=N.VarRef(
                            sym=index, ctype=INT), right=N.int_const(0),
                            ctype=INT),
                        then=value, otherwise=element(target, index),
                        ctype=lanes)
                stmts.append(N.Assign(target=element(target, index),
                                      value=value))
            else:
                _, op, source, shift, name = step
                stmts.append(N.Assign(
                    target=accumulator(name), value=N.BinOp(
                        op=op, left=accumulator(name),
                        right=element(source, index, shift),
                        ctype=lanes)))
        last = number and number == len(loops) - 1
        if last and between == "reset":
            body.append(N.Assign(target=accumulator("s1"),
                                 value=N.clone_expr(zero)))
        elif last and between == "other":
            body.append(N.Assign(target=accumulator("t"),
                                 value=N.clone_expr(zero)))
        body.append(N.DoLoop(var=index, lo=N.int_const(0),
                             hi=N.int_const(trip - 1), step=1,
                             body=stmts))
    for name in ("s0", "s1", "t"):
        accumulator(name)
    start = [N.Assign(target=accumulator(name), value=N.clone_expr(zero))
             for name in sorted(accumulators)]
    start.append(N.Assign(
        target=N.VarRef(sym=pointer, ctype=pointer.ctype),
        value=N.AddrOf(sym=arrays["c"], ctype=pointer.ctype)))
    finish = [N.Assign(
        target=N.Mem(addr=N.BinOp(
            op="+", left=N.AddrOf(sym=arrays["r"],
                                  ctype=PointerType(base=lanes)),
            right=N.int_const(k * lanes.sizeof()),
            ctype=PointerType(base=lanes)), ctype=lanes),
        value=accumulator(name))
        for k, name in enumerate(sorted(accumulators))]
    fn = N.ILFunction(name="main", params=[], ret_type=INT,
                      body=start + body + finish
                      + [N.Return(value=N.int_const(0))],
                      local_syms=indices + [pointer] + [
                          accumulators[name]
                          for name in sorted(accumulators)])
    return N.ILProgram(functions={"main": fn},
                       globals=[N.GlobalVar(sym=sym)
                                for sym in arrays.values()],
                       symtab=table)


@st.composite
def statements(draw, reduce_into: str) -> tuple:
    if draw(st.integers(0, 3)) == 0:
        return ("reduce", draw(st.sampled_from(("+", "min", "max"))),
                draw(st.sampled_from(ARRAYS)),
                draw(st.sampled_from((-1, 0, 1))), reduce_into)
    # Products of inputs only, or sums: values stay small.
    return ("store", draw(st.sampled_from(ARRAYS[2:])),
            draw(st.sampled_from(("+", "-", "*"))),
            draw(st.sampled_from(ARRAYS)),
            draw(st.sampled_from((-1, 0, 1))),
            draw(st.sampled_from(ARRAYS[:2])))


@st.composite
def cases(draw) -> Tuple:
    lanes = draw(st.sampled_from((INT, FLOAT)))
    loops = [[draw(statements(f"s{number}"))
              for _ in range(draw(st.integers(1, 3)))]
             for number in range(draw(st.integers(1, 2)))]
    return (lanes, draw(st.sampled_from(TRIPS)), loops,
            draw(st.sampled_from(("", "reset", "other"))),
            draw(st.sampled_from(VECTOR_LENGTHS)),
            draw(st.sampled_from(PROCESSORS)),
            draw(st.sampled_from(ORDERS)))


def small(k: int, scale: int) -> int:
    return (k * scale) % 7 - 3


def observe(program: N.ILProgram, engine: str, order: str,
            config=None) -> dict:
    """Everything a run of ``main`` shows, under a Titan model of
    ``config`` when given."""
    model = config and TitanCostModel(config)
    interp = make_interpreter(program, engine=engine, cost_hook=model,
                              memory_size=MEMORY, parallel_order=order,
                              seed=11)
    trip = program.global_named("a").sym.ctype.length
    for name, scale in zip(ARRAYS, (5, 3, 2, 1)):
        interp.set_global_array(name, [small(k, scale)
                                       for k in range(trip)])
    seen = {"result": interp.run("main"), "stdout": interp.stdout,
            "memory": bytes(interp.memory.data), "steps": interp.steps}
    if model is not None:
        seen.update(cycles=model.cycles, counters=model.counters,
                    breakdown=model.breakdown)
    return seen


def vectorized(case, fuse: bool, remarks=None):
    """The case's program vectorized — its strip loops left apart
    unless ``fuse`` — and the configuration its runs are charged
    under."""
    lanes, trip, loops, between, width, processors, _ = case
    program = build(lanes, trip, loops, between)
    config = titan_config(CompilerOptions(vector_length=width,
                                          processors=processors))
    vectorizer = Vectorizer(program.symtab, VectorizeOptions(
        vector_length=width, config=config), remarks=remarks)
    if not fuse:
        vectorizer._fuse_lists = lambda stmts: None
    vectorizer.run(program.functions["main"])
    validate_function(program.functions["main"])
    return program, config


def strip_loops(program) -> List[N.DoLoop]:
    return [stmt for stmt in program.functions["main"].all_statements()
            if isinstance(stmt, N.DoLoop) and stmt.vector]


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_fused_code_runs_like_unfused_code(case):
    lanes, trip, loops, between, width, processors, order = case
    reference = observe(build(lanes, trip, loops, between), "tree",
                        "forward")
    unfused, _ = vectorized(case, fuse=False)
    fused, config = vectorized(case, fuse=True)
    assert len(strip_loops(fused)) <= len(strip_loops(unfused))
    apart = observe(unfused, "tree", order)
    for costed in (None, config):
        tree = observe(fused, "tree", order, costed)
        fast = observe(fused, "compiled", order, costed)
        assert fast == tree, (case, costed)
        for field in ("result", "stdout", "memory"):
            assert tree[field] == reference[field], (case, field)
            assert tree[field] == apart[field], (case, field)


def _fusions() -> dict:
    return {dict(key)["outcome"]: metric.value
            for name, key, metric in REGISTRY
            if name == "titancc_vector_fusion_total"}


def _fused(case):
    before = _fusions()
    remarks = RemarkCollector()
    program, config = vectorized(case, fuse=True, remarks=remarks)
    counts = {outcome: value - before.get(outcome, 0)
              for outcome, value in _fusions().items()
              if value != before.get(outcome, 0)}
    messages = [remark.message for remark in remarks.for_kind("analysis")
                if "fused" in remark.message]
    return program, config, counts, messages


INIT = [("store", "c", "+", "a", 0, "b"), ("store", "d", "*", "a", 0, "b")]


def test_init_compute_reset_sum_fuse_into_one_loop():
    # Three source loops and a reset between two of them: one strip
    # loop, the reset ahead of it, one fork at 2 CPUs.
    loops = [INIT, [("store", "c", "+", "d", 0, "a")],
             [("reduce", "+", "c", 0, "s1")]]
    program = build(FLOAT, 100, loops, "reset")
    config = titan_config(CompilerOptions(vector_length=32, processors=2))
    Vectorizer(program.symtab, VectorizeOptions(
        vector_length=32, config=config)).run(program.functions["main"])
    (loop,) = strip_loops(program)
    assert loop.parallel and len(loop.body) == 5
    main = program.functions["main"].body
    assert main.index(loop) > next(
        k for k, stmt in enumerate(main) if isinstance(stmt, N.Assign)
        and getattr(stmt.target, "sym", None)
        and stmt.target.sym.name == "s1" and N.is_const(stmt.value, 0.0))
    reference = observe(build(FLOAT, 100, loops, "reset"), "tree",
                        "forward")
    for engine in ("tree", "compiled"):
        for field in ("result", "memory"):
            assert observe(program, engine, "reverse")[field] == \
                reference[field], (engine, field)


def test_a_read_ahead_of_an_earlier_store_refuses():
    # The second loop reads c[i + 1], which the first loop's next
    # iteration writes: fused, it would read the old value.
    case = (FLOAT, 100, [[("store", "c", "+", "a", 0, "b")],
                         [("store", "d", "+", "c", 1, "b")]],
            "", 32, 2, "forward")
    program, _, counts, messages = _fused(case)
    assert len(strip_loops(program)) == 2
    assert counts == {"dependence": 1}
    assert messages and "not fused: anti dependence" in messages[0]


def test_fusion_that_would_serialize_forked_strips_is_priced():
    # The guarded_diff shape: the second loop reads c[i - 1], which the
    # first writes an iteration earlier — legal to fuse, but the fused
    # loop may not fork.  At 2 CPUs and 4,096 elements two forks are
    # cheaper than one serial loop; at 1 CPU nothing forks, so they
    # fuse.
    loops = [[("store", "c", "+", "a", 0, "b")],
             [("store", "d", "+", "c", -1, "b")]]
    program, config, counts, messages = _fused(
        (FLOAT, 4096, loops, "", 32, 2, "forward"))
    assert [loop.parallel for loop in strip_loops(program)] == [True, True]
    assert counts == {"price": 1}
    assert "fused against" in messages[0]
    program, _, counts, _ = _fused(
        (FLOAT, 4096, loops, "", 32, 1, "forward"))
    (loop,) = strip_loops(program)
    assert not loop.parallel and counts == {"fused": 1}


def test_fusion_never_raises_the_walk_price():
    # Whatever fused, the walk prices main no higher than unfused.
    for processors in PROCESSORS:
        for loops in ([INIT, [("store", "c", "+", "d", -1, "a")]],
                      [INIT, [("reduce", "+", "d", 1, "s1")]]):
            case = (FLOAT, 1000, loops, "", 32, processors, "forward")
            prices = []
            for fuse in (False, True):
                program, config = vectorized(case, fuse)
                prices.append(StaticCostEstimator(config).function_cycles(
                    "main", program.functions["main"]))
            assert prices[1] <= prices[0], (processors, loops, prices)


def test_e19_daxpy_at_100_elements():
    # Init, daxpy and sum at n = 100, VL 32: one strip loop.  At 2
    # CPUs it forks once (three forks and 1,807 cycles unfused); at 1
    # CPU it does not fork at all (2,625 cycles with three forks).
    import os
    from repro.pipeline import compile_c
    from repro.titan.simulator import TitanSimulator
    path = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                        "e19", "corpus", "kernels", "daxpy.c")
    with open(path) as handle:
        source = handle.read().replace("{n}", "100").replace("{s}", "0")
    for processors, bound, forks in ((2, 1400, 1), (1, 2050, 0)):
        options = CompilerOptions(vector_length=32, processors=processors)
        program = compile_c(source, options).program
        loops = [stmt for stmt in program.functions["main"].body
                 if isinstance(stmt, N.DoLoop)]
        assert len(loops) == 1 and len(loops[0].body) == 5
        assert sum(loop.parallel for loop in loops) == forks
        with TitanSimulator(program, titan_config(options)) as simulator:
            assert simulator.run("main").cycles <= bound, processors
