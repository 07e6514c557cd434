"""Sections held in the vector register file change what a strip loop
is charged, never what it computes.

In a strip loop's body, a section load is *held* when an earlier
statement of the same strip stored an equal section without a mask or
loaded one, and nothing since may have changed it
(:func:`repro.titan.vector_ops.held_loads`); a held load issues no
instruction.  Engines still read memory, whose bytes are what the
register holds, so the marked program must give what the same IL with
its marks cleared gives — result, stdout and memory image — under every
``parallel_order``; the tree oracle and the compiled engine must agree
on cycles and breakdown; and the static walk must price ``main`` at
what a run measures.  The marks themselves are checked against the
rule written out here a second way, scanning back from each load.

The loops are :mod:`tests.test_fusion`'s, with masked stores and loads
and stores through a pointer to one of the arrays among the
statements: equal sections, sections one element apart, a pointer the
rule cannot tell from any array, and masked stores.
"""

from typing import List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.frontend.ctypes_ import FLOAT, INT
from repro.il import nodes as N
from repro.il.validate import ILValidationError, validate_function
from repro.obs.metrics import REGISTRY
from repro.pipeline import CompilerOptions, titan_config
from repro.titan.static import StaticCostEstimator
from repro.titan.vector_ops import held_loads, vector_instructions
from repro.vectorize.vectorizer import VectorizeOptions, Vectorizer
from tests.test_fusion import (ARRAYS, ORDERS, PROCESSORS, TRIPS,
                               VECTOR_LENGTHS, build, observe,
                               statements, strip_loops)

#: Every store and load may go through ``p``, which points at ``c``.
NAMES = ARRAYS + ("p",)


@st.composite
def contraction_statements(draw, reduce_into: str) -> tuple:
    """:func:`tests.test_fusion.statements`, with masked stores and
    the pointer ``p`` among the arrays."""
    if draw(st.integers(0, 2)) == 0:
        return draw(statements(reduce_into))
    return (draw(st.sampled_from(("store", "masked"))),
            draw(st.sampled_from(NAMES[2:])),
            draw(st.sampled_from(("+", "-", "*"))),
            draw(st.sampled_from(NAMES)),
            draw(st.sampled_from((-1, 0, 1))),
            draw(st.sampled_from(NAMES[:2] + NAMES[2:3])))


@st.composite
def cases(draw) -> tuple:
    lanes = draw(st.sampled_from((INT, FLOAT)))
    loops = [[draw(contraction_statements(f"s{number}"))
              for _ in range(draw(st.integers(1, 4)))]
             for number in range(draw(st.integers(1, 2)))]
    return (lanes, draw(st.sampled_from(TRIPS)), loops,
            draw(st.sampled_from(VECTOR_LENGTHS)),
            draw(st.sampled_from(PROCESSORS)),
            draw(st.sampled_from(ORDERS)))


def vectorized(lanes, trip: int, loops, width: int, processors: int):
    """The program vectorized and fused, pointers taken to alias
    nothing (as a ``safe`` pragma says), and its run configuration."""
    program = build(lanes, trip, loops)
    config = titan_config(CompilerOptions(vector_length=width,
                                          processors=processors))
    Vectorizer(program.symtab, VectorizeOptions(
        vector_length=width, assume_no_alias=True,
        config=config)).run(program.functions["main"])
    validate_function(program.functions["main"])
    return program, config


def _cleared(expr):
    if expr is None:
        return None
    if isinstance(expr, N.Section):
        return N.Section(addr=expr.addr, length=expr.length,
                         stride=expr.stride, ctype=expr.ctype)
    kids = expr.children()
    if not kids:
        return expr
    return expr.replace_children([_cleared(kid) for kid in kids])


def cleared(program: N.ILProgram) -> N.ILProgram:
    """A copy of ``program`` with every held mark cleared."""
    copy = N.copy_program(program)
    for fn in copy.functions.values():
        for stmt in fn.all_statements():
            if isinstance(stmt, N.VectorAssign):
                stmt.value = _cleared(stmt.value)
                stmt.mask = _cleared(stmt.mask)
    return copy


def marks(program: N.ILProgram) -> List[bool]:
    return [node.held for stmt in program.functions["main"]
            .all_statements() if isinstance(stmt, N.VectorAssign)
            for top in (stmt.mask, stmt.value) if top is not None
            for node in N.walk_expr(top) if isinstance(node, N.Section)]


# -- the rule, scanning back from each load ---------------------------------

def _loads(expr) -> List[N.Section]:
    """Load sections in issue order (mask first, then value)."""
    if expr is None:
        return []
    if isinstance(expr, N.Section):
        return [expr]
    if isinstance(expr, (N.Mem, N.Iota)):
        return []
    return [section for kid in expr.children() for section in _loads(kid)]


def _base(section: N.Section):
    """The global array a section lies in, or None for any memory."""
    names = [node for node in N.walk_expr(section.addr)
             if isinstance(node, (N.AddrOf, N.VarRef))
             and (isinstance(node, N.AddrOf) or node.ctype.is_pointer)]
    if len(names) == 1 and isinstance(names[0], N.AddrOf):
        return names[0].sym.name
    return None


def _same(a: N.Section, b: N.Section) -> bool:
    return a.ctype == b.ctype and N.expr_equal(a, b)


def _may_overlap(a: N.Section, b: N.Section) -> bool:
    return _base(a) is None or _base(b) is None or _base(a) == _base(b)


def _reads(section: N.Section):
    return {node.sym for node in N.walk_expr(section)
            if isinstance(node, N.VarRef)}


def expected_holds(loop: N.DoLoop) -> List[bool]:
    """Per load of the loop's vector stores, in issue order: does the
    nearest earlier vector store of the strip that stores or loads an
    equal section come with nothing between that may change it?"""
    out = []
    body = loop.body
    for k, stmt in enumerate(body):
        if not isinstance(stmt, N.VectorAssign):
            continue
        for load in _loads(stmt.mask) + _loads(stmt.value):
            held = False
            for prior in reversed(body[:k]):
                if isinstance(prior, N.Assign):
                    if prior.target.sym in _reads(load):
                        break
                    continue
                if isinstance(prior, N.VectorReduce):
                    # Its one instruction loads nothing to hold.
                    if prior.target.sym in _reads(load):
                        break
                    continue
                target = prior.target
                if prior.mask is None and _same(load, target):
                    held = True
                    break
                if _may_overlap(load, target):
                    break
                if any(_same(load, other) for other in
                       _loads(prior.mask) + _loads(prior.value)):
                    held = True
                    break
            out.append(held)
    return out


def assert_marks_follow_the_rule(program, width: int) -> None:
    for loop in strip_loops(program):
        found = [node.held for stmt in loop.body
                 if isinstance(stmt, N.VectorAssign)
                 for node in _loads(stmt.mask) + _loads(stmt.value)]
        expected = expected_holds(loop)
        if width < 2048:  # the register budget never binds
            assert found == expected, (found, expected)
        else:
            assert all(e or not f for f, e in zip(found, expected))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_held_sections_change_cycles_never_results(case):
    lanes, trip, loops, width, processors, order = case
    program, config = vectorized(lanes, trip, loops, width, processors)
    assert_marks_follow_the_rule(program, width)
    plain = cleared(program)
    assert not any(marks(plain))
    main = program.functions["main"]
    walk = StaticCostEstimator(config).function_cycles("main", main)
    # The walk prices a sequential DO loop one exit branch short of a
    # run: compare it where main is straight-line code and strip loops.
    straight = not any(isinstance(stmt, N.DoLoop) and not stmt.vector
                       for stmt in main.all_statements())
    for costed in (None, config):
        tree = observe(program, "tree", order, costed)
        fast = observe(program, "compiled", order, costed)
        assert fast == tree, (case, costed)
        reference = observe(plain, "tree", order, costed)
        for field in ("result", "stdout", "memory"):
            assert tree[field] == reference[field], (case, field)
        if costed is not None:
            if straight:
                assert walk == tree["cycles"], case
            assert tree["cycles"] <= reference["cycles"], case


# -- cases the rule decides --------------------------------------------------

def _only_loop(loops, width=32, processors=1, trip=100):
    program, _ = vectorized(FLOAT, trip, loops, width, processors)
    (loop,) = strip_loops(program)
    return loop


def _outcomes(loop, register_words=None):
    return [outcome for loads in held_loads(loop, register_words)
            for _, outcome in loads]


def test_a_stored_section_read_again_is_held():
    loop = _only_loop([[("store", "c", "+", "a", 0, "b"),
                        ("store", "d", "*", "c", 0, "c")]])
    assert _outcomes(loop) == ["first", "first", "held", "held"]
    # The second statement issues its multiply and its store only.
    assert [op for op, _ in vector_instructions(loop.body[2])] == [
        "*", "store"]


def test_a_section_one_element_away_is_not_held():
    loop = _only_loop([[("store", "c", "+", "a", 0, "b"),
                        ("store", "d", "+", "c", 1, "b")]])
    assert _outcomes(loop)[2:] == ["first", "held"]


def test_a_reduced_section_read_again_is_loaded():
    # The reduction issues its one reduce instruction and no load of
    # c, so nothing holds c for the store that reads it next.
    loop = _only_loop([[("reduce", "+", "c", 0, "s0")],
                       [("store", "d", "+", "c", 0, "a")]])
    assert isinstance(loop.body[1], N.VectorReduce)
    assert _outcomes(loop) == ["first", "first"]
    assert [op for op, _ in vector_instructions(loop.body[2])].count(
        "load") == 2


def test_a_store_through_a_pointer_drops_every_array():
    # p points at c, but the rule reads the IL only: a store through a
    # pointer may overlap any array, so c and b are read again.
    loop = _only_loop([[("store", "c", "+", "a", 0, "b"),
                        ("store", "p", "+", "c", 0, "a")],
                       [("store", "d", "+", "c", 0, "b")]])
    assert _outcomes(loop) == ["first", "first", "held", "held",
                               "overlap", "overlap"]


def test_a_masked_store_drops_its_section():
    loop = _only_loop([[("store", "c", "+", "a", 0, "b"),
                        ("masked", "c", "-", "a", 0, "b"),
                        ("store", "d", "+", "c", 0, "a")]])
    # The masked store's own loads are held; after it, c is not, while
    # a still is.
    assert _outcomes(loop) == ["first", "first", "held", "held",
                               "masked", "held"]


FIVE = """
float a[4096], b[4096], c[4096], d[4096], e[4096], f[4096], g[4096];
int main(void) {
    int i;
    for (i = 0; i < 4096; i++)
        g[i] = i & 7;
    for (i = 0; i < 4096; i++) {
        a[i] = g[i] + 1.0f;
        b[i] = g[i] + 2.0f;
        c[i] = g[i] + 3.0f;
        d[i] = g[i] + 4.0f;
        e[i] = g[i] + 5.0f;
        f[i] = a[i] + b[i] + c[i] + d[i] + e[i];
    }
    return (int) f[7];
}
"""


@pytest.mark.parametrize("width,held", [(2048, 2), (1024, 5)])
def test_five_sections_meet_the_register_budget(width, held):
    # One strip loop stores g, then e, d, c, b, a (each from g), then
    # reads all five into f.  At VL 2048 the 8,192-word file holds
    # 8192 // 2048 - 1 = 3 sections: g and the last two stored, a and
    # b; c, d and e were dropped.  At VL 1024 it holds seven.
    from repro.pipeline import compile_c
    from repro.titan.simulator import TitanSimulator
    options = CompilerOptions(vector_length=width, processors=1)
    result = compile_c(FIVE, options)
    (loop,) = strip_loops(result.program)
    last = held_loads(loop, titan_config(options).vector_register_words)[-1]
    assert [outcome for _, outcome in last] == \
        ["held"] * held + ["budget"] * (5 - held)
    assert "budget" not in _outcomes(loop)[:-5]
    messages = [r.message for r in result.remarks.for_kind("analysis")
                if "vector registers" in r.message]
    assert messages == [f"{5 + held} loads read from vector registers: "
                        + ", ".join("gabcde"[:held + 1])]
    plain = cleared(result.program)
    config = titan_config(options)
    runs = []
    for program in (result.program, plain):
        with TitanSimulator(program, config) as simulator:
            runs.append(simulator.run("main"))
    assert runs[0].result == runs[1].result == 50
    # Each held load saves, per strip, a load's startup and a cycle
    # per element.
    assert runs[1].cycles - runs[0].cycles == \
        (5 + held) * (4096 + 4096 // width * config.vector_startup)


def test_the_counter_counts_outcomes():
    def counts():
        return {dict(key)["outcome"]: metric.value
                for name, key, metric in REGISTRY
                if name == "titancc_vector_held_loads_total"}
    before = counts()
    vectorized(FLOAT, 100, [[("store", "c", "+", "a", 0, "b"),
                             ("masked", "c", "-", "a", 0, "b"),
                             ("store", "d", "+", "c", 0, "a")]], 32, 1)
    after = counts()
    assert {k: v - before.get(k, 0) for k, v in after.items()
            if v != before.get(k, 0)} == {"held": 3, "masked": 1}


def test_a_stale_mark_fails_validation():
    # Reordering a strip's statements after marking leaves a held load
    # ahead of the store that justified it.
    program, _ = vectorized(FLOAT, 100, [[
        ("store", "c", "+", "a", 0, "b"),
        ("store", "d", "*", "c", 0, "a")]], 32, 1)
    (loop,) = strip_loops(program)
    validate_function(program.functions["main"])
    loop.body[1], loop.body[2] = loop.body[2], loop.body[1]
    with pytest.raises(ILValidationError, match="marked held"):
        validate_function(program.functions["main"])


def test_the_mark_survives_rewrites_and_prints():
    loop = _only_loop([[("store", "c", "+", "a", 0, "b"),
                        ("store", "d", "*", "c", 0, "c")]])
    value = loop.body[2].value
    held = [node for node in N.walk_expr(value)
            if isinstance(node, N.Section)]
    assert [node.held for node in held] == [True, True]
    copy = N.clone_expr(value)
    assert [node.held for node in N.walk_expr(copy)
            if isinstance(node, N.Section)] == [True, True]
    assert N.expr_equal(held[0], _cleared(held[0]))
    from repro.il.printer import format_expr
    assert format_expr(held[0]).endswith(" : s=1 : held]")
    assert "held" not in format_expr(_cleared(held[0]))
