"""Global scalars held in registers across loops (``opt/promote.py``).

A global scalar whose address is never taken is loaded into a register
before a loop that accesses it on every iteration, read and written
there, and stored back after the loop — when the loop has no call, no
return and no goto across its edge, and the static walk prices the
change below the loop.  The programs here draw globals that loops read
only, read and write, or reach only under an ``if`` or a select;
``while`` loops, DO loops of 0, 1 and many trips, strip loops whose
masks read a global; loops with an inner goto (``continue``), a goto
out (``break``), a call or a return; and a global whose address is
taken, stored through a pointer in a loop that reads it.

Whatever is held, results, output and the memory image equal a compile
without the section 6 passes; the tree and compiled engines agree on
cycles; the static walk prices ``main`` at what a costed run measures
wherever it did without the pass; and it never prices the code dearer
than the same compile with nothing held.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fuzz.harness import walk_mismatch
from repro.il import nodes as N
from repro.opt import promote
from repro.pipeline import CompilerOptions, compile_c, titan_config
from repro.titan.simulator import TitanSimulator
from repro.titan.static import StaticCostEstimator

SIZE = 64
#: Trips of DO loops: none, one, many (across a strip of 32).
TRIPS = (0, 1, 7, 40)

#: Loop-body statements: (C text, needs a loop variable ``i``).
READ = "B[{i}] = A[{i}] + g0;"
WRITE = "g1 = g1 + A[{i}];"
GUARDED = "if (A[{i}] > 3) g2 = g2 + 1;"
SELECT = "B[{i}] = A[{i}] > 4 ? g2 : B[{i}];"
MASKED = "if (A[{i}] == g0) C[{i}] = {i};"
POINTER = "*p = *p + A[{i}]; B[{i}] = B[{i}] + gp;"
CALL = "B[{i}] = h(g1, {i});"
BREAK = "if (A[{i}] == 6) break;"
CONTINUE = "if (A[{i}] == 2) continue;"
PRINT = "printf(\"%d\\n\", g1);"

#: What the static walk prices exactly or as an upper bound.
STRAIGHT = (READ, READ, WRITE, WRITE, GUARDED, SELECT, MASKED, MASKED,
            POINTER)
#: What it does not price: calls, and gotos out of and inside loops.
IRREGULAR = (CALL, BREAK, CONTINUE, PRINT)


@st.composite
def loops(draw, plain: bool, depth: int = 0) -> str:
    """One loop: a counted ``for``, a ``while`` counting down ``n``,
    or a ``for`` around an inner loop; ``plain`` ones are ``for``
    loops over :data:`STRAIGHT` statements."""
    kinds = ("for", "for", "nest") if plain \
        else ("for", "for", "while", "nest")
    kind = draw(st.sampled_from(kinds[:-1] if depth else kinds))
    stmts = draw(st.lists(st.sampled_from(
        STRAIGHT if plain else STRAIGHT + IRREGULAR),
        min_size=1, max_size=4))
    if kind == "while":
        count = draw(st.sampled_from(TRIPS))
        body = "\n".join(s.format(i="n") for s in stmts)
        # Decrement first: a continue cannot skip it.
        return (f"n = {count};\nwhile (n > 0) {{\nn = n - 1;\n"
                f"{body}\n}}")
    trips = draw(st.sampled_from(TRIPS))
    index = "i" if depth == 0 else "j"
    body = "\n".join(s.format(i=index) for s in stmts)
    if kind == "nest":
        body = f"g0 = g0 + 1;\n{draw(loops(plain, depth + 1))}"
    return f"for ({index} = 0; {index} < {trips}; {index}++) {{\n{body}\n}}"


@st.composite
def programs(draw) -> str:
    plain = draw(st.booleans())
    blocks = draw(st.lists(loops(plain), min_size=1, max_size=3))
    early = draw(st.booleans())
    helper = ("int h(int x, int y)\n{\n    if (y > 5)\n        return "
              "h(x - 1, y - 1) + 1;\n    return x + y;\n}\n")
    # A helper with a loop that may return from inside it.
    scan = ("int scan(int limit)\n{\n    int k;\n"
            "    for (k = 0; k < limit; k++) {\n"
            "        g1 = g1 + A[k];\n"
            + ("        if (A[k] == 5) return g1;\n" if early else "")
            + "    }\n    return g1;\n}\n")
    call = "" if plain else \
        f"    chk = scan({draw(st.sampled_from(TRIPS))});\n"
    return (f"int A[{SIZE}], B[{SIZE}], C[{SIZE}];\n"
            "int g0 = 3, g1 = 1, g2 = 0, gp = 2;\n"
            + helper + scan +
            "int main(void)\n{\n    int i, j, n, chk;\n    int *p;\n"
            f"    for (i = 0; i < {SIZE}; i++) {{\n"
            "        A[i] = (i * 7) % 9;\n        B[i] = i;\n"
            "        C[i] = 0;\n    }\n"
            "    p = &gp;\n    chk = 0;\n"
            + "\n".join(blocks) + "\n" + call +
            f"    for (i = 0; i < {SIZE}; i++)\n"
            "        chk = chk * 31 + A[i] + B[i] * 3 + C[i] * 7;\n"
            "    return chk + g0 + g1 * 5 + g2 * 7 + gp * 11;\n}\n")


def without_promotion(monkeypatch, source: str, options):
    with monkeypatch.context() as patch:
        patch.setattr(promote, "promotable_globals",
                      lambda program: frozenset())
        return compile_c(source, options)


def observe(result, engine: str) -> dict:
    config = titan_config(result.options)
    with TitanSimulator(result.program, config,
                        schedules=result.schedules,
                        engine=engine) as sim:
        report = sim.run("main")
        return {"result": report.result, "stdout": report.stdout,
                "image": bytes(sim.interpreter.memory.data),
                "cycles": report.cycles, "counters": report.counters,
                "breakdown": report.breakdown}


def walk(result) -> float:
    return StaticCostEstimator(
        titan_config(result.options), schedules=result.schedules) \
        .function_cycles("main", result.program.functions["main"])


OPTION_POINTS = (CompilerOptions(),
                 CompilerOptions(vector_length=8, processors=4))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large,
                                 HealthCheck.function_scoped_fixture])
@given(programs(), st.sampled_from(OPTION_POINTS))
def test_held_globals_change_cycles_never_results(monkeypatch, source,
                                                  options):
    reference = observe(compile_c(source, CompilerOptions(
        reg_pipeline=False)), "tree")
    held = compile_c(source, options)
    plain = without_promotion(monkeypatch, source, options)
    tree = observe(held, "tree")
    fast = observe(held, "compiled")
    assert fast == tree, source
    # ``gp``'s address is taken: no loop may hold it.
    assert not any("'gp'" in remark.message
                   for remark in held.remarks.for_kind("transformed")
                   if remark.pass_name == promote.PASS_NAME), source
    for field in ("result", "stdout", "image"):
        assert tree[field] == reference[field], (field, source)
    config = titan_config(options)
    before = observe(plain, "tree")
    if not walk_mismatch(plain.program, config, plain.schedules,
                         before["cycles"]):
        assert not walk_mismatch(held.program, config, held.schedules,
                                 tree["cycles"]), source
    assert walk(held) <= walk(plain), source


# -- decisions ---------------------------------------------------------------

def held_in(source: str, options=None) -> dict:
    """Function -> the globals its loops held, from the remarks."""
    result = compile_c(source, options or CompilerOptions())
    out = {}
    for remark in result.remarks.for_kind("transformed"):
        if remark.pass_name == promote.PASS_NAME:
            out.setdefault(remark.function, []).append(remark.message)
    return out, result


LIST_WALK = """
struct node { float v; struct node *next; };
struct node nodes[8];
float total;

void walk(struct node *p)
{
    while (p) {
        total = total + p->v;
        p = p->next;
    }
}

int main(void)
{
    int i;
    for (i = 0; i < 8; i++) {
        nodes[i].v = i;
        nodes[i].next = i < 7 ? &nodes[i + 1] : 0;
    }
    total = 0.0f;
    walk(&nodes[0]);
    return (int) total;
}
"""


def test_a_list_walk_holds_its_sum_and_stores_it_once():
    held, result = held_in(LIST_WALK)
    assert set(held) == {"walk", "main"}
    body = result.program.functions["walk"].body
    assert [type(stmt) for stmt in body] == [N.Assign, N.WhileLoop,
                                             N.Assign]
    preload, loop, store = body
    assert preload.value.sym.name == "total"
    assert store.target.sym.name == "total"
    assert store.value.sym is preload.target.sym
    assert not any(node.sym.name == "total"
                   for stmt in loop.body for top in N.stmt_exprs(stmt)
                   for node in N.walk_expr(top)
                   if isinstance(node, N.VarRef))
    stats = result.promote_stats["walk"]
    assert (stats.loops_promoted, stats.globals_held,
            stats.stores_after) == (1, 1, 1)
    assert observe(result, "compiled")["result"] == 28


def _loop_source(body: str, prelude: str = "") -> str:
    return ("int A[16];\nint g, k;\nint *p;\n"
            "int f(int x) { if (x > 3) return f(x - 1); return x; }\n"
            "int main(void)\n{\n    int i, n;\n" + prelude
            + "    n = 10;\n    while (n > 0) {\n        n = n - 1;\n"
            + body + "\n    }\n    return g + k;\n}\n")


@pytest.mark.parametrize("body, prelude, reason", [
    ("        g = g + f(n);", "", "call"),
    ("        g = g + A[n];\n        if (A[n] == 3) break;", "", "goto"),
    ("        g = g + A[n];\n        if (A[n] == 3) return 1;", "",
     "return"),
    ("        if (A[n] > 2) g = g + 1;", "", "not-every-iteration"),
])
def test_loops_that_cannot_hold_a_global(body, prelude, reason):
    held, result = held_in(_loop_source(body, prelude))
    assert "main" not in held
    assert result.promote_stats["main"].rejected == {reason: 1}


def test_an_address_taken_global_is_never_held():
    # The continue keeps the loop off the scheduler, where holding
    # ``k`` would not pay.
    source = _loop_source("        *p = *p + A[n];\n        k = k + g;\n"
                          "        if (A[n] == 2) continue;\n"
                          "        A[n] = 1;", "    p = &g;\n")
    held, result = held_in(source)
    names = {sym.name
             for sym in promote.promotable_globals(result.program)}
    assert "g" not in names and "k" in names
    assert [message for message in held["main"]
            if "'g'" in message] == []
    assert any("'k'" in message for message in held["main"])


def test_no_new_knob_the_section_6_switch_turns_it_off():
    held, result = held_in(LIST_WALK, CompilerOptions(reg_pipeline=False))
    assert held == {}
    assert result.promote_stats == {}
