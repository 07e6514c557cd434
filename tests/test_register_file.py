"""The vector register file changes what vector code is charged, never
what it computes.

A load section or index vector (``iota``) is *held* when the register
file still has an equal one from earlier in the same strip — or the
same run of bare vector statements, or the same statement — and
nothing since may have changed it
(:func:`repro.titan.vector_ops.held_loads`); a held entry issues no
instruction.  The programs here are vector IL built directly: runs of
bare statements of two lengths and strip loops, whose statements read
index vectors from ``0``, the strip index or a scalar ``k``, read one
section twice, store what later statements read, and are interleaved
with what ends a hold — a write of ``k``, a store through a pointer, a
masked store, a call, a label.  The vectorizer marks them; the marks
must equal the rule written out a second way below, scanning back from
each entry; clearing every mark must change cycles only (result and
memory image, tree and compiled engine alike); tree and compiled
engine agree on cycles and breakdown; and the static walk prices
``main`` at what a costed run measures (or above, where a select's arm
no lane takes has operands the walk still prices).
"""

from typing import List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.frontend.ctypes_ import INT, ArrayType, PointerType, VOID
from repro.frontend.symtab import SymbolTable
from repro.il import nodes as N
from repro.il.validate import ILValidationError, validate_function
from repro.interp import make_interpreter
from repro.pipeline import CompilerOptions, titan_config
from repro.titan.cost_model import TitanCostModel
from repro.titan.static import StaticCostEstimator
from repro.vectorize.vectorizer import VectorizeOptions, Vectorizer

ARRAYS = ("a", "b", "c", "d")
#: The lengths of bare statements, the trips and steps of strip loops.
LENGTHS = (8, 13)
TRIPS = (20, 45)
WIDTHS = (8, 16)
SIZE = 48
ORDERS = ("forward", "reverse")


# -- the programs ----------------------------------------------------------

leaves = st.one_of(
    st.tuples(st.just("section"), st.sampled_from(ARRAYS),
              st.sampled_from((0, 1))),
    st.tuples(st.just("iota"), st.sampled_from(("zero", "index", "k"))),
    st.tuples(st.just("const"), st.integers(-3, 3)))


def trees(depth: int = 2):
    if depth == 0:
        return leaves
    inner = trees(depth - 1)
    return st.one_of(
        leaves,
        st.tuples(st.sampled_from(("+", "-", "*")), inner, inner),
        st.tuples(st.just("select"), inner, inner, inner, inner))


@st.composite
def statements(draw, bare: bool) -> tuple:
    kinds = ["store", "store", "store", "masked", "twice", "index",
             "index", "bump", "bump", "pointer", "reduce"]
    if bare:
        kinds += ["call", "label"]
    kind = draw(st.sampled_from(kinds))
    length = draw(st.sampled_from(LENGTHS)) if bare else None
    if kind in ("store", "masked"):
        return (kind, draw(st.sampled_from(ARRAYS[2:])),
                draw(trees()), length)
    if kind == "twice":
        # One section read twice in the statement.
        name = draw(st.sampled_from(ARRAYS))
        return ("store", draw(st.sampled_from(ARRAYS[2:])),
                ("*", ("section", name, 0), ("section", name, 0)), length)
    if kind == "index":
        # Index vectors from k and from the statement's first index.
        return ("store", draw(st.sampled_from(ARRAYS[2:])),
                ("-", ("iota", "k"), ("iota", "index")), length)
    if kind == "reduce":
        return ("reduce", draw(st.sampled_from(ARRAYS)), length)
    return (kind,)


@st.composite
def programs(draw) -> list:
    """Items of ``main``'s body: ``("bare", statement)`` or
    ``("strips", trip, width, statements)``."""
    items = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            items += [("bare", draw(statements(True)))
                      for _ in range(draw(st.integers(1, 4)))]
        else:
            items.append(("strips", draw(st.sampled_from(TRIPS)),
                          draw(st.sampled_from(WIDTHS)),
                          draw(st.lists(statements(False), min_size=1,
                                        max_size=4))))
    return items


def build(items) -> N.ILProgram:
    table = SymbolTable()
    arrays = {name: table.declare(name, ArrayType(base=INT, length=SIZE),
                                  "global")
              for name in ARRAYS + ("r",)}
    k = table.declare("k", INT)
    s = table.declare("s", INT)
    pointer = table.declare("p", PointerType(base=INT))
    locals_ = [k, s, pointer]
    ref = lambda sym: N.VarRef(sym=sym, ctype=sym.ctype)  # noqa: E731
    labels = iter(range(1000))

    def section(name: str, shift: int, start: N.Expr,
                length: N.Expr) -> N.Section:
        addr = N.BinOp(op="+", left=N.AddrOf(
            sym=arrays[name], ctype=PointerType(base=INT)),
            right=N.BinOp(op="*", left=N.int_const(4), right=N.BinOp(
                op="+", left=N.clone_expr(start),
                right=N.int_const(shift), ctype=INT), ctype=INT),
            ctype=PointerType(base=INT))
        return N.Section(addr=addr, length=N.clone_expr(length), stride=1,
                         ctype=INT)

    def expr(tree, start: N.Expr, length: N.Expr) -> N.Expr:
        kind = tree[0]
        if kind == "section":
            return section(tree[1], tree[2], start, length)
        if kind == "iota":
            first = {"zero": N.int_const(0), "index": start,
                     "k": ref(k)}[tree[1]]
            return N.Iota(start=N.clone_expr(first), ctype=INT)
        if kind == "const":
            return N.int_const(tree[1])
        if kind == "select":
            _, left, right, then, other = tree
            return N.Select(cond=N.BinOp(
                op="<", left=expr(left, start, length),
                right=expr(right, start, length), ctype=INT),
                then=expr(then, start, length),
                otherwise=expr(other, start, length), ctype=INT)
        op, left, right = tree
        return N.BinOp(op=op, left=expr(left, start, length),
                       right=expr(right, start, length), ctype=INT)

    def lower(stmt, start: N.Expr, length) -> N.Stmt:
        kind = stmt[0]
        if stmt[-1] is not None and kind in ("store", "masked", "reduce"):
            length = N.int_const(stmt[-1])
        if kind in ("store", "masked"):
            mask = None
            if kind == "masked":
                mask = N.BinOp(op=">", left=N.Iota(
                    start=N.clone_expr(start), ctype=INT),
                    right=N.int_const(3), ctype=INT)
            return N.VectorAssign(
                target=section(stmt[1], 0, start, length),
                value=expr(stmt[2], start, length), mask=mask)
        if kind == "reduce":
            return N.VectorReduce(target=ref(s), op="+",
                                  value=section(stmt[1], 1, start, length),
                                  length=N.clone_expr(length))
        if kind == "bump":
            return N.Assign(target=ref(k), value=N.BinOp(
                op="+", left=ref(k), right=N.int_const(1), ctype=INT))
        if kind == "pointer":
            return N.Assign(target=N.Mem(addr=ref(pointer), ctype=INT),
                            value=N.int_const(7))
        if kind == "call":
            return N.CallStmt(call=N.CallExpr(name="nop", args=[],
                                              ctype=VOID))
        return N.LabelStmt(label=f"L{next(labels)}")

    body: List[N.Stmt] = [
        N.Assign(target=ref(k), value=N.int_const(2)),
        N.Assign(target=ref(s), value=N.int_const(0)),
        N.Assign(target=ref(pointer), value=N.AddrOf(
            sym=arrays["c"], ctype=pointer.ctype))]
    for number, item in enumerate(items):
        if item[0] == "bare":
            body.append(lower(item[1], N.int_const(0), None))
            continue
        _, trip, width, stmts = item
        vi = table.declare(f"vi{number}", INT)
        vlen = table.declare(f"vlen{number}", INT)
        locals_ += [vi, vlen]
        head = N.Assign(target=ref(vlen), value=N.BinOp(
            op="min", left=N.int_const(width), right=N.BinOp(
                op="-", left=N.int_const(trip), right=ref(vi),
                ctype=INT), ctype=INT))
        body.append(N.DoLoop(
            var=vi, lo=N.int_const(0), hi=N.int_const(trip - 1),
            step=width, vector=True,
            body=[head] + [lower(stmt, ref(vi), ref(vlen))
                           for stmt in stmts]))
    body.append(N.Assign(target=N.Mem(addr=N.AddrOf(
        sym=arrays["r"], ctype=PointerType(base=INT)), ctype=INT),
        value=ref(s)))
    body.append(N.Return(value=N.int_const(0)))
    main = N.ILFunction(name="main", params=[], ret_type=INT, body=body,
                        local_syms=locals_)
    nop = N.ILFunction(name="nop", params=[], ret_type=VOID, body=[])
    return N.ILProgram(functions={"main": main, "nop": nop},
                       globals=[N.GlobalVar(sym=sym)
                                for sym in arrays.values()],
                       symtab=table)


def marked(items) -> N.ILProgram:
    """The program with the vectorizer's marks, validated."""
    program = build(items)
    main = program.functions["main"]
    Vectorizer(program.symtab, VectorizeOptions(
        config=titan_config(CompilerOptions()))).run(main)
    validate_function(main)
    return program


def _cleared(expr):
    if expr is None:
        return None
    if isinstance(expr, N.Section):
        return N.Section(addr=expr.addr, length=expr.length,
                         stride=expr.stride, ctype=expr.ctype)
    if isinstance(expr, N.Iota):
        return N.Iota(start=expr.start, ctype=expr.ctype)
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


# -- the rule, scanning back from each entry --------------------------------

def entries(stmt: N.VectorAssign) -> List[Tuple[N.Expr, N.VectorAssign]]:
    """Load sections and index vectors in issue order (mask first,
    then value), each with its statement."""
    def walk(expr):
        if expr is None or isinstance(expr, N.Mem):
            return []
        if isinstance(expr, (N.Section, N.Iota)):
            return [expr]
        return [node for kid in expr.children() for node in walk(kid)]
    return [(node, stmt) for node in walk(stmt.mask) + walk(stmt.value)]


def _base(section: N.Section):
    """The global array a section lies in, or None for any memory."""
    names = [node for node in N.walk_expr(section.addr)
             if isinstance(node, (N.AddrOf, N.VarRef))
             and (isinstance(node, N.AddrOf) or node.ctype.is_pointer)]
    if len(names) == 1 and isinstance(names[0], N.AddrOf):
        return names[0].sym.name
    return None


def _same(entry, other) -> bool:
    """Equal sections, or index vectors equal in start, statement
    length and type."""
    (a, a_stmt), (b, b_stmt) = entry, other
    if type(a) is not type(b) or a.ctype != b.ctype:
        return False
    if isinstance(a, N.Section):
        return N.expr_equal(a, b)
    return N.expr_equal(a.start, b.start) and N.expr_equal(
        a_stmt.target.length, b_stmt.target.length)


def _reads(entry):
    node, stmt = entry
    exprs = [node] if isinstance(node, N.Section) \
        else [node.start, stmt.target.length]
    return {var.sym for expr in exprs for var in N.walk_expr(expr)
            if isinstance(var, N.VarRef)}


def _held(entry, earlier, prior_stmts) -> bool:
    if any(_same(entry, other) for other in earlier):
        return True
    section = isinstance(entry[0], N.Section)
    for prior in reversed(prior_stmts):
        if isinstance(prior, (N.LabelStmt, N.CallStmt)):
            return False
        if isinstance(prior, (N.Assign, N.VectorReduce)):
            if isinstance(prior.target, N.Mem):
                if section:
                    return False  # a store through a pointer
            elif prior.target.sym in _reads(entry):
                return False
            continue
        if section:
            target = prior.target
            if prior.mask is None and _same(entry, (target, prior)):
                return True
            if _base(target) is None or _base(entry[0]) is None \
                    or _base(target) == _base(entry[0]):
                return False
        if any(_same(entry, other) for other in entries(prior)):
            return True
    return False


def expected_holds(stmts: List[N.Stmt]) -> List[bool]:
    """Per entry of the vector stores of ``stmts`` — a strip loop's
    body or a statement list — in order: is an equal entry earlier in
    its statement, or in the nearest earlier statement of its run (a
    run ends at a statement with nested lists or a label) that stores
    or reads an equal one, with nothing between that may change it?"""
    out = []
    run: List[N.Stmt] = []
    for stmt in stmts:
        if stmt.substatements():
            run = []
            continue
        if isinstance(stmt, N.VectorAssign):
            found = entries(stmt)
            out += [_held(entry, found[:k], run)
                    for k, entry in enumerate(found)]
        run.append(stmt)
    return out


def found_holds(stmts: List[N.Stmt]) -> List[bool]:
    return [node.held for stmt in stmts
            if isinstance(stmt, N.VectorAssign)
            for node, _ in entries(stmt)]


def lists_of(program: N.ILProgram) -> List[List[N.Stmt]]:
    main = program.functions["main"]
    return [main.body] + [stmt.body for stmt in main.all_statements()
                          if isinstance(stmt, N.DoLoop)]


def observe(program: N.ILProgram, engine: str, order: str,
            config=None) -> dict:
    model = config and TitanCostModel(config)
    interp = make_interpreter(program, engine=engine, cost_hook=model,
                              parallel_order=order, seed=11)
    for number, name in enumerate(ARRAYS):
        interp.set_global_array(name, [(i * (number + 3)) % 7 - 3
                                       for i in range(SIZE)])
    seen = {"result": interp.run("main"), "stdout": interp.stdout,
            "memory": bytes(interp.memory.data), "steps": interp.steps}
    if model is not None:
        seen.update(cycles=model.cycles, counters=model.counters,
                    breakdown=model.breakdown)
    return seen


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(programs(), st.sampled_from(ORDERS))
def test_held_entries_change_cycles_never_results(items, order):
    program = marked(items)
    for stmts in lists_of(program):
        assert found_holds(stmts) == expected_holds(stmts), items
    plain = cleared(program)
    assert not any(held for stmts in lists_of(plain)
                   for held in found_holds(stmts))
    config = titan_config(CompilerOptions())
    main = program.functions["main"]
    walk = StaticCostEstimator(config).function_cycles("main", main)
    # The walk prices the operands of both arms of a select, the worst
    # case; runs evaluate those of the arms some lane takes.
    bounded = any(isinstance(node, N.Select)
                  for stmt in main.all_statements()
                  for top in N.stmt_exprs(stmt)
                  for node in N.walk_expr(top))
    for costed in (None, config):
        tree = observe(program, "tree", order, costed)
        fast = observe(program, "compiled", order, costed)
        assert fast == tree, (items, costed)
        reference = observe(plain, "tree", order, costed)
        for field in ("result", "stdout", "memory"):
            assert tree[field] == reference[field], (items, field)
        if costed is not None:
            if bounded:
                assert walk >= tree["cycles"], items
            else:
                assert walk == tree["cycles"], items
            assert tree["cycles"] <= reference["cycles"], items


# -- cases the rule decides --------------------------------------------------

def _outcomes(program) -> List[str]:
    from repro.titan.vector_ops import held_loads
    return [outcome for loads in held_loads(program.functions["main"].body)
            for _, outcome in loads]


BARE = [("bare", ("store", "c", ("iota", "zero"), 8)),
        ("bare", ("store", "d", ("+", ("iota", "zero"),
                                 ("section", "c", 0)), 8))]


def test_a_bare_run_holds_an_index_vector_and_a_stored_section():
    program = marked(BARE)
    assert _outcomes(program) == ["first", "held", "held"]


def test_an_index_vector_of_another_length_is_computed_again():
    program = marked([BARE[0], ("bare", ("store", "d", ("iota", "zero"),
                                         13))])
    assert _outcomes(program) == ["first", "first"]


def test_a_label_ends_the_run_and_a_call_empties_the_file():
    program = marked([BARE[0], ("bare", ("label",)), BARE[1]])
    assert _outcomes(program) == ["first", "first", "first"]
    program = marked([BARE[0], ("bare", ("call",)), BARE[1]])
    assert _outcomes(program) == ["first", "overlap", "overlap"]


def test_a_section_read_twice_is_loaded_once():
    program = marked([("bare", ("store", "c", ("*", ("section", "a", 0),
                                               ("section", "a", 0)), 8))])
    assert _outcomes(program) == ["first", "held"]


def test_a_write_of_its_start_drops_an_index_vector():
    k = ("bare", ("store", "c", ("iota", "k"), 8))
    program = marked([k, ("bare", ("bump",)), k, k])
    assert _outcomes(program) == ["first", "overlap", "held"]


def test_a_stale_index_vector_mark_fails_validation():
    k = ("bare", ("store", "c", ("iota", "k"), 8))
    program = marked([k, k])
    main = program.functions["main"]
    validate_function(main)
    # A write of k between the two statements leaves the second mark
    # stale.
    at = next(index for index, stmt in enumerate(main.body)
              if isinstance(stmt, N.VectorAssign))
    main.body.insert(at + 1, N.Assign(
        target=N.VarRef(sym=main.local_syms[0], ctype=INT),
        value=N.int_const(5)))
    with pytest.raises(ILValidationError, match="marked held"):
        validate_function(main)


def test_the_marks_print_and_survive_rewrites():
    program = marked(BARE)
    (held,) = [node for stmt in program.functions["main"].all_statements()
               if isinstance(stmt, N.VectorAssign)
               for node in N.walk_expr(stmt.value)
               if isinstance(node, N.Iota) and node.held]
    from repro.il.printer import format_expr
    assert format_expr(held) == "iota(0 : held)"
    assert N.clone_expr(N.UnOp(op="neg", operand=held,
                               ctype=INT)).operand.held
    assert N.expr_equal(held, _cleared(held))
