"""Strip groups: a strip loop run as a few host-sized bulk operations.

The vectorizer strip-mines vector statements into MVL-sized strips
(section 9): ``do [parallel] vi = lo, hi, VL { vlen = min(VL, n - vi);
S1; ...; Sk }`` — one statement, or several that fusion put in one
loop.  Run one strip at a time, every strip pays the host's fixed
costs — a range check, a load, a round, a store and a cost-model call
per statement — however short it is.  When nothing the statements
read changes from strip to strip except through ``vi`` and their own
stores (:func:`shape`), the fast engine runs up to
:data:`GROUP_ELEMENTS` elements of strips at once through the loop's
own generated code, each statement over the whole group in body
order, with ``vlen`` set to the group's length (:func:`emit`);
``TitanCostModel.strip_group`` charges each strip of the group as its
own run would have.  A group that cannot commit — a read that could
see a store another strip made first, a fault, a parallel loop run in
another order, a step limit inside it — puts back what its earlier
statements stored, charges nothing and runs strip by strip through
the same code.
DESIGN.md ("Why a strip group equals its strips") gives the argument;
``titancc_vector_strip_groups_total{path,reason}`` counts every
decision.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..frontend.ctypes_ import IntType
from ..frontend.symtab import Symbol
from ..il import nodes as N
from ..obs.metrics import REGISTRY
from . import intfacts, vectorgen
from .intfacts import IntFact

#: Most elements one strip group runs in one bulk operation: bounds
#: the size of its temporaries.
GROUP_ELEMENTS = 4096


def counter(path: str, reason: str = ""):
    """One increment per strip-group decision a run made: ``grouped``
    (several strips ran as one bulk operation), or ``strips`` with the
    reason they ran one at a time — ``order`` (a parallel loop in
    another iteration order), ``steps`` (the step limit falls inside
    the group), ``overlap`` (a read could see an earlier strip's
    write), ``fault`` (something raised before the store)."""
    return REGISTRY.counter("titancc_vector_strip_groups_total",
                            {"path": path, "reason": reason})


def affine(expr: N.Expr, var: Symbol, invariant) -> Optional[int]:
    """The coefficient of ``var`` in ``expr`` when ``expr`` is integer
    ``+``/``-``/``*``-by-a-constant arithmetic over ``var``, integer
    constants and leaves ``invariant`` accepts; else None.  Wrapped or
    not, such an expression moves by coefficient x change of ``var``
    modulo the word size."""
    if isinstance(expr, N.VarRef) and expr.sym is var:
        return 1
    if isinstance(expr, N.Const):
        return 0 if isinstance(expr.value, int) else None
    if isinstance(expr, N.BinOp) and not expr.ctype.is_float:
        left = affine(expr.left, var, invariant)
        right = affine(expr.right, var, invariant)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            for factor, other in ((expr.left, right), (expr.right, left)):
                if isinstance(factor, N.Const) and \
                        isinstance(factor.value, int):
                    return factor.value * other
        return None if left or right else 0
    return 0 if invariant(expr) else None


# -- code generation ---------------------------------------------------------


def shape(gen, stmt: N.DoLoop) -> Optional[Tuple[Symbol, N.Expr]]:
    """``(vlen symbol, limit)`` when ``stmt`` is a strip loop whose
    strips the code generator ``gen`` may run several at a time —
    ``do vi = lo, hi, VL { vlen = min(VL, limit - vi); <bulk vector
    statements of length vlen> }`` over 32-bit ints, where every
    section address moves by its byte step per element of ``vi``, an
    iota starts at ``vi``, no statement has a ``Select``, reductions
    accumulate into distinct registers, and nothing else a statement
    reads is written by the loop — else None."""
    width, vi = stmt.step, stmt.var
    if width <= 0 or GROUP_ELEMENTS // width < 2 or \
            len(stmt.body) < 2 or gen._scheduled(stmt):
        return None
    header, *vecs = stmt.body
    if not (isinstance(header, N.Assign)
            and isinstance(header.target, N.VarRef)
            and all(isinstance(vec, (N.VectorAssign, N.VectorReduce))
                    for vec in vecs)):
        return None
    value, vlen = header.value, header.target.sym

    def word(ctype) -> bool:
        return isinstance(ctype, IntType) and ctype.sizeof() == 4

    if not (isinstance(value, N.BinOp) and value.op == "min"
            and N.is_const(value.left, width)
            and isinstance(value.right, N.BinOp)
            and value.right.op == "-"
            and isinstance(value.right.right, N.VarRef)
            and value.right.right.sym is vi
            and all(map(word, (value.ctype, value.right.ctype,
                               value.right.left.ctype, vlen.ctype)))):
        return None
    written = {vi, vlen}
    for vec in vecs:
        if vectorgen.bulk_obstacle(vec):
            return None
        assign = isinstance(vec, N.VectorAssign)
        length = vec.target.length if assign else vec.length
        if not (isinstance(length, N.VarRef) and length.sym is vlen):
            return None
        if not assign:
            if vec.target.sym in written:
                return None
            written.add(vec.target.sym)

    def register(sym: Symbol) -> bool:
        # Without allocating a slot: a loop that does not group
        # generates what it always did.
        return not sym.is_volatile and sym not in gen._mem_slots \
            and not gen.engine.memory.has_storage(sym)

    if not all(register(sym) for sym in written):
        return None

    def invariant(expr: N.Expr) -> bool:
        if isinstance(expr, N.VarRef):
            return expr.sym not in written and register(expr.sym)
        return isinstance(expr, (N.Const, N.AddrOf))

    def section(expr: N.Section) -> bool:
        return affine(expr.addr, vi, invariant) == \
            expr.stride * expr.ctype.sizeof()

    def lanes(expr: N.Expr) -> bool:
        if isinstance(expr, N.Section):
            return section(expr)
        if isinstance(expr, N.Iota):
            return isinstance(expr.start, N.VarRef) and \
                expr.start.sym is vi
        if isinstance(expr, (N.BinOp, N.UnOp, N.Cast)):
            return all(lanes(child) for child in expr.children())
        if isinstance(expr, N.VarRef):
            # A broadcast read of memory is checked for overlap.
            return expr.sym not in written
        return isinstance(expr, (N.Const, N.AddrOf))

    for vec in vecs:
        if isinstance(vec, N.VectorAssign):
            if not (lanes(vec.value) and section(vec.target)
                    and (vec.mask is None or lanes(vec.mask))):
                return None
        elif not all(lanes(value) for _, value in vec.terms()):
            return None
    limit = value.right.left
    if isinstance(limit, N.Const):
        if not isinstance(limit.value, int):
            return None
    elif not (isinstance(limit, N.VarRef) and invariant(limit)
              and gen._reg_slots.get(limit.sym) in gen._da):
        return None
    return vlen, limit


def emit(gen, stmt: N.DoLoop, found: Tuple[Symbol, N.Expr], trips: str,
         env: Dict[str, object], lines: List[str]) -> Optional[IntFact]:
    """The loop over ``trips`` (the trip values' local) of a strip loop
    :func:`shape` ``found``: :func:`propose` offers a group of strips
    and the loop's one copy of each statement runs once over all of it
    — the last one charging every strip's steps and costs — or over
    one strip, its length the header's.  Returns what is known of the
    trip values."""
    vlen, limit = found
    header, *vecs = stmt.body
    width = stmt.step
    most = GROUP_ELEMENTS // width
    at, solo, length = (gen._tmp_name() for _ in range(3))
    plan = gen._bind(env, (width, most, stmt, len(vecs)))
    start = gen._bind_shared(env, propose, lambda: propose)
    end = gen._bind_shared(env, finish, lambda: finish)
    lines += [f"# strip loop {stmt.sid}: groups of up to {most} strips",
              f"{at} = {solo} = 0",
              f"while {at} < len({trips}):"]
    body, known = gen._trip_prologue(stmt, f"{trips}[{at}]", env)
    body += ["count += 1", "if count > _ms: _hit(_ms + 1)",
             f"{length}, {solo} = {start}(_eng, {plan}, {trips}, {at}, "
             f"{gen._gen(limit, env)}, count, {solo})"]
    gen._cse_reset(header.value)
    src, fact = gen._gen_fact(header.value, env)
    charged = list(gen._items)
    gen._items.clear()
    body += gen._gen_write_lines(
        vlen, f"({length} or {src})", env,
        fact=intfacts.join(fact, IntFact(1, GROUP_ELEMENTS)))
    group = vectorgen.StripGroup(length, width, charged, len(vecs))
    registers = []
    if len(vecs) > 1:
        # What a failed group puts back: its stores' old bytes, and
        # the registers its reductions wrote.
        group.done, group.saved = gen._tmp_name(), gen._tmp_name()
        registers = [(gen._tmp_name(),
                      f"_r{gen._binding(vec.target.sym)[1]}")
                     for vec in vecs if isinstance(vec, N.VectorReduce)]
        body += [f"{group.done} = 1", f"{group.saved} = []"]
        body += [f"{old} = {reg}" for old, reg in registers]
    for index, vec in enumerate(vecs):
        # The statement's tick.  Only a strip can reach the limit
        # here, and the oracle has charged its length by then.
        body += ["count += 1", "if count > _ms:"]
        body += ["    " + line for line in
                 (gen._cost_lines(charged) if charged and not index
                  else []) + ["_hit(_ms + 1)"]]
        sub: List[str] = []
        gen._group = group
        try:
            gen._emit_leaf(vec, env, sub)
        finally:
            gen._group = None
        gen._cost_sync(sub)
        body += sub if not index else \
            [f"if {group.done} == 1:"] + ["    " + line for line in sub]
    body += [f"if {length}:"]
    if len(vecs) > 1:
        undo = gen._bind_shared(env, vectorgen.restore,
                                lambda: vectorgen.restore)
        data = gen._bind_shared(env, "data",
                                lambda: gen.engine.memory.data, ("data",))
        body += [f"    if {group.done} != 1:",
                 f"        {undo}({data}, {group.saved})"]
        body += [f"        {reg} = {old}" for old, reg in registers]
    body += [f"    {at}, {solo}, count, _r{gen._binding(vlen)[1]} = "
             f"{end}({plan}, {group.done}, {at}, {length}, count)",
             f"{at} += 1"]
    gen._ranges.pop(stmt.var, None)
    lines.extend("    " + line for line in body)
    return known


# -- run time ------------------------------------------------------------------


def propose(engine, plan: tuple, trips: list, at: int, limit: int,
            count: int, solo: int) -> Tuple[int, int]:
    """A strip group starting at trip ``at`` of a strip loop whose
    strips are ``vlen = min(width, limit - vi)`` long, ``count`` steps
    taken with this strip's first: ``(elements, solo)`` — 0 elements
    to run this strip alone, as every one before trip ``solo`` is.  A
    group holds at least two strips of positive length, all but the
    last full ones, and all its steps fit under the engine's limit."""
    if at < solo:
        return 0, solo
    width, most, stmt, statements = plan
    if engine.reorders(stmt):
        counter("strips", "order").inc()
        return 0, len(trips)
    rest = limit - trips[at]
    strips = min(most, len(trips) - at, -(-rest // width)) \
        if 0 < rest <= 0x7FFFFFFF else 0
    if strips < 2:
        return 0, solo
    if count + (statements + 1) * strips - 1 > engine.max_steps:
        counter("strips", "steps").inc()
        return 0, at + strips
    return min(strips * width, rest), solo


def finish(plan: tuple, done: int, at: int, length: int,
           count: int) -> tuple:
    """After a group's statements: ``done`` 1 when they all
    committed, else 2 when a read could see a write another strip
    made first, 0 when a bulk operation raised.  ``(trip index before
    the next, solo, count, vlen)``: past the group, with its steps and
    the last strip's length — or back to its first strip, without
    this one's steps, to run them all one at a time."""
    width, _, _, statements = plan
    strips = -(-length // width)
    steps = statements + 1
    if done == 1:
        counter("grouped").inc()
        return (at + strips - 1, at, count + steps * (strips - 1),
                length - (strips - 1) * width)
    counter("strips", "overlap" if done == 2 else "fault").inc()
    return at - 1, at + strips, count - steps, length
