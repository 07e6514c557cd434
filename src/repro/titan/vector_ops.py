"""Static facts about Titan vector instructions.

Which instructions a vector statement issues is decided by the IL
alone, so both execution engines (which emit one ``"vector"`` cost
event per instruction) and the static walk (:mod:`repro.titan.static`)
read it from here; what each costs is
:func:`repro.titan.cost_model.vector_prices`.  A load of a section an
earlier statement of the same strip left in the vector register file
(``Section.held``, decided by :func:`held_loads`) issues nothing.
Imports nothing but the IL: the engines sit below the rest of
``titan/`` in the import graph.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..frontend.ctypes_ import ArrayType, PointerType
from ..il import nodes as N

#: Vector ops that occupy the memory pipe: charged to the
#: ``vector_memory`` bucket, stride-penalized, and not counted as
#: flops.  ``mask_store`` is the predicated store of a masked
#: VectorAssign — same pipe as a plain store.
_VECTOR_MEMORY_OPS = ("load", "store", "mask_store")


def vector_instructions(stmt: N.Stmt) -> List[Tuple[str, int]]:
    """``(op, stride)`` per vector instruction a ``VectorAssign`` or
    ``VectorReduce`` issues, in issue order: the mask's instructions,
    then the value's, then the store op.  One instruction per load
    section not ``held`` and per *dataflow* operator (address arithmetic is free
    vector addressing); a reduction issues one op ``"reduce"`` per
    term.  The one statement of what a reduction costs: the model,
    the walk and generated code all charge this list."""
    if isinstance(stmt, N.VectorReduce):
        return [("reduce", 1)] * (1 + len(stmt.chain))
    ops: List[Tuple[str, int]] = []

    def walk(expr: N.Expr) -> None:
        if isinstance(expr, N.Section):
            if not expr.held:
                ops.append(("load", expr.stride))
            return
        if isinstance(expr, N.Mem):
            return  # broadcast scalar load, evaluated once
        if isinstance(expr, N.Iota):
            # One index-generation instruction; the scalar start is
            # vector addressing, not dataflow.
            ops.append(("int_op", 1))
            return
        if isinstance(expr, (N.BinOp, N.UnOp)):
            ops.append((expr.op if expr.ctype.is_float else "int_op", 1))
        elif isinstance(expr, N.Select):
            ops.append(("select" if expr.ctype.is_float else "int_op", 1))
        for child in expr.children():
            walk(child)

    if stmt.mask is not None:
        walk(stmt.mask)
    walk(stmt.value)
    ops.append(("store" if stmt.mask is None else "mask_store",
                stmt.target.stride))
    return ops


# -- sections held in the vector register file -----------------------------

#: The outcomes of a section read again in a strip: held, or why not —
#: a store that may overlap it (or a call, or a write to a variable its
#: address or length reads) since it was last read or stored, a masked
#: store to it, or the register budget.
HELD_OUTCOMES = ("held", "overlap", "masked", "budget")


def held_loads(loop: N.DoLoop, register_words: Optional[int] = None
               ) -> List[Tuple[Tuple[N.Section, str], ...]]:
    """The one rule of held sections, over one strip of strip loop
    ``loop``.  Per statement of its body, each load section of a
    ``VectorAssign`` in issue order (:func:`vector_instructions`) with
    its outcome: ``held`` when an earlier statement stored an equal
    section — same address, length, stride and element type — without
    a mask, or loaded one, and none of these came between:

    * a masked store to it (``masked``);
    * any store that may overlap it, a call, or a write to a variable
      its address or length reads (``overlap``).  Two sections are
      disjoint only when each addresses a distinct global object;
    * the register budget: a file of ``register_words`` (None: no
      bound) holds at most ⌊``register_words`` / strip⌋ − 1 sections
      of the loop's strip at once — one is left for the statement
      being computed — and drops the least recently read or written
      first (``budget``).

    Else ``first``: never read or stored before.  A reduction's
    operands do not count as loads: it issues one ``reduce``
    instruction per term.  A section whose address or length reads memory is
    never held.  The vectorizer
    marks what this says (``Section.held``), the validator checks every
    mark against it, and engines and the static walk read the marks
    through :func:`vector_instructions`.  Compiles run it on every
    strip loop they emit, so it makes few Python calls."""
    # Equality key -> (base, reads) of each section in the register
    # file, least recently used first; why each key that left, left.
    live: Dict[tuple, Tuple[Optional[int], frozenset]] = {}
    gone: Dict[tuple, str] = {}
    limit = None if register_words is None \
        else max(register_words // max(1, loop.step) - 1, 0)
    body = loop.body
    last = -1
    for index, stmt in enumerate(body):
        if type(stmt) is N.VectorAssign:
            last = index

    def kill(base: Optional[int], why: str,
             keep: Optional[tuple] = None) -> None:
        """Drop what a store to object ``base`` (None: anywhere) may
        overlap."""
        for key, (other, _) in list(live.items()):
            if key != keep and (base is None or other is None
                                or base == other):
                del live[key]
                gone[key] = why

    def write(sym) -> None:
        """Drop what a write to scalar ``sym`` changes: sections whose
        address or length read it, and what its storage may overlap."""
        for key, (_, reads) in list(live.items()):
            if sym.uid in reads:
                del live[key]
                gone[key] = "overlap"
        if N.lives_in_memory(sym):
            kill(sym.uid if sym.storage in N.STATIC_STORAGE else None,
                 "overlap")

    def enter(key: Optional[tuple], base, reads) -> None:
        if key is None:
            return
        live.pop(key, None)
        gone.pop(key, None)
        live[key] = (base, reads)
        if limit is not None:
            while len(live) > limit:
                oldest = next(iter(live))
                del live[oldest]
                gone[oldest] = "budget"

    out: List[Tuple[Tuple[N.Section, str], ...]] = []
    for index, stmt in enumerate(body):
        kind = type(stmt)
        if kind is not N.VectorAssign:
            out.append(())
            if live:
                if kind is N.VectorReduce or (
                        kind is N.Assign and type(stmt.target) is N.VarRef
                        and type(stmt.value) is not N.CallExpr):
                    write(stmt.target.sym)
                else:  # a memory store, a call, anything else
                    kill(None, "overlap")
            continue
        loads = []
        stack = [stmt.value]
        if stmt.mask is not None:
            stack.append(stmt.mask)
        while stack:
            expr = stack.pop()
            node = type(expr)
            if node is N.Section:
                loads.append(expr)
            elif node is N.BinOp:
                stack.append(expr.right)
                stack.append(expr.left)
            elif node is N.UnOp or node is N.Cast:
                stack.append(expr.operand)
            elif node is N.Select:
                stack.append(expr.otherwise)
                stack.append(expr.then)
                stack.append(expr.cond)
        later = index < last
        shapes = []
        if later or live or gone:
            shapes = [_shape(section) for section in loads]
        outcomes = []
        for k, section in enumerate(loads):
            outcome = "first"
            if shapes:
                key = shapes[k][0]
                if key in live:
                    outcome = "held"
                elif key is not None:
                    outcome = gone.get(key, "first")
            outcomes.append((section, outcome))
        out.append(tuple(outcomes))
        if not later:
            continue  # nothing after it reads the register file
        for key, base, reads in shapes:
            enter(key, base, reads)
        key, base, reads = _shape(stmt.target)
        if stmt.mask is not None:
            kill(base, "masked")
        else:
            kill(base, "overlap", keep=key)
            enter(key, base, reads)
    return out


def _shape(section: N.Section):
    """``(key, base, reads)`` of a section: its equality key (None:
    never held), the uid of the global object it addresses (None:
    unknown) and the uids of the variables its address and length
    read."""
    ctype = section.ctype
    if ctype.volatile:
        return None, None, frozenset()
    # Qualifiers aside, the element type (its kind, but for pointers).
    key: list = [type(ctype), getattr(ctype, "kind", ctype),
                 section.stride]
    bases, reads, pointer = set(), set(), False
    stack = [section.length, section.addr]
    while stack:
        expr = stack.pop()
        kind = type(expr)
        if kind is N.Const:
            key.append((type(expr.value), expr.value))
        elif kind is N.VarRef:
            sym = expr.sym
            if N.lives_in_memory(sym):
                return None, None, frozenset()
            pointer = pointer or isinstance(sym.ctype,
                                            (PointerType, ArrayType))
            reads.add(sym.uid)
            key.append(("var", sym.uid))
        elif kind is N.AddrOf:
            sym = expr.sym
            bases.add(sym.uid if sym.storage in N.STATIC_STORAGE
                      else None)
            key.append(("addr", sym.uid))
        elif kind is N.BinOp:
            key.append(("binop", expr.op))
            stack.append(expr.right)
            stack.append(expr.left)
        elif kind is N.UnOp:
            key.append(("unop", expr.op))
            stack.append(expr.operand)
        elif kind is N.Cast:
            key.append(("cast", expr.ctype))
            stack.append(expr.operand)
        else:  # a load, a call, a select: no register's address
            return None, None, frozenset()
    base = bases.pop() if len(bases) == 1 and not pointer else None
    return tuple(key), base, frozenset(reads)
