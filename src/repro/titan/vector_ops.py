"""Static facts about Titan vector instructions.

Which instructions a vector statement issues is decided by the IL
alone, so both execution engines (which emit one ``"vector"`` cost
event per instruction) and the static walk (:mod:`repro.titan.static`)
read it from here; what each costs is
:func:`repro.titan.cost_model.vector_prices`.  A load of a section, or
an index vector, that the vector register file still holds
(``Section.held``, ``Iota.held``, decided by :func:`held_loads`)
issues nothing.
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
    section and per index vector not ``held`` and per *dataflow*
    operator (address arithmetic is free vector addressing); a
    reduction issues one op ``"reduce"`` per term.  The one statement
    of what a vector statement issues: the model, the walk and
    generated code all charge this list."""
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
            # One index-generation instruction unless held; the scalar
            # start is vector addressing, not dataflow.
            if not expr.held:
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


# -- the vector register file -----------------------------------------------

#: The outcomes of a section or index vector used again: held, or why
#: not — a store that may overlap it (or a call, or a write to a
#: variable its address, start or length reads) since it was last
#: used or stored, a masked store to it, or the register budget.
HELD_OUTCOMES = ("held", "overlap", "masked", "budget")

#: The statements that end a run of bare vector statements: control
#: enters or leaves the list there.
_BARRIERS = (N.LabelStmt, N.Goto, N.Return)

#: The "object" of an index vector: it reads no memory, so no store
#: overlaps it.
_REGISTER = "register"


def held_loads(where, register_words: Optional[int] = None
               ) -> List[Tuple[Tuple[N.Expr, str], ...]]:
    """The one rule of the vector register file.  ``where`` is a strip
    loop — its body is one run, priced per strip of the loop's step —
    or any other statement list, split into *runs* of bare statements
    at each statement with nested lists, label, goto or return; each
    run is priced as one strip of its longest vector statement.  Per
    statement of ``where``, each *entry* of a ``VectorAssign`` — load
    section or index vector (``Iota``) — in issue order
    (:func:`vector_instructions`: mask, then value) with its outcome:
    ``held`` when earlier in the run (an earlier statement, or an
    earlier entry of the same statement) an equal section — same
    address, length, stride and element type — was stored without a
    mask or loaded, or an equal index vector — same start, statement
    length and type — was computed, and none of these came between:

    * a masked store to it (``masked``);
    * any store that may overlap a section, a call, or a write to a
      variable its address, start or length reads (``overlap``).  Two
      sections are disjoint only when each addresses a distinct global
      object; an index vector reads no memory, so only a call or such
      a write drops it;
    * the register budget: a file of ``register_words`` (None: no
      bound) holds at most ⌊``register_words`` / strip⌋ − 1 entries
      at once — one strip-sized slot is left for the statement being
      computed — and drops the least recently used or stored first
      (``budget``).  A run with a statement of unknown length holds
      nothing under a bound.

    Else ``first``: never used or stored before in the run.  Each entry
    enters the file as it issues, each store after the statement's
    entries.  A reduction's operands are not entries: it issues one
    ``reduce`` instruction per term.  An entry whose address, start or
    length reads memory is never held.  The vectorizer marks what this
    says (``Section.held``, ``Iota.held``), the validator checks every
    mark against it, and engines and the static walk read the marks
    through :func:`vector_instructions`.  Compiles run it on every
    statement list they emit, so it makes few Python calls."""
    if type(where) is N.DoLoop:
        return _held_run(where.body, register_words, max(1, where.step))
    out: List[Tuple[Tuple[N.Expr, str], ...]] = []
    begin = 0
    for index, stmt in enumerate(where):
        if type(stmt).list_fields or isinstance(stmt, _BARRIERS):
            if begin < index:
                out += _held_run(where[begin:index], register_words)
            out.append(())
            begin = index + 1
    if begin < len(where):
        out += _held_run(where[begin:], register_words)
    return out


def held_scopes(where):
    """Each ``(scope, statements)`` :func:`held_loads` runs over in
    statement list ``where`` — every strip loop and every other
    statement list, ``where`` last — nested ones first."""
    stmts = where.body if type(where) is N.DoLoop else where
    for stmt in stmts:
        strips = type(stmt) is N.DoLoop and stmt.vector
        for sub in stmt.substatements():
            yield from held_scopes(stmt if strips else sub)
    yield where, stmts


def _held_run(run, register_words: Optional[int],
              strip: Optional[int] = None
              ) -> List[Tuple[Tuple[N.Expr, str], ...]]:
    """:func:`held_loads` over one run of statements."""
    if not any(type(stmt) is N.VectorAssign for stmt in run):
        return [()] * len(run)
    limit = None
    if register_words is not None:
        if strip is None:
            lengths = [_const_length(stmt) for stmt in run
                       if type(stmt) in (N.VectorAssign, N.VectorReduce)]
            strip = 0 if None in lengths else max(lengths)
        limit = max(register_words // strip - 1, 0) if strip > 0 else 0
    # Equality key -> (object, reads) of each entry in the register
    # file, least recently used first; why each key that left, left.
    live: Dict[tuple, Tuple[object, frozenset]] = {}
    gone: Dict[tuple, str] = {}

    def kill(base, why: str, keep: Optional[tuple] = None) -> None:
        """Drop the sections a store to object ``base`` (None:
        anywhere) may overlap."""
        for key, (other, _) in list(live.items()):
            if key != keep and other is not _REGISTER and (
                    base is None or other is None or base == other):
                del live[key]
                gone[key] = why

    def write(sym) -> None:
        """Drop what a write to scalar ``sym`` changes: entries whose
        address, start or length read it, and what its storage may
        overlap."""
        for key, (_, reads) in list(live.items()):
            if sym.uid in reads:
                del live[key]
                gone[key] = "overlap"
        if N.lives_in_memory(sym):
            kill(sym.uid if sym.storage in N.STATIC_STORAGE else None,
                 "overlap")

    def enter(key: tuple, base, reads) -> None:
        live.pop(key, None)
        gone.pop(key, None)
        live[key] = (base, reads)
        if limit is not None:
            while len(live) > limit:
                oldest = next(iter(live))
                del live[oldest]
                gone[oldest] = "budget"

    out: List[Tuple[Tuple[N.Expr, str], ...]] = []
    for stmt in run:
        kind = type(stmt)
        if kind is not N.VectorAssign:
            out.append(())
            if not live:
                continue
            if kind is N.VectorReduce or (
                    kind is N.Assign and type(stmt.target) is N.VarRef
                    and type(stmt.value) is not N.CallExpr):
                write(stmt.target.sym)
            elif kind is N.Assign and type(stmt.value) is not N.CallExpr:
                kill(None, "overlap")  # a store to memory
            else:  # a call: the callee may use the file
                for key in live:
                    gone[key] = "overlap"
                live.clear()
            continue
        length = stmt.target.length
        outcomes = []
        stack = [stmt.value]
        if stmt.mask is not None:
            stack.append(stmt.mask)
        while stack:
            expr = stack.pop()
            node = type(expr)
            if node is N.Section or node is N.Iota:
                key, base, reads = _shape(expr) if node is N.Section \
                    else _index_shape(expr, length)
                outcome = "first"
                if key is not None:
                    if key in live:
                        outcome = "held"
                    else:
                        outcome = gone.get(key, "first")
                    enter(key, base, reads)
                outcomes.append((expr, outcome))
            elif node is N.BinOp:
                stack.append(expr.right)
                stack.append(expr.left)
            elif node is N.UnOp or node is N.Cast:
                stack.append(expr.operand)
            elif node is N.Select:
                stack.append(expr.otherwise)
                stack.append(expr.then)
                stack.append(expr.cond)
        out.append(tuple(outcomes))
        key, base, reads = _shape(stmt.target)
        if stmt.mask is not None:
            kill(base, "masked")
        else:
            kill(base, "overlap", keep=key)
            if key is not None:
                enter(key, base, reads)
    return out


def _const_length(stmt: N.Stmt) -> Optional[int]:
    """A vector statement's length when it is a constant, else None."""
    length = stmt.target.length if type(stmt) is N.VectorAssign \
        else stmt.length
    return length.value if type(length) is N.Const \
        and type(length.value) is int else None


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
    found = _key_terms(key, (section.length, section.addr))
    if found is None:
        return None, None, frozenset()
    bases, reads, pointer = found
    base = bases.pop() if len(bases) == 1 and not pointer else None
    return tuple(key), base, frozenset(reads)


def _index_shape(iota: N.Iota, length: N.Expr):
    """``(key, base, reads)`` of an index vector in a statement of
    ``length`` elements: its start, that length and its type are its
    key; it reads no memory."""
    ctype = iota.ctype
    key: list = ["iota", type(ctype), getattr(ctype, "kind", ctype)]
    found = _key_terms(key, (length, iota.start))
    if found is None:
        return None, None, frozenset()
    return tuple(key), _REGISTER, frozenset(found[1])


def _key_terms(key: list, exprs):
    """Append to ``key`` the terms of the register-only expressions
    ``exprs``; ``(global objects addressed, uids of the variables read,
    whether a pointer is read)``, or None when one reads memory."""
    bases, reads, pointer = set(), set(), False
    stack = list(exprs)
    while stack:
        expr = stack.pop()
        kind = type(expr)
        if kind is N.Const:
            key.append((type(expr.value), expr.value))
        elif kind is N.VarRef:
            sym = expr.sym
            if N.lives_in_memory(sym):
                return None
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
            return None
    return bases, reads, pointer
