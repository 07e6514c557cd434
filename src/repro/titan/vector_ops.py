"""Static facts about Titan vector instructions.

Which instructions a vector statement issues is decided by the IL
alone, so both execution engines (which emit one ``"vector"`` cost
event per instruction) and the static walk (:mod:`repro.titan.static`)
read it from here; what each costs is
:func:`repro.titan.cost_model.vector_prices`.  Imports nothing but the
IL: the engines sit below the rest of ``titan/`` in the import graph.
"""

from __future__ import annotations

from typing import List, Tuple

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
    section and per *dataflow* operator (address arithmetic is free
    vector addressing); a reduction is the single op ``"reduce"``."""
    if isinstance(stmt, N.VectorReduce):
        return [("reduce", 1)]
    ops: List[Tuple[str, int]] = []

    def walk(expr: N.Expr) -> None:
        if isinstance(expr, N.Section):
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
