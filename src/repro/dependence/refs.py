"""Affine memory-reference extraction.

After lowering, IV substitution, and forward substitution, array accesses
appear in the paper's star form: ``*(base + 4*i + k)``.  Section 9 notes
"the implicit representation of subscripts as star operations is not
difficult to handle, but it did require some special tuning in the
vectorizer" — this module is that tuning.  Each memory reference is
parsed into

    addr  =  base  +  Σ coeff_v · v   +   Σ sym_terms   +   offset

where ``base`` identifies the storage region (a named array through
``AddrOf``, or a loop-invariant pointer variable), ``coeff_v`` are
integer coefficients of enclosing loop variables, ``sym_terms`` are
loop-invariant symbolic byte offsets, and ``offset`` is a constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..frontend.ctypes_ import CType
from ..frontend.symtab import Symbol
from ..il import nodes as N


@dataclass
class AffineRef:
    """One parsed memory reference.

    A scalar reference touches ``elem_size`` bytes; a vector *section*
    reference touches ``span`` bytes starting at its address (length ×
    stride × element size), letting whole vector statements participate
    in outer-loop dependence testing.
    """

    mem: N.Mem
    stmt: N.Stmt
    is_write: bool
    # Region identity: ('array', sym) for AddrOf-based references,
    # ('pointer', sym) for references through a loop-invariant pointer,
    # or None when the base could not be identified.
    base: Optional[Tuple[str, Symbol]]
    coeffs: Dict[Symbol, int]  # loop var -> byte coefficient
    sym_terms: Tuple[Tuple[Symbol, int], ...]  # invariant symbolic terms
    offset: int  # constant byte offset
    elem_type: CType = None  # type: ignore[assignment]
    span: Optional[int] = None  # byte extent when != elem size

    @property
    def elem_size(self) -> int:
        if self.span is not None:
            return self.span
        return self.elem_type.sizeof()

    def coeff(self, var: Symbol) -> int:
        return self.coeffs.get(var, 0)

    def same_shape(self, other: "AffineRef") -> bool:
        """Same base region and same invariant symbolic parts, so the
        constant/loop-var parts are directly comparable."""
        return (self.base is not None and self.base == other.base
                and self.sym_terms == other.sym_terms)


class _NotAffine(Exception):
    pass


def parse_ref(mem: N.Mem, stmt: N.Stmt, is_write: bool,
              loop_vars: Sequence[Symbol],
              invariants: Sequence[Symbol]) -> AffineRef:
    """Parse one Mem reference.  ``loop_vars`` are the enclosing DO
    variables (innermost last); ``invariants`` are scalars known to be
    loop-invariant (pointer bases etc.).  A reference that cannot be
    parsed gets ``base=None`` — callers must treat it as may-alias-all.
    """
    # ``invariants`` only needs membership tests; callers may pass any
    # container (including predicate objects like _AllInvariants).
    state = _ParseState(set(loop_vars), invariants)
    try:
        state.walk(mem.addr, 1)
        base = state.base
    except _NotAffine:
        return AffineRef(mem=mem, stmt=stmt, is_write=is_write, base=None,
                         coeffs={}, sym_terms=(), offset=0,
                         elem_type=mem.ctype)
    terms = tuple(sorted(((s, c) for s, c in state.symbolic.items()
                          if c != 0),
                         key=lambda t: t[0].uid))
    coeffs = {s: c for s, c in state.coeffs.items() if c != 0}
    return AffineRef(mem=mem, stmt=stmt, is_write=is_write, base=base,
                     coeffs=coeffs, sym_terms=terms, offset=state.offset,
                     elem_type=mem.ctype)


class _ParseState:
    def __init__(self, loop_vars, invariants):
        self.loop_vars = loop_vars
        self.invariants = invariants
        self.base: Optional[Tuple[str, Symbol]] = None
        self.coeffs: Dict[Symbol, int] = {}
        self.symbolic: Dict[Symbol, int] = {}
        self.offset = 0

    def walk(self, expr: N.Expr, scale: int) -> None:
        if isinstance(expr, N.Const):
            if not isinstance(expr.value, int):
                raise _NotAffine
            self.offset += scale * expr.value
            return
        if isinstance(expr, N.AddrOf):
            self._set_base(("array", expr.sym), scale)
            return
        if isinstance(expr, N.VarRef):
            sym = expr.sym
            if sym in self.loop_vars:
                self.coeffs[sym] = self.coeffs.get(sym, 0) + scale
                return
            if sym not in self.invariants or sym.is_volatile:
                raise _NotAffine  # varies within the loop: not affine
            if sym.ctype.is_pointer:
                self._set_base(("pointer", sym), scale)
                return
            self.symbolic[sym] = self.symbolic.get(sym, 0) + scale
            return
        if isinstance(expr, N.Cast):
            self.walk(expr.operand, scale)
            return
        if isinstance(expr, N.BinOp):
            if expr.op == "+":
                self.walk(expr.left, scale)
                self.walk(expr.right, scale)
                return
            if expr.op == "-":
                self.walk(expr.left, scale)
                self.walk(expr.right, -scale)
                return
            if expr.op == "*":
                if isinstance(expr.left, N.Const) \
                        and isinstance(expr.left.value, int):
                    self.walk(expr.right, scale * expr.left.value)
                    return
                if isinstance(expr.right, N.Const) \
                        and isinstance(expr.right.value, int):
                    self.walk(expr.left, scale * expr.right.value)
                    return
            raise _NotAffine
        raise _NotAffine

    def _set_base(self, base: Tuple[str, Symbol], scale: int) -> None:
        if scale != 1 or self.base is not None:
            raise _NotAffine  # two bases or a scaled base: not a ref
        self.base = base


def parse_section_ref(section: N.Section, stmt: N.Stmt, is_write: bool,
                      loop_vars: Sequence[Symbol],
                      invariants: Sequence[Symbol]) -> AffineRef:
    """Parse a vector Section as one wide memory reference."""
    base_mem = N.Mem(addr=section.addr, ctype=section.ctype)
    ref = parse_ref(base_mem, stmt, is_write, loop_vars, invariants)
    length = section.length
    if isinstance(length, N.Const) and isinstance(length.value, int) \
            and ref.base is not None:
        span = max(1, ((length.value - 1) * abs(section.stride) + 1)
                   * section.ctype.sizeof())
        return AffineRef(mem=base_mem, stmt=stmt, is_write=is_write,
                         base=ref.base, coeffs=ref.coeffs,
                         sym_terms=ref.sym_terms, offset=ref.offset,
                         elem_type=section.ctype, span=span)
    # Unknown length: unanalyzable extent -> may alias everything.
    return AffineRef(mem=base_mem, stmt=stmt, is_write=is_write,
                     base=None, coeffs={}, sym_terms=(), offset=0,
                     elem_type=section.ctype)


def collect_refs(stmts: Sequence[N.Stmt], loop_vars: Sequence[Symbol],
                 invariants: Sequence[Symbol]) -> List[AffineRef]:
    """All memory references in the statements (recursively), parsed."""
    out: List[AffineRef] = []
    for stmt in N.walk_statements(stmts):
        if isinstance(stmt, N.VectorReduce):
            for _, value in stmt.terms():
                for node in N.walk_expr(value):
                    if isinstance(node, N.Section):
                        out.append(parse_section_ref(
                            node, stmt, False, loop_vars, invariants))
                    elif isinstance(node, N.Mem):
                        out.append(parse_ref(node, stmt, False,
                                             loop_vars, invariants))
        elif isinstance(stmt, N.VectorAssign):
            out.append(parse_section_ref(stmt.target, stmt, True,
                                         loop_vars, invariants))
            sources = [stmt.value] if stmt.mask is None \
                else [stmt.mask, stmt.value]
            for source in sources:
                for node in N.walk_expr(source):
                    if isinstance(node, N.Section):
                        out.append(parse_section_ref(
                            node, stmt, False, loop_vars, invariants))
                    elif isinstance(node, N.Mem):
                        out.append(parse_ref(node, stmt, False,
                                             loop_vars, invariants))
        elif isinstance(stmt, N.Assign):
            if isinstance(stmt.target, N.Mem):
                out.append(parse_ref(stmt.target, stmt, True, loop_vars,
                                     invariants))
                out.extend(_reads_in(stmt.target.addr, stmt, loop_vars,
                                     invariants))
            out.extend(_reads_in(stmt.value, stmt, loop_vars, invariants))
        elif isinstance(stmt, N.CallStmt):
            out.extend(_reads_in(stmt.call, stmt, loop_vars, invariants))
        elif isinstance(stmt, N.IfStmt):
            out.extend(_reads_in(stmt.cond, stmt, loop_vars, invariants))
        elif isinstance(stmt, N.WhileLoop):
            out.extend(_reads_in(stmt.cond, stmt, loop_vars, invariants))
        elif isinstance(stmt, N.Return) and stmt.value is not None:
            out.extend(_reads_in(stmt.value, stmt, loop_vars, invariants))
    return out


def _reads_in(expr: N.Expr, stmt: N.Stmt, loop_vars, invariants
              ) -> List[AffineRef]:
    out: List[AffineRef] = []
    for node in N.walk_expr(expr):
        if isinstance(node, N.Mem):
            out.append(parse_ref(node, stmt, False, loop_vars, invariants))
    return out
