"""The high-level intermediate language (paper, section 3).

Design rules straight from the paper:

* **Assignment is a statement, not an operator.**  The IL has an
  assignment statement but no assignment operator; every change to a
  memory location is explicit.
* **Expressions are pure.**  ``?:``, ``&&``, ``||``, ``++`` and embedded
  assignments are not representable; the front end compiles C
  expressions into (statement-list, expression) pairs and the statement
  list lands here as explicit assignments.
* **Loops are explicit.**  ``for`` is lowered to ``while``; the
  while→DO pass recovers counted :class:`DoLoop` statements ("do
  fortran" in the paper's output) which the vectorizer consumes.
* **No hard pointers** (section 7): every node is a plain dataclass that
  pickles cleanly, so procedures can be stored in catalogs/databases and
  inlined across files.

Memory references keep the C "star" form: ``a[i]`` lowers to
``Mem(AddrOf(a) + 4*i)``, exactly the pointer-plus-scaled-index shape the
paper says the vectorizer was specially tuned to handle (section 9).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field, fields
from typing import (ClassVar, FrozenSet, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple, Union)

from ..frontend.ctypes_ import ArrayType, CType, INT, PointerType, StructType
from ..frontend.symtab import EXTERN, GLOBAL, STATIC, Symbol

# ---------------------------------------------------------------------------
# Expressions (pure)
# ---------------------------------------------------------------------------


#: ``ExprFacts.flags`` bits.
HAS_LOAD, HAS_CALL, HAS_VOLATILE = 1, 2, 4


class ExprFacts(NamedTuple):
    """What the scalar phase asks of an expression tree, derived once:
    the symbols read through a ``VarRef``, the symbols whose address is
    formed by an ``AddrOf``, and the ``HAS_*`` bits."""

    reads: FrozenSet[Symbol]
    addrs: FrozenSet[Symbol]
    flags: int


_NO_SYMS: FrozenSet[Symbol] = frozenset()
_NO_FACTS = ExprFacts(_NO_SYMS, _NO_SYMS, 0)
_LOAD = ExprFacts(_NO_SYMS, _NO_SYMS, HAS_LOAD)
_VOLATILE_LOAD = ExprFacts(_NO_SYMS, _NO_SYMS, HAS_LOAD | HAS_VOLATILE)
_CALL = ExprFacts(_NO_SYMS, _NO_SYMS, HAS_CALL)


@dataclass(eq=False)
class Expr:
    """Base class of pure IL expressions, **immutable once built**: a
    rewrite makes a new node (``replace_children``), never assigns a
    field of an existing one.  Two memo fields rest on that, neither
    of them pickled or deep-copied: ``_facts`` (:func:`facts`) and
    ``_normal`` (``opt.fold.simplify`` returned this node, so
    simplifying it again is the identity)."""

    ctype: CType = field(kw_only=True, default=INT)
    # Init fields (never passed): in every instance dict from the start,
    # in one order — late, unordered keys triple a CPython dict's size.
    _facts: Optional[ExprFacts] = field(default=None, kw_only=True,
                                        repr=False)
    _normal: bool = field(default=False, kw_only=True, repr=False)

    def __getstate__(self) -> dict:
        # Not via object.__getstate__ (3.11+).  Memos stay behind:
        # catalog blobs must not depend on what was asked of a node.
        state = self.__dict__.copy()
        del state["_facts"], state["_normal"]
        return state

    def _own_facts(self) -> ExprFacts:  # before the children's
        return _NO_FACTS

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def replace_children(self, new: Sequence["Expr"]) -> "Expr":
        if new:
            raise ValueError(f"{type(self).__name__} has no children")
        return self


@dataclass(eq=False)
class Const(Expr):
    """An integer or floating constant."""

    value: Union[int, float] = 0

    def __repr__(self) -> str:
        return f"Const({self.value})"


@dataclass(eq=False)
class VarRef(Expr):
    """A scalar variable reference (usable as rvalue or assign target)."""

    sym: Symbol = None  # type: ignore[assignment]

    @property
    def is_volatile(self) -> bool:
        return self.sym.is_volatile

    def _own_facts(self) -> ExprFacts:
        return ExprFacts(frozenset((self.sym,)), _NO_SYMS,
                         HAS_VOLATILE if self.sym.is_volatile else 0)

    def __repr__(self) -> str:
        return f"VarRef({self.sym.name})"


@dataclass(eq=False)
class AddrOf(Expr):
    """The address of a named object (an address constant)."""

    sym: Symbol = None  # type: ignore[assignment]

    def _own_facts(self) -> ExprFacts:
        return ExprFacts(_NO_SYMS, frozenset((self.sym,)), 0)

    def __repr__(self) -> str:
        return f"AddrOf({self.sym.name})"


@dataclass(eq=False)
class Mem(Expr):
    """A memory reference through an address expression.

    Usable as an rvalue (a load) and as an assignment target (a store).
    ``volatile`` on ``ctype`` marks references the optimizer must not
    duplicate, move, or delete.
    """

    addr: Expr = None  # type: ignore[assignment]

    @property
    def is_volatile(self) -> bool:
        return self.ctype.is_volatile

    def _own_facts(self) -> ExprFacts:
        return _VOLATILE_LOAD if self.ctype.is_volatile else _LOAD

    def children(self) -> Tuple[Expr, ...]:
        return (self.addr,)

    def replace_children(self, new: Sequence[Expr]) -> "Mem":
        (addr,) = new
        return Mem(addr=addr, ctype=self.ctype)

    def __repr__(self) -> str:
        return f"Mem({self.addr!r})"


@dataclass(eq=False)
class BinOp(Expr):
    """Binary operator on pure operands.

    Ops: ``+ - * / % << >> & | ^ == != < > <= >= min max``.
    Comparisons yield int 0/1.  No short-circuit forms exist at this
    level (they were compiled away by the front end).
    """

    op: str = "+"
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def replace_children(self, new: Sequence[Expr]) -> "BinOp":
        left, right = new
        return BinOp(op=self.op, left=left, right=right, ctype=self.ctype)

    def __repr__(self) -> str:
        return f"BinOp({self.op}, {self.left!r}, {self.right!r})"


@dataclass(eq=False)
class UnOp(Expr):
    """Unary operator: ``neg not bnot`` plus conversions via Cast."""

    op: str = "neg"
    operand: Expr = None  # type: ignore[assignment]

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def replace_children(self, new: Sequence[Expr]) -> "UnOp":
        (operand,) = new
        return UnOp(op=self.op, operand=operand, ctype=self.ctype)

    def __repr__(self) -> str:
        return f"UnOp({self.op}, {self.operand!r})"


@dataclass(eq=False)
class Cast(Expr):
    operand: Expr = None  # type: ignore[assignment]

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def replace_children(self, new: Sequence[Expr]) -> "Cast":
        (operand,) = new
        return Cast(operand=operand, ctype=self.ctype)

    def __repr__(self) -> str:
        return f"Cast({self.ctype}, {self.operand!r})"


@dataclass(eq=False)
class Select(Expr):
    """A pure element merge: ``cond ? then : otherwise``, evaluated
    *lazily* like the branch it replaces — the condition first, then
    only the chosen arm, so predication never speculates a faulting
    load or division the original guard protected.  Produced by the
    if-conversion pass; the vectorizer turns selects against the
    assignment target into masked vector stores.
    """

    cond: Expr = None  # type: ignore[assignment]
    then: Expr = None  # type: ignore[assignment]
    otherwise: Expr = None  # type: ignore[assignment]

    def children(self) -> Tuple[Expr, ...]:
        return (self.cond, self.then, self.otherwise)

    def replace_children(self, new: Sequence[Expr]) -> "Select":
        cond, then, otherwise = new
        return Select(cond=cond, then=then, otherwise=otherwise,
                      ctype=self.ctype)

    def __repr__(self) -> str:
        return (f"Select({self.cond!r}, {self.then!r}, "
                f"{self.otherwise!r})")


@dataclass(eq=False)
class CallExpr(Expr):
    """A function call.  Only valid immediately under Assign/CallStmt,
    never nested inside another expression (calls have side effects)."""

    name: str = ""
    args: List[Expr] = field(default_factory=list)

    def _own_facts(self) -> ExprFacts:
        return _CALL

    def children(self) -> Tuple[Expr, ...]:
        return tuple(self.args)

    def replace_children(self, new: Sequence[Expr]) -> "CallExpr":
        return CallExpr(name=self.name, args=list(new), ctype=self.ctype)

    def __repr__(self) -> str:
        return f"CallExpr({self.name}, {self.args!r})"


@dataclass(eq=False)
class Section(Expr):
    """A vector section ``base[lo : hi : stride]`` over memory.

    ``addr`` is the byte address of element 0 of the section; ``length``
    is the trip count; ``stride`` is in *elements* of ``ctype``.  This is
    the colon notation of the paper's vectorized output (section 9).
    ``held``: an earlier statement of the same strip or run of bare
    vector statements, or an earlier read in the same statement, left
    this section in the vector register file, so reading it issues no
    load (:func:`repro.titan.vector_ops.held_loads` states when);
    engines still read memory, which holds the same bytes.  Equality
    (:func:`expr_equal`) ignores the mark.
    """

    addr: Expr = None  # type: ignore[assignment]
    length: Expr = None  # type: ignore[assignment]
    stride: int = 1
    held: bool = False

    def _own_facts(self) -> ExprFacts:
        return _LOAD

    def children(self) -> Tuple[Expr, ...]:
        return (self.addr, self.length)

    def replace_children(self, new: Sequence[Expr]) -> "Section":
        addr, length = new
        return Section(addr=addr, length=length, stride=self.stride,
                       held=self.held, ctype=self.ctype)

    def __repr__(self) -> str:
        held = ", held" if self.held else ""
        return (f"Section({self.addr!r}, n={self.length!r}, "
                f"s={self.stride}{held})")


@dataclass(eq=False)
class Iota(Expr):
    """The index vector ``start, start+1, start+2, ...`` — lane *k*
    holds ``start + k``.  Only valid inside vector statements; the
    vectorizer materializes it when a loop index escapes memory
    addressing into the dataflow (most commonly an if-converted
    boundary guard like ``i > 0`` becoming a store mask).
    ``held``: an equal index vector — same start, statement length
    and type — computed earlier in the same strip or run of bare
    vector statements is still in the vector register file, so this
    one issues no instruction
    (:func:`repro.titan.vector_ops.held_loads` states when); engines
    still compute the lanes.  Equality (:func:`expr_equal`) ignores
    the mark."""

    start: Expr = None  # type: ignore[assignment]
    held: bool = False

    def children(self) -> Tuple[Expr, ...]:
        return (self.start,)

    def replace_children(self, new: Sequence[Expr]) -> "Iota":
        (start,) = new
        return Iota(start=start, held=self.held, ctype=self.ctype)

    def __repr__(self) -> str:
        held = ", held" if self.held else ""
        return f"Iota({self.start!r}{held})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

_next_sid = 1


def _draw_sid() -> int:
    global _next_sid
    sid = _next_sid
    _next_sid += 1
    return sid


def reset_sids(start: int = 1) -> None:
    """Rewind the process-global statement-id counter.

    Sids only need to be unique *within* a program, but because they
    come from a process-global counter, the sids a compile produces —
    and with them every report byte that embeds one — depend on how
    many statements the process parsed before.  Callers that promise
    byte-deterministic output for a single compile (the compilation
    service) reset the counter before the front-end parse so the same
    source always yields the same sids, exactly as in a fresh
    process.  Statements cloned afterwards (e.g. database imports
    during inlining) draw fresh sids from the reset sequence, which is
    equally deterministic.  ``start`` resumes a sequence at a position
    :func:`sid_position` reported earlier."""
    global _next_sid
    _next_sid = start


def sid_position() -> int:
    """The sid the next statement will draw."""
    return _next_sid


@dataclass(eq=False)
class Stmt:
    """Base class of IL statements.  ``sid`` is a stable identity used
    by use-def chains and the dependence graph."""

    sid: int = field(default_factory=_draw_sid, kw_only=True)
    # 1-based source line the statement was lowered from (0 = synthetic
    # or unknown).  Carried through transformations so optimization
    # remarks and the hot-loop profiler can point at the C source.
    line: int = field(default=0, kw_only=True)

    # The statement schema, stated once per class; every generic reader
    # of statements (substatements, stmt_exprs, copy_statements,
    # clone_statements, ``opt.utils.rewrite_stmt_exprs``) is driven by
    # it.  ``expr_fields``: the expression fields, in the order
    # stmt_exprs yields them (an optional one may hold None).
    # ``store_field``: the one of them that is a store target, whose
    # own node is written, not evaluated.  ``term_fields``: fields
    # holding a tuple of ``(op, expression)`` terms, whose expressions
    # stmt_exprs yields after the others.  ``list_fields``: the
    # statement-list fields, in substatements order.
    expr_fields: ClassVar[Tuple[str, ...]] = ()
    store_field: ClassVar[Optional[str]] = None
    term_fields: ClassVar[Tuple[str, ...]] = ()
    list_fields: ClassVar[Tuple[str, ...]] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names = cls.list_fields
        if names:
            # One C-level getter per class: walks call this per
            # statement, so it costs what a hand-written method did.
            get = operator.attrgetter(*names)
            cls.substatements = (lambda self: (get(self),)) \
                if len(names) == 1 else (lambda self: get(self))

    def substatements(self) -> Tuple[List["Stmt"], ...]:
        """The nested statement lists, in ``list_fields`` order (empty
        for leaf statements)."""
        return ()


LValue = Union[VarRef, Mem]


@dataclass(eq=False)
class Assign(Stmt):
    """``target = value`` — the only way memory changes (section 3)."""

    target: LValue = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]

    expr_fields = ("target", "value")
    store_field = "target"

    def __repr__(self) -> str:
        return f"Assign({self.target!r} = {self.value!r})"


@dataclass(eq=False)
class VectorAssign(Stmt):
    """A vector assignment over Sections; produced by the vectorizer.

    When ``mask`` is present the statement is a *masked* store: the
    mask expression is evaluated element-wise over the section length
    (all lanes), then the value (all lanes — reads complete before any
    write, as ever), and only lanes whose mask element is non-zero are
    written back.  This is the execution form of an if-converted loop
    body (the ``where`` of the paper-era vector Fortrans).
    """

    target: Section = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]
    mask: Optional[Expr] = None

    expr_fields = ("target", "value", "mask")
    store_field = "target"

    def __repr__(self) -> str:
        where = f" where {self.mask!r}" if self.mask is not None else ""
        return f"VectorAssign({self.target!r} = {self.value!r}{where})"


@dataclass(eq=False)
class VectorReduce(Stmt):
    """A vector reduction over the elements of section-valued
    expressions: ``target = target ⊕₁ e₁ ⊕₂ e₂ … ⊕ₖ eₖ`` for every
    element, where the first term is ``op``/``value`` and the later
    ones are ``chain`` — the left chain ``s = s + a[i] - b[i]`` the
    scalar loop wrote.

    The reference semantics accumulate **in index order**, and within
    an element in term order: per lane ``i``, per term ``j``,
    ``acc = acc ⊕ⱼ eⱼ[i]`` at the target's type, a NaN accumulator
    staying as it is (so results are bit-identical to the scalar
    loop); only the timing model exploits the pipelined reduction.
    ``op`` is ``+``, ``-`` (an element subtracted, never a negated
    one added: the two differ in a NaN's sign), ``min`` or ``max``; a
    ``min``/``max`` reduction has one term, a chain's terms are ``+``
    and ``-``.
    """

    target: "VarRef" = None  # type: ignore[assignment]
    op: str = "+"
    value: Expr = None  # type: ignore[assignment]
    length: Expr = None  # type: ignore[assignment]
    chain: Tuple[Tuple[str, Expr], ...] = ()

    expr_fields = ("target", "value", "length")
    store_field = "target"
    term_fields = ("chain",)

    def terms(self) -> Tuple[Tuple[str, Expr], ...]:
        """Every ``(op, value)`` term, in accumulation order."""
        return ((self.op, self.value),) + self.chain

    def __repr__(self) -> str:
        rest = "".join(f" {op} {value!r}" for op, value in self.chain)
        return f"VectorReduce({self.target!r} {self.op}= {self.value!r}" \
               f"{rest})"


@dataclass(eq=False)
class CallStmt(Stmt):
    """A call whose result (if any) is discarded."""

    call: CallExpr = None  # type: ignore[assignment]

    expr_fields = ("call",)


@dataclass(eq=False)
class IfStmt(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: List[Stmt] = field(default_factory=list)
    otherwise: List[Stmt] = field(default_factory=list)

    expr_fields = ("cond",)
    list_fields = ("then", "otherwise")


@dataclass(eq=False)
class WhileLoop(Stmt):
    """A general while loop.  The condition is *pure*; the front end
    duplicated any condition side effects into the body (section 4)."""

    cond: Expr = None  # type: ignore[assignment]
    body: List[Stmt] = field(default_factory=list)
    pragmas: Tuple[str, ...] = ()

    expr_fields = ("cond",)
    list_fields = ("body",)


@dataclass(eq=False)
class DoLoop(Stmt):
    """A counted DO loop ("do fortran" in the paper's output).

    Semantics: ``var`` takes values lo, lo+step, ... while
    ``var <= hi`` (step>0) or ``var >= hi`` (step<0).  ``step`` must be a
    non-zero constant by construction.  ``parallel`` marks loops the
    parallelizer spread across processors ("do parallel"); ``vector``
    marks loops whose body is entirely vector assignments.
    """

    var: Symbol = None  # type: ignore[assignment]
    lo: Expr = None  # type: ignore[assignment]
    hi: Expr = None  # type: ignore[assignment]
    step: int = 1
    body: List[Stmt] = field(default_factory=list)
    parallel: bool = False
    vector: bool = False
    pragmas: Tuple[str, ...] = ()

    expr_fields = ("lo", "hi")
    list_fields = ("body",)

    def combines(self) -> bool:
        """Is this a forked reduction — a ``do parallel`` strip loop
        whose processors each accumulate a partial result, combined
        after the join?  Engines run its strips in index order, so the
        result is the serial loop's bit for bit; only the timing model
        charges the fork, the share and the combine (the liberty
        :class:`VectorReduce` takes)."""
        return self.parallel and any(isinstance(stmt, VectorReduce)
                                     for stmt in self.body)

    def __repr__(self) -> str:
        kind = "parallel " if self.parallel else ""
        return (f"DoLoop({kind}{self.var.name} = {self.lo!r}, {self.hi!r},"
                f" {self.step})")


@dataclass(eq=False)
class ListParallelLoop(Stmt):
    """A parallelized linked-list traversal (the paper's section 10
    future work, implemented).

    Semantics: starting from ``ptr``'s current value, the *serial*
    ``advance`` statements are executed repeatedly to enumerate the
    node pointers (while ``ptr`` is non-null); the ``body`` then runs
    once per recorded node with ``ptr`` bound to that node, and those
    executions may proceed in any order on any processor.  Validity
    rests on the paper's stated assumption "that each motion down a
    pointer goes to independent storage".
    """

    ptr: Symbol = None  # type: ignore[assignment]
    next_offset: int = 0  # byte offset of the link field (diagnostic)
    advance: List[Stmt] = field(default_factory=list)
    body: List[Stmt] = field(default_factory=list)

    list_fields = ("body", "advance")

    def __repr__(self) -> str:
        return f"ListParallelLoop({self.ptr.name}, +{self.next_offset})"


@dataclass(eq=False)
class Goto(Stmt):
    label: str = ""


@dataclass(eq=False)
class LabelStmt(Stmt):
    label: str = ""


@dataclass(eq=False)
class Return(Stmt):
    value: Optional[Expr] = None

    expr_fields = ("value",)


# ---------------------------------------------------------------------------
# Functions and programs
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ILFunction:
    """One procedure in IL form.

    ``body`` is a statement list; ``params`` are symbols bound at entry.
    ``pragmas`` carries source-level hints (e.g. ``safe`` = no argument
    aliasing, the paper's escape hatch for daxpy-like routines).
    """

    name: str
    params: List[Symbol]
    ret_type: CType
    body: List[Stmt]
    pragmas: Tuple[str, ...] = ()
    # Locals that the lowering or optimizer created; used by the
    # interpreter and simulator to allocate frames.
    local_syms: List[Symbol] = field(default_factory=list)

    def all_statements(self) -> Iterator[Stmt]:
        yield from walk_statements(self.body)


@dataclass(eq=False)
class GlobalVar:
    sym: Symbol
    # Scalar constant, list of constants, or a Symbol (the address of
    # another global — how ``char *s = "abc";`` is initialized).
    init: Optional[object] = None


@dataclass(eq=False)
class ILProgram:
    functions: dict  # name -> ILFunction
    globals: List[GlobalVar] = field(default_factory=list)
    # The owning symbol table; passes that create temporaries draw
    # fresh uids from here so symbol identity stays program-unique.
    symtab: Optional[object] = None

    def function(self, name: str) -> ILFunction:
        return self.functions[name]

    def global_named(self, name: str) -> GlobalVar:
        for g in self.globals:
            if g.sym.name == name:
                return g
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


#: Storage classes of objects with one place in memory for the whole
#: run: the program's globals and promoted statics.
STATIC_STORAGE = (GLOBAL, STATIC, EXTERN)


def lives_in_memory(sym: Symbol) -> bool:
    """Does ``sym`` live in memory — a read of it a load, a write a
    store — rather than in a register?  The program's globals, and an
    aggregate or address-taken local or parameter
    (:func:`memory_locals`).  Engines charge such a read
    ``load_latency`` and such a write ``store_latency``, and the
    static walk (:mod:`repro.titan.static`) prices them so."""
    return sym.storage in STATIC_STORAGE \
        or isinstance(sym.ctype, (ArrayType, StructType)) \
        or sym.address_taken


def memory_locals(fn: "ILFunction") -> Iterator[Symbol]:
    """The locals and parameters of ``fn`` that live in memory, in
    storage each frame allocates (a local never has a global's storage
    class: a ``static`` one is promoted to a global)."""
    for sym in list(fn.local_syms) + list(fn.params):
        if lives_in_memory(sym):
            yield sym


def walk_statements(stmts: Sequence[Stmt]) -> Iterator[Stmt]:
    """Preorder traversal of a statement list and all nested lists.

    Iterative (an explicit stack of list iterators): one generator
    resume per statement whatever the nesting depth, and no recursion
    limit on adversarially nested input."""
    stack = [iter(stmts)]
    while stack:
        for stmt in stack[-1]:
            yield stmt
            subs = stmt.substatements()
            if subs:
                stack.append(itertools.chain.from_iterable(subs))
                break
        else:
            stack.pop()


def walk_expr(expr: Expr) -> Iterator[Expr]:
    """Preorder traversal of an expression tree (iterative, like
    :func:`walk_statements`)."""
    stack = [expr]
    pop = stack.pop
    while stack:
        node = pop()
        yield node
        kids = node.children()
        if kids:
            stack.extend(kids[::-1])


def stmt_exprs(stmt: Stmt) -> Iterator[Expr]:
    """The top-level expressions of one statement (not nested stmts),
    in ``expr_fields`` order."""
    for name in stmt.expr_fields:
        expr = getattr(stmt, name)
        if expr is not None:
            yield expr
    for name in stmt.term_fields:
        for _, expr in getattr(stmt, name):
            yield expr


def map_expr(expr: Expr, fn) -> Expr:
    """Apply ``fn`` to each node bottom-up.  A node whose children all
    came back unchanged is passed to ``fn`` as is, not rebuilt — so
    ``map_expr(e, fn) is e`` exactly when ``fn`` changed nothing, and
    callers can tell "did this rewrite do anything" by identity."""
    kids = expr.children()
    if kids:
        new = [map_expr(c, fn) for c in kids]
        for old_kid, new_kid in zip(kids, new):
            if new_kid is not old_kid:
                expr = expr.replace_children(new)
                break
    return fn(expr)


def facts(expr: Expr) -> ExprFacts:
    """The :class:`ExprFacts` of the tree under ``expr``, memoized on
    every node of it: a node's facts are its own plus its children's,
    so a tree rebuilt along one spine re-derives that spine only."""
    known = expr._facts
    if known is None:
        known = expr._own_facts()
        kids = expr.children()
        if kids:
            reads, addrs, flags = known
            for kid in kids:
                sub = kid._facts or facts(kid)
                if sub.reads:
                    reads = reads | sub.reads if reads else sub.reads
                if sub.addrs:
                    addrs = addrs | sub.addrs if addrs else sub.addrs
                flags |= sub.flags
            known = ExprFacts(reads, addrs, flags)
        expr._facts = known
    return known


def vars_read(expr: Expr) -> Iterator[Symbol]:
    """Every scalar symbol read by ``expr`` (including inside Mem addrs),
    in preorder, once per read — for callers whose output order follows
    it; set questions go to ``facts(expr).reads``."""
    for node in walk_expr(expr):
        if isinstance(node, VarRef):
            yield node.sym


def expr_equal(a: Expr, b: Expr) -> bool:
    """Structural equality of pure expressions."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Const):
        return a.value == b.value and type(a.value) is type(b.value)
    if isinstance(a, (VarRef, AddrOf)):
        return a.sym == b.sym
    if isinstance(a, BinOp) and a.op != b.op:
        return False
    if isinstance(a, UnOp) and a.op != b.op:
        return False
    if isinstance(a, CallExpr):
        return False  # calls are never equal (side effects)
    if isinstance(a, Cast) and a.ctype != b.ctype:
        return False
    if isinstance(a, Section) and a.stride != b.stride:
        return False
    ca, cb = a.children(), b.children()
    return len(ca) == len(cb) and all(
        expr_equal(x, y) for x, y in zip(ca, cb))


def clone_expr(expr: Expr) -> Expr:
    """Copy an expression tree: interior nodes are fresh, leaves and
    symbols are shared (expressions are never mutated in place)."""
    kids = expr.children()
    if not kids:
        return expr
    return expr.replace_children([clone_expr(c) for c in kids])


def int_const(value: int) -> Const:
    return Const(value=value, ctype=INT)


def is_const(expr: Expr, value: Optional[Union[int, float]] = None) -> bool:
    if not isinstance(expr, Const):
        return False
    return value is None or expr.value == value


# ---------------------------------------------------------------------------
# Skeleton copies
# ---------------------------------------------------------------------------

def copy_statements(stmts: Sequence[Stmt]) -> List[Stmt]:
    """New statement objects in new lists, all the way down, over the
    *same* expression trees and symbols: passes assign statement
    fields and edit statement lists, but never an expression (see
    :class:`Expr`).  Sids are kept, not drawn.  Iterative, like
    :func:`walk_statements`."""
    out: List[Stmt] = []
    todo = [(stmts, out)]
    while todo:
        source, target = todo.pop()
        for stmt in source:
            cls = stmt.__class__
            new = object.__new__(cls)
            state = new.__dict__
            state.update(stmt.__dict__)
            for name in cls.list_fields:
                state[name] = copied = []
                todo.append((getattr(stmt, name), copied))
            target.append(new)
    return out


def clone_statements(stmts: Sequence[Stmt]) -> List[Stmt]:
    """Duplicates of ``stmts`` for a second place in the program (a
    loop condition repeated at the end of the body, an inlined callee,
    a renamed loop): new statements with fresh sids and same lines,
    new statement lists and expression interiors (:func:`clone_expr`),
    shared symbols.  Nested statements draw their sids before the
    statement that holds them."""
    out: List[Stmt] = []
    for stmt in stmts:
        # Rebuilt through the constructor, which draws the fresh sid.
        values = {f.name: getattr(stmt, f.name) for f in fields(stmt)
                  if f.name != "sid"}
        for name in stmt.list_fields:
            values[name] = clone_statements(values[name])
        for name in stmt.expr_fields:
            if values[name] is not None:
                values[name] = clone_expr(values[name])
        for name in stmt.term_fields:
            values[name] = tuple((op, clone_expr(expr))
                                 for op, expr in values[name])
        out.append(stmt.__class__(**values))
    return out


def copy_program(program: ILProgram) -> ILProgram:
    """A skeleton copy of ``program``: new functions, statements,
    statement lists, globals and symbol table (:meth:`SymbolTable.copy`)
    sharing the immutable expressions and the symbols — what every
    pass after the inliner may edit is copied, nothing else.  Transforming
    the copy leaves the original as it was, and the other way round."""
    functions = {
        name: ILFunction(fn.name, list(fn.params), fn.ret_type,
                         copy_statements(fn.body), fn.pragmas,
                         list(fn.local_syms))
        for name, fn in program.functions.items()}
    symtab = program.symtab
    return ILProgram(functions,
                     [GlobalVar(g.sym, g.init) for g in program.globals],
                     symtab.copy() if symtab is not None else None)

