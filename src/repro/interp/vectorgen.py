"""Vector statements as whole-vector operations on the byte image.

The Titan charges a vector instruction ``startup + n x per-element``;
this module makes the host pay the same shape.  The code generator
(:mod:`repro.interp.bytecode`) lowers a ``VectorAssign`` /
``VectorReduce`` here to *bulk* standard-library operations: one
``struct`` unpack of all ``n`` lanes per ``Section`` behind one range
check, one list comprehension per operator with the arithmetic inline
(operators that need no float32 rounding fuse into one), float32
results rounded by one pack/unpack round trip per operator, one bulk
``pack_into`` per target.

The tree oracle's per-lane loop stays the *definition* of a vector
statement, and the bulk form is only ever an unobservable shortcut
through it:

* everything up to the first store is free of side effects, so the
  generated code runs it inside a ``try`` and, on *any* exception (a
  section that is not wholly in range, a zero divisor, an
  uninitialized scalar), re-runs the statement through the oracle's
  own routine (:meth:`CompiledInterpreter._run_vector_lanes`) — error
  type, message, stored prefix and model state are then the oracle's
  by construction;
* speculation is allowed exactly where it is unobservable: a masked
  value or a ``Select`` arm is computed for every lane only when it
  cannot fault (no ``/`` or ``%``, no float-to-integer conversion;
  its sections passed their range checks) — otherwise it is computed
  on the gathered lanes that take it;
* a broadcast scalar, section base or iota start under a mask or an
  arm is evaluated only if some lane gets there, and the events of
  its evaluation are charged in the order the oracle's lanes would
  have reached them (:func:`fill_order`).

A statement the bulk form cannot express (:func:`bulk_obstacle`: a
call among its scalars, an aggregate section, a node shared between
two positions, ...) is generated as a call to the oracle's routine
outright — the *lane* form.  Which form each statement took is counted
in ``titancc_vector_lowering_total{form,reason}``.
"""

from __future__ import annotations

import itertools
import math
import struct
from typing import Dict, List, Optional, Tuple

from ..frontend.ctypes_ import CType, FloatType, IntType, PointerType
from ..il import nodes as N
from ..obs.metrics import REGISTRY
from ..titan.vector_ops import vector_instructions
from . import intfacts
from .intfacts import IntFact
from .kernels import (_F32_MAX, _F32_PACK, _F32_UNPACK, _fast_round_f32,
                      _is_aggregate, _struct_format)

# ---------------------------------------------------------------------------
# Run-time helpers bound into generated code
# ---------------------------------------------------------------------------


class BulkMiss(Exception):
    """A section is not wholly inside the memory image: the lanes that
    are out of range may be ones the oracle never touches (or the
    fault is real) — either way the oracle decides."""


class LaneCodecs:
    """``struct.Struct`` objects for ``n`` lanes of one element format,
    built on first use.  Bounded: a program can ask for every length
    up to its vector length (remainder strips) times every element
    type, and hand-built IL for any length at all, so the oldest entry
    goes when ``limit`` is reached."""

    def __init__(self, limit: int = 256):
        self.limit = limit
        self._by_key: Dict[Tuple[str, int], struct.Struct] = {}

    def __len__(self) -> int:
        return len(self._by_key)

    def get(self, code: str, lanes: int) -> struct.Struct:
        key = (code, lanes)
        codec = self._by_key.get(key)
        if codec is None:
            if len(self._by_key) >= self.limit:
                del self._by_key[next(iter(self._by_key))]
            codec = self._by_key[key] = struct.Struct(f"<{lanes}{code}")
        return codec


#: Process-wide like the struct module's own format cache: the codecs
#: are immutable and depend on nothing but their key.
CODECS = LaneCodecs()

_INF = math.inf


def _clamp_f32(value) -> float:
    """What ``Memory.store`` does to a float32 lane before packing."""
    value = float(value)
    if value != 0 and abs(value) > _F32_MAX:
        return _INF if value > 0 else -_INF
    return value


class LaneAccess:
    """Bulk loads and stores of one section shape: element format and
    byte step (stride x element size; negative strides walk down)."""

    def __init__(self, code: str, size: int, step: int):
        self.code = code
        self.size = size
        self.step = step
        self.is_f32 = code == "f"
        self._pack_one = struct.Struct("<" + code).pack_into
        #: The codec used last: strips of one loop share a length.
        self._codec = CODECS.get(code, 1)
        #: ``titancc_vector_reduce_stepwise_total``, once a sum steps
        #: (a registry lookup per strip is a tenth of that path).
        self._stepwise = None

    def codec(self, lanes: int) -> struct.Struct:
        codec = self._codec
        if codec.size != lanes * self.size:
            codec = self._codec = CODECS.get(self.code, lanes)
        return codec

    def check(self, data: bytearray, base: int, first: int,
              last: int) -> None:
        """Lanes ``first..last`` of the section at ``base`` lie inside
        the image (the same bounds ``Memory._check`` applies per
        lane)."""
        low = base + first * self.step
        high = base + last * self.step
        if low > high:
            low, high = high, low
        if low < 8 or high + self.size > len(data):
            raise BulkMiss()

    def load(self, data: bytearray, base: int, lanes: int):
        """All ``lanes`` elements, in lane order."""
        step, size = self.step, self.size
        if step == size:
            if base < 8 or base + lanes * size > len(data):
                raise BulkMiss()
            return self.codec(lanes).unpack_from(data, base)
        self.check(data, base, 0, lanes - 1)
        codec = self.codec(lanes)
        low = base if step > 0 else base + (lanes - 1) * step
        if step == -size:
            return codec.unpack_from(data, low)[::-1]
        # Strided: gather byte column by byte column.
        gap = abs(step)
        end = low + (lanes - 1) * gap + 1
        packed = bytearray(lanes * size)
        for column in range(size):
            packed[column::size] = data[low + column:end + column:gap]
        values = codec.unpack(packed)
        return values if step > 0 else values[::-1]

    def store(self, data: bytearray, base: int, lanes: int,
              values) -> None:
        """Every lane; the range was checked before."""
        try:
            self._store(data, base, lanes, values)
        except OverflowError:
            if not self.is_f32:
                raise
            # A finite lane beyond float32 becomes ±inf, exactly as a
            # scalar store clamps it.  The struct module raising is
            # the signal; lanes it wrote before that are rewritten
            # with the same bytes.
            self._store(data, base, lanes,
                        [_clamp_f32(v) for v in values])

    def _store(self, data: bytearray, base: int, lanes: int,
               values) -> None:
        codec = self.codec(lanes)
        step, size = self.step, self.size
        if step == size:
            codec.pack_into(data, base, *values)
            return
        if step < 0:
            values = values[::-1]
            base += (lanes - 1) * step
            step = -step
        # Strided: scatter byte column by byte column.
        packed = codec.pack(*values)
        end = base + (lanes - 1) * step + 1
        for column in range(size):
            data[base + column:end + column:step] = packed[column::size]

    def store_active(self, data: bytearray, base: int, lanes: int,
                     active: List[int], values, by_lane: bool) -> None:
        """A masked store: only the ``active`` lanes.  ``values`` is
        indexed by lane number (``by_lane``) or aligned with
        ``active``."""
        if len(active) == lanes:
            self.store(data, base, lanes, values)
            return
        pack, step = self._pack_one, self.step
        if by_lane:
            values = [values[lane] for lane in active]
        for lane, value in zip(active, values):
            try:
                pack(data, base + lane * step, value)
            except OverflowError:
                if not self.is_f32:
                    raise
                pack(data, base + lane * step, _clamp_f32(value))

    def round(self, values):
        """Every lane through this (float32) format and back: one
        pack/unpack round trip; a finite lane that overflows takes
        the per-lane path, which yields ±inf like ``_round_to_f32``."""
        codec = self.codec(len(values))
        try:
            return codec.unpack(codec.pack(*values))
        except OverflowError:
            return tuple([_fast_round_f32(v) for v in values])

    def sum(self, values, acc):
        """``acc`` plus every lane in turn, rounded to float32 after
        each addition.  When every running *double* sum survives a
        float32 round trip, rounding at each step changed nothing
        (induction on the prefix; a NaN compares unequal, an overflow
        comes back infinite): the last one is the answer, and the
        first lane says whether to try.  Else step by step — where a
        finite overflow raises, for the oracle's routine to handle."""
        pack, unpack = _F32_PACK, _F32_UNPACK
        first = acc + values[0]
        if unpack(pack(first))[0] == first:
            sums = tuple(itertools.accumulate(values, initial=acc))
            if self.round(sums) == sums:
                return sums[-1]
        if self._stepwise is None:
            self._stepwise = REGISTRY.counter(
                "titancc_vector_reduce_stepwise_total")
        self._stepwise.inc()
        for value in values:
            acc = unpack(pack(acc + value))[0]
        return acc


def first_lane(flags: list, want: bool, lanes, offset: int):
    """Ordering key of the first lane whose flag is ``want`` —
    ``offset`` plus its lane number — or None when no lane is."""
    try:
        position = flags.index(want)
    except ValueError:
        return None
    return offset + lanes[position]


def fill_order(*keys) -> List[int]:
    """Positions of the reached scalar fills in the order the oracle's
    lanes evaluate them: by first lane, then by place in the tree
    (``keys`` come in tree order; None is a fill no lane reached)."""
    return [position for _, position in
            sorted((key, position) for position, key in enumerate(keys)
                   if key is not None)]


#: Stands in for the lanes of a Select arm no lane took.
NONES = itertools.repeat(None)

_CMP_OPS = frozenset(("==", "!=", "<", ">", "<=", ">="))
_INT_ONLY_OPS = frozenset(("<<", ">>", "&", "|", "^"))
_KNOWN_BINOPS = _CMP_OPS | _INT_ONLY_OPS | frozenset(
    ("+", "-", "*", "/", "%", "min", "max"))
_KNOWN_UNOPS = frozenset(("neg", "not", "bnot"))


# ---------------------------------------------------------------------------
# What the bulk form cannot express
# ---------------------------------------------------------------------------


def _scalar_obstacle(expr: N.Expr) -> str:
    for node in N.walk_expr(expr):
        if isinstance(node, N.CallExpr):
            return "call"
        if isinstance(node, (N.Section, N.Iota)):
            return "nested-vector"
    return ""


def _section_obstacle(section: N.Section) -> str:
    if _is_aggregate(section.ctype) or \
            _struct_format(section.ctype) is None:
        return "aggregate"
    if section.stride == 0:
        return "zero-stride"
    return _scalar_obstacle(section.addr)


def bulk_obstacle(stmt: N.Stmt) -> str:
    """Why ``stmt`` must take the lane form, or "" when the bulk form
    expresses it.  Decided from the IL alone."""
    seen = set()

    def lanes(expr: N.Expr) -> str:
        if isinstance(expr, N.Const):
            return ""
        # The oracle caches a section base or broadcast scalar by node
        # identity: a node in two places is filled by whichever lane
        # gets to either first.
        if id(expr) in seen:
            return "shared-node"
        seen.add(id(expr))
        if isinstance(expr, N.Section):
            return _section_obstacle(expr)
        if isinstance(expr, N.Iota):
            return _scalar_obstacle(expr.start)
        if isinstance(expr, N.BinOp):
            if expr.op not in _KNOWN_BINOPS:
                return "operator"
            return lanes(expr.left) or lanes(expr.right)
        if isinstance(expr, N.UnOp):
            if expr.op not in _KNOWN_UNOPS:
                return "operator"
            return lanes(expr.operand)
        if isinstance(expr, N.Cast):
            return lanes(expr.operand)
        if isinstance(expr, N.Select):
            return (lanes(expr.cond) or lanes(expr.then)
                    or lanes(expr.otherwise))
        return _scalar_obstacle(expr)

    if isinstance(stmt, N.VectorReduce):
        if stmt.op not in ("+", "min", "max"):
            return "operator"
        return _scalar_obstacle(stmt.length) or lanes(stmt.value)
    target = stmt.target
    return (_scalar_obstacle(target.length)
            or (lanes(stmt.mask) if stmt.mask is not None else "")
            or lanes(stmt.value) or _section_obstacle(target))


# ---------------------------------------------------------------------------
# The bulk form of one statement
# ---------------------------------------------------------------------------


def _ind(lines: List[str]) -> List[str]:
    return ["    " + line for line in lines]


class _Lanes:
    """One value per lane of a domain: ``src`` is an expression over
    the element variables in ``inputs`` (variable -> the local
    sequence it walks); with no inputs it is the same for every
    lane.  ``fact`` is what :mod:`intfacts` knows of int lanes (None:
    nothing — and they are exact)."""

    __slots__ = ("src", "inputs", "fact")

    def __init__(self, src: str, inputs: Optional[Dict[str, str]] = None,
                 fact: Optional[IntFact] = None):
        self.src = src
        self.inputs = inputs or {}
        self.fact = fact


class _Context:
    """Where lanes are evaluated: a domain (which lanes, in order) and
    whether any lane gets here at all."""

    def __init__(self, index: str, count: str, dense: bool, offset: str,
                 guard: Optional[str] = None, key: str = "0"):
        #: Source of the domain's lane numbers, in order.
        self.index = index
        #: Source of how many lanes that is.
        self.count = count
        #: Every lane of the statement, in order (position == lane).
        self.dense = dense
        #: Source added to lane numbers in ordering keys: the value
        #: phase of a masked statement comes after its whole mask.
        self.offset = offset
        #: Source that is true when some lane gets here (None: always).
        self.guard = guard
        #: Source of the ordering key of the first lane to get here.
        self.key = key
        self.lines: List[str] = []
        #: Holds something that must not run unless a lane gets here.
        self.lazy = False
        #: Holds an arm with a guard of its own — which reads flags of
        #: this domain's lanes, so they must all be lanes that get here.
        self.nested = False
        self.ivar: Optional[str] = None


class BulkStatement:
    """Generates the bulk form of one vector statement for the code
    generator ``gen`` (whose expression emitter, accounting notes and
    temp names it borrows)."""

    def __init__(self, gen, stmt: N.Stmt, env: Dict[str, object]):
        self.gen = gen
        self.stmt = stmt
        self.env = env
        self.costed = gen._costs is not None
        self.tl = gen._tmp_name()
        self.data = gen._bind_shared(
            env, "data", lambda: gen.engine.memory.data, ("data",))
        #: Scalar fills with events, in tree order: (context, events).
        self.fills: List[Tuple[_Context, list]] = []
        #: Scalars that cannot fault and charge nothing: evaluated up
        #: front, wherever in the tree they sit.
        self.eager: List[str] = []
        #: Locals an ordering key may read though the block assigning
        #: them never ran.
        self.key_locals: List[str] = []
        #: Where the stored (or reduced) value is computed: the root,
        #: or under a mask the context of its active lanes.
        self.value_ctx: Optional[_Context] = None
        #: What is known of the statement's length, and of the int
        #: lanes it stores or reduces (``--dump-code`` prints this).
        self.length_fact: Optional[IntFact] = None
        self.proved: Optional[IntFact] = None

    # -- pieces ------------------------------------------------------------

    def _scalar(self, expr: N.Expr, as_int: bool = False
                ) -> Tuple[str, list, Optional[IntFact]]:
        """Source, events and integer fact of a once-evaluated
        expression."""
        src, items, fact = self.gen._captured(expr, self.env)
        if as_int and not self.gen._int_valued(expr):
            src, fact = f"int({src})", None
        return src, items, fact

    def _leaf(self, expr: N.Expr, ctx: _Context,
              as_int: bool = False) -> _Lanes:
        """A broadcast scalar, section base or iota start: evaluated
        once, by the first lane that gets to it."""
        src, items, fact = self._scalar(expr, as_int)
        if isinstance(expr, N.Const):
            return _Lanes(src, fact=fact)
        name = self.gen._tmp_name()
        if not items and self._scalar_nofault(expr):
            self.eager.append(f"{name} = {src}")
        else:
            ctx.lines.append(f"{name} = {src}")
            ctx.lazy = True
            if items:
                self.fills.append((ctx, items))
        return _Lanes(name, fact=fact)

    def _scalar_nofault(self, expr: N.Expr) -> bool:
        if isinstance(expr, N.AddrOf):
            return True
        if isinstance(expr, N.BinOp) and expr.op in ("+", "-", "*"):
            return self._scalar_nofault(expr.left) and \
                self._scalar_nofault(expr.right)
        return self.gen._expr_nofault(expr)

    def _access(self, section: N.Section) -> str:
        ctype = section.ctype
        size = ctype.sizeof()
        code = _struct_format(ctype)[1:]
        step = section.stride * size
        return self.gen._bind_shared(
            self.env, ("access", code, step),
            lambda: LaneAccess(code, size, step))

    def _helper(self, helper) -> str:
        return self.gen._bind_shared(self.env, helper, lambda: helper)

    def _index_var(self, ctx: _Context) -> str:
        if ctx.ivar is None:
            ctx.ivar = self.gen._tmp_name()
        return ctx.ivar

    def _sequence(self, lanes: _Lanes, ctx: _Context) -> str:
        """Source of a sized sequence holding ``lanes``."""
        if not lanes.inputs:
            return f"[{lanes.src}] * {ctx.count}"
        if lanes.src in lanes.inputs:
            return lanes.inputs[lanes.src]
        names = ", ".join(lanes.inputs)
        walked = ", ".join(lanes.inputs.values())
        if len(lanes.inputs) > 1:
            walked = f"zip({walked})"
        return f"[{lanes.src} for {names} in {walked}]"

    def _materialize(self, lanes: _Lanes, ctx: _Context) -> str:
        """A local sequence holding ``lanes``."""
        sequence = self._sequence(lanes, ctx)
        if sequence.isidentifier():
            return sequence
        name = self.gen._tmp_name()
        ctx.lines.append(f"{name} = {sequence}")
        return name

    def _named(self, lanes: _Lanes, ctx: _Context) -> _Lanes:
        """``lanes`` with a plain name for a source, so it can be
        written more than once."""
        if lanes.src.isidentifier():
            return lanes
        name = self.gen._tmp_name()
        if not lanes.inputs:
            ctx.lines.append(f"{name} = {lanes.src}")
            return _Lanes(name, fact=lanes.fact)
        return _Lanes(name, {name: self._materialize(lanes, ctx)},
                      lanes.fact)

    # -- static facts about lane values ------------------------------------

    def _is_int(self, expr: N.Expr) -> bool:
        """Every lane is a Python int already."""
        if isinstance(expr, (N.Section, N.Select)):
            return isinstance(expr.ctype, (IntType, PointerType))
        if isinstance(expr, N.Iota):
            return True
        return self.gen._int_valued(expr)

    def _is_float(self, expr: N.Expr) -> bool:
        """Every lane is a Python float already."""
        if isinstance(expr, N.Section):
            return isinstance(expr.ctype, FloatType)
        return self.gen._float_valued(expr)

    def _converted(self, expr: N.Expr, ctype: CType) -> bool:
        """The float lanes of ``expr`` already carry ``ctype`` values
        (int lanes say so in their fact)."""
        if isinstance(expr, N.Section):
            return self.gen._same_ctype(expr.ctype, ctype)
        return self.gen._conv_matches(expr, ctype)

    def _int_conv_faults(self, ctype: CType, *operands: N.Expr) -> bool:
        """Converting to ``ctype`` calls ``int()`` on a value that may
        be a float infinity or NaN."""
        return isinstance(ctype, (IntType, PointerType)) and \
            not all(self._is_int(e) for e in operands)

    def _nofault(self, expr: N.Expr) -> bool:
        """Computing ``expr`` for a lane the oracle never evaluates it
        for is unobservable: nothing in it can raise.  (Loads are
        range-checked as whole sections; scalars are filled under
        their own guard.)"""
        if isinstance(expr, N.BinOp):
            op = expr.op
            if op in ("/", "%"):
                return False
            if op in _INT_ONLY_OPS and not (
                    self._is_int(expr.left) and self._is_int(expr.right)):
                return False
            if op not in _CMP_OPS and self._int_conv_faults(
                    expr.ctype, expr.left, expr.right):
                return False
            return self._nofault(expr.left) and self._nofault(expr.right)
        if isinstance(expr, N.UnOp):
            if expr.op == "bnot" and not self._is_int(expr.operand):
                return False
            if expr.op == "neg" and self._int_conv_faults(
                    expr.ctype, expr.operand):
                return False
            return self._nofault(expr.operand)
        if isinstance(expr, N.Cast):
            return not self._int_conv_faults(expr.ctype, expr.operand) \
                and self._nofault(expr.operand)
        if isinstance(expr, N.Select):
            return (not self._int_conv_faults(expr.ctype, expr.then,
                                              expr.otherwise)
                    and self._nofault(expr.cond)
                    and self._nofault(expr.then)
                    and self._nofault(expr.otherwise))
        return True

    # -- conversions -------------------------------------------------------

    def _convert(self, lanes: _Lanes, ctype: CType, ctx: _Context,
                 is_int: bool, is_float: bool,
                 ring: bool = False) -> _Lanes:
        """``lanes`` converted to ``ctype`` — the oracle's
        ``_convert_value`` per lane; for a ``ring`` consumer an
        integer wrap may stay deferred."""
        gen = self.gen
        if isinstance(ctype, FloatType):
            if ctype.sizeof() != 4:
                return lanes if is_float else \
                    _Lanes(f"float({lanes.src})", lanes.inputs)
            name = gen._tmp_name()
            if not lanes.inputs:
                ctx.lines.append(f"{name} = _f32({lanes.src})")
                return _Lanes(name)
            rounder = self.gen._bind_shared(
                self.env, ("access", "f", 4),
                lambda: LaneAccess("f", 4, 4))
            ctx.lines.append(
                f"{name} = {rounder}.round({self._sequence(lanes, ctx)})")
            element = gen._tmp_name()
            return _Lanes(element, {element: name})
        if isinstance(ctype, (IntType, PointerType)):
            src, fact = gen._settle(
                lanes.src if is_int else f"int({lanes.src})",
                lanes.fact if is_int else None, ctype, ring, "vector")
            return _Lanes(src, lanes.inputs, fact)
        return lanes

    def _uniform(self, lanes: _Lanes, ctx: _Context) -> _Lanes:
        """An operator over broadcast operands only: computed once."""
        if lanes.inputs or lanes.src.isidentifier() \
                or lanes.src.isdecimal():
            return lanes
        name = self.gen._tmp_name()
        ctx.lines.append(f"{name} = {lanes.src}")
        return _Lanes(name, fact=lanes.fact)

    # -- expressions -------------------------------------------------------

    def _vec(self, expr: N.Expr, ctx: _Context, truth: bool = False,
             ring: bool = False) -> _Lanes:
        """The lanes of ``expr`` over ``ctx``'s domain; in ``truth``
        position only their truth value is wanted (real bools); a
        ``ring`` consumer takes int lanes with their wrap deferred."""
        if isinstance(expr, N.BinOp) and expr.op in _CMP_OPS:
            left = self._vec(expr.left, ctx)
            right = self._vec(expr.right, ctx)
            src = f"{left.src} {expr.op} {right.src}"
            src = f"({src})" if truth else f"(1 if {src} else 0)"
            return self._uniform(_Lanes(
                src, {**left.inputs, **right.inputs}, intfacts.BIT), ctx)
        if isinstance(expr, N.UnOp) and expr.op == "not":
            operand = self._vec(expr.operand, ctx)
            src = f"(not {operand.src})" if truth \
                else f"(0 if {operand.src} else 1)"
            return self._uniform(
                _Lanes(src, operand.inputs, intfacts.BIT), ctx)
        lanes = self._vec_value(expr, ctx, ring and not truth)
        if truth:
            lanes = self._uniform(
                _Lanes(f"({lanes.src} != 0)", lanes.inputs), ctx)
        return lanes

    def _vec_value(self, expr: N.Expr, ctx: _Context,
                   ring: bool) -> _Lanes:
        if isinstance(expr, N.Section):
            base = self._leaf(expr.addr, ctx, as_int=True).src
            loaded = self.gen._tmp_name()
            ctx.lines.append(f"{loaded} = {self._access(expr)}.load("
                             f"{self.data}, {base}, {self.tl})")
            fact = intfacts.of_type(expr.ctype)
            if ctx.dense:
                element = self.gen._tmp_name()
                return _Lanes(element, {element: loaded}, fact)
            lane = self._index_var(ctx)
            return _Lanes(f"{loaded}[{lane}]", {lane: ctx.index}, fact)
        if isinstance(expr, N.Iota):
            # start + lane, never wrapped; lanes number below the
            # length (of a statement that runs: it is positive).
            start = self._leaf(expr.start, ctx, as_int=True)
            lane = self._index_var(ctx)
            last = self.length_fact and IntFact(
                0, max(self.length_fact.hi - 1, 0))
            return _Lanes(f"({start.src} + {lane})", {lane: ctx.index},
                          intfacts.interval("+", start.fact, last))
        if isinstance(expr, N.BinOp):
            return self._vec_binop(expr, ctx, ring)
        if isinstance(expr, (N.UnOp, N.Cast)):
            op = getattr(expr, "op", "cast")
            is_int = self._is_int(expr.operand)
            defer = is_int and isinstance(expr.ctype,
                                          (IntType, PointerType))
            operand = self._vec(expr.operand, ctx, ring=defer)
            if op == "cast":
                if not defer and self._converted(expr.operand, expr.ctype):
                    return operand
            elif defer:
                src, fact = intfacts.negated(op, operand.src, operand.fact)
                operand = _Lanes(src, operand.inputs, fact)
            elif op == "neg":
                operand = _Lanes(f"(-{operand.src})", operand.inputs)
            else:  # bnot
                operand = _Lanes(f"(~int({operand.src}))", operand.inputs)
                is_int = True
            return self._uniform(self._convert(
                operand, expr.ctype, ctx, is_int,
                self._is_float(expr.operand), ring), ctx)
        if isinstance(expr, N.Select):
            return self._vec_select(expr, ctx, ring)
        return self._leaf(expr, ctx)

    def _vec_binop(self, expr: N.BinOp, ctx: _Context,
                   ring: bool) -> _Lanes:
        op, ctype = expr.op, expr.ctype
        left_int = self._is_int(expr.left)
        right_int = self._is_int(expr.right)
        is_int = left_int and right_int
        is_float = self._is_float(expr.left) or self._is_float(expr.right)
        known = is_int and isinstance(ctype, (IntType, PointerType))
        defer = known and op in intfacts.RING_OPS
        left = self._vec(expr.left, ctx, ring=defer)
        right = self._vec(expr.right, ctx,
                          ring=defer or (known and op == ">>"))
        fact = intfacts.interval(op, left.fact, right.fact) \
            if known and op in ("/", "%") else None
        if known and op in intfacts.INLINE_OPS:
            src, fact = intfacts.binop(op, left.src, left.fact,
                                       right.src, right.fact)
        elif op in ("/", "%") and not (op == "/" and ctype.is_float):
            # C integer division truncates toward zero.  Both operands
            # are written more than once: give them names.
            left, right = self._named(left, ctx), self._named(right, ctx)
            a = left.src if left_int else f"int({left.src})"
            b = right.src if right_int else f"int({right.src})"
            q = f"abs({a}) // abs({b})"
            q = (f"({q} if ({left.src} >= 0) == ({right.src} >= 0) "
                 f"else -({q}))")
            src = q if op == "/" else f"({a} - {q} * {b})"
            is_int, is_float = True, False
        elif op in _INT_ONLY_OPS:
            a = left.src if left_int else f"int({left.src})"
            b = right.src if right_int else f"int({right.src})"
            if op in ("<<", ">>"):
                b = f"({b} & 31)"
            src, is_int, is_float = f"({a} {op} {b})", True, False
        elif op in ("min", "max"):
            src = f"{op}({left.src}, {right.src})"
            is_float = self._is_float(expr.left) and \
                self._is_float(expr.right)
        else:  # + - * and float /
            src = f"({left.src} {op} {right.src})"
        raw = _Lanes(src, {**left.inputs, **right.inputs}, fact)
        return self._uniform(
            self._convert(raw, ctype, ctx, is_int, is_float, ring), ctx)

    # -- selects -----------------------------------------------------------

    def _arm_context(self, ctx: _Context, flags: str, want: bool,
                     gather: bool) -> Tuple[_Context, str]:
        """Context of one Select arm under ``ctx`` and the line that
        computes what its guard reads."""
        gen = self.gen
        name = gen._tmp_name()
        self.key_locals.append(name)
        if not gather:
            # Speculated: the parent's lanes, all of them.
            arm = _Context(ctx.index, ctx.count, ctx.dense, ctx.offset,
                           guard=f"{name} is not None", key=name)
            arm.ivar = ctx.ivar = self._index_var(ctx)
            first = self._helper(first_lane)
            return arm, (f"{name} = {first}({flags}, {want}, "
                         f"{ctx.index}, {ctx.offset})")
        lane, flag = gen._tmp_name(), gen._tmp_name()
        test = flag if want else f"not {flag}"
        arm = _Context(name, f"len({name})", False, ctx.offset,
                       guard=name,
                       key=f"({ctx.offset} + {name}[0] if {name} "
                           f"else None)")
        return arm, (f"{name} = [{lane} for {lane}, {flag} in "
                     f"zip({ctx.index}, {flags}) if {test}]")

    def _reached(self, parent: _Context, nofault: bool, contexts,
                 compile_in) -> Tuple[_Context, Optional[str], _Lanes,
                                      bool]:
        """Lanes wanted only where some lane of ``parent`` gets to
        them: ``compile_in(ctx)`` in a context from
        ``contexts(gather)`` — speculated over all of the parent's
        lanes when that is unobservable, else gathered.  A guard
        nested inside reads flags of the lanes it is computed for, so
        a speculated context that turns out to hold one is redone
        gathered.  ``(context, its prepare line, lanes, gathered)``."""
        gather = not nofault
        while True:
            mark = (len(self.fills), len(self.eager),
                    len(self.key_locals), dict(self.gen._conversions))
            ctx, prepare = contexts(gather)
            lanes = compile_in(ctx)
            if gather or not ctx.nested:
                break
            del self.fills[mark[0]:]
            del self.eager[mark[1]:]
            del self.key_locals[mark[2]:]
            self.gen._conversions = mark[3]
            gather = True
        if gather or ctx.lazy:
            parent.nested = True
        return ctx, prepare, lanes, gather

    def _vec_arm(self, expr: N.Expr, ctx: _Context, flags: str,
                 want: bool, ring: bool) -> Tuple[bool, _Lanes, bool]:
        """One Select arm: ``(gathered, lanes, used flags)``.
        Speculated arms yield lanes over ``ctx``'s domain; gathered
        ones a local sequence of just the lanes that take the arm."""
        gen = self.gen
        arm, prepare, lanes, gather = self._reached(
            ctx, self._nofault(expr),
            lambda gather: self._arm_context(ctx, flags, want, gather),
            lambda arm: self._vec(expr, arm, ring=ring))
        if not gather and not arm.lazy:
            self.key_locals.remove(arm.key)
            ctx.lines.extend(arm.lines)
            return False, lanes, False
        result = gen._tmp_name()
        if gather:
            arm.lines.append(f"{result} = {self._sequence(lanes, arm)}")
            ctx.lines += [prepare, f"{result} = ()", f"if {arm.guard}:"]
            ctx.lines += _ind(arm.lines)
            return True, _Lanes(result, fact=lanes.fact), True
        if not lanes.inputs:
            # A broadcast value filled under the arm's guard.
            arm.lines.append(f"{result} = {lanes.src}")
            ctx.lines += [prepare, f"{result} = None"]
            out = _Lanes(result, fact=lanes.fact)
        else:
            arm.lines.append(f"{result} = {self._sequence(lanes, arm)}")
            ctx.lines += [prepare, f"{result} = {self._helper(NONES)}"]
            element = gen._tmp_name()
            out = _Lanes(element, {element: result}, lanes.fact)
        ctx.lines.append(f"if {arm.guard}:")
        ctx.lines += _ind(arm.lines)
        return False, out, True

    def _vec_select(self, expr: N.Select, ctx: _Context,
                    ring: bool) -> _Lanes:
        gen = self.gen
        cond = self._vec(expr.cond, ctx, truth=True)
        flags = gen._tmp_name()
        at = len(ctx.lines)
        # Int arms may come deferred: the merge is converted below.
        is_int = self._is_int(expr.then) and self._is_int(expr.otherwise)
        defer = is_int and isinstance(expr.ctype, (IntType, PointerType))
        t_gathered, then, t_flags = self._vec_arm(expr.then, ctx, flags,
                                                  True, defer)
        o_gathered, other, o_flags = self._vec_arm(expr.otherwise, ctx,
                                                   flags, False, defer)
        inputs: Dict[str, str] = {}
        if t_flags or o_flags:
            # An arm's guard or gather reads the condition's lanes.
            ctx.lines.insert(at, f"{flags} = {self._sequence(cond, ctx)}")
            test = gen._tmp_name()
            inputs[test] = flags
        else:
            test = cond.src
            inputs.update(cond.inputs)
        parts = []
        for gathered, lanes in ((t_gathered, then), (o_gathered, other)):
            if gathered:
                taker = gen._tmp_name()
                ctx.lines.append(f"{taker} = iter({lanes.src})")
                parts.append(f"next({taker})")
            else:
                parts.append(lanes.src)
                inputs.update(lanes.inputs)
        merged = _Lanes(f"({parts[0]} if {test} else {parts[1]})", inputs,
                        intfacts.join(then.fact, other.fact))
        if t_gathered or o_gathered:
            # The iterators step once per lane, in lane order: settle
            # the merge now, before anything can evaluate it lazily.
            element = gen._tmp_name()
            merged = _Lanes(element,
                            {element: self._materialize(merged, ctx)},
                            merged.fact)
        if defer or not (self._converted(expr.then, expr.ctype)
                         and self._converted(expr.otherwise, expr.ctype)):
            merged = self._convert(
                merged, expr.ctype, ctx, is_int,
                self._is_float(expr.then)
                and self._is_float(expr.otherwise), ring)
        return self._uniform(merged, ctx)

    # -- whole statements --------------------------------------------------

    def _charge_lines(self, first: list, last: list) -> List[str]:
        """Accounting of a statement that ran in bulk: ``first`` (its
        length), every reached scalar fill in lane order, ``last``."""
        gen = self.gen
        if not self.costed:
            return []
        always, reached, dynamic = list(first), [], False
        for ctx, items in self.fills:
            if ctx.guard is None:
                always += items
            elif ctx is self.value_ctx:
                reached += items
            else:
                dynamic = True
        if not dynamic:
            # Fills of the mask (or an unmasked statement) belong to
            # lane 0; a masked value's to its first active lane.
            if not reached:
                return gen._cost_lines(always + last)
            return (gen._cost_lines(always)
                    + [f"if {self.value_ctx.guard}:"]
                    + _ind(gen._cost_lines(reached))
                    + gen._cost_lines(last))
        order = self._helper(fill_order)
        which = gen._tmp_name()
        lines = gen._cost_lines(list(first))
        lines.append(f"for {which} in {order}("
                     + ", ".join(ctx.key for ctx, _ in self.fills) + "):")
        for position, (_, items) in enumerate(self.fills):
            keyword = "if" if position == 0 else "elif"
            lines.append(f"    {keyword} {which} == {position}:")
            lines += _ind(_ind(gen._cost_lines(items)))
        return lines + gen._cost_lines(last)

    def _instruction_lines(self) -> List[str]:
        if not self.costed:
            return []
        events = self.gen._bind(
            self.env, tuple(vector_instructions(self.stmt)))
        return [f"_cy = _vx(_cy, {events}, {self.tl})"]

    def assign_lines(self, lane_lines: List[str]) -> List[str]:
        stmt, gen, tl = self.stmt, self.gen, self.tl
        target = stmt.target
        length_src, length_items, self.length_fact = \
            self._scalar(target.length, as_int=True)
        root = _Context(f"range({tl})", tl, True, "0")
        self.value_ctx = root
        access = self._access(target)
        active = None
        if stmt.mask is None:
            values = self._materialize(
                self._target_lanes(stmt.value, root), root)
        else:
            values = gen._tmp_name()
            flags = self._materialize(
                self._vec(stmt.mask, root, truth=True), root)
            active = gen._tmp_name()
            compress = self._helper(itertools.compress)
            root.lines.append(
                f"{active} = list({compress}(range({tl}), {flags}))")
            key = f"({tl} + {active}[0] if {active} else None)"

            def contexts(gather: bool):
                if gather:
                    return _Context(active, f"len({active})", False, tl,
                                    guard=active, key=key), None
                return _Context(root.index, tl, True, tl, guard=active,
                                key=key), None

            ctx, _, lanes, gather = self._reached(
                root, self._target_nofault(stmt.value), contexts,
                lambda ctx: self._target_lanes(stmt.value, ctx))
            self.value_ctx = ctx
            ctx.lines.append(f"{values} = {self._sequence(lanes, ctx)}")
            if ctx.lazy or gather:
                root.lines += [f"{values} = ()", f"if {active}:"]
                root.lines += _ind(ctx.lines)
            else:
                root.lines += ctx.lines
        base = gen._tmp_name()
        base_src, base_items, _ = self._scalar(target.addr, as_int=True)
        root.lines.append(f"{base} = {base_src}")
        if active is None:
            root.lines.append(f"{access}.check({self.data}, {base}, 0, "
                              f"{tl} - 1)")
            store = f"{access}.store({self.data}, {base}, {tl}, {values})"
        else:
            root.lines += [f"if {active}:",
                           f"    {access}.check({self.data}, {base}, "
                           f"{active}[0], {active}[-1])"]
            store = (f"{access}.store_active({self.data}, {base}, {tl}, "
                     f"{active}, {values}, {self.value_ctx.dense})")
        body = [f"{tl} = {length_src}", f"if {tl} > 0:"]
        body += _ind(self.eager + root.lines)
        commit = self._charge_lines(length_items, base_items)
        commit.append(store)
        commit += self._instruction_lines()
        return self._wrap(body, commit, lane_lines)

    def _wrap(self, body: List[str], commit: List[str],
              lane_lines: List[str]) -> List[str]:
        """Try ``body`` — no side effects, ending inside its ``if
        length > 0:`` — then ``commit``; or, when anything in the body
        raised or the length is not positive, the oracle's routine
        (``lane_lines``), which decides what that means."""
        done = self.gen._tmp_name()
        lines = [f"{done} = 0"]
        if self.costed and self.key_locals:
            lines.append(" = ".join(self.key_locals) + " = None")
        lines.append("try:")
        lines += _ind(body + [f"    {done} = 1"])
        lines += ["except Exception:", f"    {done} = 0",
                  f"if {done}:"] + _ind(commit)
        lines += ["else:"] + _ind(lane_lines)
        return lines

    def _target_nofault(self, value: N.Expr) -> bool:
        return self._nofault(value) and not self._int_conv_faults(
            self.stmt.target.ctype, value)

    def _target_lanes(self, value: N.Expr, ctx: _Context) -> _Lanes:
        """The value's lanes as the store will write them."""
        ctype = self.stmt.target.ctype
        if isinstance(ctype, FloatType):
            # Packing a float lane converts and rounds it — an int
            # lane too, so a cast the store repeats is the store's.
            if isinstance(value, N.Cast) and self._is_int(value.operand) \
                    and isinstance(value.ctype, FloatType) \
                    and value.ctype.sizeof() >= ctype.sizeof():
                value = value.operand
            lanes = self._vec(value, ctx)
        else:
            is_int = self._is_int(value)
            lanes = self._convert(self._vec(value, ctx, ring=is_int),
                                  ctype, ctx, is_int, False)
        self.proved = lanes.fact
        return lanes

    def reduce_lines(self, lane_lines: List[str]) -> List[str]:
        stmt, gen, tl = self.stmt, self.gen, self.tl
        target = stmt.target
        op, ctype = stmt.op, target.ctype
        length_src, length_items, self.length_fact = \
            self._scalar(stmt.length, as_int=True)
        acc = gen._tmp_name()
        acc_src, acc_items, acc_fact = self._scalar(target)
        root = _Context(f"range({tl})", tl, True, "0")
        self.value_ctx = root
        ints = isinstance(ctype, (IntType, PointerType)) and \
            gen._int_valued(target) and self._is_int(stmt.value)
        lanes = self._vec(stmt.value, root, ring=ints and op == "+")
        self.proved = lanes.fact
        if op == "+" and isinstance(ctype, FloatType) \
                and ctype.sizeof() == 4 and gen._float_valued(target):
            rounder = gen._bind_shared(self.env, ("access", "f", 4),
                                       lambda: LaneAccess("f", 4, 4))
            root.lines.append(f"{acc} = {rounder}.sum("
                              f"{self._materialize(lanes, root)}, {acc})")
        else:
            if lanes.inputs:
                names = list(lanes.inputs)
                walk = lanes.inputs[names[0]] if len(names) == 1 else \
                    "zip(" + ", ".join(lanes.inputs.values()) + ")"
                root.lines.append(f"for {', '.join(names)} in {walk}:")
            else:
                root.lines.append(f"for _ in range({tl}):")
            root.lines.append(
                f"    {acc} = "
                + self._reduce_step(acc, acc_fact, lanes, ints))
        body = [f"{tl} = {length_src}", f"{acc} = {acc_src}",
                f"if {tl} > 0:"]
        body += _ind(self.eager + root.lines)
        commit = self._charge_lines(length_items + acc_items, [])
        commit += self._instruction_lines()
        sym = target.sym
        commit += gen._gen_write_lines(
            sym, acc, self.env,
            pre_converted=gen._same_ctype(ctype, sym.ctype))
        gen._cost_sync(commit)  # the write's own event stays in here
        return self._wrap(body, commit, lane_lines)

    def _reduce_step(self, acc: str, acc_fact: Optional[IntFact],
                     lanes: _Lanes, ints: bool) -> str:
        """``acc`` combined with one lane, converted to the target's
        type — strictly sequential, rounding at every step."""
        stmt, gen = self.stmt, self.gen
        op, ctype = stmt.op, stmt.target.ctype
        if ints:
            # A sum's lanes may come deferred: it is wrapped here.
            return gen._settle(*intfacts.binop(
                op, acc, acc_fact, lanes.src, lanes.fact), ctype,
                site="vector")[0]
        raw = f"{op}({acc}, {lanes.src})" if op in ("min", "max") \
            else f"({acc} {op} {lanes.src})"
        if op in ("min", "max") and self._converted(stmt.value, ctype) \
                and gen._same_ctype(ctype, stmt.target.sym.ctype):
            return raw  # one of two values of the type already
        if isinstance(ctype, FloatType):
            if ctype.sizeof() == 4:
                # Unguarded round trip: a finite overflow raises and
                # the oracle's routine yields the infinity.
                pack = self._helper(_F32_PACK)
                unpack = self._helper(_F32_UNPACK)
                return f"{unpack}({pack}({raw}))[0]"
            if gen._float_valued(stmt.target) or \
                    self._is_float(stmt.value):
                return raw
            return f"float({raw})"
        if isinstance(ctype, (IntType, PointerType)):
            return gen._settle(f"int({raw})", None, ctype,
                               site="vector")[0]
        return raw
