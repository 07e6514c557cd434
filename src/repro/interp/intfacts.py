"""What the code generators know about an integer sub-expression.

The oracle wraps the result of **every** integer operator to the
operator's type.  Both generators (:mod:`repro.interp.bytecode`,
:mod:`repro.interp.vectorgen`) emit that wrap only where it can change
a value somebody observes; this module is the one statement of when
that is.  An :class:`IntFact` describes the Python int an emitted
source evaluates to: an **interval** it lies in (bottom-up from
constants, masks, comparisons, shifts and interval arithmetic; on the
scalar side also a DO variable between constant bounds), and whether
it is **exact** — *equals* the oracle's value — or only congruent to
it modulo 2**32, its wrap *deferred*.  Every C integer type here is at
most 32 bits wide, so the ring operators (:data:`RING_OPS`) cannot
tell the difference; every other consumer is an *observer* and must
be handed an exact value.

:func:`settle`, called wherever the oracle converts, emits nothing
when the interval fits the type (*proved*), nothing for a ring
consumer at 32 bits (*deferred*), and the mask form otherwise
(*emitted* — all it ever does when it knows nothing: ``None`` stands
for an exact int of unknown size).  :func:`ring` wraps its operands
first when a result could leave ``[-LIMIT, LIMIT]``, so no deferred
chain grows a big integer.
"""

from __future__ import annotations

import operator
import re
from typing import NamedTuple, Optional, Tuple

from ..frontend.ctypes_ import _INT_KINDS, INT, CType, IntType, PointerType

#: No emitted source evaluates to an int beyond this (2**31 * 2**31).
LIMIT = 1 << 62

#: Operators whose result modulo 2**32 depends on their operands
#: modulo 2**32 only (``<<`` in its left operand; its count is masked).
RING_OPS = frozenset(("+", "-", "*", "&", "|", "^", "<<"))
#: What both generators spell inline over two known ints (:func:`binop`).
INLINE_OPS = RING_OPS | {">>", "min", "max"}
_CMP_OPS = frozenset(("==", "!=", "<", ">", "<=", ">="))
_FOLD = {"+": operator.add, "-": operator.sub, "*": operator.mul,
         "&": operator.and_, "|": operator.or_, "^": operator.xor,
         "<<": operator.lshift}
_LITERAL = re.compile(r"\(?(-?\d+)\)?")


class IntFact(NamedTuple):
    lo: int
    hi: int
    exact: bool = True


BIT = IntFact(0, 1)
_POINTER = IntFact(0, (1 << 32) - 1)
_HELD = {kind: IntFact(held.min_value(), held.max_value())
         for kind in _INT_KINDS for held in [IntType(kind=kind)]}


def of_type(ctype: CType) -> Optional[IntFact]:
    """Any value of an integer or pointer type (None for the rest)."""
    if isinstance(ctype, PointerType):
        return _POINTER
    return _HELD.get(getattr(ctype, "kind", None))


#: An operand :func:`ring` wrapped to keep its result inside LIMIT.
_INT32 = of_type(INT)._replace(exact=False)


def fits(fact: Optional[IntFact], ctype: CType) -> bool:
    held = of_type(ctype)
    return None not in (fact, held) and \
        held.lo <= fact.lo and fact.hi <= held.hi


def join(a: Optional[IntFact], b: Optional[IntFact]) -> Optional[IntFact]:
    if a is None or b is None:
        return None
    return IntFact(min(a.lo, b.lo), max(a.hi, b.hi), a.exact and b.exact)


def literal(value: int) -> str:
    return repr(value) if value >= 0 else f"({value!r})"


def _wrap_src(src: str, ctype: CType) -> str:
    """Source wrapping the Python int ``src`` to ``ctype``'s width —
    the mask form."""
    if isinstance(ctype, PointerType):
        return f"({src} & 4294967295)"
    bits = ctype.sizeof() * 8
    mask = (1 << bits) - 1
    if not ctype.signed:
        return f"({src} & {mask})"
    half = 1 << (bits - 1)
    return f"((({src} & {mask}) ^ {half}) - {half})"


def interval(op: str, a: Optional[IntFact],
             b: Optional[IntFact]) -> Optional[IntFact]:
    """Where Python's ``a op b`` lies (C's truncating ``/`` and ``%``;
    shift counts already in 0..31), None when that is not known."""
    if op in _CMP_OPS:
        return BIT
    if op == "&":
        tops = [x.hi for x in (a, b) if x is not None and x.lo >= 0]
        if tops:
            return IntFact(0, min(tops))
    if a is None or b is None:
        return None
    if op == "+":
        return IntFact(a.lo + b.lo, a.hi + b.hi)
    if op == "-":
        return IntFact(a.lo - b.hi, a.hi - b.lo)
    if op in ("*", "<<"):
        if op == "<<":
            b = IntFact(1 << b.lo, 1 << b.hi)
        corners = [x * y for x in a[:2] for y in b[:2]]
        return IntFact(min(corners), max(corners))
    if op in ("&", "|", "^"):
        # The least 2**k with -2**k <= every bound < 2**k.
        top = 1 << max((v if v >= 0 else ~v).bit_length()
                       for v in a[:2] + b[:2])
        return IntFact(-top if a.lo < 0 or b.lo < 0 else 0, top - 1)
    if op == ">>":
        return IntFact(a.lo >> (b.lo if a.lo < 0 else b.hi),
                       a.hi >> (b.hi if a.hi < 0 else b.lo))
    if op in ("min", "max"):
        pick = min if op == "min" else max
        return IntFact(pick(a.lo, b.lo), pick(a.hi, b.hi))
    if op in ("/", "%"):
        top = max(abs(a.lo), abs(a.hi))
        if op == "%":
            top = min(top, max(abs(b.lo), abs(b.hi), 1) - 1)
        return IntFact(-top if a.lo < 0 or (op == "/" and b.lo < 0) else 0,
                       top if a.hi > 0 or (op == "/" and b.lo < 0) else 0)
    return None


def _count(src: str, fact: Optional[IntFact]) -> Tuple[str, IntFact]:
    """A shift count: the oracle masks it to 0..31."""
    if fact is not None and 0 <= fact.lo and fact.hi <= 31:
        return src, fact
    return f"({src} & 31)", IntFact(0, 31)


def ring(op: str, left: str, lf: Optional[IntFact], right: str,
         rf: Optional[IntFact]) -> Tuple[str, Optional[IntFact]]:
    """Source and interval of ring operator ``op`` before the oracle's
    conversion; the operands may be deferred.  They are wrapped first
    when the result could leave ``[-LIMIT, LIMIT]``; literal operands
    fold."""
    if op == "<<":
        right, rf = _count(right, rf)
    raw = interval(op, lf, rf)
    if raw is not None and not -LIMIT <= raw.lo <= raw.hi <= LIMIT:
        if not fits(lf, INT):
            left, lf = _wrap_src(left, INT), _INT32
        if not fits(rf, INT):
            right, rf = _wrap_src(right, INT), _INT32
        raw = interval(op, lf, rf)
    a, b = _LITERAL.fullmatch(left), _LITERAL.fullmatch(right)
    if a and b and raw is not None:
        value = _FOLD[op](int(a.group(1)), int(b.group(1)))
        return literal(value), IntFact(value, value)
    return f"({left} {op} {right})", raw


def binop(op: str, left: str, lf: Optional[IntFact], right: str,
          rf: Optional[IntFact]) -> Tuple[str, Optional[IntFact]]:
    """Source and interval of one of :data:`INLINE_OPS` over two ints
    before the oracle's conversion.  The left operand of a ring
    operator and every right operand (a shift count is masked) may be
    deferred; the others are observed."""
    if op in RING_OPS:
        return ring(op, left, lf, right, rf)
    if op == ">>":
        right, rf = _count(right, rf)
        return f"({left} >> {right})", interval(op, lf, rf)
    return f"{op}({left}, {right})", interval(op, lf, rf)


def negated(op: str, src: str,
            fact: Optional[IntFact]) -> Tuple[str, Optional[IntFact]]:
    """``neg`` and ``bnot`` are ring operators too: ``0 - x`` and
    ``-1 - x``."""
    base = 0 if op == "neg" else -1
    return ring("-", literal(base), IntFact(base, base), src, fact)


def settle(src: str, raw: Optional[IntFact], ctype: CType,
           ring: bool = False) -> Tuple[str, IntFact, str]:
    """The oracle converts the int ``src`` (in ``raw``) to ``ctype``
    here: the source that must be emitted for a consumer that is a
    ring operator (``ring``) or an observer, the fact it leaves, and
    which of ``proved`` / ``deferred`` / ``emitted`` that was."""
    if fits(raw, ctype):
        return src, IntFact(raw.lo, raw.hi), "proved"
    if ring and raw is not None and ctype.sizeof() == 4:
        return src, IntFact(raw.lo, raw.hi, False), "deferred"
    return _wrap_src(src, ctype), of_type(ctype), "emitted"
