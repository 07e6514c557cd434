"""Soundness of ``repro.interp.intfacts`` on its own.

Both code generators hand the helper a source and a fact per operand
and emit what it returns; this file does the same for random integer
expression trees over random operand values, with the protocol the
module's docstring states (ring operators take their operands
deferred, every other consumer takes them exact), and evaluates every
emitted sub-source with ``eval``.  Against the oracle's own stepwise
definition (``_apply_binop`` / ``_apply_unop`` / ``_convert_value``):

* the concrete value lies in the computed interval;
* an *exact* source equals the oracle's value, a deferred one wraps to
  it — and the root, read by an observer, is exact;
* no source evaluates to an int beyond ``LIMIT`` (the raw operator
  results before a wrap included).
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.frontend.ctypes_ import (CHAR, INT, SHORT, UCHAR, UINT,
                                    PointerType)
from repro.interp import intfacts
from repro.interp.interpreter import (InterpreterError, _apply_binop,
                                      _apply_unop, _convert_value)
from repro.interp.intfacts import LIMIT, IntFact

POINTER = PointerType(base=INT)
TYPES = (INT, INT, INT, UINT, SHORT, CHAR, UCHAR, POINTER)
EDGES = (-(1 << 31), (1 << 31) - 1, 1 << 31, (1 << 32) - 1, 46341, -46341,
         65535, 65536, -65536, 1 << 30, 32767, -32768, 255, 31, 32, 1, 0,
         -1)
COMPARISONS = ("==", "!=", "<", ">", "<=", ">=")
OPERATORS = tuple(intfacts.RING_OPS) * 3 + COMPARISONS + (
    ">>", ">>", "/", "%", "min", "max")


def _truncating(op):
    def apply(a, b):
        q = abs(a) // abs(b)
        q = q if (a >= 0) == (b >= 0) else -q
        return q if op == "/" else a - q * b
    return apply


EVAL_GLOBALS = {"__builtins__": {"min": min, "max": max},
                "_div": _truncating("/"), "_mod": _truncating("%")}


@st.composite
def leaves(draw, names):
    """A constant, or a variable: its value, and what the generator
    knows of it — nothing, or an interval it lies in."""
    if draw(st.integers(0, 3)) == 0:
        return ("const", draw(st.sampled_from(EDGES) | st.integers(-9, 9)))
    lo, hi = sorted((draw(st.sampled_from(EDGES)),
                     draw(st.sampled_from(EDGES))))
    value = draw(st.sampled_from((lo, hi)) | st.integers(lo, hi))
    name = f"v{len(names)}"
    names[name] = value
    known = draw(st.integers(0, 5)) > 0
    return ("var", name, IntFact(lo, hi) if known else None)


@st.composite
def trees(draw, names, depth):
    if depth <= 0 or draw(st.integers(0, 5)) == 0:
        return draw(leaves(names))
    below = trees(names, depth - 1)
    ctype = draw(st.sampled_from(TYPES))
    pick = draw(st.integers(0, 9))
    if pick <= 5:
        return ("bin", draw(st.sampled_from(OPERATORS)), draw(below),
                draw(below), ctype)
    if pick == 6:
        return ("un", draw(st.sampled_from(("neg", "bnot", "not"))),
                draw(below), ctype)
    if pick <= 8:
        return ("cast", draw(below), ctype)
    return ("select", draw(below), draw(below), draw(below), ctype)


def oracle(node, names):
    """The tree by the oracle's stepwise definition."""
    kind = node[0]
    if kind == "const":
        return node[1]
    if kind == "var":
        return names[node[1]]
    if kind == "bin":
        _, op, left, right, ctype = node
        return _apply_binop(op, oracle(left, names), oracle(right, names),
                            ctype)
    if kind == "un":
        return _apply_unop(node[1], oracle(node[2], names), node[3])
    if kind == "cast":
        return _convert_value(oracle(node[1], names), node[2])
    _, cond, then, other, ctype = node
    return _convert_value(
        oracle(then if oracle(cond, names) else other, names), ctype)


class Emitter:
    """The generators' side of the contract, and the checks on every
    source that passes through it."""

    def __init__(self, names):
        self.names = names
        self.sources = 0

    def value(self, src, fact):
        """``src`` evaluated and checked against ``fact`` (None: it
        divides by zero — an arm no Select takes)."""
        try:
            got = eval(src, EVAL_GLOBALS, self.names)  # noqa: S307
        except ZeroDivisionError:
            return None
        self.sources += 1
        if fact is not None:
            assert fact.lo <= got <= fact.hi, (src, got, fact)
            assert -LIMIT <= got <= LIMIT, (src, got)
        return got

    def settled(self, node, src, raw, ctype, ring):
        """``src`` (checked against ``raw``) through the conversion:
        the emitted source is exact, or — only for a ring consumer —
        wraps to the oracle's value."""
        self.value(src, raw)
        src, fact, outcome = intfacts.settle(src, raw, ctype, ring)
        assert fact.exact or (ring and outcome == "deferred")
        got = self.value(src, fact)
        if got is None:
            return src, fact
        want = oracle(node, self.names)
        if fact.exact:
            assert got == want, (src, got, want, outcome)
        else:
            assert _convert_value(got, ctype) == want, (src, got, want)
        return src, fact

    def emit(self, node, ring=False):
        kind = node[0]
        if kind == "const":
            return intfacts.literal(node[1]), IntFact(node[1], node[1])
        if kind == "var":
            return node[1], node[2]
        ctype = node[-1]
        if kind == "bin":
            _, op, left, right, _ = node
            if op in intfacts.INLINE_OPS:
                a, af = self.emit(left, op in intfacts.RING_OPS)
                b, bf = self.emit(right, op not in ("min", "max"))
                return self.settled(
                    node, *intfacts.binop(op, a, af, b, bf), ctype, ring)
            a, af = self.emit(left)
            b, bf = self.emit(right)
            src = {"/": f"_div({a}, {b})", "%": f"_mod({a}, {b})"}.get(
                op, f"(1 if {a} {op} {b} else 0)")
            raw = intfacts.interval(op, af, bf)
            if op in COMPARISONS:
                self.value(src, raw)
                return src, raw
            return self.settled(node, src, raw, ctype, ring)
        if kind == "un":
            _, op, operand, _ = node
            if op == "not":
                a, _ = self.emit(operand)
                return f"(0 if {a} else 1)", intfacts.BIT
            return self.settled(
                node, *intfacts.negated(op, *self.emit(operand, True)),
                ctype, ring)
        if kind == "cast":
            return self.settled(node, *self.emit(node[1], True), ctype,
                                ring)
        _, cond, then, other, _ = node
        c, _ = self.emit(cond)
        a, af = self.emit(then, True)
        b, bf = self.emit(other, True)
        return self.settled(node, f"({a} if {c} else {b})",
                            intfacts.join(af, bf), ctype, ring)


@st.composite
def cases(draw):
    names = {}
    return draw(trees(names, draw(st.integers(1, 5)))), names


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(case=cases())
def test_emitted_sources_equal_the_stepwise_definition(case):
    tree, names = case
    try:
        want = oracle(tree, names)
    except InterpreterError:  # a zero divisor somewhere
        assume(False)
    emitter = Emitter(names)
    src, fact = emitter.emit(tree)
    assert emitter.value(src, fact) == want


def test_what_each_outcome_means():
    chain, raw = intfacts.ring("*", "x", intfacts.of_type(INT), "y",
                               intfacts.of_type(INT))
    assert intfacts.settle(chain, raw, INT, ring=True)[1:] == (
        IntFact(raw.lo, raw.hi, False), "deferred")
    assert intfacts.settle(chain, raw, INT)[2] == "emitted"
    assert intfacts.settle(chain, raw, SHORT, ring=True)[2] == "emitted"
    # A mask below 2**31 is its own wrap, whatever it masks.
    masked, raw = intfacts.ring("&", chain, raw, "7", IntFact(7, 7))
    assert intfacts.settle(masked, raw, INT) == (
        masked, IntFact(0, 7), "proved")
    assert intfacts.interval("&", None, IntFact(0, 255)) == IntFact(0, 255)
    # Nothing known: the literal per-operator wrap.
    assert intfacts.settle("z", None, UINT, ring=True) == (
        "(z & 4294967295)", intfacts.of_type(UINT), "emitted")


def test_the_magnitude_bound_wraps_operands_first():
    wide = IntFact(-(1 << 47), 1 << 47, False)
    src, raw = intfacts.ring("*", "a", wide, "b", wide)
    assert src.count("4294967295") == 2 and raw.hi == LIMIT
    # An operand that already fits 32 bits is left alone.
    src, raw = intfacts.ring("*", "a", wide, "65536", IntFact(65536, 65536))
    assert src.count("4294967295") == 1 and raw.hi < LIMIT


def test_literal_operands_fold():
    assert intfacts.ring("+", "8208", IntFact(8208, 8208), "4",
                         IntFact(4, 4)) == ("8212", IntFact(8212, 8212))
    assert intfacts.negated("neg", "5", IntFact(5, 5)) == (
        "(-5)", IntFact(-5, -5))
    # Not a literal: a source is never dropped for its interval alone.
    assert intfacts.ring("&", "f()", None, "0", IntFact(0, 0)) == (
        "(f() & 0)", IntFact(0, 0))
