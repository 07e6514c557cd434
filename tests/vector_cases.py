"""Hand-built vector IL for the engine parity tests.

The bulk lowering of vector statements (``repro.interp.vectorgen``)
must be an unobservable shortcut through the tree oracle's per-lane
definition.  :class:`VectorProgram` builds one-function programs
directly in IL — sections at any base, stride and element type,
masks, selects, broadcast scalars in registers and in memory — and
:func:`observe` reports everything a run can show: outcome (a fault
as its type and message), stdout, steps, the final memory image, and
under a cost model its cycles, counters and breakdown.  ``CASES`` pins
one construct each; ``tests/test_bytecode_engine.py`` runs them
uninstrumented, ``tests/test_costed_codegen.py`` under a
:class:`TitanCostModel`, ``tests/test_vector_bulk.py`` draws random
ones.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence

from repro.frontend.ctypes_ import (CHAR, DOUBLE, FLOAT, INT, SHORT, UCHAR,
                                    UINT, ArrayType, CType, PointerType)
from repro.frontend.symtab import SymbolTable
from repro.il import nodes as N
from repro.interp import make_interpreter
from repro.obs.metrics import REGISTRY
from repro.titan.config import TitanConfig
from repro.titan.cost_model import TitanCostModel

#: Small image: out-of-range addresses are a few bytes away.
MEMORY = 1 << 16
ELEMS = 48

ARRAYS = {"fa": FLOAT, "fb": FLOAT, "da": DOUBLE, "ia": INT, "ib": INT,
          "sa": SHORT, "ca": CHAR, "uc": UCHAR, "ua": UINT}
#: Scalars in memory (a read is a ``load`` event) and in registers.
GLOBAL_SCALARS = {"gf": FLOAT, "gd": DOUBLE, "gi": INT}
REGISTERS = {"rf": FLOAT, "rd": DOUBLE, "ri": INT, "rc": CHAR}


class VectorProgram:
    """``main`` over the arrays and scalars above; ``unset`` is a
    register nothing ever writes."""

    def __init__(self):
        self.table = SymbolTable()
        self.syms = {}
        self.globals = []
        for name, ctype in ARRAYS.items():
            sym = self.table.declare(
                name, ArrayType(base=ctype, length=ELEMS), "global")
            self.syms[name] = sym
            self.globals.append(N.GlobalVar(sym=sym))
        for name, ctype in GLOBAL_SCALARS.items():
            sym = self.table.declare(name, ctype, "global")
            self.syms[name] = sym
            self.globals.append(N.GlobalVar(sym=sym))
        self.locals = []
        for name, ctype in {**REGISTERS, "unset": FLOAT}.items():
            sym = self.table.declare(name, ctype)
            self.syms[name] = sym
            self.locals.append(sym)

    # -- expressions -------------------------------------------------------

    def var(self, name: str) -> N.VarRef:
        sym = self.syms[name]
        return N.VarRef(sym=sym, ctype=sym.ctype)

    def addr(self, array: str, byte_offset: int = 0) -> N.Expr:
        sym = self.syms[array]
        pointer = PointerType(base=sym.ctype.base)
        base = N.AddrOf(sym=sym, ctype=pointer)
        if not byte_offset:
            return base
        return N.BinOp(op="+", left=base,
                       right=N.int_const(byte_offset), ctype=pointer)

    def section(self, array: str, start: int = 0, stride: int = 1,
                ctype: Optional[CType] = None, skew: int = 0,
                length: int = 0) -> N.Section:
        """Element ``start`` of ``array`` onward; ``skew`` extra bytes
        (an unaligned base); ``ctype`` reinterprets the bytes."""
        elem = self.syms[array].ctype.base
        return N.Section(
            addr=self.addr(array, start * elem.sizeof() + skew),
            length=N.int_const(length), stride=stride,
            ctype=ctype or elem)

    def at(self, address: int, ctype: CType, stride: int = 1) -> N.Section:
        """A section at an absolute byte address."""
        return N.Section(addr=N.int_const(address),
                         length=N.int_const(0), stride=stride,
                         ctype=ctype)

    # -- statements --------------------------------------------------------

    def assign(self, target: N.Section, value: N.Expr, length,
               mask: Optional[N.Expr] = None) -> N.VectorAssign:
        target.length = length if isinstance(length, N.Expr) \
            else N.int_const(length)
        return N.VectorAssign(target=target, value=value, mask=mask)

    def reduce(self, target: str, op: str, value: N.Expr,
               length: int) -> N.VectorReduce:
        return N.VectorReduce(target=self.var(target), op=op,
                              value=value, length=N.int_const(length))

    def program(self, body: Sequence[N.Stmt],
                registers: Optional[Dict[str, float]] = None,
                result: Optional[N.Expr] = None) -> N.ILProgram:
        init = [N.Assign(target=self.var(name),
                         value=const(value, self.syms[name].ctype))
                for name, value in (registers or {}).items()]
        tail = [N.Return(value=result or N.int_const(0))]
        fn = N.ILFunction(name="main", params=[], ret_type=INT,
                          body=init + list(body) + tail,
                          local_syms=list(self.locals))
        return N.ILProgram(functions={"main": fn}, globals=self.globals,
                           symtab=self.table)


def const(value, ctype: CType) -> N.Const:
    return N.Const(value=value, ctype=ctype)


def binop(op: str, left: N.Expr, right: N.Expr, ctype: CType) -> N.BinOp:
    return N.BinOp(op=op, left=left, right=right, ctype=ctype)


def select(cond: N.Expr, then: N.Expr, otherwise: N.Expr,
           ctype: CType) -> N.Select:
    return N.Select(cond=cond, then=then, otherwise=otherwise,
                    ctype=ctype)


def iota(start: int = 0) -> N.Iota:
    return N.Iota(start=N.int_const(start), ctype=INT)


# -- running ---------------------------------------------------------------

#: Where the model's total starts.  Latencies are whole cycles, so
#: only a fractional total can show an addition made in the wrong
#: order, and only a small one makes it likely: from 1/3, adding
#: 11, 1, 1, 11 and adding 1, 1, 11, 11 give different floats.
START_CYCLES = 1.0 / 3.0


def default_data() -> Dict[str, List]:
    """Deterministic, sign-mixed contents for every array."""
    data = {}
    for name, ctype in ARRAYS.items():
        if ctype in (FLOAT, DOUBLE):
            data[name] = [((k * 7) % 11 - 5) * 0.75 for k in range(ELEMS)]
        else:
            data[name] = [(k * 5) % 13 - 6 for k in range(ELEMS)]
    return data


#: Where a 32-bit wrap changes a value: the type's ends, the square
#: root of 2**31, the 16-bit edge.  A chain over the small values above
#: never overflows, so a wrap deferred past an observer would not show.
BOUNDARY_INTS = (-(1 << 31), (1 << 31) - 1, 1 << 31, -(1 << 31) - 1,
                 46341, -46341, 65535, 65536, -65536, 1 << 30, -(1 << 30),
                 (1 << 32) - 1, 3, -1, 0)


def boundary_data() -> Dict[str, List]:
    """Integer arrays cycling through :data:`BOUNDARY_INTS` (wrapped
    to the element type); float arrays as in :func:`default_data`."""
    data = default_data()
    for at, (name, ctype) in enumerate(ARRAYS.items()):
        if ctype not in (FLOAT, DOUBLE):
            data[name] = [
                ctype.wrap(BOUNDARY_INTS[(k * 7 + at * 4) % 15] + k % 3)
                for k in range(ELEMS)]
    return data


def observe(program: N.ILProgram, engine: str, costed: bool,
            data: Optional[Dict[str, List]] = None,
            scalars: Optional[Dict[str, float]] = None) -> dict:
    """Everything one run shows."""
    model = None
    if costed:
        model = TitanCostModel(TitanConfig(processors=2))
        model.cycles = START_CYCLES
    interp = make_interpreter(program, engine=engine, cost_hook=model,
                              memory_size=MEMORY)
    present = {g.sym.name for g in program.globals}
    for name, values in {**default_data(), **(data or {})}.items():
        if name in present:
            interp.set_global_array(name, values)
    for name, value in (scalars or {}).items():
        interp.set_global_scalar(name, value)
    try:
        outcome = interp.run("main")
    except Exception as exc:  # noqa: BLE001 — type and message compared
        outcome = (type(exc).__name__, str(exc))
    seen = {"outcome": outcome, "stdout": interp.stdout,
            "steps": interp.steps, "memory": bytes(interp.memory.data)}
    if model is not None:
        seen.update(cycles=model.cycles, counters=model.counters,
                    breakdown=model.breakdown)
    return seen


def bulk_misses() -> float:
    return REGISTRY.value("titancc_vector_bulk_miss_total")


def lowerings() -> Dict[tuple, float]:
    """``(form, reason) -> count`` of
    ``titancc_vector_lowering_total``."""
    return {(dict(key)["form"], dict(key)["reason"]): metric.value
            for name, key, metric in REGISTRY
            if name == "titancc_vector_lowering_total"}


def assert_parity(program: N.ILProgram, costed: bool,
                  data: Optional[Dict[str, List]] = None,
                  scalars: Optional[Dict[str, float]] = None) -> dict:
    """The fast engine's run equals the oracle's in every field;
    returns the fast observation plus ``misses`` (bulk statements that
    went through the oracle's routine) and ``forms`` (lowerings
    generated)."""
    oracle = observe(program, "tree", costed, data, scalars)
    misses, forms = bulk_misses(), lowerings()
    fast = observe(program, "compiled", costed, data, scalars)
    for field, value in oracle.items():
        if field == "memory":
            assert fast[field] == value, "final memory image differs"
        elif not (isinstance(value, float) and math.isnan(value)):
            assert fast[field] == value, (field, fast[field], value)
    fast["misses"] = bulk_misses() - misses
    fast["forms"] = {key: value - forms.get(key, 0)
                     for key, value in lowerings().items()
                     if value != forms.get(key, 0)}
    return fast


# -- one construct each ----------------------------------------------------


class Case:
    """``build(VectorProgram) -> ILProgram`` plus what the run must
    look like beyond equalling the oracle's: the fault's message, and
    whether the bulk form ran to the end (``misses == 0``)."""

    def __init__(self, build: Callable, fault: Optional[str] = None,
                 misses: Optional[int] = 0,
                 data: Optional[Dict[str, List]] = None,
                 scalars: Optional[Dict[str, float]] = None,
                 check: Optional[Callable] = None):
        self.build = build
        self.fault = fault
        self.misses = misses
        self.data = data
        self.scalars = scalars
        self.check = check

    def run(self, costed: bool) -> dict:
        vp = VectorProgram()
        program = self.build(vp)
        fast = assert_parity(program, costed, self.data, self.scalars)
        if self.fault is None:
            assert not isinstance(fast["outcome"], tuple), fast["outcome"]
        else:
            assert isinstance(fast["outcome"], tuple)
            assert self.fault in fast["outcome"][1], fast["outcome"]
        if self.misses is not None:
            assert fast["misses"] == self.misses
        assert set(fast["forms"]) <= {("bulk", "")}, fast["forms"]
        if self.check is not None:
            self.check(vp, program, fast)
        return fast


END = MEMORY  # one past the last byte of the image


def _floats(memory: bytes, vp: VectorProgram, program, array: str,
            count: int) -> List[float]:
    interp = make_interpreter(program, engine="tree", memory_size=MEMORY)
    interp.memory.data[:] = memory
    return interp.global_array(array, count)


def _load_oob(vp):
    # Lane 3 of the load is the first past the image.
    return vp.program([vp.assign(vp.section("fa"),
                                 vp.at(END - 12, FLOAT), 6)])


def _store_oob(vp):
    # Lanes 0..2 are stored, lane 3 faults.
    return vp.program([vp.assign(vp.at(END - 12, FLOAT),
                                 vp.section("fa", 2), 6)])


def _store_oob_check(vp, program, fast):
    stored = fast["memory"][END - 12:]
    assert stored != bytes(12)  # the prefix did land


def _masked_zero_divisor(vp):
    divisor = vp.section("ib")
    quotient = binop("/", vp.section("ia"), vp.section("ib"), INT)
    return vp.program([vp.assign(
        vp.section("ia", 16), quotient, 12,
        mask=binop("!=", divisor, N.int_const(0), INT))])


def _select_zero_divisor(vp):
    quotient = binop("%", vp.section("ia"), vp.section("ib"), INT)
    value = select(binop("!=", vp.section("ib"), N.int_const(0), INT),
                   quotient, N.int_const(-1), INT)
    return vp.program([vp.assign(vp.section("ia", 16), value, 12)])


def _masked_oob_load(vp):
    # Only lanes 0..2 are active, and only they are in range.
    return vp.program([vp.assign(
        vp.section("fa"), vp.at(END - 12, FLOAT), 6,
        mask=binop("<", iota(), N.int_const(3), INT))])


def _select_oob_load(vp):
    value = select(binop("<", iota(), N.int_const(3), INT),
                   vp.at(END - 12, FLOAT), vp.section("fb"), FLOAT)
    return vp.program([vp.assign(vp.section("fa"), value, 6)])


def _active_zero_divisor(vp):
    # ib[5] == 0 and the mask keeps it.
    quotient = binop("/", vp.section("ia"), vp.section("ib"), INT)
    return vp.program([vp.assign(
        vp.section("ia", 16), quotient, 12,
        mask=binop(">", iota(), N.int_const(1), INT))])


def _float_zero_divisor(vp):
    quotient = binop("/", vp.section("fa"), vp.section("fb"), FLOAT)
    return vp.program([vp.assign(vp.section("fa", 16), quotient, 8)])


def _f32_overflow(vp):
    # double lanes beyond float32, infinities and NaN into a float
    # section: ±inf, ±inf, NaN — through a rounding operator and
    # straight into the store.
    scaled = binop("*", vp.section("da"), const(1e30, DOUBLE), FLOAT)
    return vp.program([
        vp.assign(vp.section("fa"), scaled, 8),
        vp.assign(vp.section("fb"), vp.section("da"), 8)])


_SPECIALS = {"da": [1e30, -1e30, math.inf, -math.inf, math.nan, 1.5,
                    -0.0, 3.5e38] + [0.0] * (ELEMS - 8)}


def _f32_overflow_check(vp, program, fast):
    got = _floats(fast["memory"], vp, program, "fa", 8)
    assert got[:4] == [math.inf, -math.inf, math.inf, -math.inf]
    assert math.isnan(got[4]) and got[7] == math.inf
    plain = _floats(fast["memory"], vp, program, "fb", 8)
    assert plain[2:4] == [math.inf, -math.inf] and plain[7] == math.inf


def _overlap(vp):
    # fa[1:13] = fa[0:12] + 1: every load before any store.
    shifted = binop("+", vp.section("fa"), const(1.0, FLOAT), FLOAT)
    return vp.program([vp.assign(vp.section("fa", 1), shifted, 12)])


def _overlap_check(vp, program, fast):
    old = default_data()["fa"]
    got = _floats(fast["memory"], vp, program, "fa", 13)
    assert got[1:] == [value + 1.0 for value in old[:12]]


def _strides(vp):
    body = []
    for k, (load, store) in enumerate(((2, 1), (-1, 3), (3, -2),
                                       (-2, -1))):
        start = 0 if load > 0 else 20
        out = 24 if store > 0 else 47
        body.append(vp.assign(
            vp.section("ib", out, store),
            binop("+", vp.section("ia", start, load), N.int_const(k),
                  INT), 7))
        body.append(vp.assign(
            vp.section("da", out, store),
            binop("*", vp.section("fa", start, load),
                  const(0.5, DOUBLE), DOUBLE), 7))
    return vp.program(body)


def _unaligned(vp):
    # Floats and shorts at odd byte offsets of a char array, loaded
    # and stored.
    return vp.program([
        vp.assign(vp.section("ca", 0, ctype=FLOAT, skew=1),
                  binop("+", vp.section("ca", 16, ctype=FLOAT, skew=3),
                        const(0.25, FLOAT), FLOAT), 4),
        vp.assign(vp.section("ca", 32, 2, ctype=SHORT, skew=1),
                  vp.section("uc", 1, ctype=SHORT, skew=1), 3)])


def _empty_lengths(vp):
    return vp.program([
        vp.assign(vp.section("fa"), const(9.0, FLOAT), 0),
        vp.assign(vp.section("fa", 4), const(9.0, FLOAT), -3),
        # No lane, so no lane number: an iota's interval must not come
        # out empty (here it is a shift count).
        vp.assign(vp.section("ia"),
                  binop("<<", vp.section("ib"), iota(0), INT), 0),
        vp.reduce("rf", "+", vp.section("fb"), 0),
        vp.reduce("gf", "max", vp.section("fb"), -1)],
        registers={"rf": 2.5})


def _narrow_ints(vp):
    # 1- and 2-byte lanes wrap at their own width, signed and not;
    # unsigned int and pointer lanes at 32 bits.
    three = N.int_const(3)
    body = [
        vp.assign(vp.section("ca", 16),
                  binop("+", binop("*", vp.section("ca"), three, CHAR),
                        N.int_const(100), CHAR), 12),
        vp.assign(vp.section("uc", 16),
                  binop("-", vp.section("uc"), N.int_const(200), UCHAR),
                  12),
        vp.assign(vp.section("sa", 16),
                  binop("*", vp.section("sa"), N.int_const(9000), SHORT),
                  12),
        vp.assign(vp.section("ua", 16),
                  binop("-", vp.section("ua"), N.int_const(7), UINT), 12),
        vp.assign(vp.section("ia", 16, ctype=PointerType(base=INT)),
                  binop("+", vp.section("ia"), iota(-4),
                        PointerType(base=INT)), 12),
        # A wider value straight into narrow lanes: the store wraps.
        vp.assign(vp.section("ca", 32), vp.section("ia"), 8),
        vp.assign(vp.section("sa", 32), iota(32760), 12)]
    return vp.program(body)


def _observed_wraps(vp):
    # Chains that overflow 32 bits, each ending in something that can
    # tell a wrapped value from an unwrapped one: a comparison, a
    # shift right, a division, a remainder, min/max, a select's
    # condition, a conversion to float, narrower and unsigned
    # intermediates, an iota running past INT_MAX, a reduction.
    def ia():
        return vp.section("ia")

    def ib():
        return vp.section("ib")

    def past():
        return iota((1 << 31) - 4)

    def chain():
        return binop("-", binop("*", ia(), N.int_const(46341), INT),
                     binop("<<", ib(), N.int_const(9), INT), INT)

    body = [
        vp.assign(vp.section("ia", 16), binop(">", chain(), ib(), INT), 8),
        vp.assign(vp.section("ia", 24),
                  binop(">>", chain(), N.int_const(3), INT), 8),
        vp.assign(vp.section("ib", 16),
                  binop("/", chain(), N.int_const(7), INT), 8),
        vp.assign(vp.section("ib", 24),
                  binop("%", chain(),
                        binop("|", ia(), N.int_const(1), INT), INT), 8),
        vp.assign(vp.section("ib", 32),
                  binop("min", chain(), binop("max", ia(), chain(), INT),
                        INT), 8),
        vp.assign(vp.section("ia", 32),
                  select(binop("<<", ia(), N.int_const(31), INT), ia(),
                         ib(), INT), 8),
        vp.assign(vp.section("fa"), N.Cast(operand=chain(), ctype=FLOAT),
                  8),
        vp.assign(vp.section("da"),
                  binop("*", N.Cast(operand=chain(), ctype=DOUBLE),
                        const(0.5, DOUBLE), DOUBLE), 8),
        vp.assign(vp.section("sa", 16),
                  binop("+", N.Cast(operand=chain(), ctype=SHORT),
                        N.int_const(1), INT), 8),
        vp.assign(vp.section("ua", 16),
                  binop("/", binop("-", N.Cast(operand=ia(), ctype=UINT),
                                   N.int_const(7), UINT),
                        N.int_const(3), UINT), 8),
        vp.assign(vp.section("ua", 24),
                  binop(">>", binop("*", past(), N.int_const(2), UINT),
                        N.int_const(1), UINT), 8),
        vp.assign(vp.section("fb"),
                  N.Cast(operand=binop("+", past(), N.int_const(1), INT),
                         ctype=FLOAT), 8),
        vp.assign(vp.section("ia", 40), binop("<", past(), ia(), INT), 8),
        vp.reduce("ri", "+", chain(), 12),
        vp.reduce("gi", "max", binop("*", ia(), ia(), INT), 12),
        vp.assign(vp.section("da", 16),
                  binop("-", N.Cast(operand=vp.var("ri"), ctype=DOUBLE),
                        vp.var("gi"), DOUBLE), 2),
        vp.assign(vp.section("ib", 40),
                  binop(">", select(binop("&", ia(), N.int_const(1), INT),
                                    chain(), ib(), INT),
                        N.int_const(5), INT), 2),
        vp.assign(vp.section("ib", 42), chain(), 6)]
    return vp.program(body, registers={"ri": (1 << 31) - 2})


def _scalar_observers(vp):
    # The same in scalar code, for what C never lowers to: ``not``
    # and a Select's condition reading a chain that is zero only once
    # wrapped, a shared subexpression read by a ring operator and
    # then by an observer, and a parallel DO variable that leaves 32
    # bits when doubled — inside its range, not at its ends.
    def ri():
        return vp.var("ri")

    def chain():
        return binop("+", binop("*", ri(), N.int_const(46341), INT),
                     binop("<<", vp.var("rc"), N.int_const(20), INT), INT)

    def zero():
        return binop("*", binop("*", ri(), N.int_const(65536), INT),
                     N.int_const(65536), INT)

    def put(array, k, value):
        elem = ARRAYS[array]
        return N.Assign(
            target=N.Mem(addr=vp.addr(array, k * elem.sizeof()),
                         ctype=elem), value=value)

    step = 1 << 29
    loop = N.DoLoop(
        var=vp.syms["rc"], lo=N.int_const(0), hi=N.int_const(0),
        step=1, parallel=True, body=[N.DoLoop(
            var=vp.syms["ri"], lo=N.int_const(0),
            hi=N.int_const(3 * step), step=step, vector=True,
            body=[N.Assign(target=vp.var("gi"), value=binop(
                "+", vp.var("gi"),
                binop(">", binop("*", ri(), N.int_const(2), INT),
                      N.int_const(0), INT), INT))])])
    return vp.program([
        put("ib", 0, N.UnOp(op="not", operand=zero(), ctype=INT)),
        put("ib", 1, select(binop("<<", ri(), N.int_const(31), INT),
                            N.int_const(1), N.int_const(2), INT)),
        put("ib", 2, binop(">", select(ri(), chain(), ri(), INT),
                           N.int_const(5), INT)),
        put("ib", 3, binop(
            "+", binop("*", chain(), N.int_const(3), INT),
            binop("max", ri(), binop("*", ri(), N.int_const(46349), INT),
                  INT), INT)),
        put("ib", 4, binop(">>", chain(), binop(
            "+", N.UnOp(op="neg", operand=zero(), ctype=INT),
            N.int_const(3), INT), INT)),
        put("fa", 0, N.Cast(operand=N.UnOp(op="bnot", operand=chain(),
                                           ctype=INT), ctype=FLOAT)),
        put("sa", 0, chain()),
        put("ua", 0, binop("/", N.Cast(operand=chain(), ctype=UINT),
                           N.int_const(3), UINT)),
        loop], registers={"ri": 46342, "rc": 77})


def _minmax(vp):
    return vp.program([
        vp.reduce("rf", "min", vp.section("fa"), 12),
        vp.reduce("gf", "max", vp.section("fa", 3, 2), 9),
        vp.reduce("ri", "max", vp.section("ia"), 12),
        vp.reduce("gi", "min", binop("*", vp.section("ia"),
                                     N.int_const(3), INT), 12),
        vp.reduce("rd", "+", vp.section("fa"), 12),
        vp.reduce("gd", "min", vp.section("da", 40, -3), 12),
        vp.assign(vp.section("fb"), binop("+", vp.var("rf"),
                                          vp.var("rd"), FLOAT), 2),
        vp.assign(vp.section("ib"), vp.var("ri"), 2)],
        registers={"rf": 100.0, "ri": -100, "rd": 0.125})


def _reduce_overflow(vp):
    # The float32 running sum overflows to +inf mid-way: the per-step
    # rounding is where it happens.
    return vp.program([vp.reduce("rf", "+", vp.section("da"), 6),
                       vp.assign(vp.section("fa"), vp.var("rf"), 1)],
                      registers={"rf": 3.0e38})


def _reduce_oob(vp):
    # A float32 sum whose fourth lane is past the image, after one
    # that ran: the model holds the first sum and what the oracle
    # charged of the second.
    return vp.program([vp.reduce("rf", "+", vp.section("fa"), 12),
                       vp.reduce("rf", "+", vp.at(END - 12, FLOAT), 6)],
                      registers={"rf": 0.5})


def _lazy_scalars(vp):
    # Scalars with events under both arms — a section base computed
    # from a register (two integer operations, 1 cycle each) and
    # loads of memory-backed scalars (11 each).  Each is evaluated,
    # and charged, by the first lane that gets to it: the else arm's
    # (ia[0] < 1) and the trailing operand at lane 0, the then arm's
    # only at lane 2 — 11, 11, 1, 1, 11 cycles, which from
    # START_CYCLES is not the float that tree order (1, 1, 11, 11,
    # 11) adds up to.
    base = binop("+", vp.addr("fa"),
                 binop("*", vp.var("ri"), N.int_const(4), INT),
                 PointerType(base=FLOAT))
    moved = N.Section(addr=base, length=N.int_const(0), stride=1,
                      ctype=FLOAT)
    value = select(
        binop(">", vp.section("ia"), N.int_const(1), INT),
        binop("+", moved, vp.var("gf"), FLOAT),
        binop("*", vp.section("fb"), vp.var("gd"), FLOAT), FLOAT)
    tail = binop("-", value, vp.var("gf"), FLOAT)
    return vp.program([vp.assign(vp.section("fa", 16), tail, 12)],
                      registers={"ri": 2})


def _untaken_arm(vp):
    # No lane takes the arm holding the never-written register, the
    # zero divisor and the out-of-range section.
    bad = binop("+", binop("/", vp.var("unset"), const(0.0, FLOAT),
                           FLOAT), vp.at(END - 4, FLOAT), FLOAT)
    value = select(binop("<", iota(), N.int_const(0), INT), bad,
                   vp.section("fb"), FLOAT)
    return vp.program([vp.assign(vp.section("fa"), value, 8)])


def _taken_unset(vp):
    value = select(binop(">", iota(), N.int_const(4), INT),
                   vp.var("unset"), vp.section("fb"), FLOAT)
    return vp.program([vp.assign(vp.section("fa"), value, 8)])


def _nested_selects(vp):
    inner = select(binop(">", vp.section("fb"), const(0.0, FLOAT), INT),
                   binop("/", vp.var("gd"), vp.section("fb"), FLOAT),
                   vp.var("gf"), FLOAT)
    outer = select(binop("!=", vp.section("ib"), N.int_const(0), INT),
                   inner, binop("+", vp.var("gd"), iota(), DOUBLE),
                   DOUBLE)
    return vp.program([
        vp.assign(vp.section("da", 8), outer, 14,
                  mask=binop("<", vp.section("ia"), vp.var("gi"), INT))])


def _remainder_strip(vp):
    # Compiled C: 70 elements at vector length 32 leave a 6-lane last
    # strip; a masked store, a select and a reduction ride along.
    from repro.pipeline import CompilerOptions, compile_c
    source = ("float x[70]; float y[70]; float lo;"
              "int main(void) { int i; float s; lo = 4.0f; s = 0.0f;"
              " for (i = 0; i < 70; i++) { x[i] = (i * 7) & 15;"
              "  y[i] = i - 30; }"
              " for (i = 0; i < 70; i++) { if (x[i] < lo) x[i] = lo; }"
              " for (i = 0; i < 70; i++) {"
              "  if (y[i] > 0.0f) y[i] = y[i] * 0.5f + x[i];"
              "  else y[i] = x[i] - y[i]; }"
              " for (i = 0; i < 70; i++) s = s + y[i];"
              " return (int) s; }")
    return compile_c(source, CompilerOptions(vector_length=32)).program


_SCALARS = {"gf": 1.5, "gd": -2.25, "gi": 1}

CASES = {
    "load-out-of-range-lane-k": Case(_load_oob, "out of range",
                                     misses=1),
    "store-out-of-range-lane-k": Case(_store_oob, "out of range",
                                      misses=1, check=_store_oob_check),
    "masked-zero-divisor": Case(_masked_zero_divisor),
    "select-zero-divisor": Case(_select_zero_divisor),
    # The whole section is not in range, so the oracle's routine
    # runs the statement — and finds nothing wrong.
    "masked-out-of-range-load": Case(_masked_oob_load, misses=1),
    "select-out-of-range-load": Case(_select_oob_load, misses=1),
    "active-zero-divisor": Case(_active_zero_divisor,
                                "division by zero", misses=1),
    "float-zero-divisor": Case(
        _float_zero_divisor, "division by zero", misses=1,
        data={"fb": [1.0, 2.0, -0.0] + [1.0] * (ELEMS - 3)}),
    "float32-overflow-and-nan": Case(_f32_overflow, data=_SPECIALS,
                                     check=_f32_overflow_check),
    "overlapping-sections": Case(_overlap, check=_overlap_check),
    "strides": Case(_strides),
    "unaligned-base": Case(_unaligned),
    # A length <= 0 is the oracle's to charge: one miss each.
    "empty-and-negative-length": Case(_empty_lengths, misses=5),
    "narrow-and-unsigned-lanes": Case(_narrow_ints),
    "overflowing-chains-at-observers": Case(_observed_wraps,
                                            data=boundary_data()),
    "scalar-observers-of-overflowing-chains": Case(
        _scalar_observers, scalars=_SCALARS),
    "min-max-reductions": Case(_minmax, scalars=_SCALARS),
    "reduction-overflow": Case(
        _reduce_overflow, misses=1,
        data={"da": [1e37] * ELEMS}),
    "reduction-out-of-range-lane-k": Case(_reduce_oob, "out of range",
                                          misses=1),
    "lazy-scalars-in-lane-order": Case(_lazy_scalars, scalars=_SCALARS),
    "untaken-arm-never-evaluated": Case(_untaken_arm),
    "unset-register-on-a-taken-arm": Case(
        _taken_unset, "uninitialized variable 'unset'", misses=1),
    "nested-selects-under-a-mask": Case(_nested_selects,
                                        scalars=_SCALARS),
    "remainder-strip": Case(_remainder_strip),
}
