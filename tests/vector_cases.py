"""Hand-built vector IL for the engine parity tests.

The bulk lowering of vector statements (``repro.interp.vectorgen``)
must be an unobservable shortcut through the tree oracle's per-lane
definition.  :class:`VectorProgram` builds one-function programs
directly in IL — sections at any base, stride and element type,
masks, selects, broadcast scalars in registers and in memory, strip
loops of the vectorizer's shape (which the fast engine may run several
strips at a time as one bulk operation) — and
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
#: Arrays and image of the strip-loop cases: long enough for more
#: than one strip group (4,096 elements) at vector length 1.
STRIP_ELEMS = 4500
STRIP_MEMORY = 1 << 18

ARRAYS = {"fa": FLOAT, "fb": FLOAT, "da": DOUBLE, "ia": INT, "ib": INT,
          "sa": SHORT, "ca": CHAR, "uc": UCHAR, "ua": UINT}
#: Scalars in memory (a read is a ``load`` event) and in registers.
GLOBAL_SCALARS = {"gf": FLOAT, "gd": DOUBLE, "gi": INT}
REGISTERS = {"rf": FLOAT, "rd": DOUBLE, "ri": INT, "rc": CHAR}


class VectorProgram:
    """``main`` over the arrays and scalars above; ``unset`` is a
    register nothing ever writes."""

    def __init__(self, elems: int = ELEMS):
        self.elems = elems
        self.memory = MEMORY if elems == ELEMS else STRIP_MEMORY
        self.table = SymbolTable()
        self.syms = {}
        self.globals = []
        for name, ctype in ARRAYS.items():
            sym = self.table.declare(
                name, ArrayType(base=ctype, length=elems), "global")
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

    def strip_loop(self, width: int, count: int, statement: Callable,
                   parallel: bool = True, start: int = 0) -> N.DoLoop:
        """The vectorizer's strip-mined loop over elements ``start ..
        start + count - 1``: ``do [parallel] vi = start, start + count
        - 1, width { vlen = min(width, start + count - vi);
        statement(strip) }``, where ``strip`` builds sections that move
        with ``vi`` (:class:`Strip`) and ``statement`` returns one
        statement or, for a fused loop's body, a list of them."""
        vi = self.table.fresh_temp(INT, "vi")
        vlen = self.table.fresh_temp(INT, "vlen")
        self.locals += [vi, vlen]
        strip = Strip(self, vi, vlen)
        header = N.Assign(
            target=N.VarRef(sym=vlen, ctype=INT),
            value=binop("min", N.int_const(width),
                        binop("-", N.int_const(start + count),
                              N.VarRef(sym=vi, ctype=INT), INT), INT))
        stmts = statement(strip)
        return N.DoLoop(var=vi, lo=N.int_const(start),
                        hi=N.int_const(start + count - 1), step=width,
                        body=[header] + (stmts if isinstance(stmts, list)
                                         else [stmts]),
                        parallel=parallel, vector=True)

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


class Strip:
    """Sections and statements of one strip of a strip loop: lane k
    of a section is element ``vi + k`` (times its stride)."""

    def __init__(self, vp: VectorProgram, vi, vlen):
        self.vp = vp
        self.vi = vi
        self.vlen = vlen

    def moving(self, base: N.Expr, step: int, ctype: CType,
               stride: int) -> N.Section:
        """A section at ``base + step * vi``."""
        moved = binop("+", base, binop("*", N.int_const(step),
                                       N.VarRef(sym=self.vi, ctype=INT),
                                       INT), PointerType(base=ctype))
        return N.Section(addr=moved, length=self.length(), stride=stride,
                         ctype=ctype)

    def length(self) -> N.VarRef:
        return N.VarRef(sym=self.vlen, ctype=INT)

    def section(self, array: str, start: int = 0,
                stride: int = 1) -> N.Section:
        elem = self.vp.syms[array].ctype.base
        return self.moving(self.vp.addr(array, start * elem.sizeof()),
                            stride * elem.sizeof(), elem, stride)

    def at(self, address: int, ctype: CType) -> N.Section:
        """A section at an absolute byte address (at ``vi`` = 0)."""
        return self.moving(N.int_const(address), ctype.sizeof(), ctype, 1)

    def iota(self) -> N.Iota:
        return N.Iota(start=N.VarRef(sym=self.vi, ctype=INT), ctype=INT)

    def assign(self, target: N.Section, value: N.Expr,
               mask: Optional[N.Expr] = None) -> N.VectorAssign:
        return N.VectorAssign(target=target, value=value, mask=mask)

    def reduce(self, target: str, op: str,
               value: N.Expr) -> N.VectorReduce:
        return N.VectorReduce(target=self.vp.var(target), op=op,
                              value=value, length=self.length())


def const(value, ctype: CType) -> N.Const:
    """``value`` as a constant of ``ctype`` holds it: converted to a
    value of the type (IL invariant 7) — 0.1 rounded and 1e300
    infinite as a float, 2**31 wrapped as an int."""
    return N.Const(value=ctype.convert(value), ctype=ctype)


def binop(op: str, left: N.Expr, right: N.Expr, ctype: CType) -> N.BinOp:
    return N.BinOp(op=op, left=left, right=right, ctype=ctype)


def select(cond: N.Expr, then: N.Expr, otherwise: N.Expr,
           ctype: CType) -> N.Select:
    return N.Select(cond=cond, then=then, otherwise=otherwise,
                    ctype=ctype)


def iota(start: int = 0) -> N.Iota:
    return N.Iota(start=const(start, INT), ctype=INT)


# -- running ---------------------------------------------------------------

#: Where the model's total starts: not at zero, so an engine that
#: loses or restarts the running total shows.
START_CYCLES = 7.0


def default_data(elems: int = ELEMS) -> Dict[str, List]:
    """Deterministic, sign-mixed contents for every array."""
    data = {}
    for name, ctype in ARRAYS.items():
        if ctype in (FLOAT, DOUBLE):
            data[name] = [((k * 7) % 11 - 5) * 0.75 for k in range(elems)]
        else:
            data[name] = [(k * 5) % 13 - 6 for k in range(elems)]
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
            scalars: Optional[Dict[str, float]] = None,
            memory: int = MEMORY, processors: int = 2,
            **engine_args) -> dict:
    """Everything one run shows; ``engine_args`` (``parallel_order``,
    ``max_steps``) go to the engine."""
    model = None
    if costed:
        model = TitanCostModel(TitanConfig(processors=processors))
        model.cycles = START_CYCLES
    interp = make_interpreter(program, engine=engine, cost_hook=model,
                              memory_size=memory, **engine_args)
    present = {g.sym.name for g in program.globals}
    elems = ELEMS if memory == MEMORY else STRIP_ELEMS
    for name, values in {**default_data(elems), **(data or {})}.items():
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


def strip_groups() -> Dict[tuple, float]:
    """``(path, reason) -> count`` of
    ``titancc_vector_strip_groups_total``."""
    return {(dict(key)["path"], dict(key)["reason"]): metric.value
            for name, key, metric in REGISTRY
            if name == "titancc_vector_strip_groups_total"}


def assert_parity(program: N.ILProgram, costed: bool,
                  data: Optional[Dict[str, List]] = None,
                  scalars: Optional[Dict[str, float]] = None,
                  **run_args) -> dict:
    """The fast engine's run equals the oracle's in every field;
    returns the fast observation plus ``misses`` (bulk statements that
    went through the oracle's routine), ``forms`` (lowerings
    generated) and ``groups`` (strip-group decisions made)."""
    oracle = observe(program, "tree", costed, data, scalars, **run_args)
    misses, forms, groups = bulk_misses(), lowerings(), strip_groups()
    fast = observe(program, "compiled", costed, data, scalars, **run_args)
    for field, value in oracle.items():
        if field == "memory":
            assert fast[field] == value, "final memory image differs"
        elif not (isinstance(value, float) and math.isnan(value)):
            assert fast[field] == value, (field, fast[field], value)
    fast["misses"] = bulk_misses() - misses
    fast["forms"] = {key: value - forms.get(key, 0)
                     for key, value in lowerings().items()
                     if value != forms.get(key, 0)}
    fast["groups"] = {key: value - groups.get(key, 0)
                      for key, value in strip_groups().items()
                      if value != groups.get(key, 0)}
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
                 check: Optional[Callable] = None,
                 groups: Optional[Dict[tuple, int]] = None,
                 **run_args):
        self.build = build
        self.fault = fault
        self.misses = misses
        self.data = data
        self.scalars = scalars
        self.check = check
        #: Strip-group decisions the fast run must make (a strip
        #: case: its arrays are STRIP_ELEMS long).
        self.groups = groups
        self.run_args = run_args

    def run(self, costed: bool) -> dict:
        strips = self.groups is not None
        vp = VectorProgram(STRIP_ELEMS if strips else ELEMS)
        program = self.build(vp)
        fast = assert_parity(program, costed, self.data, self.scalars,
                             memory=vp.memory, **self.run_args)
        if strips:
            assert fast["groups"] == self.groups, fast["groups"]
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
    # and charged, once some lane gets to it: the else arm's (ia[0] <
    # 1) and the trailing operand's, and the then arm's (from lane 2)
    # — each fill charged once, none of them for every lane.
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


# -- strip loops -------------------------------------------------------------
#
# Grouped, a strip loop runs up to 4,096 elements as one bulk operation
# and charges each strip as its own run would have; each case says
# which strip-group decisions the fast engine makes.

GROUPED = ("grouped", "")


def _strip_daxpy(width: int, count: int, parallel: bool = True):
    def build(vp):
        def daxpy(strip):
            return strip.assign(strip.section("fa"), binop(
                "+", strip.section("fb"),
                binop("*", const(2.0, FLOAT), strip.section("fa"), FLOAT),
                FLOAT))
        return vp.program([vp.strip_loop(width, count, daxpy, parallel)])
    return build


def _strip_mixed(vp):
    # Int lanes from an iota, a masked store whose active lanes skip
    # whole strips (its section bases are charged only by strips with
    # one), a reversed store, a broadcast memory scalar, and a serial
    # float32 sum — two parallel loops first, so the sum starts from
    # a rescaled, fractional total.
    def ints(strip):
        return strip.assign(strip.section("ia"), binop(
            "&", binop("+", binop("*", strip.iota(), N.int_const(3), INT),
                       N.int_const(7), INT), N.int_const(1023), INT))

    def sparse(strip):
        every = binop("%", strip.iota(), N.int_const(40), INT)
        return strip.assign(
            strip.section("fb"),
            binop("*", strip.section("fa"), vp.var("gf"), FLOAT),
            mask=binop("<", every, N.int_const(3), INT))

    def reversed_copy(strip):
        top = vp.addr("ib", 4 * (STRIP_ELEMS - 1))
        target = strip.moving(top, -4, INT, -1)
        return strip.assign(target, strip.section("ia"))

    def total(strip):
        return strip.reduce("rf", "+", strip.section("fb"))

    return vp.program([vp.strip_loop(7, 4000, ints),
                       vp.strip_loop(8, 4400, sparse),
                       vp.strip_loop(5, 4500, reversed_copy),
                       vp.strip_loop(32, 4500, total, parallel=False)],
                      registers={"rf": 0.5}, result=N.Cast(
                          operand=vp.var("rf"), ctype=INT))


def _strip_store_fault(vp):
    # Strip 3 of 5 stores lanes 0 and 1, then lane 2 is past the
    # image: the group stores nothing and reruns strip by strip.
    def store(strip):
        return strip.assign(strip.at(vp.memory - 40, FLOAT),
                            strip.section("fb"))
    return vp.program([vp.strip_loop(4, 20, store)])


def _strip_load_fault(vp):
    def load(strip):
        return strip.assign(strip.section("fa"),
                            strip.at(vp.memory - 40, FLOAT))
    return vp.program([vp.strip_loop(4, 20, load)])


def _read_behind_write(vp):
    # fa[i + 1] = fa[i] + 1: each strip reads what the one before it
    # stored, so the group runs strip by strip; reading ahead
    # (fb[i] = fb[i + 1] + 1) and in place (ia[i] = ia[i] * 3) never
    # sees an earlier strip's store.
    def behind(strip):
        return strip.assign(strip.section("fa", 1), binop(
            "+", strip.section("fa"), const(1.0, FLOAT), FLOAT))

    def ahead(strip):
        return strip.assign(strip.section("fb"), binop(
            "+", strip.section("fb", 1), const(1.0, FLOAT), FLOAT))

    def in_place(strip):
        return strip.assign(strip.section("ia"), binop(
            "*", strip.section("ia"), N.int_const(3), INT))

    return vp.program([vp.strip_loop(4, 40, behind, parallel=False),
                       vp.strip_loop(4, 40, ahead, parallel=False),
                       vp.strip_loop(4, 40, in_place)])


def _scalar_behind_write(vp):
    # The store runs over the memory scalar gf, which every strip
    # broadcasts: a later strip reads what an earlier one stored.
    def store(strip):
        pointer = PointerType(base=FLOAT)
        base = binop("-", N.AddrOf(sym=vp.syms["gf"], ctype=pointer),
                     N.int_const(16), pointer)
        return strip.assign(strip.moving(base, 4, FLOAT, 1), binop(
            "+", vp.var("gf"), const(1.0, FLOAT), FLOAT))
    return vp.program([vp.strip_loop(2, 8, store)])


def _fused_chain(vp):
    # A fused loop's body, daxpy's shape: two init stores, a store
    # reading both lane for lane, a sum of it — 4,500 elements at
    # VL 32, a group of 128 strips and one of 13.
    def chain(strip):
        return [
            strip.assign(strip.section("fa"), N.Cast(operand=binop(
                "&", strip.iota(), N.int_const(7), INT), ctype=FLOAT)),
            strip.assign(strip.section("fb"), N.Cast(operand=binop(
                "&", strip.iota(), N.int_const(3), INT), ctype=FLOAT)),
            strip.assign(strip.section("fa"), binop(
                "+", strip.section("fb"),
                binop("*", const(2.0, FLOAT), strip.section("fa"), FLOAT),
                FLOAT)),
            strip.reduce("rf", "+", strip.section("fa"))]
    return vp.program([vp.strip_loop(32, STRIP_ELEMS, chain)],
                      registers={"rf": 0.0})


def _fused_read_ahead(vp):
    # fa[i] = fb[i]; fb[i] = fa[i + 1]: strip by strip the second
    # statement's last lane reads fa before the next strip's first
    # statement stores it; grouped it would read the new value.
    def pair(strip):
        return [strip.assign(strip.section("fa"), binop(
                    "+", strip.section("fb"), const(1.0, FLOAT), FLOAT)),
                strip.assign(strip.section("fb"), strip.section("fa", 1))]
    return vp.program([vp.strip_loop(4, 40, pair)])


def _fused_store_behind(vp):
    # fb[i] = fa[i]; fa[i + 1] = fb[i]: the second statement stores
    # the element the first reads at the next lane — seen by the next
    # strip's first statement, not by a group's.
    def pair(strip):
        return [strip.assign(strip.section("fb"), strip.section("fa")),
                strip.assign(strip.section("fa", 1), binop(
                    "*", strip.section("fb"), const(2.0, FLOAT), FLOAT))]
    return vp.program([vp.strip_loop(4, 40, pair, parallel=False)])


def _fused_fault(vp):
    # The first statement stores every strip; the second reads past
    # the image from strip 3 on: the group puts the first statement's
    # stores back and runs strip by strip, to the oracle's fault.
    def pair(strip):
        return [strip.assign(strip.section("fa"), binop(
                    "+", strip.section("fb"), const(1.0, FLOAT), FLOAT)),
                strip.reduce("rf", "+", strip.at(vp.memory - 40, FLOAT))]
    return vp.program([vp.strip_loop(4, 20, pair, parallel=False)],
                      registers={"rf": 0.0})


def _strip_steps(vp):
    # Twenty strips of two steps each; the limit falls inside them.
    return _strip_daxpy(2, 40)(vp)


STRIP_CASES = {
    "strip-groups-vl-1": Case(_strip_daxpy(1, STRIP_ELEMS),
                              groups={GROUPED: 2}),
    "strip-groups-vl-33": Case(_strip_daxpy(33, STRIP_ELEMS),
                               groups={GROUPED: 2}),
    "strip-groups-vl-4096": Case(_strip_daxpy(4096, STRIP_ELEMS),
                                 groups={}),
    "strip-groups-trip-k-vl-minus-1": Case(_strip_daxpy(33, 33 * 5 - 1),
                                           groups={GROUPED: 1}),
    "strip-groups-trip-k-vl-plus-1": Case(_strip_daxpy(33, 33 * 5 + 1),
                                          groups={GROUPED: 1}),
    # 4,097 = a full group, then one lone 1-lane strip.
    "strip-groups-cap-plus-1": Case(_strip_daxpy(32, 4097),
                                    groups={GROUPED: 1}),
    "strip-groups-serial": Case(_strip_daxpy(32, 4095, parallel=False),
                                groups={GROUPED: 1}),
    "strip-groups-mixed-3-cpus": Case(_strip_mixed, scalars=_SCALARS,
                                      groups={GROUPED: 7},
                                      processors=3),
    "strip-fault-store": Case(_strip_store_fault, "out of range",
                              misses=1, groups={("strips", "fault"): 1}),
    "strip-fault-load": Case(_strip_load_fault, "out of range",
                             misses=1, groups={("strips", "fault"): 1}),
    "strip-read-behind-write": Case(
        _read_behind_write,
        groups={("strips", "overlap"): 1, GROUPED: 2}),
    "strip-scalar-behind-write": Case(
        _scalar_behind_write, scalars=_SCALARS,
        groups={("strips", "overlap"): 1}),
    "strip-step-limit-mid-group": Case(
        _strip_steps, "exceeded 30 steps", max_steps=30,
        groups={("strips", "steps"): 1}),
    "strip-order-reverse": Case(_strip_daxpy(4, 40),
                                parallel_order="reverse",
                                groups={("strips", "order"): 1}),
    "strip-order-shuffle": Case(_strip_daxpy(4, 40),
                                parallel_order="shuffle",
                                groups={("strips", "order"): 1}),
    "fused-chain-groups": Case(_fused_chain, groups={GROUPED: 2},
                               processors=2),
    "fused-read-ahead-of-an-earlier-store": Case(
        _fused_read_ahead, groups={("strips", "overlap"): 1}),
    "fused-store-behind-an-earlier-read": Case(
        _fused_store_behind, groups={("strips", "overlap"): 1}),
    "fused-fault-restores": Case(_fused_fault, "out of range", misses=1,
                                 groups={("strips", "fault"): 1}),
}


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
    **STRIP_CASES,
}
