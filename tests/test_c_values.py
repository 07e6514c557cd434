"""C's scalar value rule against everything that computes a value.

``frontend/ctypes_.py`` states C's scalar values once: ``CType.convert``,
``binop_value``, ``unop_value`` and ``round_f32``.  Here every IL
operator (and every conversion) over char, unsigned char, short, int,
unsigned, float and double, on the edge operands where C's arithmetic
differs from Python's — 0, ±1, INT_MIN, INT_MAX, 2**24 + 1 (not a
float32 value), 0.1, the float32 overflow boundary, ±inf and NaN —
must give one value, or one fault message, from

* the rule itself,
* ``fold.simplify`` of the operator over two constants (a fault: no
  fold),
* the tree oracle,
* the fast engine's generated scalar code,
* the fast engine's bulk vector lowering, one lane per operand pair;

and the generated code's pre-specialized kernels (``interp/kernels.py``)
must equal the rule on random values too.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend.ctypes_ import (CHAR, DOUBLE, F32_OVERFLOW, FLOAT, INT,
                                    SHORT, UCHAR, UINT, ArrayType, PointerType,
                                    ValueFault, binop_value, round_f32,
                                    unop_value)
from repro.frontend.symtab import SymbolTable
from repro.il import nodes as N
from repro.il.validate import ILValidationError, validate_function
from repro.interp import InterpreterError, make_interpreter
from repro.interp.kernels import KERNEL_OPS, _binop_impl, _make_converter
from repro.opt.fold import simplify
from tests import vector_cases as vc

TYPES = (CHAR, UCHAR, SHORT, INT, UINT, FLOAT, DOUBLE)
ARITHMETIC = ("+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^",
              "min", "max")
COMPARISONS = ("==", "!=", "<", ">", "<=", ">=")
EDGES = (0, 1, -1, -(1 << 31), (1 << 31) - 1, (1 << 24) + 1, 0.1,
         F32_OVERFLOW, -F32_OVERFLOW, math.inf, -math.inf, math.nan)


def _key(value):
    """Equality with NaN equal to itself (and 0.0 apart from -0.0)."""
    if isinstance(value, float):
        return ("float", math.copysign(1.0, value),
                "nan" if math.isnan(value) else abs(value))
    return ("int", value)


def operands(ctype):
    """The edge values that are values of ``ctype``, each once."""
    out = {}
    for edge in EDGES:
        try:
            value = ctype.convert(edge)
        except (OverflowError, ValueError):
            continue  # an infinity or a NaN is no integer
        out.setdefault(_key(value), value)
    return list(out.values())


def outcome(compute):
    """What ``compute()`` gives: a value, or a fault as its message
    (the rule's ``ValueFault`` is the oracle's ``InterpreterError``)."""
    try:
        return _key(compute())
    except (ValueFault, InterpreterError) as fault:
        return ("fault", "InterpreterError", str(fault))
    except (ArithmeticError, ValueError) as fault:
        return ("fault", type(fault).__name__, str(fault))


class Kernel:
    """One operator at one operand and result type, as IL: a scalar
    ``main(x[, y])`` returning it, and a vector statement storing it
    lane by lane, run on both engines."""

    def __init__(self, build, operand_type, result_type, arity):
        self.table = SymbolTable()
        self.arity = arity
        self.params = [self.table.declare(name, operand_type, "param")
                       for name in "xy"[:arity]]
        scalar = N.ILFunction(
            name="main", params=self.params, ret_type=result_type,
            body=[N.Return(value=build(*[
                N.VarRef(sym=p, ctype=operand_type)
                for p in self.params]))])
        self.scalar = N.ILProgram(functions={"main": scalar}, globals=[],
                                  symtab=self.table)
        self.vector = self._vector(build, operand_type, result_type)
        self.engines = {}

    def _vector(self, build, operand_type, result_type):
        table = SymbolTable()
        arrays = {name: table.declare(name, ArrayType(
            base=ctype, length=vc.ELEMS * 4), "global")
            for name, ctype in (("a", operand_type), ("b", operand_type),
                                ("out", result_type))}
        n = table.declare("n", INT, "global")
        length = N.VarRef(sym=n, ctype=INT)

        def section(name):
            sym = arrays[name]
            return N.Section(addr=N.AddrOf(sym=sym, ctype=sym.ctype),
                             length=length, stride=1,
                             ctype=sym.ctype.base)
        value = build(*[section(name) for name in "ab"[:self.arity]])
        fn = N.ILFunction(
            name="main", params=[], ret_type=INT,
            body=[N.VectorAssign(target=section("out"), value=value),
                  N.Return(value=N.int_const(0))])
        return N.ILProgram(
            functions={"main": fn}, symtab=table,
            globals=[N.GlobalVar(sym=s) for s in (*arrays.values(), n)])

    def engine(self, which, engine):
        key = (which, engine)
        if key not in self.engines:
            program = self.scalar if which == "scalar" else self.vector
            self.engines[key] = make_interpreter(
                program, engine=engine, memory_size=vc.MEMORY)
        return self.engines[key]

    def scalar_run(self, engine, args):
        interp = self.engine("scalar", engine)
        return outcome(lambda: interp.run("main", *args))

    def vector_run(self, engine, pairs):
        """Every pair as one lane of one statement."""
        interp = self.engine("vector", engine)
        for name, column in zip("ab", zip(*pairs)):
            interp.set_global_array(name, column)
        interp.set_global_scalar("n", len(pairs))
        interp.run("main")
        return interp.global_array("out", len(pairs))

    def check(self, rule, pairs, folded):
        """``rule(*pair)`` against every engine, and ``folded(*pair)``
        (the simplified constant tree) against the rule."""
        dump = self.engine("scalar", "compiled").disassemble("main")
        assert "fallback" not in dump, dump
        dump = self.engine("vector", "compiled").disassemble("main")
        assert ": bulk" in dump, dump
        good = []
        for pair in pairs:
            want = outcome(lambda: rule(*pair))
            tree = folded(*pair)
            if want[0] == "fault":
                assert not isinstance(tree, N.Const), (pair, tree)
            else:
                assert isinstance(tree, N.Const), (pair, want)
                assert _key(tree.value) == want, (pair, tree.value, want)
                validate_function(N.ILFunction(
                    name="f", params=[], ret_type=tree.ctype,
                    body=[N.Return(value=tree)]))
                good.append((pair, want))
            for engine in ("tree", "compiled"):
                assert self.scalar_run(engine, pair) == want, (
                    engine, pair, want)
                if want[0] == "fault":
                    assert outcome(lambda: self.vector_run(
                        engine, [pair])[0]) == want, (engine, pair, want)
        misses = vc.bulk_misses()
        for engine in ("tree", "compiled"):
            got = self.vector_run(engine, [pair for pair, _ in good])
            assert [_key(v) for v in got] == [w for _, w in good], engine
        assert vc.bulk_misses() == misses  # every lane ran in bulk


def _const(value, ctype):
    return N.Const(value=value, ctype=ctype)


@pytest.mark.parametrize("ctype", TYPES, ids=str)
@pytest.mark.parametrize("op", ARITHMETIC + COMPARISONS)
def test_binary_operators(op, ctype):
    result = INT if op in COMPARISONS else ctype

    def build(left, right):
        return N.BinOp(op=op, left=left, right=right, ctype=result)

    values = operands(ctype)
    Kernel(build, ctype, result, 2).check(
        lambda a, b: binop_value(op, a, b, result),
        [(a, b) for a in values for b in values],
        lambda a, b: simplify(build(_const(a, ctype), _const(b, ctype))))


@pytest.mark.parametrize("ctype", TYPES, ids=str)
@pytest.mark.parametrize("op", ("neg", "not", "bnot"))
def test_unary_operators(op, ctype):
    result = INT if op == "not" else ctype

    def build(operand):
        return N.UnOp(op=op, operand=operand, ctype=result)

    Kernel(build, ctype, result, 1).check(
        lambda a: unop_value(op, a, result),
        [(a,) for a in operands(ctype)],
        lambda a: simplify(build(_const(a, ctype))))


@pytest.mark.parametrize("target", TYPES, ids=str)
@pytest.mark.parametrize("source", TYPES, ids=str)
def test_conversions(source, target):
    def build(operand):
        return N.Cast(operand=operand, ctype=target)

    Kernel(build, source, target, 1).check(
        target.convert, [(a,) for a in operands(source)],
        lambda a: simplify(build(_const(a, source))))


def test_the_float32_boundary():
    below = math.nextafter(F32_OVERFLOW, 0.0)
    assert round_f32(F32_OVERFLOW) == math.inf
    assert round_f32(-F32_OVERFLOW) == -math.inf
    assert round_f32(below) == 3.4028234663852886e38  # FLT_MAX
    assert round_f32((1 << 24) + 1) == 1 << 24  # a tie: to even
    assert math.isnan(round_f32(math.nan))
    # Every float32 store cuts off at the same place: the memory
    # image's, and generated code's storing a double unconverted.
    vp = vc.VectorProgram()
    where = N.AddrOf(sym=vp.syms["gf"], ctype=PointerType(base=FLOAT))
    program = vp.program([N.Assign(target=N.Mem(addr=where, ctype=FLOAT),
                                   value=vp.var("gd"))])
    for engine in ("tree", "compiled"):
        interp = make_interpreter(program, engine=engine,
                                  memory_size=vc.MEMORY)
        interp.set_global_scalar("gf", F32_OVERFLOW)
        assert interp.global_scalar("gf") == math.inf
        interp.set_global_scalar("gf", below)
        assert interp.global_scalar("gf") == 3.4028234663852886e38
        interp.set_global_scalar("gd", -F32_OVERFLOW)
        interp.run("main")
        assert interp.global_scalar("gf") == -math.inf


def test_a_constant_holds_a_value_of_its_type():
    def returning(value, ctype):
        return N.ILFunction(name="f", params=[], ret_type=ctype,
                            body=[N.Return(value=_const(value, ctype))])

    for value, ctype in ((0.1, FLOAT), (1 << 31, INT), (300, CHAR),
                         (-1, UINT), (math.inf, INT)):
        with pytest.raises(ILValidationError, match="not a value of"):
            validate_function(returning(value, ctype))
    for value, ctype in ((round_f32(0.1), FLOAT), (0.1, DOUBLE),
                         (math.nan, FLOAT), (-128, CHAR), (math.inf, FLOAT)):
        validate_function(returning(value, ctype))


# -- the generated code's kernels -------------------------------------------

VALUES = (st.integers(-(1 << 40), 1 << 40) | st.floats(allow_nan=True)
          | st.sampled_from(EDGES))


@settings(max_examples=300, deadline=None)
@given(value=VALUES, ctype=st.sampled_from(TYPES))
def test_converters_equal_the_rule(value, ctype):
    assert outcome(lambda: _make_converter(ctype)(value)) == \
        outcome(lambda: ctype.convert(value))


@settings(max_examples=300, deadline=None)
@given(left=VALUES, right=VALUES, ctype=st.sampled_from(TYPES),
       op=st.sampled_from(sorted(KERNEL_OPS)))
def test_operator_kernels_equal_the_rule(left, right, ctype, op):
    assert outcome(lambda: _binop_impl(op, ctype)(left, right)) == \
        outcome(lambda: binop_value(op, left, right, ctype))


@pytest.mark.parametrize("ctype", (FLOAT, DOUBLE), ids=str)
@pytest.mark.parametrize("op, divisor, fault", (
    ("/", 0.0, "division by zero"), ("/", -0.0, "division by zero"),
    ("%", 0.1, "modulo by zero"), ("%", -0.5, "modulo by zero")))
def test_float_zero_divisors_fault(op, divisor, fault, ctype):
    """A float division by zero has no value here (C with IEEE floats
    would give an infinity or a NaN): it faults like an integer one,
    in the rule, the folder (no fold), the kernels and both engines'
    scalar and vector code.  A float ``%`` truncates its operands, so
    a divisor that truncates to 0 is the same fault — not Python's
    ``ZeroDivisionError``."""
    divisor = ctype.convert(divisor)
    want = ("fault", "InterpreterError", fault)
    assert outcome(lambda: binop_value(op, 5.0, divisor, ctype)) == want
    assert outcome(lambda: _binop_impl(op, ctype)(5.0, divisor)) == want

    def build(left, right):
        return N.BinOp(op=op, left=left, right=right, ctype=ctype)

    folded = simplify(build(_const(5.0, ctype), _const(divisor, ctype)))
    assert not isinstance(folded, N.Const), folded
    kernel = Kernel(build, ctype, ctype, 2)
    for engine in ("tree", "compiled"):
        assert kernel.scalar_run(engine, (5.0, divisor)) == want, engine
        assert outcome(lambda: kernel.vector_run(
            engine, [(5.0, divisor)])[0]) == want, engine


# -- the front end folds by the rule -----------------------------------------


def _run(source):
    from repro.frontend.lower import compile_to_il
    return make_interpreter(compile_to_il(source)).run("main")


def test_initializers_fold_as_statements_compute():
    # A global initializer shifted in unbounded ints once (g = 1).
    assert _run("int g = (1 << 31) >> 31;\n"
                "int main(void) { int l = (1 << 31) >> 31;"
                " return g * 10 + l; }") == -11
    # Enum values, array bounds and case labels truncate toward zero.
    assert _run("enum { A = -7 / 2, B = -7 % 2 };\n"
                "int a[-(-7 / 2)];\n"
                "int main(void) { switch (-3) { case -7 / 2:"
                " return A * 10 + B + (int) sizeof(a); } return 0; }"
                ) == -31 + 12


def test_literals_are_values_of_their_type():
    from repro.frontend.lower import compile_to_il
    program = compile_to_il("unsigned u(void) { return 4294967295; }\n"
                            "float f(void) { return 0.1f; }")
    (unsigned,), (single,) = (
        [e for s in fn.body for e in N.walk_expr(s.value)]
        for fn in program.functions.values())
    assert (unsigned.value, str(unsigned.ctype)) == (4294967295,
                                                     "unsigned int")
    assert single.value == round_f32(0.1)
