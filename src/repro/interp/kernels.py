"""Value kernels bound into generated code.

Pre-specialized equivalents of the tree oracle's value helpers
(``_convert_value``, ``_apply_binop``, ``_round_to_f32``) with the
type dispatch done once, at generation time — shared by the code
generator (:mod:`repro.interp.bytecode`) and the bulk vector lowering
(:mod:`repro.interp.vectorgen`).  Only what generated code does not
spell inline lives here: the operators whose fault ordering matters
(``/``, ``%``) and ``min``/``max``, the float32 rounding codecs, a
scalar type's ``struct`` format, and the sentinel for a register
nothing has written yet.
"""

from __future__ import annotations

import math
import struct
from typing import Callable, Optional

from ..frontend.ctypes_ import (ArrayType, CType, FloatType, IntType,
                                PointerType, StructType)
from .interpreter import InterpreterError, Value
from .memory import _INT_FORMATS


class _Unset:
    """Sentinel for never-written registers (reads must fault)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<unset>"


_UNSET = _Unset()

_F32_MAX = 3.4028235677973366e38  # same clamp constant as Memory.store


def _raise_uninit(name: str) -> None:
    raise InterpreterError(f"read of uninitialized variable {name!r}")


_F32_PACK = struct.Struct("<f").pack
_F32_UNPACK = struct.Struct("<f").unpack


def _fast_round_f32(value: Value) -> float:
    """``_round_to_f32`` with the struct codecs pre-bound (same
    numeric results, including the overflow-to-infinity clamp)."""
    value = float(value)
    try:
        return _F32_UNPACK(_F32_PACK(value))[0]
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _is_aggregate(ctype: CType) -> bool:
    return isinstance(ctype, (ArrayType, StructType))


def _make_converter(ctype: CType) -> Callable[[Value], Value]:
    """A pre-specialized ``_convert_value(_, ctype)``."""
    if isinstance(ctype, FloatType):
        if ctype.sizeof() == 4:
            return _fast_round_f32
        return float
    if isinstance(ctype, IntType):
        bits = ctype.sizeof() * 8
        mask = (1 << bits) - 1
        if ctype.signed:
            half = 1 << (bits - 1)
            full = 1 << bits
            def conv(value):
                value = int(value) & mask
                return value - full if value >= half else value
            return conv
        def conv(value):
            return int(value) & mask
        return conv
    if isinstance(ctype, PointerType):
        def conv(value):
            return int(value) & 0xFFFFFFFF
        return conv
    def conv(value):
        return value
    return conv


#: The operators generated code calls a kernel for; every other one
#: it spells inline.
KERNEL_OPS = frozenset(("/", "%", "min", "max"))


def _binop_impl(op: str, ctype: CType) -> Callable[[Value, Value], Value]:
    """A pre-specialized ``_apply_binop(op, _, _, ctype)`` for one of
    :data:`KERNEL_OPS`."""
    conv = _make_converter(ctype)
    if op == "/":
        if ctype.is_float:
            def fdiv(a, b):
                if b == 0:
                    raise InterpreterError("division by zero")
                return conv(a / b)
            return fdiv
        def idiv(a, b):
            if b == 0:
                raise InterpreterError("division by zero")
            q = abs(int(a)) // abs(int(b))
            return conv(q if (a >= 0) == (b >= 0) else -q)
        return idiv
    if op == "%":
        def imod(a, b):
            if b == 0:
                raise InterpreterError("modulo by zero")
            q = abs(int(a)) // abs(int(b))
            q = q if (a >= 0) == (b >= 0) else -q
            return conv(int(a) - q * int(b))
        return imod
    if op == "min":
        return lambda a, b: conv(min(a, b))
    assert op == "max", op
    return lambda a, b: conv(max(a, b))


def _struct_format(ctype: CType) -> Optional[str]:
    if isinstance(ctype, FloatType):
        return "<f" if ctype.sizeof() == 4 else "<d"
    if isinstance(ctype, PointerType):
        return "<I"
    if isinstance(ctype, IntType):
        return _INT_FORMATS[(ctype.sizeof(), ctype.signed)]
    return None
