"""The closure tier: event-emitting closures for the fast engine.

The tree walker in :mod:`repro.interp.interpreter` re-does
``isinstance`` dispatch, symbol-dict lookups, and cost-hook ``None``
checks on every dynamic operation — exactly the interpretation
overhead the paper's Titan avoided by compiling.  This module removes
it the same way a threaded-code compiler does: a function's flow
graph is lowered **once** into nested Python closures.

* Every expression node becomes a pre-bound callable specialized on
  its operator and result type (conversion masks, struct formats, and
  memory-bounds constants are baked in at compile time).
* Every flow node becomes a step closure that returns the *next* step
  closure; successor links are one-element cells patched after all
  nodes are compiled, so ``goto`` into loops costs one list index.
* Frames are flat lists indexed by compile-time slots — slot 0 is the
  return value, then registers, per-activation addresses of
  memory-backed locals, and captured DO-loop bounds — instead of
  ``Dict[Symbol, Value]`` environments.
* Every closure calls a bound cost hook and emits events in exactly
  the order the tree walker emits them, so cycle counts, profiler
  attribution, and the profiler's sum-to-total invariant are
  bit-identical across engines.

This is the half of :class:`~repro.interp.bytecode.CompiledInterpreter`
that runs whenever a cost hook is installed (every Titan simulation).
Uninstrumented functions run as generated code instead; the few the
generator cannot lower run here against the no-op :func:`_no_hook`.

Step accounting shares the tree walker's mutable ``_step_cell``, so
``StepLimitExceeded`` fires at the same dynamic op count regardless of
engine.  The tree walker remains the semantic oracle; the differential
tests replay the fuzz corpus under both engines and assert identical
results, stdout, step counts, and cost-event streams.
"""

from __future__ import annotations

import math
import struct
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.flowgraph import FlowGraph, FlowNode
from ..frontend.ctypes_ import (ArrayType, CType, FloatType, IntType,
                                PointerType, StructType)
from ..frontend.symtab import Symbol
from ..il import nodes as N
from ..titan.vector_ops import vector_instructions
from .interpreter import (InterpreterError, StepLimitExceeded, Value,
                          _memory_locals, _scalar_type, _trip_values)
from .memory import _INT_FORMATS, Memory, MemoryError_


class _Unset:
    """Sentinel for never-written frame slots (reads must fault)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<unset>"


_UNSET = _Unset()

#: Immutable successor cell meaning "fall off the graph" (function end).
_NONE_CELL: Tuple[None] = (None,)

_F32_MAX = 3.4028235677973366e38  # same clamp constant as Memory.store


def _raise_uninit(name: str) -> None:
    raise InterpreterError(f"read of uninitialized variable {name!r}")


def _raise_limit(max_steps: int) -> None:
    raise StepLimitExceeded(
        f"exceeded {max_steps} steps (infinite loop?)")


def _no_hook(*event) -> None:
    """The cost hook bound into closures that run uninstrumented."""


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


# ---------------------------------------------------------------------------
# Pre-bound value-semantics kernels
# ---------------------------------------------------------------------------


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


def _binop_impl(op: str, ctype: CType) -> Callable[[Value, Value], Value]:
    """A pre-specialized ``_apply_binop(op, _, _, ctype)``."""
    conv = _make_converter(ctype)
    if op == "+":
        return lambda a, b: conv(a + b)
    if op == "-":
        return lambda a, b: conv(a - b)
    if op == "*":
        return lambda a, b: conv(a * b)
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
    if op == "<<":
        return lambda a, b: conv(int(a) << (int(b) & 31))
    if op == ">>":
        return lambda a, b: conv(int(a) >> (int(b) & 31))
    if op == "&":
        return lambda a, b: conv(int(a) & int(b))
    if op == "|":
        return lambda a, b: conv(int(a) | int(b))
    if op == "^":
        return lambda a, b: conv(int(a) ^ int(b))
    # Comparisons yield raw 0/1 without a conversion, like the oracle.
    if op == "==":
        return lambda a, b: int(a == b)
    if op == "!=":
        return lambda a, b: int(a != b)
    if op == "<":
        return lambda a, b: int(a < b)
    if op == ">":
        return lambda a, b: int(a > b)
    if op == "<=":
        return lambda a, b: int(a <= b)
    if op == ">=":
        return lambda a, b: int(a >= b)
    if op == "min":
        return lambda a, b: conv(min(a, b))
    if op == "max":
        return lambda a, b: conv(max(a, b))

    def unknown(a, b):
        raise InterpreterError(f"unknown operator {op!r}")
    return unknown


def _unop_impl(op: str, ctype: CType) -> Callable[[Value], Value]:
    conv = _make_converter(ctype)
    if op == "neg":
        return lambda v: conv(-v)
    if op == "not":
        return lambda v: int(not v)
    if op == "bnot":
        return lambda v: conv(~int(v))

    def unknown(v):
        raise InterpreterError(f"unknown unary operator {op!r}")
    return unknown


def _struct_format(ctype: CType) -> Optional[str]:
    if isinstance(ctype, FloatType):
        return "<f" if ctype.sizeof() == 4 else "<d"
    if isinstance(ctype, PointerType):
        return "<I"
    if isinstance(ctype, IntType):
        return _INT_FORMATS[(ctype.sizeof(), ctype.signed)]
    return None


def _make_loader(memory: Memory, ctype: CType) -> Callable[[int], Value]:
    """A pre-specialized ``Memory.load(_, ctype)`` with the bounds
    check and struct format inlined."""
    size = ctype.sizeof()
    data = memory.data
    limit = len(data)
    fmt = _struct_format(ctype)
    if fmt is None:
        def bad(addr):
            if addr < 8 or addr + size > limit:
                raise MemoryError_(f"access of {size} bytes at {addr:#x} "
                                   "is out of range (null deref?)")
            raise MemoryError_(f"cannot load type {ctype}")
        return bad
    unpack = struct.Struct(fmt).unpack_from

    def load(addr):
        if addr < 8 or addr + size > limit:
            raise MemoryError_(f"access of {size} bytes at {addr:#x} is "
                               "out of range (null deref?)")
        return unpack(data, addr)[0]
    return load


def _make_storer(memory: Memory,
                 ctype: CType) -> Callable[[int, Value], None]:
    """A pre-specialized ``Memory.store(_, ctype, _)``."""
    size = ctype.sizeof()
    data = memory.data
    limit = len(data)
    fmt = _struct_format(ctype)
    if fmt is None:
        def bad(addr, value):
            if addr < 8 or addr + size > limit:
                raise MemoryError_(f"access of {size} bytes at {addr:#x} "
                                   "is out of range (null deref?)")
            raise MemoryError_(f"cannot store type {ctype}")
        return bad
    pack = struct.Struct(fmt).pack_into
    if isinstance(ctype, FloatType):
        if size == 4:
            def store(addr, value):
                if addr < 8 or addr + 4 > limit:
                    raise MemoryError_(f"access of 4 bytes at {addr:#x} is "
                                       "out of range (null deref?)")
                value = float(value)
                if value != 0 and abs(value) > _F32_MAX:
                    value = float("inf") if value > 0 else float("-inf")
                pack(data, addr, value)
            return store

        def store(addr, value):
            if addr < 8 or addr + 8 > limit:
                raise MemoryError_(f"access of 8 bytes at {addr:#x} is "
                                   "out of range (null deref?)")
            pack(data, addr, float(value))
        return store
    if isinstance(ctype, PointerType):
        def store(addr, value):
            if addr < 8 or addr + 4 > limit:
                raise MemoryError_(f"access of 4 bytes at {addr:#x} is "
                                   "out of range (null deref?)")
            pack(data, addr, int(value) & 0xFFFFFFFF)
        return store
    bits = size * 8
    mask = (1 << bits) - 1
    if ctype.signed:
        half = 1 << (bits - 1)
        full = 1 << bits

        def store(addr, value):
            if addr < 8 or addr + size > limit:
                raise MemoryError_(f"access of {size} bytes at {addr:#x} is "
                                   "out of range (null deref?)")
            value = int(value) & mask
            if value >= half:
                value -= full
            pack(data, addr, value)
        return store

    def store(addr, value):
        if addr < 8 or addr + size > limit:
            raise MemoryError_(f"access of {size} bytes at {addr:#x} is "
                               "out of range (null deref?)")
        pack(data, addr, int(value) & mask)
    return store


# ---------------------------------------------------------------------------
# Per-function compiler
# ---------------------------------------------------------------------------


class _CompiledFunction:
    __slots__ = ("fn", "invoke", "cells")

    def __init__(self, fn: N.ILFunction,
                 invoke: Callable[[List[Value]], Optional[Value]],
                 cells: Sequence[List] = ()):
        self.fn = fn
        self.invoke = invoke
        #: The step network's successor cells (``[step]`` each).  A
        #: loop makes the steps a reference cycle through them.
        self.cells = cells

    def close(self) -> None:
        """Unlink the step network so it is freed with its engine."""
        for cell in self.cells:
            cell[0] = None
        self.invoke = None


class _FrameLayout:
    """Compile-time slot assignment for one ILFunction's activation:
    slot 0 is the return value, then registers, per-activation
    addresses of memory-backed locals, and captured DO-loop bounds.
    Shared by the closure compiler (list-indexed frames) and the code
    generator (one Python local per slot)."""

    def __init__(self, engine, fn: N.ILFunction):
        self.engine = engine
        self.fn = fn
        self._nslots = 1  # slot 0 holds the return value
        self._reg_slots: Dict[Symbol, int] = {}
        self._mem_slots: Dict[Symbol, int] = {}
        self._hi_slots: Dict[int, int] = {}
        # Tree-walker allocation order (duplicates preserved: a symbol
        # listed twice is allocated twice and keeps the last address).
        self._mem_allocs: List[Tuple[int, CType]] = []
        for sym in _memory_locals(fn):
            slot = self._mem_slots.get(sym)
            if slot is None:
                slot = self._new_slot()
                self._mem_slots[sym] = slot
            self._mem_allocs.append((slot, sym.ctype))

    # -- slots -------------------------------------------------------------

    def _new_slot(self) -> int:
        slot = self._nslots
        self._nslots += 1
        return slot

    def _binding(self, sym: Symbol) -> Tuple[str, int]:
        slot = self._mem_slots.get(sym)
        if slot is not None:
            return ("mem", slot)
        if self.engine.memory.has_storage(sym):
            return ("global", self.engine.memory.address_of(sym))
        slot = self._reg_slots.get(sym)
        if slot is None:
            slot = self._new_slot()
            self._reg_slots[sym] = slot
        return ("reg", slot)

    def _hi_slot(self, sid: int) -> int:
        slot = self._hi_slots.get(sid)
        if slot is None:
            slot = self._new_slot()
            self._hi_slots[sid] = slot
        return slot


class _FunctionCompiler(_FrameLayout):
    """Lowers one ILFunction's flow graph into a step-closure network.

    Every closure has ``hook`` bound in and emits the exact event
    order of the tree walker.  The engine passes its cost hook, or
    :func:`_no_hook` when a function the code generator cannot lower
    runs uninstrumented.
    """

    def __init__(self, engine, fn: N.ILFunction, hook: Callable):
        super().__init__(engine, fn)
        self.hook = hook
        self._read_cache: Dict[Symbol, Callable] = {}
        self._write_cache: Dict[Symbol, Callable] = {}

    # -- variable access ---------------------------------------------------

    def _make_read(self, sym: Symbol) -> Callable:
        cached = self._read_cache.get(sym)
        if cached is not None:
            return cached
        plain = self._make_plain_read(sym)
        if sym.is_volatile:
            fn = self._make_volatile_read(sym, plain)
        else:
            fn = plain
        self._read_cache[sym] = fn
        return fn

    def _make_plain_read(self, sym: Symbol) -> Callable:
        kind, where = self._binding(sym)
        if kind == "reg":
            name = sym.name

            def read(frame):
                value = frame[where]
                if value is _UNSET:
                    _raise_uninit(name)
                return value
            return read
        ctype = sym.ctype
        if _is_aggregate(ctype):
            def read(frame):
                raise InterpreterError(
                    f"scalar access at aggregate type {ctype}")
            return read
        load = _make_loader(self.engine.memory, ctype)
        hook = self.hook
        if kind == "mem":
            def read(frame):
                value = load(frame[where])
                hook("load", ctype)
                return value
            return read

        def read(frame):
            value = load(where)
            hook("load", ctype)
            return value
        return read

    def _make_volatile_read(self, sym: Symbol, plain: Callable) -> Callable:
        engine = self.engine

        def read(frame):
            device = engine.devices.get(sym.name)
            if device is not None:
                device.reads += 1
                if device.on_read is not None:
                    value = device.on_read()
                    if engine.memory.has_storage(sym):
                        engine.memory.store(
                            engine.memory.address_of(sym),
                            _scalar_type(sym.ctype), value)
                    return value
            return plain(frame)
        return read

    def _make_write(self, sym: Symbol) -> Callable:
        cached = self._write_cache.get(sym)
        if cached is not None:
            return cached
        conv = _make_converter(sym.ctype)
        plain = self._make_plain_write(sym)
        if sym.is_volatile:
            engine = self.engine

            def write(frame, value):
                value = conv(value)
                device = engine.devices.get(sym.name)
                if device is not None:
                    device.writes += 1
                    if device.on_write is not None:
                        device.on_write(value)
                plain(frame, value)
            fn = write
        else:
            def write(frame, value):
                plain(frame, conv(value))
            fn = write
        self._write_cache[sym] = fn
        return fn

    def _make_plain_write(self, sym: Symbol) -> Callable:
        """Post-conversion write (register slot or memory store)."""
        kind, where = self._binding(sym)
        if kind == "reg":
            def write(frame, value):
                frame[where] = value
            return write
        ctype = sym.ctype
        if _is_aggregate(ctype):
            def write(frame, value):
                raise InterpreterError(
                    f"scalar access at aggregate type {ctype}")
            return write
        store = _make_storer(self.engine.memory, ctype)
        hook = self.hook
        if kind == "mem":
            def write(frame, value):
                store(frame[where], value)
                hook("store", ctype)
            return write

        def write(frame, value):
            store(where, value)
            hook("store", ctype)
        return write

    # -- expressions -------------------------------------------------------

    def _operand(self, expr: N.Expr):
        """Inlineable operand: ('const', v) or ('reg', slot, name)."""
        if isinstance(expr, N.Const):
            return ("const", expr.value)
        if isinstance(expr, N.VarRef) and not expr.sym.is_volatile:
            kind, where = self._binding(expr.sym)
            if kind == "reg":
                return ("reg", where, expr.sym.name)
        return None

    def _compile_expr(self, expr: N.Expr) -> Callable:
        if isinstance(expr, N.Const):
            value = expr.value
            return lambda frame: value
        if isinstance(expr, N.VarRef):
            return self._make_read(expr.sym)
        if isinstance(expr, N.AddrOf):
            return self._compile_addrof(expr)
        if isinstance(expr, N.Mem):
            return self._compile_mem(expr)
        if isinstance(expr, N.BinOp):
            return self._compile_binop(expr)
        if isinstance(expr, N.UnOp):
            return self._compile_unop(expr)
        if isinstance(expr, N.Cast):
            conv = _make_converter(expr.ctype)
            oa = self._operand(expr.operand)
            if oa is not None:
                if oa[0] == "const":
                    value = oa[1]
                    return lambda frame: conv(value)
                _, slot, name = oa

                def cast(frame):
                    value = frame[slot]
                    if value is _UNSET:
                        _raise_uninit(name)
                    return conv(value)
                return cast
            operand = self._compile_expr(expr.operand)
            return lambda frame: conv(operand(frame))
        if isinstance(expr, N.Select):
            return self._compile_select(expr)
        if isinstance(expr, N.CallExpr):
            return self._compile_call(expr)

        def bad(frame):
            raise InterpreterError(f"cannot evaluate {expr!r}")
        return bad

    def _compile_select(self, expr: N.Select) -> Callable:
        """Lazy select, mirroring the oracle: condition first, then
        only the chosen arm, so a predicated guard keeps protecting
        the faulting load or division it guarded."""
        cond_f = self._compile_expr(expr.cond)
        then_f = self._compile_expr(expr.then)
        other_f = self._compile_expr(expr.otherwise)
        conv = _make_converter(expr.ctype)
        hook = self.hook
        kind = "flop" if expr.ctype.is_float else "intop"

        def select(frame):
            value = then_f(frame) if cond_f(frame) else other_f(frame)
            hook(kind, "select")
            return conv(value)
        return select

    def _compile_addrof(self, expr: N.AddrOf) -> Callable:
        sym = expr.sym
        slot = self._mem_slots.get(sym)
        if slot is not None:
            return lambda frame: frame[slot]
        engine = self.engine
        if engine.memory.has_storage(sym):
            addr = engine.memory.address_of(sym)
            return lambda frame: addr

        def addrof(frame):
            if not engine.memory.has_storage(sym):
                engine.memory.allocate_symbol(sym)
            return engine.memory.address_of(sym)
        return addrof

    def _compile_mem(self, expr: N.Mem) -> Callable:
        ctype = expr.ctype
        if _is_aggregate(ctype):
            addr_f = self._compile_expr(expr.addr)

            def bad(frame):
                int(addr_f(frame))
                raise InterpreterError(
                    f"scalar access at aggregate type {ctype}")
            return bad
        load = _make_loader(self.engine.memory, ctype)
        hook = self.hook
        addr_f = self._compile_expr(expr.addr)

        def mem(frame):
            value = load(int(addr_f(frame)))
            hook("load", ctype)
            return value
        return mem

    def _compile_binop(self, expr: N.BinOp) -> Callable:
        impl = _binop_impl(expr.op, expr.ctype)
        hook = self.hook
        left = self._compile_expr(expr.left)
        right = self._compile_expr(expr.right)
        kind = "flop" if expr.ctype.is_float else "intop"
        op = expr.op

        def binop(frame):
            a = left(frame)
            b = right(frame)
            hook(kind, op)
            return impl(a, b)
        return binop

    def _compile_unop(self, expr: N.UnOp) -> Callable:
        impl = _unop_impl(expr.op, expr.ctype)
        hook = self.hook
        operand = self._compile_expr(expr.operand)
        kind = "flop" if expr.ctype.is_float else "intop"
        op = expr.op

        def unop(frame):
            value = operand(frame)
            hook(kind, op)
            return impl(value)
        return unop

    def _compile_call(self, expr: N.CallExpr) -> Callable:
        engine = self.engine
        name = expr.name
        arg_fs = tuple(self._compile_expr(a) for a in expr.args)
        functions_get = engine.program.functions.get
        exec_fn = engine._exec_function
        call_builtin = engine._call_builtin
        hook = self.hook

        def call(frame):
            args = [af(frame) for af in arg_fs]
            hook("call", name)
            fn = functions_get(name)
            if fn is not None:
                result = exec_fn(fn, args)
                return 0 if result is None else result
            return call_builtin(name, args)
        return call

    # -- vector statements -------------------------------------------------

    def _compile_vector_elem(self, expr: N.Expr,
                             cache_slots: List[int]) -> Callable:
        """Element evaluator ``f(index, frame, cache)``.  Section base
        addresses and broadcast scalars are cached per statement
        execution (evaluated once, with their cost events)."""
        if isinstance(expr, N.Section):
            slot = len(cache_slots)
            cache_slots.append(slot)
            addr_f = self._compile_expr(expr.addr)
            ctype = expr.ctype
            if _is_aggregate(ctype):
                def bad(index, frame, cache):
                    addr = cache[slot]
                    if addr is None:
                        cache[slot] = int(addr_f(frame))
                    raise InterpreterError(
                        f"scalar access at aggregate type {ctype}")
                return bad
            load = _make_loader(self.engine.memory, ctype)
            step = expr.stride * ctype.sizeof()

            def section(index, frame, cache):
                addr = cache[slot]
                if addr is None:
                    addr = int(addr_f(frame))
                    cache[slot] = addr
                return load(addr + index * step)
            return section
        if isinstance(expr, N.BinOp):
            impl = _binop_impl(expr.op, expr.ctype)
            left = self._compile_vector_elem(expr.left, cache_slots)
            right = self._compile_vector_elem(expr.right, cache_slots)

            def binop(index, frame, cache):
                return impl(left(index, frame, cache),
                            right(index, frame, cache))
            return binop
        if isinstance(expr, N.UnOp):
            impl = _unop_impl(expr.op, expr.ctype)
            operand = self._compile_vector_elem(expr.operand, cache_slots)

            def unop(index, frame, cache):
                return impl(operand(index, frame, cache))
            return unop
        if isinstance(expr, N.Cast):
            conv = _make_converter(expr.ctype)
            operand = self._compile_vector_elem(expr.operand, cache_slots)

            def cast(index, frame, cache):
                return conv(operand(index, frame, cache))
            return cast
        if isinstance(expr, N.Select):
            conv = _make_converter(expr.ctype)
            cond_f = self._compile_vector_elem(expr.cond, cache_slots)
            then_f = self._compile_vector_elem(expr.then, cache_slots)
            other_f = self._compile_vector_elem(expr.otherwise,
                                                cache_slots)

            def select(index, frame, cache):
                # Lazy per lane, mirroring the oracle: the untaken
                # arm of this lane is never evaluated.
                arm = then_f if cond_f(index, frame, cache) else other_f
                return conv(arm(index, frame, cache))
            return select
        if isinstance(expr, N.Iota):
            slot = len(cache_slots)
            cache_slots.append(slot)
            start_f = self._compile_expr(expr.start)

            def iota(index, frame, cache):
                start = cache[slot]
                if start is None:
                    start = int(start_f(frame))
                    cache[slot] = start
                return start + index
            return iota
        # Scalars broadcast: evaluate once (with cost events), cache.
        slot = len(cache_slots)
        cache_slots.append(slot)
        scalar_f = self._compile_expr(expr)

        def broadcast(index, frame, cache):
            value = cache[slot]
            if value is None:
                value = scalar_f(frame)
                cache[slot] = value
            return value
        return broadcast

    def _compile_vector_assign(self, stmt: N.VectorAssign) -> Callable:
        target = stmt.target
        length_f = self._compile_expr(target.length)
        cache_slots: List[int] = []
        # The mask is compiled (and at runtime evaluated) before the
        # value, matching the oracle: every lane's mask first, then the
        # value for the *active* lanes only, so a guard that protected
        # a faulting load or zero divisor keeps protecting it.
        mask_f = None
        if stmt.mask is not None:
            mask_f = self._compile_vector_elem(stmt.mask, cache_slots)
        elem_f = self._compile_vector_elem(stmt.value, cache_slots)
        addr_f = self._compile_expr(target.addr)
        ncache = len(cache_slots)
        ctype = target.ctype
        if _is_aggregate(ctype):
            def bad(frame):
                length = int(length_f(frame))
                if length <= 0:
                    return
                cache = [None] * ncache
                if mask_f is None:
                    for i in range(length):
                        elem_f(i, frame, cache)
                else:
                    masks = [mask_f(i, frame, cache)
                             for i in range(length)]
                    for i in range(length):
                        if masks[i]:
                            elem_f(i, frame, cache)
                int(addr_f(frame))
                raise InterpreterError(
                    f"scalar access at aggregate type {ctype}")
            return bad
        store = _make_storer(self.engine.memory, ctype)
        stride_bytes = target.stride * ctype.sizeof()
        hook = self.hook
        events = tuple(vector_instructions(stmt))
        if mask_f is None:
            def vassign(frame):
                length = int(length_f(frame))
                if length <= 0:
                    return
                cache = [None] * ncache
                values = [elem_f(i, frame, cache) for i in range(length)]
                base = int(addr_f(frame))
                for i, value in enumerate(values):
                    store(base + i * stride_bytes, value)
                for op, stride in events:
                    hook("vector", op, length, stride)
            return vassign

        def vassign(frame):
            length = int(length_f(frame))
            if length <= 0:
                return
            cache = [None] * ncache
            masks = [mask_f(i, frame, cache) for i in range(length)]
            values = [elem_f(i, frame, cache) if masks[i] else None
                      for i in range(length)]
            base = int(addr_f(frame))
            for i, value in enumerate(values):
                if masks[i]:
                    store(base + i * stride_bytes, value)
            for op, stride in events:
                hook("vector", op, length, stride)
        return vassign

    def _compile_vector_reduce(self, stmt: N.VectorReduce) -> Callable:
        length_f = self._compile_expr(stmt.length)
        read_acc = self._make_read(stmt.target.sym)
        write_acc = self._make_write(stmt.target.sym)
        impl = _binop_impl(stmt.op, stmt.target.ctype)
        cache_slots: List[int] = []
        elem_f = self._compile_vector_elem(stmt.value, cache_slots)
        ncache = len(cache_slots)
        hook = self.hook
        op = stmt.op

        def vreduce(frame):
            length = int(length_f(frame))
            acc = read_acc(frame)
            if length > 0:
                cache = [None] * ncache
                for i in range(length):
                    acc = impl(acc, elem_f(i, frame, cache))
                hook("vector_reduce", op, length)
            write_acc(frame, acc)
        return vreduce

    # -- statements --------------------------------------------------------

    def _compile_assign(self, stmt: N.Assign) -> Callable:
        value_f = self._compile_expr(stmt.value)
        target = stmt.target
        if isinstance(target, N.VarRef):
            sym = target.sym
            if not sym.is_volatile:
                kind, where = self._binding(sym)
                if kind == "reg":
                    conv = _make_converter(sym.ctype)

                    def assign(frame):
                        frame[where] = conv(value_f(frame))
                    return assign
            write = self._make_write(sym)

            def assign(frame):
                write(frame, value_f(frame))
            return assign
        if isinstance(target, N.Mem):
            ctype = target.ctype
            addr_f = self._compile_expr(target.addr)
            if _is_aggregate(ctype):
                def bad(frame):
                    value_f(frame)
                    addr_f(frame)
                    raise InterpreterError(
                        f"scalar access at aggregate type {ctype}")
                return bad
            store = _make_storer(self.engine.memory, ctype)
            hook = self.hook

            def assign(frame):
                value = value_f(frame)
                store(int(addr_f(frame)), value)
                hook("store", ctype)
            return assign

        def bad_target(frame):
            value_f(frame)
            raise InterpreterError(f"bad assign target {target!r}")
        return bad_target

    def _compile_leaf_stmt(self, stmt: N.Stmt) -> Callable:
        if isinstance(stmt, N.VectorAssign):
            return self._compile_vector_assign(stmt)
        if isinstance(stmt, N.VectorReduce):
            return self._compile_vector_reduce(stmt)
        return self._compile_assign(stmt)

    def _compile_stmt_list(self, stmts: Sequence[N.Stmt]) -> Callable:
        """Structured executor for parallel loop bodies — one tick per
        statement, exactly like the oracle's ``_exec_stmt_list``."""
        fns = tuple(self._compile_struct_stmt(s) for s in stmts)
        tick = self.engine._tick_compiled
        if not fns:
            return lambda frame: None

        def run(frame):
            for fn in fns:
                tick()
                fn(frame)
        return run

    def _compile_struct_stmt(self, stmt: N.Stmt) -> Callable:
        if isinstance(stmt, (N.Assign, N.VectorAssign, N.VectorReduce)):
            return self._compile_leaf_stmt(stmt)
        if isinstance(stmt, N.CallStmt):
            return self._compile_call(stmt.call)
        if isinstance(stmt, N.IfStmt):
            cond_f = self._compile_expr(stmt.cond)
            then_run = self._compile_stmt_list(stmt.then)
            else_run = self._compile_stmt_list(stmt.otherwise)
            hook = self.hook

            def ifstmt(frame):
                if cond_f(frame):
                    then_run(frame)
                else:
                    else_run(frame)
                hook("branch")
            return ifstmt
        if isinstance(stmt, N.WhileLoop):
            cond_f = self._compile_expr(stmt.cond)
            body_run = self._compile_stmt_list(stmt.body)
            tick = self.engine._tick_compiled

            def whileloop(frame):
                while cond_f(frame):
                    tick()
                    body_run(frame)
            return whileloop
        if isinstance(stmt, N.DoLoop):
            # Nested DO loops run serially inside a parallel body,
            # parallel/vector flags included — like the oracle.
            lo_f = self._compile_expr(stmt.lo)
            hi_f = self._compile_expr(stmt.hi)
            write_var = self._make_write(stmt.var)
            body_run = self._compile_stmt_list(stmt.body)
            tick = self.engine._tick_compiled
            step = stmt.step
            sid = stmt.sid
            hook = self.hook

            def doloop(frame):
                lo = lo_f(frame)
                hi = hi_f(frame)
                hook("do_enter", sid)
                for value in _trip_values(lo, hi, step):
                    tick()
                    write_var(frame, value)
                    body_run(frame)
                    hook("do_iter", sid)
                    hook("branch")
                hook("do_exit", sid)
            return doloop

        def bad(frame):
            raise InterpreterError(
                f"statement {type(stmt).__name__} not allowed inside "
                "a parallel loop body")
        return bad

    # -- special loops -----------------------------------------------------

    def _compile_special_loop(self, node: FlowNode, stmt: N.DoLoop,
                              cell: Callable) -> Callable:
        """Parallel (or parallel-vector) DoLoop executed as one flow
        node, mirroring the oracle's ``_exec_special_loop``."""
        engine = self.engine
        hook = self.hook
        lo_f = self._compile_expr(stmt.lo)
        hi_f = self._compile_expr(stmt.hi)
        write_var = self._make_write(stmt.var)
        body_run = self._compile_stmt_list(stmt.body)
        step = stmt.step
        sid = stmt.sid
        # do_init -> do_cond; the 'after' join is do_cond's false branch.
        after = cell(node.succs[0].false_succ)
        if stmt.parallel:
            def special(frame):
                lo = lo_f(frame)
                hi = hi_f(frame)
                trips = _trip_values(lo, hi, step)
                order = engine.parallel_order
                if order == "reverse":
                    trips = list(reversed(trips))
                elif order == "shuffle":
                    trips = list(trips)
                    engine._rng.shuffle(trips)
                hook("parallel_begin", sid)
                for value in trips:
                    write_var(frame, value)
                    body_run(frame)
                hook("parallel_end", sid, len(trips))
                write_var(frame, trips[-1] + step if trips else lo)
                return after[0]
            return special

        def special(frame):
            lo = lo_f(frame)
            hi = hi_f(frame)
            trips = _trip_values(lo, hi, step)
            hook("do_enter", sid)
            for value in trips:
                write_var(frame, value)
                body_run(frame)
                hook("do_iter", sid)
            hook("do_exit", sid)
            write_var(frame, trips[-1] + step if trips else lo)
            return after[0]
        return special

    def _compile_list_loop(self, stmt: N.ListParallelLoop) -> Callable:
        engine = self.engine
        hook = self.hook
        tick = engine._tick_compiled
        read_ptr = self._make_read(stmt.ptr)
        write_ptr = self._make_write(stmt.ptr)
        advance_run = self._compile_stmt_list(stmt.advance)
        body_run = self._compile_stmt_list(stmt.body)
        sid = stmt.sid

        def listloop(frame):
            nodes: List[Value] = []
            while True:
                tick()
                current = read_ptr(frame)
                if not current:
                    break
                nodes.append(current)
                advance_run(frame)
                hook("list_chase", 1)
                if len(nodes) > engine.max_steps:
                    raise StepLimitExceeded("unterminated list traversal")
            order = list(nodes)
            if engine.parallel_order == "reverse":
                order.reverse()
            elif engine.parallel_order == "shuffle":
                engine._rng.shuffle(order)
            hook("parallel_begin", sid)
            for node_addr in order:
                tick()
                write_ptr(frame, node_addr)
                body_run(frame)
            hook("parallel_end", sid, len(order))
            write_ptr(frame, 0)
        return listloop

    # -- flow nodes --------------------------------------------------------

    def _compile_flow(self, graph: FlowGraph) -> Callable:
        exit_node = graph.exit
        cells: Dict[FlowNode, List] = {}

        def cell(node: Optional[FlowNode]):
            if node is None or node is exit_node:
                return _NONE_CELL
            entry = cells.get(node)
            if entry is None:
                entry = [None]
                cells[node] = entry
            return entry

        compiled = {node: self._compile_node(node, cell)
                    for node in graph.nodes if node is not exit_node}
        for node, fn in compiled.items():
            cell(node)[0] = fn
        self._cells = tuple(cells.values())
        return compiled[graph.entry]

    def _compile_node(self, node: FlowNode, cell: Callable) -> Callable:
        kind = node.kind
        hook = self.hook
        if kind in ("entry", "label", "join", "goto"):
            succ = cell(node.succs[0] if node.succs else None)
            return lambda frame: succ[0]
        if kind == "assign":
            run = self._compile_leaf_stmt(node.stmt)
            succ = cell(node.succs[0] if node.succs else None)

            def assign_step(frame):
                run(frame)
                return succ[0]
            return assign_step
        if kind == "call":
            run = self._compile_call(node.stmt.call)
            succ = cell(node.succs[0] if node.succs else None)

            def call_step(frame):
                run(frame)
                return succ[0]
            return call_step
        if kind == "cond":
            cond_f = self._compile_expr(node.stmt.cond)
            on_true = cell(node.true_succ)
            on_false = cell(node.false_succ)

            def cond_step(frame):
                value = cond_f(frame)
                hook("branch")
                return on_true[0] if value else on_false[0]
            return cond_step
        if kind == "do_init":
            stmt = node.stmt
            if stmt.parallel or stmt.vector:
                return self._compile_special_loop(node, stmt, cell)
            write_var = self._make_write(stmt.var)
            lo_f = self._compile_expr(stmt.lo)
            hi_f = self._compile_expr(stmt.hi)
            hi_slot = self._hi_slot(stmt.sid)
            succ = cell(node.succs[0] if node.succs else None)
            sid = stmt.sid

            def do_init(frame):
                write_var(frame, lo_f(frame))
                frame[hi_slot] = hi_f(frame)
                hook("do_enter", sid)
                return succ[0]
            return do_init
        if kind == "do_cond":
            stmt = node.stmt
            read_var = self._make_read(stmt.var)
            hi_f = self._compile_expr(stmt.hi)
            hi_slot = self._hi_slot(stmt.sid)
            on_true = cell(node.true_succ)
            on_false = cell(node.false_succ)
            upward = stmt.step > 0
            sid = stmt.sid

            def do_cond(frame):
                var = read_var(frame)
                hi = frame[hi_slot]
                if hi is _UNSET:
                    hi = hi_f(frame)
                taken = var <= hi if upward else var >= hi
                hook("branch")
                if taken:
                    return on_true[0]
                hook("do_exit", sid)
                return on_false[0]
            return do_cond
        if kind == "do_step":
            stmt = node.stmt
            succ = cell(node.succs[0] if node.succs else None)
            step = stmt.step
            sid = stmt.sid
            sym = stmt.var
            read_var = self._make_read(sym)
            write_var = self._make_write(sym)

            def do_step(frame):
                write_var(frame, read_var(frame) + step)
                hook("intop", "+")
                hook("do_iter", sid)
                return succ[0]
            return do_step
        if kind == "list_loop":
            run = self._compile_list_loop(node.stmt)
            succ = cell(node.succs[0] if node.succs else None)

            def list_step(frame):
                run(frame)
                return succ[0]
            return list_step
        if kind == "return":
            stmt = node.stmt
            if stmt.value is None:
                def ret(frame):
                    frame[0] = None
                    return None
                return ret
            value_f = self._compile_expr(stmt.value)

            def ret(frame):
                frame[0] = value_f(frame)
                return None
            return ret

        def bad(frame):
            raise InterpreterError(f"cannot execute node {node!r}")
        return bad

    # -- entry point -------------------------------------------------------

    def compile(self) -> _CompiledFunction:
        fn = self.fn
        engine = self.engine
        entry_f = self._compile_flow(engine._graph(fn))
        param_writes = tuple(self._make_write(sym) for sym in fn.params)
        mem_allocs = tuple(self._mem_allocs)
        nparams = len(fn.params)
        name = fn.name
        nslots = self._nslots  # final slot count, after all compiles
        memory = engine.memory
        cell = engine._step_cell
        hook = self.hook

        def invoke(args):
            if len(args) != nparams:
                raise InterpreterError(
                    f"{name} expects {nparams} args, got {len(args)}")
            frame = [_UNSET] * nslots
            frame[0] = None
            mark = memory.mark()
            for slot, ctype in mem_allocs:
                frame[slot] = memory.allocate(ctype.sizeof())
            for write, value in zip(param_writes, args):
                write(frame, value)
            hook("fn_enter", name)
            try:
                max_steps = engine.max_steps
                step = entry_f
                while step is not None:
                    count = cell[0] + 1
                    cell[0] = count
                    if count > max_steps:
                        raise StepLimitExceeded(
                            f"exceeded {max_steps} steps (infinite loop?)")
                    step = step(frame)
                return frame[0]
            finally:
                memory.release(mark)
                hook("fn_exit", name)
        return _CompiledFunction(fn, invoke, self._cells)
