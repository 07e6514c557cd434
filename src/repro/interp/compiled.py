"""Closure-compiled execution engine for the IL.

The tree walker in :mod:`repro.interp.interpreter` re-does
``isinstance`` dispatch, symbol-dict lookups, and cost-hook ``None``
checks on every dynamic operation — exactly the interpretation
overhead the paper's Titan avoided by compiling.  This module removes
it the same way a threaded-code compiler does: each function's flow
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
* The cost hook is compiled in only when one is installed.  With no
  hook (the plain-interpreter configuration) the hot path contains
  zero per-op conditionals; with a hook (the Titan simulator) every
  event is emitted in exactly the order the tree walker emits it, so
  cycle counts, profiler attribution, and the profiler's sum-to-total
  invariant are bit-identical across engines.

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
from .interpreter import (Interpreter, InterpreterError, StepLimitExceeded,
                          Value, _memory_locals, _scalar_type, _trip_values)
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


class _FunctionCompiler:
    """Lowers one ILFunction's flow graph into a step-closure network.

    ``self.hook`` is the engine's cost hook *at compile time*; every
    closure is built either with the hook bound in (emitting the exact
    event order of the tree walker) or with no hook code at all.
    """

    def __init__(self, engine: "CompiledInterpreter", fn: N.ILFunction):
        self.engine = engine
        self.fn = fn
        self.hook = engine.cost_hook
        self._nslots = 1  # slot 0 holds the return value
        self._reg_slots: Dict[Symbol, int] = {}
        self._mem_slots: Dict[Symbol, int] = {}
        self._hi_slots: Dict[int, int] = {}
        self._read_cache: Dict[Symbol, Callable] = {}
        self._write_cache: Dict[Symbol, Callable] = {}
        self._tmpn = 0  # unique temp names for generated source
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
            if hook is None:
                return lambda frame: load(frame[where])

            def read(frame):
                value = load(frame[where])
                hook("load", ctype)
                return value
            return read
        if hook is None:
            return lambda frame: load(where)

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
            if hook is None:
                return lambda frame, value: store(frame[where], value)

            def write(frame, value):
                store(frame[where], value)
                hook("store", ctype)
            return write
        if hook is None:
            return lambda frame, value: store(where, value)

        def write(frame, value):
            store(where, value)
            hook("store", ctype)
        return write

    # -- source code generation (hook-free fast path) ----------------------
    #
    # With no cost hook installed, expressions and the hottest flow
    # nodes are emitted as Python source with conversions (integer
    # wrap masks, float narrowing) and slot reads inlined, then
    # compiled once.  This collapses a tree of nested closure calls
    # into a single Python frame.  Anything that cannot be inlined
    # (function calls, volatiles, division's fault order, aggregates)
    # is bound into the namespace as a pre-compiled closure, so the
    # generated code is never wrong — at worst it is just a closure
    # call.  With a hook installed this layer is skipped entirely and
    # the event-emitting closures above run instead.

    #: Comparison operators are plain Python and yield raw 0/1.
    _CMP_OPS = frozenset(("==", "!=", "<", ">", "<=", ">="))
    #: Operators inlined with a conversion wrapper.
    _ARITH_OPS = frozenset(("+", "-", "*", "<<", ">>", "&", "|", "^"))

    def _bind(self, env: Dict[str, object], obj: object) -> str:
        name = f"_g{len(env)}"
        env[name] = obj
        return name

    def _bind_frame_call(self, env: Dict[str, object],
                         fn: Callable) -> str:
        return f"{self._bind(env, fn)}(frame)"

    def _gen_conv(self, raw: str, ctype: CType,
                  env: Dict[str, object]) -> str:
        """Wrap ``raw`` source in this type's value conversion."""
        if isinstance(ctype, FloatType):
            if ctype.sizeof() == 4:
                # In-range values round through the pre-bound codecs
                # inline; NaN and overflow fall back to _f32 (the
                # chained comparison is False for NaN).
                pk = self._bind(env, _F32_PACK)
                up = self._bind(env, _F32_UNPACK)
                t = self._tmp_name()
                return (f"({up}({pk}({t}))[0] if "
                        f"-{_F32_MAX!r} <= ({t} := float({raw})) "
                        f"<= {_F32_MAX!r} else _f32({t}))")
            return f"float({raw})"
        if isinstance(ctype, IntType):
            bits = ctype.sizeof() * 8
            mask = (1 << bits) - 1
            if ctype.signed:
                half = 1 << (bits - 1)
                return f"(((int({raw}) & {mask}) ^ {half}) - {half})"
            return f"(int({raw}) & {mask})"
        if isinstance(ctype, PointerType):
            return f"(int({raw}) & 4294967295)"
        return raw

    def _tmp_name(self) -> str:
        self._tmpn += 1
        return f"_t{self._tmpn}"

    def _gen_load(self, addr_src: str, ctype: CType,
                  env: Dict[str, object],
                  const_addr: Optional[int] = None) -> str:
        """Inline memory load: bounds check + pre-bound unpack, with
        the validated loader closure kept on the fault path so error
        messages stay exact."""
        memory = self.engine.memory
        fmt = _struct_format(ctype)
        if fmt is None:
            return (f"{self._bind(env, _make_loader(memory, ctype))}"
                    f"({addr_src})")
        limit = len(memory.data) - ctype.sizeof()
        unpack = self._bind(env, struct.Struct(fmt).unpack_from)
        data = self._bind(env, memory.data)
        if const_addr is not None and 8 <= const_addr <= limit:
            return f"{unpack}({data}, {const_addr})[0]"
        fault = self._bind(env, _make_loader(memory, ctype))
        t = self._tmp_name()
        return (f"({unpack}({data}, {t})[0] "
                f"if 8 <= ({t} := {addr_src}) <= {limit} "
                f"else {fault}({t}))")

    def _gen_var_read(self, sym: Symbol, env: Dict[str, object]) -> str:
        if not sym.is_volatile:
            kind, where = self._binding(sym)
            if kind == "reg":
                un = self._bind(env, sym.name)
                return (f"(frame[{where}] if frame[{where}] is not _U "
                        f"else _ui({un}))")
            if not _is_aggregate(sym.ctype):
                if kind == "mem":
                    return self._gen_load(f"frame[{where}]",
                                          sym.ctype, env)
                return self._gen_load(str(where), sym.ctype, env,
                                      const_addr=where)
        return self._bind_frame_call(env, self._make_read(sym))

    def _gen(self, expr: N.Expr, env: Dict[str, object]) -> str:
        if isinstance(expr, N.Const):
            value = expr.value
            if isinstance(value, float) and \
                    (value != value or value in (math.inf, -math.inf)):
                return self._bind(env, value)
            return f"({value!r})"
        if isinstance(expr, N.VarRef):
            return self._gen_var_read(expr.sym, env)
        if isinstance(expr, N.AddrOf):
            sym = expr.sym
            slot = self._mem_slots.get(sym)
            if slot is not None:
                return f"frame[{slot}]"
            if self.engine.memory.has_storage(sym):
                return f"({self.engine.memory.address_of(sym)})"
            return self._bind_frame_call(env, self._compile_addrof(expr))
        if isinstance(expr, N.Mem):
            if _is_aggregate(expr.ctype):
                return self._bind_frame_call(env,
                                             self._compile_mem(expr))
            addr = f"int({self._gen(expr.addr, env)})"
            return self._gen_load(addr, expr.ctype, env)
        if isinstance(expr, N.BinOp):
            op = expr.op
            left = self._gen(expr.left, env)
            right = self._gen(expr.right, env)
            if op in self._CMP_OPS:
                return f"(1 if ({left}) {op} ({right}) else 0)"
            if op in self._ARITH_OPS:
                if op in ("<<", ">>"):
                    raw = f"(int({left}) {op} (int({right}) & 31))"
                elif op in ("&", "|", "^"):
                    raw = f"(int({left}) {op} int({right}))"
                else:
                    raw = f"(({left}) {op} ({right}))"
                return self._gen_conv(raw, expr.ctype, env)
            # Division/modulo fault ordering, min/max, and unknown
            # operators stay behind a pre-bound kernel; Python's
            # call-argument order keeps left-then-right evaluation.
            impl = self._bind(env, _binop_impl(op, expr.ctype))
            return f"{impl}(({left}), ({right}))"
        if isinstance(expr, N.UnOp):
            op = expr.op
            operand = self._gen(expr.operand, env)
            if op == "neg":
                return self._gen_conv(f"(-({operand}))", expr.ctype, env)
            if op == "not":
                return f"(0 if ({operand}) else 1)"
            if op == "bnot":
                return self._gen_conv(f"(~int({operand}))",
                                      expr.ctype, env)
            impl = self._bind(env, _unop_impl(op, expr.ctype))
            return f"{impl}({operand})"
        if isinstance(expr, N.Cast):
            return self._gen_conv(f"({self._gen(expr.operand, env)})",
                                  expr.ctype, env)
        if isinstance(expr, N.CallExpr):
            return self._bind_frame_call(env, self._compile_call(expr))
        if isinstance(expr, N.Select):
            # Python's conditional expression is lazy exactly like the
            # oracle's Select: condition, then only the chosen arm.
            cond = self._gen(expr.cond, env)
            then = self._gen(expr.then, env)
            other = self._gen(expr.otherwise, env)
            return self._gen_conv(
                f"(({then}) if ({cond}) else ({other}))",
                expr.ctype, env)
        # Section or future node kinds: defer to the closure compiler
        # (which raises the oracle's "cannot evaluate" lazily).
        return self._bind_frame_call(env, self._compile_expr(expr))

    def _gen_env(self) -> Dict[str, object]:
        return {"_U": _UNSET, "_ui": _raise_uninit,
                "_f32": _fast_round_f32}

    def _emit(self, source: str,
              env: Dict[str, object]) -> Optional[Callable]:
        if len(source) > 200_000:
            return None
        try:
            code = compile(source, "<titancc-codegen>", "exec")
        except (SyntaxError, RecursionError, MemoryError, ValueError):
            return None
        namespace: Dict[str, object] = {}
        exec(code, env, namespace)
        return namespace["_compiled_step"]

    def _emit_many(self, source: str, env: Dict[str, object]
                   ) -> Optional[Dict[str, object]]:
        """Compile a whole module of generated step functions in one
        ``exec`` (one parser invocation for all of a function's fused
        chains) and return its namespace."""
        if len(source) > 1_000_000:
            return None
        try:
            code = compile(source, "<titancc-codegen>", "exec")
        except (SyntaxError, RecursionError, MemoryError, ValueError):
            return None
        namespace: Dict[str, object] = {}
        exec(code, env, namespace)
        return namespace

    def _codegen_expr(self, expr: N.Expr) -> Optional[Callable]:
        env = self._gen_env()
        try:
            src = self._gen(expr, env)
        except RecursionError:
            return None
        if src.endswith("(frame)"):
            name = src[:-7]
            if name.startswith("_g") and name in env:
                return env[name]  # whole expr is one bound closure
        return self._emit(
            f"def _compiled_step(frame):\n    return {src}\n", env)

    def _expr(self, expr: N.Expr) -> Callable:
        """Best available compiled form of an expression: generated
        source with no hook installed, event-emitting closures else."""
        if self.hook is None:
            fn = self._codegen_expr(expr)
            if fn is not None:
                return fn
        return self._compile_expr(expr)

    def _gen_store_lines(self, addr_src: str, value_src: str,
                         ctype: CType, env: Dict[str, object],
                         const_addr: Optional[int] = None) -> List[str]:
        """Inline memory store: value into a temp first (the oracle's
        evaluation order), bounds check, conversion, pre-bound pack.
        The validated storer closure is kept on the fault path so the
        error message stays exact."""
        memory = self.engine.memory
        fmt = _struct_format(ctype)
        if fmt is None:
            store = self._bind(env, _make_storer(memory, ctype))
            return [f"{store}({addr_src}, {value_src})"]
        size = ctype.sizeof()
        limit = len(memory.data) - size
        pack = self._bind(env, struct.Struct(fmt).pack_into)
        data = self._bind(env, memory.data)
        v = self._tmp_name()
        lines = [f"{v} = {value_src}"]
        if const_addr is not None and 8 <= const_addr <= limit:
            a = str(const_addr)
        else:
            a = self._tmp_name()
            fault = self._bind(env, _make_storer(memory, ctype))
            lines += [f"{a} = {addr_src}",
                      f"if not (8 <= {a} <= {limit}):",
                      f"    {fault}({a}, {v})"]
        if isinstance(ctype, FloatType):
            if size == 4:
                inf = self._bind(env, math.inf)
                ninf = self._bind(env, -math.inf)
                lines += [f"{v} = float({v})",
                          f"if {v} != 0 and abs({v}) > {_F32_MAX!r}:",
                          f"    {v} = {inf} if {v} > 0 else {ninf}",
                          f"{pack}({data}, {a}, {v})"]
            else:
                lines.append(f"{pack}({data}, {a}, float({v}))")
        elif isinstance(ctype, PointerType):
            lines.append(f"{pack}({data}, {a}, int({v}) & 4294967295)")
        else:
            bits = size * 8
            mask = (1 << bits) - 1
            if ctype.signed:
                half = 1 << (bits - 1)
                lines.append(f"{pack}({data}, {a}, "
                             f"(((int({v}) & {mask}) ^ {half}) - {half}))")
            else:
                lines.append(f"{pack}({data}, {a}, int({v}) & {mask})")
        return lines

    def _gen_assign_lines(self, stmt: N.Assign,
                          env: Dict[str, object]) -> Optional[List[str]]:
        """Statement lines for a plain assignment, mirroring
        ``_compile_assign``'s no-hook semantics (value before address,
        write conversion only for variable targets)."""
        target = stmt.target
        if isinstance(target, N.VarRef) and not target.sym.is_volatile:
            sym = target.sym
            kind, where = self._binding(sym)
            if kind == "reg":
                value = self._gen_conv(self._gen(stmt.value, env),
                                       sym.ctype, env)
                return [f"frame[{where}] = {value}"]
            if _is_aggregate(sym.ctype):
                return None
            value = self._gen_conv(self._gen(stmt.value, env),
                                   sym.ctype, env)
            if kind == "mem":
                return self._gen_store_lines(f"frame[{where}]", value,
                                             sym.ctype, env)
            return self._gen_store_lines(str(where), value, sym.ctype,
                                         env, const_addr=where)
        if isinstance(target, N.Mem) and not _is_aggregate(target.ctype):
            value = self._gen(stmt.value, env)
            addr = f"int({self._gen(target.addr, env)})"
            return self._gen_store_lines(addr, value, target.ctype, env)
        return None  # volatile / aggregate / bad target: closure path

    def _emit_step(self, lines: Sequence[str],
                   env: Dict[str, object]) -> Optional[Callable]:
        body = "".join(f"    {line}\n" for line in lines)
        return self._emit(f"def _compiled_step(frame):\n{body}", env)

    def _codegen_assign(self, stmt: N.Assign) -> Optional[Callable]:
        env = self._gen_env()
        try:
            lines = self._gen_assign_lines(stmt, env)
        except RecursionError:
            return None
        if lines is None:
            return None
        return self._emit_step(lines, env)

    #: Max flow nodes fused into one generated step function.
    _FUSE_LIMIT = 32

    def _unfusable(self, expr: Optional[N.Expr]) -> bool:
        """True if evaluating ``expr`` may call back into the
        interpreter (function calls) or a device hook (volatiles) —
        such nodes end a fused chain because the chain caches the step
        count in a local."""
        if expr is None or isinstance(expr, (N.Const, N.AddrOf)):
            return False
        if isinstance(expr, N.VarRef):
            return expr.sym.is_volatile
        if isinstance(expr, N.Mem):
            return self._unfusable(expr.addr)
        if isinstance(expr, N.BinOp):
            return self._unfusable(expr.left) or \
                self._unfusable(expr.right)
        if isinstance(expr, (N.UnOp, N.Cast)):
            return self._unfusable(expr.operand)
        if isinstance(expr, N.Select):
            return (self._unfusable(expr.cond) or
                    self._unfusable(expr.then) or
                    self._unfusable(expr.otherwise))
        return True  # CallExpr, Section, unknown node kinds

    def _codegen_chain(self, start: FlowNode, cell: Callable,
                       env: Dict[str, object]) -> Optional[List[str]]:
        """Fuse a straight-line run of flow nodes into the body lines
        of one generated step function that does its own step
        accounting.  All chains of a function share ``env`` so
        :meth:`_compile_flow` can compile them in a single ``exec``.

        Each node in the chain contributes its tick (the exact
        tree-walker count, written back to the shared step cell before
        any faulting work) followed by its inlined body; the chain
        ends at a branch (compiled to a conditional successor return),
        a return, or the first node that may re-enter the interpreter
        (calls, volatiles, vector/parallel loops), which keeps its own
        self-ticking step closure.  Returns None when ``start`` itself
        can't head a chain.
        """
        eng = self._bind(env, self.engine)
        scell = self._bind(env, self.engine._step_cell)
        hit = self._bind(env, self.engine._hit_limit)
        lines = [f"_ms = {eng}.max_steps", f"count = {scell}[0]"]
        flushed = True  # does the step cell hold `count` right now?

        def tick():
            nonlocal flushed
            lines.append("count += 1")
            lines.append(f"if count > _ms: {hit}(count)")
            flushed = False

        def flush():
            nonlocal flushed
            if not flushed:
                lines.append(f"{scell}[0] = count")
                flushed = True

        def bail(node):
            # Hand off to the node's own self-ticking step.
            flush()
            lines.append(f"return {self._bind(env, cell(node))}[0]")

        node = start
        seen = set()
        try:
            while True:
                if node is None:
                    flush()
                    lines.append("return None")
                    break
                if node in seen or len(seen) >= self._FUSE_LIMIT:
                    bail(node)
                    break
                kind = node.kind
                stmt = node.stmt
                if kind in ("entry", "label", "join", "goto"):
                    seen.add(node)
                    tick()
                    node = node.succs[0] if node.succs else None
                    continue
                if kind == "assign" and isinstance(stmt, N.Assign) and \
                        not self._unfusable(stmt.value) and \
                        not (isinstance(stmt.target, N.Mem) and
                             self._unfusable(stmt.target.addr)):
                    body = self._gen_assign_lines(stmt, env)
                    if body is None:
                        if node is start:
                            return None
                        bail(node)
                        break
                    seen.add(node)
                    tick()
                    flush()
                    lines.extend(body)
                    node = node.succs[0] if node.succs else None
                    continue
                if kind == "cond" and not self._unfusable(stmt.cond):
                    seen.add(node)
                    tick()
                    flush()
                    src = self._gen(stmt.cond, env)
                    on_true = self._bind(env, cell(node.true_succ))
                    on_false = self._bind(env, cell(node.false_succ))
                    lines.append(f"return {on_true}[0] if {src} "
                                 f"else {on_false}[0]")
                    break
                if kind == "do_init" and not stmt.parallel and \
                        not stmt.vector and \
                        not self._unfusable(stmt.lo) and \
                        not self._unfusable(stmt.hi) and \
                        not stmt.var.is_volatile:
                    seen.add(node)
                    tick()
                    flush()
                    lo = self._gen(stmt.lo, env)
                    sym = stmt.var
                    bind_kind, where = self._binding(sym)
                    if bind_kind == "reg":
                        lines.append(f"frame[{where}] = " +
                                     self._gen_conv(lo, sym.ctype, env))
                    else:
                        write = self._bind(env, self._make_write(sym))
                        lines.append(f"{write}(frame, {lo})")
                    hi = self._gen(stmt.hi, env)
                    lines.append(
                        f"frame[{self._hi_slot(stmt.sid)}] = {hi}")
                    node = node.succs[0] if node.succs else None
                    continue
                if kind == "do_cond" and \
                        not self._unfusable(stmt.hi) and \
                        not stmt.var.is_volatile:
                    seen.add(node)
                    tick()
                    flush()
                    var = self._gen_var_read(stmt.var, env)
                    hi = self._gen(stmt.hi, env)
                    cmp_op = "<=" if stmt.step > 0 else ">="
                    on_true = self._bind(env, cell(node.true_succ))
                    on_false = self._bind(env, cell(node.false_succ))
                    v, h = self._tmp_name(), self._tmp_name()
                    lines += [f"{v} = {var}",
                              f"{h} = frame[{self._hi_slot(stmt.sid)}]",
                              f"if {h} is _U:",  # goto entry: live bound
                              f"    {h} = {hi}",
                              f"return {on_true}[0] if {v} {cmp_op} {h} "
                              f"else {on_false}[0]"]
                    break
                if kind == "do_step" and not stmt.var.is_volatile:
                    seen.add(node)
                    tick()
                    flush()
                    sym = stmt.var
                    step = stmt.step
                    bind_kind, where = self._binding(sym)
                    if bind_kind == "reg":
                        name = self._bind(env, sym.name)
                        v = self._tmp_name()
                        update = self._gen_conv(f"({v} + {step!r})",
                                                sym.ctype, env)
                        lines += [f"{v} = frame[{where}]",
                                  f"if {v} is _U:",
                                  f"    _ui({name})",
                                  f"frame[{where}] = {update}"]
                    else:
                        write = self._bind(env, self._make_write(sym))
                        var = self._gen_var_read(sym, env)
                        lines.append(
                            f"{write}(frame, ({var}) + {step!r})")
                    node = node.succs[0] if node.succs else None
                    continue
                if kind == "return" and \
                        (stmt.value is None or
                         not self._unfusable(stmt.value)):
                    seen.add(node)
                    tick()
                    flush()
                    if stmt.value is None:
                        lines.append("frame[0] = None")
                    else:
                        lines.append(
                            f"frame[0] = {self._gen(stmt.value, env)}")
                    lines.append("return None")
                    break
                # Calls, volatiles, vector/parallel/list loops: the
                # node keeps its own self-ticking closure.
                if node is start:
                    return None
                bail(node)
                break
        except RecursionError:
            return None
        if not seen:
            return None
        return lines

    def _make_ticked(self, fn: Callable) -> Callable:
        """Self-ticking wrapper for nodes that stay on the closure
        path when the rest of the graph runs as fused chains."""
        tick = self.engine._tick_compiled

        def ticked(frame):
            tick()
            return fn(frame)
        return ticked

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
        if hook is None:
            def select(frame):
                return conv(then_f(frame) if cond_f(frame)
                            else other_f(frame))
            return select
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
        if hook is not None:
            addr_f = self._compile_expr(expr.addr)

            def mem(frame):
                value = load(int(addr_f(frame)))
                hook("load", ctype)
                return value
            return mem
        oa = self._operand(expr.addr)
        if oa is not None:
            if oa[0] == "const":
                addr = int(oa[1])
                return lambda frame: load(addr)
            _, slot, name = oa

            def mem(frame):
                addr = frame[slot]
                if addr is _UNSET:
                    _raise_uninit(name)
                return load(int(addr))
            return mem
        addr_f = self._compile_expr(expr.addr)
        return lambda frame: load(int(addr_f(frame)))

    def _compile_binop(self, expr: N.BinOp) -> Callable:
        impl = _binop_impl(expr.op, expr.ctype)
        hook = self.hook
        if hook is not None:
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
        return self._fuse_binop(impl, expr.left, expr.right)

    def _fuse_binop(self, impl: Callable, left: N.Expr,
                    right: N.Expr) -> Callable:
        """Hook-free binop with register/constant operands inlined.
        Evaluation order (and therefore fault order) matches the
        oracle: left operand first."""
        la = self._operand(left)
        ra = self._operand(right)
        if la is not None and ra is not None:
            if la[0] == "reg" and ra[0] == "reg":
                _, ls, ln = la
                _, rs, rn = ra

                def rr(frame):
                    a = frame[ls]
                    if a is _UNSET:
                        _raise_uninit(ln)
                    b = frame[rs]
                    if b is _UNSET:
                        _raise_uninit(rn)
                    return impl(a, b)
                return rr
            if la[0] == "reg":
                _, ls, ln = la
                rv = ra[1]

                def rc(frame):
                    a = frame[ls]
                    if a is _UNSET:
                        _raise_uninit(ln)
                    return impl(a, rv)
                return rc
            if ra[0] == "reg":
                lv = la[1]
                _, rs, rn = ra

                def cr(frame):
                    b = frame[rs]
                    if b is _UNSET:
                        _raise_uninit(rn)
                    return impl(lv, b)
                return cr
            lv, rv = la[1], ra[1]
            return lambda frame: impl(lv, rv)
        if la is not None:
            rf = self._compile_expr(right)
            if la[0] == "reg":
                _, ls, ln = la

                def rx(frame):
                    a = frame[ls]
                    if a is _UNSET:
                        _raise_uninit(ln)
                    return impl(a, rf(frame))
                return rx
            lv = la[1]
            return lambda frame: impl(lv, rf(frame))
        lf = self._compile_expr(left)
        if ra is not None:
            if ra[0] == "reg":
                _, rs, rn = ra

                def xr(frame):
                    a = lf(frame)
                    b = frame[rs]
                    if b is _UNSET:
                        _raise_uninit(rn)
                    return impl(a, b)
                return xr
            rv = ra[1]
            return lambda frame: impl(lf(frame), rv)
        rf = self._compile_expr(right)
        return lambda frame: impl(lf(frame), rf(frame))

    def _compile_unop(self, expr: N.UnOp) -> Callable:
        impl = _unop_impl(expr.op, expr.ctype)
        hook = self.hook
        if hook is not None:
            operand = self._compile_expr(expr.operand)
            kind = "flop" if expr.ctype.is_float else "intop"
            op = expr.op

            def unop(frame):
                value = operand(frame)
                hook(kind, op)
                return impl(value)
            return unop
        oa = self._operand(expr.operand)
        if oa is not None:
            if oa[0] == "const":
                value = oa[1]
                return lambda frame: impl(value)
            _, slot, name = oa

            def unop(frame):
                value = frame[slot]
                if value is _UNSET:
                    _raise_uninit(name)
                return impl(value)
            return unop
        operand = self._compile_expr(expr.operand)
        return lambda frame: impl(operand(frame))

    def _compile_call(self, expr: N.CallExpr) -> Callable:
        engine = self.engine
        name = expr.name
        arg_fs = tuple(self._compile_expr(a) for a in expr.args)
        functions_get = engine.program.functions.get
        exec_fn = engine._exec_function
        call_builtin = engine._call_builtin
        hook = self.hook
        if hook is None:
            def call(frame):
                args = [af(frame) for af in arg_fs]
                fn = functions_get(name)
                if fn is not None:
                    result = exec_fn(fn, args)
                    return 0 if result is None else result
                return call_builtin(name, args)
            return call

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

    @staticmethod
    def _vector_events(value: N.Expr) -> List[Tuple[str, int]]:
        """The static part of the tree walker's ``_vector_cost`` walk:
        (op, stride) per vector instruction, in emission order."""
        events: List[Tuple[str, int]] = []

        def walk(expr: N.Expr) -> None:
            if isinstance(expr, N.Section):
                events.append(("load", expr.stride))
                return
            if isinstance(expr, N.Mem):
                return
            if isinstance(expr, N.Iota):
                events.append(("int_op", 1))
                return
            if isinstance(expr, (N.BinOp, N.UnOp)):
                kind = expr.op if expr.ctype.is_float else "int_op"
                events.append((kind, 1))
            elif isinstance(expr, N.Select):
                kind = "select" if expr.ctype.is_float else "int_op"
                events.append((kind, 1))
            for child in expr.children():
                walk(child)

        walk(value)
        return events

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
        if hook is None:
            if mask_f is None:
                def vassign(frame):
                    length = int(length_f(frame))
                    if length <= 0:
                        return
                    cache = [None] * ncache
                    values = [elem_f(i, frame, cache)
                              for i in range(length)]
                    base = int(addr_f(frame))
                    for i, value in enumerate(values):
                        store(base + i * stride_bytes, value)
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
            return vassign
        events = tuple(self._vector_events(stmt.value))
        if stmt.mask is not None:
            events = tuple(self._vector_events(stmt.mask)) + events
        tstride = target.stride
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
                hook("vector", "store", length, tstride)
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
            hook("vector", "mask_store", length, tstride)
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
        if hook is None:
            def vreduce(frame):
                length = int(length_f(frame))
                acc = read_acc(frame)
                if length > 0:
                    cache = [None] * ncache
                    for i in range(length):
                        acc = impl(acc, elem_f(i, frame, cache))
                write_acc(frame, acc)
            return vreduce

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
        if self.hook is None:
            fn = self._codegen_assign(stmt)
            if fn is not None:
                return fn
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
            if hook is None:
                def assign(frame):
                    value = value_f(frame)
                    store(int(addr_f(frame)), value)
                return assign

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
            if hook is None:
                def ifstmt(frame):
                    if cond_f(frame):
                        then_run(frame)
                    else:
                        else_run(frame)
                return ifstmt

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
            if hook is None:
                def doloop(frame):
                    lo = lo_f(frame)
                    hi = hi_f(frame)
                    for value in _trip_values(lo, hi, step):
                        tick()
                        write_var(frame, value)
                        body_run(frame)
                return doloop

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
                if hook is not None:
                    hook("parallel_begin", sid)
                for value in trips:
                    write_var(frame, value)
                    body_run(frame)
                if hook is not None:
                    hook("parallel_end", sid, len(trips))
                write_var(frame, trips[-1] + step if trips else lo)
                return after[0]
            return special

        if hook is None:
            def special(frame):
                lo = lo_f(frame)
                hi = hi_f(frame)
                trips = _trip_values(lo, hi, step)
                for value in trips:
                    write_var(frame, value)
                    body_run(frame)
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
                if hook is not None:
                    hook("list_chase", 1)
                if len(nodes) > engine.max_steps:
                    raise StepLimitExceeded("unterminated list traversal")
            order = list(nodes)
            if engine.parallel_order == "reverse":
                order.reverse()
            elif engine.parallel_order == "shuffle":
                engine._rng.shuffle(order)
            if hook is not None:
                hook("parallel_begin", sid)
            for node_addr in order:
                tick()
                write_ptr(frame, node_addr)
                body_run(frame)
            if hook is not None:
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

        compiled = {}
        if self.hook is None:
            # Hook-free: fused self-ticking chains, all compiled in
            # ONE exec per function (per-chain compile() calls were
            # the dominant one-time cost for short-lived programs);
            # nodes that can't head a chain keep their closure,
            # wrapped with the tick.
            env = self._gen_env()
            chains = []  # (node, generated function name, body lines)
            for node in graph.nodes:
                if node is exit_node:
                    continue
                lines = self._codegen_chain(node, cell, env)
                if lines is None:
                    compiled[node] = self._make_ticked(
                        self._compile_node(node, cell))
                else:
                    chains.append((node, f"_chain_{len(chains)}",
                                   lines))
            if chains:
                source = "\n".join(
                    f"def {fname}(frame):\n"
                    + "".join(f"    {line}\n" for line in body)
                    for _, fname, body in chains)
                namespace = self._emit_many(source, env)
                for node, fname, _ in chains:
                    if namespace is None:  # oversized/unparsable
                        compiled[node] = self._make_ticked(
                            self._compile_node(node, cell))
                    else:
                        compiled[node] = namespace[fname]
        else:
            for node in graph.nodes:
                if node is exit_node:
                    continue
                compiled[node] = self._compile_node(node, cell)
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
            if hook is None:
                def cond_step(frame):
                    return on_true[0] if cond_f(frame) else on_false[0]
                return cond_step

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
            if hook is None:
                def do_init(frame):
                    write_var(frame, lo_f(frame))
                    frame[hi_slot] = hi_f(frame)
                    return succ[0]
                return do_init

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
            if hook is None:
                if upward:
                    def do_cond(frame):
                        var = read_var(frame)
                        hi = frame[hi_slot]
                        if hi is _UNSET:  # entered by goto: live bound
                            hi = hi_f(frame)
                        return on_true[0] if var <= hi else on_false[0]
                    return do_cond

                def do_cond(frame):
                    var = read_var(frame)
                    hi = frame[hi_slot]
                    if hi is _UNSET:
                        hi = hi_f(frame)
                    return on_true[0] if var >= hi else on_false[0]
                return do_cond

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
            if hook is None and not sym.is_volatile:
                kind2, where = self._binding(sym)
                if kind2 == "reg":
                    conv = _make_converter(sym.ctype)
                    name = sym.name

                    def do_step(frame):
                        value = frame[where]
                        if value is _UNSET:
                            _raise_uninit(name)
                        frame[where] = conv(value + step)
                        return succ[0]
                    return do_step
            read_var = self._make_read(sym)
            write_var = self._make_write(sym)
            if hook is None:
                def do_step(frame):
                    write_var(frame, read_var(frame) + step)
                    return succ[0]
                return do_step

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

        if hook is None:
            # Steps self-tick (fused chains carry their own counting),
            # so the driver is a bare trampoline.
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
                try:
                    step = entry_f
                    while step is not None:
                        step = step(frame)
                    return frame[0]
                finally:
                    memory.release(mark)
            return _CompiledFunction(fn, invoke, self._cells)

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


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class CompiledInterpreter(Interpreter):
    """Drop-in :class:`Interpreter` that executes compiled closures.

    Same constructor, same public API, same observable semantics (the
    differential tests enforce this); roughly an order of magnitude
    faster on the hot path.  Functions are compiled lazily on first
    call and cached; installing a different ``cost_hook`` afterwards
    triggers recompilation because hooks are baked into the closures.
    """

    engine_name = "compiled"

    def __init__(self, program: N.ILProgram, **kwargs):
        super().__init__(program, **kwargs)
        self._compiled: Dict[str, _CompiledFunction] = {}
        self._compiled_hook = self.cost_hook
        self._tick_compiled = self._make_tick()

    def _make_tick(self) -> Callable[[], None]:
        cell = self._step_cell

        def tick():
            count = cell[0] + 1
            cell[0] = count
            if count > self.max_steps:
                raise StepLimitExceeded(
                    f"exceeded {self.max_steps} steps (infinite loop?)")
        return tick

    def _hit_limit(self, count: int) -> None:
        """Overflow path for fused chains: land the chain's local step
        count in the shared cell, then raise exactly like the oracle."""
        self._step_cell[0] = count
        _raise_limit(self.max_steps)

    def _drop_graphs(self) -> None:
        super()._drop_graphs()
        for compiled in self._compiled.values():
            compiled.close()
        self._compiled.clear()

    def close(self) -> None:
        super().close()
        self._compiled_hook = self._tick_compiled = None

    def _exec_function(self, fn: N.ILFunction,
                       args: List[Value]) -> Optional[Value]:
        if self.cost_hook is not self._compiled_hook:
            # Hook swapped after construction: recompile with the new
            # hook baked in (or compiled out).
            self._compiled.clear()
            self._compiled_hook = self.cost_hook
        cached = self._compiled.get(fn.name)
        if cached is None or cached.fn is not fn:
            from ..obs import telemetry
            with telemetry.span("engine-compile", cat="engine",
                                engine=self.engine_name,
                                function=fn.name):
                cached = _FunctionCompiler(self, fn).compile()
            self._compiled[fn.name] = cached
        return cached.invoke(args)
