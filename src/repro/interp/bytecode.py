"""The fast engine: generated code, with the cost model's accounting
inline when it offers its table; the tree oracle for everything else.

:class:`CompiledInterpreter` (``engine="compiled"``) materializes each
function from what it can observe.  With no cost hook, each
``ILFunction``'s flow graph is lowered **once** into a single
generated Python function, which removes the oracle's per-node
``isinstance`` dispatch, symbol-dict lookups and hook checks:

* Basic blocks become straight-line Python; the computed ``goto``
  structure folds into one ``while True`` dispatch loop over a small
  integer program counter (blocks that merely fall through are inlined
  into their predecessor's block, so simple code has no dispatch at
  all).
* Frame slots become Python locals — ``_rN`` registers, ``_mN``
  per-activation addresses of memory-backed locals, ``_hN`` captured
  DO-loop bounds — giving CPython's fast ``LOAD_FAST`` path.
* Step accounting runs on a plain local counter.  Ticks for a run of
  consecutive pure flow nodes (entry/label/join/goto) batch into the
  next side-effecting node's single ``count += k`` + limit check; the
  check raises with the shared cell landed at exactly
  ``max_steps + 1``, matching the oracle's cell-per-tick behaviour
  observably.  The cell is flushed before any re-entrant call and
  reloaded after, and a ``finally`` lands the final count, so nested
  activations and fault paths observe exact step counts.
* Vector statements run per instruction, not per lane: whole-vector
  loads, operators and stores on the byte image
  (:mod:`repro.interp.vectorgen`), tried inside a ``try`` because
  nothing before the first store has a side effect; anything that
  raises there — and every statement the bulk form cannot express —
  goes through the oracle's own per-lane routine on a frame built
  from this activation's locals, so faults, stored prefixes and
  charges are the oracle's by construction.
* A strip loop of the vectorizer's shape (``vlen = min(VL, n - vi)``
  and one such statement) runs several strips at a time through that
  statement's one copy — a *strip group*
  (:mod:`repro.interp.strips`).
* There is **no** instrumentation in this variant, so the
  uninstrumented path is observation-free.

With a hook that advertises ``inline_costs()`` — the Titan cost model
without a profiler, which is what every simulated run installs — the
same lowering also emits the model's *scalar accounting* (the costed
variant).  Scalar cost events are a static function of the IL — one
``load``/``store``/``flop``/``intop``/``branch``/``call`` per node, in
evaluation order — so they are not called, they are added up:

* cycles accumulate in a local float ``_cy``, one constant per
  straight-line stretch (``_cy = _cy + 20.0``).  Every price is a
  whole number of cycles (a fractional one keeps the model off this
  variant) and the parallel share is truncated, so every total is a
  whole number and float addition is exact in any order;
* operation counts are local ints (``_kN`` charged, ``_uN`` counted
  only), bumped once per straight-line stretch; the model derives its
  ``scalar``/``memory`` buckets from the charged counts at exit
  (exact: the latencies are whole cycles);
* costs follow the IL tree, not the emitted Python: a CSE temp still
  charges every occurrence, a lazy ``Select`` charges only the taken
  arm's events, a lazily filled vector cache charges when some lane
  fills it;
* scheduled loops (their bodies are call-free plain assigns, so which
  events the model would suppress is lexical) count without charging
  and pay the model's initiation-interval lump at exit;
* a vector statement that ran in bulk charges the scalars it
  evaluated and then its instructions through one call
  (``vector_statement(cycles, instructions, length) -> cycles``); in
  a strip group, every strip's scalars and instructions through one
  (``strip_group(cycles, plan, length[, reached]) -> cycles``);
* the running total is *parked* in the model before anything else may
  charge it — a callee, a builtin, the ``parallel_*`` events, the
  oracle's routine running a vector statement — and reloaded after;
  a ``finally`` hands total and counts back (``absorb``) — the same
  discipline the step cell follows.

After a fault the model holds what had been settled by then: every
completed straight-line stretch, never more than the oracle charged.

The engine *is* an :class:`Interpreter`, so what it will not generate
runs on the tree oracle it inherits (``Interpreter._exec_function``),
one whole function at a time: every function under a hook that offers
no cost table (recording hooks, a model with a profiler attached, one
with fractional prices) — the oracle's event stream is the event
stream's definition — and any function the generator cannot prove it
can lower exactly (volatile symbols and their device hooks, aggregate
scalar access, lazily-allocated address-taken symbols, list-parallel
loops, oversized generated source, a costed call under a ``Select``),
which raises :class:`_Fallback` during generation.  An oracle-run
function's calls come back through the engine, so its callees still
run generated code; under a cost model it charges event by event,
between its caller's park and reload.  Every tier decision is counted
in ``titancc_engine_tier_total{tier,reason}`` (``generated`` or
``oracle``), every vector statement's form in
``titancc_vector_lowering_total{form,reason}``.

Generated code is memoized **across engine instances** on the
``ILFunction`` object itself, one entry per variant: the code object
is instance-independent, and every bound global is recorded as a
*recipe* (pure constant, memory buffer, step cell, call helper, the
hook, ...) that each engine materializes against its own state.  A
cached entry is only reused when its baked facts still hold — same
memory size, every baked global symbol still at its compile-time
address, and for the costed variant the same latencies and the same
scheduled loops — so fresh interpreters over the same program
(benchmark reps, fuzz variant sweeps, repeated runs) skip re-lowering
entirely.  Hit/miss counts land in the process metrics registry under
``titancc_engine_codegen_cache_total``.  Code that mutates a program
in place must call :meth:`CompiledInterpreter.invalidate_graphs`,
which drops these entries along with the flow-graph caches.
"""

from __future__ import annotations

import dis
import functools
import io
import math
import struct
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..analysis.flowgraph import FlowNode
from ..frontend.ctypes_ import (_F32_PACK, _F32_UNPACK, F32_OVERFLOW, CType,
                                FloatType, IntType, PointerType, round_f32)
from ..frontend.symtab import Symbol
from ..il import nodes as N
from ..obs.metrics import REGISTRY
from . import intfacts, strips, vectorgen
from .intfacts import IntFact
from .interpreter import (Interpreter, InterpreterError,
                          StepLimitExceeded, Value, _Frame,
                          _trip_values)
from .kernels import (KERNEL_OPS, _UNSET, _binop_impl, _is_aggregate,
                      _raise_uninit, _struct_format)

#: Attribute on ILFunction holding the cross-instance codegen cache.
_CACHE_ATTR = "_bytecode_cache"

#: Flow-node kinds with no observable effect beyond their tick.
_PURE_KINDS = frozenset(("entry", "label", "join", "goto"))

#: A materialized function: called with the argument list.
_Invoke = Callable[[List[Value]], Optional[Value]]

#: Cap on generated source size: a larger function runs on the oracle.
_SOURCE_LIMIT = 1_000_000


class _Fallback(Exception):
    """Raised during code generation when a construct must run on the
    tree oracle instead; the whole function falls back."""


class _CodegenEntry:
    """One function's generated code plus everything needed to rebind
    it to a different engine instance."""

    __slots__ = ("fn", "source", "code", "recipes", "baked", "mem_limit",
                 "costs")

    def __init__(self, fn: N.ILFunction, source: str, code,
                 recipes: Dict[str, tuple],
                 baked: Tuple[Tuple[Symbol, int], ...],
                 mem_limit: int, costs: Optional[tuple]):
        self.fn = fn
        self.source = source
        self.code = code
        self.recipes = recipes
        self.baked = baked
        self.mem_limit = mem_limit
        #: None for the observation-free variant; for the costed one
        #: the baked accounting facts (see :func:`_baked_costs`).
        self.costs = costs


class _FallbackEntry:
    """Cached decision that a function cannot be code-generated."""

    __slots__ = ("fn", "reason")

    def __init__(self, fn: N.ILFunction, reason: str):
        self.fn = fn
        self.reason = reason


def _make_call_helper(engine, name: str, costed: bool = False):
    """Call into another IL function or a builtin from generated code.

    Mirrors the oracle's ``_eval_call``: arguments are already
    evaluated (Python call-argument order keeps left-to-right), a void
    IL call yields 0.  The costed variant's call sites pass one extra
    trailing argument — evaluating it settled and parked the caller's
    accounting after the real arguments — which is dropped here."""
    functions_get = engine.program.functions.get
    exec_fn = engine._exec_function
    call_builtin = engine._call_builtin

    def call(*args):
        args = list(args)
        if costed:
            del args[-1]
        fn = functions_get(name)
        if fn is not None:
            result = exec_fn(fn, args)
            return 0 if result is None else result
        return call_builtin(name, args)
    return call


def _make_arg_check(name: str, nparams: int):
    def fail(got: int) -> None:
        raise InterpreterError(
            f"{name} expects {nparams} args, got {got}")
    return fail


def _materialize_recipe(engine, recipe: tuple):
    """Rebuild one bound global of a generated function against a
    (possibly different) engine instance."""
    kind = recipe[0]
    if kind == "pure":
        return recipe[1]
    if kind == "data":
        return engine.memory.data
    if kind == "scell":
        return engine._step_cell
    if kind == "engine":
        return engine
    if kind == "memory":
        return engine.memory
    if kind == "hit":
        return engine._hit_limit
    if kind == "call":
        return _make_call_helper(engine, *recipe[1:])
    if kind == "hook":
        return engine.cost_hook
    if kind == "hookattr":
        return getattr(engine.cost_hook, recipe[1])
    raise InterpreterError(f"unknown codegen recipe {recipe!r}")


def _baked_costs(fn: N.ILFunction, costs) -> Optional[tuple]:
    """What a costed entry bakes in, compared like baked addresses
    before a cached entry is reused: each kind's latency and which of
    the function's loops are scheduled.  None for no accounting."""
    if costs is None:
        return None
    return (tuple(costs.latency.items()),
            frozenset(loop.sid for loop
                      in _scheduled_loops(fn, costs.scheduled)))


def _scheduled_loops(fn: N.ILFunction, scheduled) -> List[N.DoLoop]:
    return [stmt for stmt in fn.all_statements()
            if isinstance(stmt, N.DoLoop) and stmt.sid in scheduled]


def _cache_counter(outcome: str):
    return REGISTRY.counter("titancc_engine_codegen_cache_total",
                            {"engine": "compiled", "outcome": outcome})


def _tier_counter(tier: str, reason: str):
    """One increment per function materialization: which tier the
    engine picked (``generated`` or ``oracle``) and why: generated
    code is ``costed`` when it carries the hook's accounting, the
    oracle's reason is ``hook`` (one that must see every event), the
    hook's own reason for refusing inline accounting, or the
    generator's :class:`_Fallback` reason."""
    return REGISTRY.counter("titancc_engine_tier_total",
                            {"tier": tier, "reason": reason})


def _lowering_counter(form: str, reason: str):
    """One increment per vector statement generated: ``bulk``
    (whole-vector operations, :mod:`repro.interp.vectorgen`) or
    ``lane`` (a call to the oracle's per-lane routine) with the reason
    the bulk form could not express it."""
    return REGISTRY.counter("titancc_vector_lowering_total",
                            {"form": form, "reason": reason})


def _ind(lines: Sequence[str]) -> List[str]:
    return ["    " + line for line in lines]


def _ctype_key(ctype: Optional[CType]):
    if ctype is None:
        return None
    return (type(ctype).__name__, ctype.sizeof(),
            getattr(ctype, "signed", None))


class _CodeGenerator:
    """Lowers one ILFunction into a single generated Python function.

    An activation's slots are assigned here, one Python local each —
    registers (``_rN``), per-activation addresses of memory-backed
    locals (``_mN``) and captured DO-loop bounds (``_hN``) — and a
    recipe is recorded for every name bound into the generated
    namespace so the result can be re-materialized on another engine
    instance.
    """

    #: Comparison operators are plain Python and yield raw 0/1.
    _CMP_OPS = frozenset(("==", "!=", "<", ">", "<=", ">="))
    #: Operators inlined with a conversion wrapper.
    _ARITH_OPS = frozenset(("+", "-", "*", "<<", ">>", "&", "|", "^"))

    def __init__(self, engine: "CompiledInterpreter", fn: N.ILFunction,
                 costs=None):
        self.engine = engine
        self.fn = fn
        self._nslots = 0
        self._reg_slots: Dict[Symbol, int] = {}
        self._mem_slots: Dict[Symbol, int] = {}
        self._hi_slots: Dict[int, int] = {}
        # Tree-walker allocation order (duplicates preserved: a symbol
        # listed twice is allocated twice and keeps the last address).
        self._mem_allocs: List[Tuple[int, CType]] = []
        for sym in N.memory_locals(fn):
            slot = self._mem_slots.get(sym)
            if slot is None:
                slot = self._mem_slots[sym] = self._new_slot()
            self._mem_allocs.append((slot, sym.ctype))
        # Inline accounting (the costed variant): the hook's scalar
        # cost table, or None for observation-free code.  Events are
        # noted in oracle order as ``_items`` while source is
        # generated and rendered into updates of the accounting
        # locals (``_cy`` cycles, ``_kN``/``_uN`` charged/only-counted
        # operations of kind N) by :meth:`_cost_sync`.
        self._costs = costs
        self._kinds: Tuple[str, ...] = tuple(costs.latency) if costs \
            else ()
        self._kind_index = {kind: i for i, kind in enumerate(self._kinds)}
        self._items: List = []
        self._quiet = False  # inside a scheduled loop: count, no charge
        self._in_arm = False  # generating a Select arm
        self._cost_locals: Set[str] = set()
        self._iter_locals: Set[str] = set()
        # Statements of scheduled loop bodies (by identity): plain
        # call-free assigns — the scheduler schedules nothing else —
        # so suppression is lexical.
        self._quiet_stmts: Set[int] = set() if costs is None else {
            id(inner) for loop in _scheduled_loops(fn, costs.scheduled)
            for inner in loop.body}
        self._tmpn = 0  # unique temp names for generated source
        self._recipes: Dict[str, tuple] = {}
        self._shared: Dict[object, str] = {}  # see _bind_shared
        self._baked: List[Tuple[Symbol, int]] = []
        self._ncalls = 0
        self._param_regs: Set[int] = set()
        # Definitely-assigned register slots at the current emission
        # point: reads of these skip the _UNSET guard.  Seeded per
        # block from a must-assign dataflow over the block graph.
        self._da: Set[int] = set()
        # Per-statement common-subexpression memo: structural key of a
        # pure expression -> temp name its first (unconditionally
        # evaluated) occurrence walrus-bound.  Reset at each statement
        # emission; inserts are disabled inside lazily-evaluated
        # positions (Select arms, vector lanes).
        self._cse: Dict[tuple, Tuple[str, Optional[IntFact]]] = {}
        self._cse_worthy: Set[tuple] = set()
        self._cse_lazy = 0
        # Where a register provably stays while the code being
        # generated runs: a DO variable inside its structured body.
        self._ranges: Dict[Symbol, IntFact] = {}
        # (site, outcome) -> integer conversions decided that way.
        self._conversions: Dict[Tuple[str, str], int] = {}
        # The strip group of the vector statement being generated.
        self._group: Optional[vectorgen.StripGroup] = None

    # -- environment bindings ----------------------------------------------

    def _bind(self, env: Dict[str, object], obj: object,
              recipe: Optional[tuple] = None) -> str:
        """Bind ``obj`` into the generated namespace.  The default
        recipe says the object is instance-independent (struct codecs,
        op kernels, constants, names); instance-bound objects pass the
        recipe that rebuilds them on another engine."""
        name = f"_g{len(env)}"
        env[name] = obj
        self._recipes[name] = recipe or ("pure", obj)
        return name

    def _bind_shared(self, env: Dict[str, object], key, make,
                     recipe: Optional[tuple] = None) -> str:
        """One binding of ``make()`` per ``key`` for the whole
        function, however many statements ask for it."""
        name = self._shared.get(key)
        if name is None:
            name = self._shared[key] = self._bind(env, make(), recipe)
        return name

    def _tmp_name(self) -> str:
        self._tmpn += 1
        return f"_t{self._tmpn}"

    # -- slots -------------------------------------------------------------

    def _new_slot(self) -> int:
        slot = self._nslots
        self._nslots += 1
        return slot

    def _binding(self, sym: Symbol) -> Tuple[str, int]:
        slot = self._mem_slots.get(sym)
        if slot is not None:
            return ("mem", slot)
        memory = self.engine.memory
        if memory.has_storage(sym):
            # Baked absolute address: recorded so a cached entry is
            # only reused while the address still holds.
            addr = memory.address_of(sym)
            self._baked.append((sym, addr))
            return ("global", addr)
        slot = self._reg_slots.get(sym)
        if slot is None:
            slot = self._reg_slots[sym] = self._new_slot()
        return ("reg", slot)

    def _hi_slot(self, sid: int) -> int:
        slot = self._hi_slots.get(sid)
        if slot is None:
            slot = self._hi_slots[sid] = self._new_slot()
        return slot

    # -- inline accounting -------------------------------------------------

    def _note(self, kind: str) -> None:
        """One scalar cost event happened here (oracle order)."""
        if self._costs is not None:
            index = self._kind_index[kind]
            self._items.append(~index if self._quiet else index)

    def _note_op(self, expr: N.Expr) -> None:
        self._note("flop" if expr.ctype.is_float else "intop")

    def _note_pure(self, expr: N.Expr) -> None:
        """Events of a CSE-shared subexpression (arithmetic over
        registers and constants): every occurrence is charged, though
        only the first is evaluated."""
        if isinstance(expr, N.BinOp):
            self._note_pure(expr.left)
            self._note_pure(expr.right)
            self._note_op(expr)
        elif isinstance(expr, (N.UnOp, N.Cast)):
            self._note_pure(expr.operand)
            if isinstance(expr, N.UnOp):
                self._note_op(expr)

    def _captured(self, expr: N.Expr, env: Dict[str, object],
                  arm: bool = False, ring: bool = False
                  ) -> Tuple[str, List, Optional[IntFact]]:
        """Generate ``expr`` with a fresh event list: (its source, the
        events its evaluation causes, its integer fact) — for code
        that runs conditionally (a Select ``arm``, a lazily filled
        vector cache)."""
        saved = self._items, self._in_arm
        self._items, self._in_arm = [], arm
        try:
            src, fact = self._gen_fact(expr, env, ring)
            return src, self._items, fact
        finally:
            self._items, self._in_arm = saved

    def _cost_updates(self, items: List) -> List[Tuple[str, str]]:
        """``(local, new value source)`` pairs applying ``items``; a
        pair with an empty local is a bare expression (a Select: only
        the taken arm's events).  The stretch's cycles are one
        constant: every latency is whole, so the sum is exact in any
        order."""
        latency = self._costs.latency
        out: List[Tuple[str, str]] = []
        cycles = 0
        bumps: Dict[str, int] = {}
        for item in items:
            if isinstance(item, tuple):
                tmp, then, other = item
                out.append(("", f"{self._cost_expr(then)} if {tmp} "
                                f"else {self._cost_expr(other)}"))
                continue
            quiet = item < 0
            index = ~item if quiet else item
            name = f"_u{index}" if quiet else f"_k{index}"
            bumps[name] = bumps.get(name, 0) + 1
            if not quiet:
                cycles += latency[self._kinds[index]]
        if cycles:
            out.append(("_cy", f"_cy + {float(cycles)!r}"))
        for name, n in bumps.items():
            self._cost_locals.add(name)
            out.append((name, f"{name} + {n}"))
        return out

    def _cost_exprs(self, items: List) -> List[str]:
        """The updates applying ``items``, as expressions."""
        return [f"({name} := {value})" if name else f"({value})"
                for name, value in self._cost_updates(items)]

    def _cost_expr(self, items: List) -> str:
        """One expression applying ``items`` (its value is unused)."""
        parts = self._cost_exprs(items)
        if not parts:
            return "0"
        return parts[0] if len(parts) == 1 \
            else "(" + ", ".join(parts) + ")"

    def _cost_lines(self, items: List) -> List[str]:
        """The updates applying ``items``, as statements."""
        return [f"{name} = {value}" if name else value
                for name, value in self._cost_updates(items)]

    def _overflow_lines(self, starts: List[int]) -> List[str]:
        """The charges of a batch of ticks that crossed the step
        limit: the events pending before the batch, then those of each
        node whose own tick stayed within it — the node of tick ``j``
        (of ``len(starts)``) noted ``_items[starts[j]:starts[j + 1]]``
        and ran when ``count - _ms <= len(starts) - 1 - j``."""
        items, ticks = self._items, len(starts)
        lines = self._cost_lines(items[:starts[0]])
        for j in range(ticks - 1):
            events = items[starts[j]:starts[j + 1]]
            if events:
                lines.append(f"if count - _ms <= {ticks - 1 - j}:")
                lines.extend(_ind(self._cost_lines(events)))
        return lines

    def _cost_sync(self, lines: List[str]) -> None:
        """Apply every pending event: ``lines`` is about to transfer
        control, or to run code that charges on its own."""
        if self._items:
            lines.extend(self._cost_lines(self._items))
            self._items.clear()

    def _cost_settle(self, src: str, lines: List[str]) -> str:
        """Sync before ``src`` is consumed by a control transfer:
        ``src`` is evaluated first, so a fault in it happens before
        its events are charged (as in the oracle) and a pending
        Select finds the temp its evaluation binds."""
        if self._items and not src.isidentifier():
            t = self._tmp_name()
            lines.append(f"{t} = {src}")
            src = t
        self._cost_sync(lines)
        return src

    def _hook_lines(self, *events: str) -> List[str]:
        """Events the model handles itself (parallel regions), from
        generated code: park the running total first, reload it
        after."""
        return (["_park(_cy)"] + [f"_hk({event})" for event in events]
                + ["_cy = _M.cycles"])

    def _scheduled(self, stmt: N.DoLoop) -> bool:
        return self._costs is not None and \
            stmt.sid in self._costs.scheduled

    def _iter_local(self, sid: int) -> str:
        name = f"_i{self._hi_slot(sid)}"
        self._iter_locals.add(name)
        return name

    def _lump_line(self, sid: int, iterations: str) -> str:
        """A scheduled loop's exit: the initiation-interval lump for
        its ``iterations`` (their operations were only counted)."""
        return f"_cy = _sx(_cy, {sid}, {iterations})"

    # -- conversions, loads, stores ----------------------------------------

    def _gen_conv(self, raw: str, ctype: CType,
                  env: Dict[str, object]) -> str:
        """Wrap ``raw`` source in this type's value conversion."""
        if isinstance(ctype, FloatType):
            if ctype.sizeof() == 4:
                return self._f32_inline(f"float({raw})", env)
            return f"float({raw})"
        if isinstance(ctype, (IntType, PointerType)):
            return self._settle(f"int({raw})", None, ctype)[0]
        return raw

    def _f32_inline(self, value_src: str, env: Dict[str, object]) -> str:
        """``round_f32`` of a float-valued source: in-range values
        round through the pre-bound codecs inline, strictly inside the
        overflow boundary; NaN (the chained comparison is False for
        it) and overflow call ``_f32``."""
        pk = self._bind(env, _F32_PACK)
        up = self._bind(env, _F32_UNPACK)
        t = self._tmp_name()
        return (f"({up}({pk}({t}))[0] if "
                f"-{F32_OVERFLOW!r} < ({t} := {value_src}) "
                f"< {F32_OVERFLOW!r} else _f32({t}))")

    def _settle(self, src: str, raw: Optional[IntFact], ctype: CType,
                ring: bool = False, site: str = "scalar"
                ) -> Tuple[str, IntFact]:
        """:func:`intfacts.settle`, with the decision tallied."""
        src, fact, outcome = intfacts.settle(src, raw, ctype, ring)
        key = (site, outcome)
        self._conversions[key] = self._conversions.get(key, 0) + 1
        return src, fact

    def _gen_load(self, addr_src: str, ctype: CType,
                  env: Dict[str, object],
                  const_addr: Optional[int] = None) -> str:
        """Inline memory load: bounds check + pre-bound unpack, with
        the oracle's own ``Memory.load`` on the fault path so error
        messages are exact."""
        memory = self.engine.memory
        fmt = _struct_format(ctype)
        if fmt is None:
            raise _Fallback(f"load of type {ctype}")
        limit = len(memory.data) - ctype.sizeof()
        unpack = self._bind(env, struct.Struct(fmt).unpack_from)
        data = self._bind(env, memory.data, ("data",))
        if const_addr is not None and 8 <= const_addr <= limit:
            return f"{unpack}({data}, {const_addr})[0]"
        typ = self._bind(env, ctype)
        t = self._tmp_name()
        return (f"({unpack}({data}, {t})[0] "
                f"if 8 <= ({t} := {addr_src}) <= {limit} "
                f"else _mem.load({t}, {typ}))")

    def _gen_store_lines(self, addr_src: str, value_src: str,
                         ctype: CType, env: Dict[str, object],
                         const_addr: Optional[int] = None,
                         float_value: bool = False,
                         fact: Optional[IntFact] = None) -> List[str]:
        """Inline memory store: value into a temp first (the oracle's
        evaluation order), bounds check, conversion, pre-bound pack;
        the oracle's own ``Memory.store`` is the fault path, so the
        error message is exact.  ``float_value`` asserts the caller
        proved ``value_src`` is a Python float already
        (conversion-wrapped sources always are), eliding the store's
        redundant float() coercion; ``fact`` is what is known of an
        int ``value_src``."""
        memory = self.engine.memory
        fmt = _struct_format(ctype)
        if fmt is None:
            raise _Fallback(f"store of type {ctype}")
        size = ctype.sizeof()
        limit = len(memory.data) - size
        pack = self._bind(env, struct.Struct(fmt).pack_into)
        data = self._bind(env, memory.data, ("data",))
        v = self._tmp_name()
        lines = [f"{v} = {value_src}"]
        if const_addr is not None and 8 <= const_addr <= limit:
            a = str(const_addr)
        else:
            a = self._tmp_name()
            typ = self._bind(env, ctype)
            lines += [f"{a} = {addr_src}",
                      f"if not (8 <= {a} <= {limit}):",
                      f"    _mem.store({a}, {typ}, {v})"]
        if isinstance(ctype, FloatType):
            if size == 4:
                inf = self._bind(env, math.inf)
                ninf = self._bind(env, -math.inf)
                if not float_value:
                    lines.append(f"{v} = float({v})")
                lines += [f"if abs({v}) >= {F32_OVERFLOW!r}:",
                          f"    {v} = {inf} if {v} > 0 else {ninf}",
                          f"{pack}({data}, {a}, {v})"]
            else:
                value = v if float_value else f"float({v})"
                lines.append(f"{pack}({data}, {a}, {value})")
        else:
            value = self._settle(v if fact else f"int({v})", fact, ctype)[0]
            lines.append(f"{pack}({data}, {a}, {value})")
        return lines

    # -- variable access ---------------------------------------------------

    def _gen_var_read(self, sym: Symbol, env: Dict[str, object]) -> str:
        if sym.is_volatile:
            raise _Fallback("volatile read")
        kind, where = self._binding(sym)
        if kind == "reg":
            if where in self._da:
                return f"_r{where}"
            un = self._bind(env, sym.name)
            return (f"(_r{where} if _r{where} is not _U "
                    f"else _ui({un}))")
        if _is_aggregate(sym.ctype):
            raise _Fallback("aggregate scalar read")
        self._note("load")
        if kind == "mem":
            return self._gen_load(f"_m{where}", sym.ctype, env)
        return self._gen_load(str(where), sym.ctype, env,
                              const_addr=where)

    @staticmethod
    def _same_ctype(a: CType, b: CType) -> bool:
        return (type(a) is type(b) and a.sizeof() == b.sizeof()
                and getattr(a, "signed", None) == getattr(b, "signed",
                                                          None))

    def _conv_matches(self, expr: N.Expr, ctype: CType) -> bool:
        """True when ``_gen(expr)`` already yields a float converted
        to ``ctype`` — the write-side conversion is then idempotent
        and can be skipped (registers hold converted values, loads
        reproduce the exact stored representation, every arithmetic
        kernel converts its result).  An int says so in its fact."""
        if not isinstance(ctype, FloatType) or \
                not self._float_valued(expr):
            return False
        if isinstance(expr, N.VarRef):
            return self._same_ctype(expr.sym.ctype, ctype)
        return not isinstance(expr, N.Const) and \
            self._same_ctype(expr.ctype, ctype)

    def _gen_write_lines(self, sym: Symbol, value_src: str,
                         env: Dict[str, object],
                         pre_converted: bool = False,
                         fact: Optional[IntFact] = None) -> List[str]:
        """Variable write: the oracle's conversion-then-store order
        (conversion rounds f32 *before* the store-level clamp).
        ``pre_converted`` skips the conversion when the caller proved
        ``value_src`` already carries a ``sym.ctype`` value; ``fact``
        is what is known of an int ``value_src``."""
        if sym.is_volatile:
            raise _Fallback("volatile write")
        kind, where = self._binding(sym)
        if kind != "reg" and _is_aggregate(sym.ctype):
            raise _Fallback("aggregate scalar write")
        held = intfacts.of_type(sym.ctype)
        if fact is not None and held is not None:
            value = self._settle(value_src, fact, sym.ctype)[0]
        else:
            value = value_src if pre_converted \
                else self._gen_conv(value_src, sym.ctype, env)
        if kind == "reg":
            self._da.add(where)
            return [f"_r{where} = {value}"]
        self._note("store")
        # A converted (or proven pre-converted) value carries the
        # symbol's type: a Python float for a float symbol, an int in
        # range for an integer one.
        return self._gen_store_lines(
            f"_m{where}" if kind == "mem" else str(where), value,
            sym.ctype, env, const_addr=None if kind == "mem" else where,
            float_value=isinstance(sym.ctype, FloatType), fact=held)

    # -- expressions -------------------------------------------------------

    def _cse_key(self, expr: N.Expr) -> Optional[tuple]:
        """Structural identity key for a pure, effect-free expression
        (constants, register reads, arithmetic over them), or None
        when sharing would be unsound or unhelpful (loads, calls,
        volatiles).  Register values cannot change mid-statement —
        writes land after every operand is evaluated — so two
        occurrences of the same key within one statement denote the
        same value, and a faulting occurrence faults first in both the
        shared and unshared forms (evaluation is left to right)."""
        if isinstance(expr, N.Const):
            value = expr.value
            return ("c", type(value).__name__, repr(value),
                    _ctype_key(expr.ctype))
        if isinstance(expr, N.VarRef):
            sym = expr.sym
            if sym.is_volatile or _is_aggregate(sym.ctype):
                return None
            if self._binding(sym)[0] != "reg":
                return None  # loads are never shared
            return ("v", id(sym))
        if isinstance(expr, N.BinOp):
            lk = self._cse_key(expr.left)
            rk = self._cse_key(expr.right) if lk is not None else None
            if rk is None:
                return None
            return ("b", expr.op, _ctype_key(expr.ctype), lk, rk)
        if isinstance(expr, N.UnOp):
            ok = self._cse_key(expr.operand)
            if ok is None:
                return None
            return ("u", expr.op, _ctype_key(expr.ctype), ok)
        if isinstance(expr, N.Cast):
            ok = self._cse_key(expr.operand)
            if ok is None:
                return None
            return ("t", _ctype_key(expr.ctype), ok)
        if isinstance(expr, N.Select):
            if self._costs is not None:
                return None  # which arm's events to charge is dynamic
            ck = self._cse_key(expr.cond)
            tk = self._cse_key(expr.then) if ck is not None else None
            ok = self._cse_key(expr.otherwise) if tk is not None \
                else None
            if ok is None:
                return None
            return ("s", _ctype_key(expr.ctype), ck, tk, ok)
        return None

    def _cse_reset(self, *exprs: Optional[N.Expr]) -> None:
        """Start a new CSE scope for one statement: clear the memo and
        prescan the statement's expressions so only subexpressions
        that actually occur twice get a walrus binding (a binding with
        no reuse is a dead store).  The scan short-circuits repeated
        subtrees exactly like generation will, so nested occurrences
        under a shared parent are not double-counted."""
        self._cse.clear()
        counts: Dict[tuple, int] = {}
        stack = [e for e in exprs if e is not None]
        while stack:
            e = stack.pop()
            if isinstance(e, (N.BinOp, N.UnOp, N.Cast, N.Select)):
                key = self._cse_key(e)
                if key is not None:
                    n = counts.get(key, 0) + 1
                    counts[key] = n
                    if n > 1:
                        continue  # generation reuses the shared temp
            if isinstance(e, N.BinOp):
                stack += (e.left, e.right)
            elif isinstance(e, (N.UnOp, N.Cast)):
                stack.append(e.operand)
            elif isinstance(e, N.Select):
                stack += (e.cond, e.then, e.otherwise)
            elif isinstance(e, N.Mem):
                stack.append(e.addr)
            elif isinstance(e, N.Section):
                stack += (e.addr, e.length)
            elif isinstance(e, N.Iota):
                stack.append(e.start)
            elif isinstance(e, N.CallExpr):
                stack.extend(e.args)
        self._cse_worthy = {k for k, n in counts.items() if n >= 2}

    def _gen(self, expr: N.Expr, env: Dict[str, object]) -> str:
        return self._gen_fact(expr, env)[0]

    def _gen_fact(self, expr: N.Expr, env: Dict[str, object],
                  ring: bool = False) -> Tuple[str, Optional[IntFact]]:
        """Source of ``expr`` — one atom: a name, a literal, a call or
        something parenthesized — and, when :meth:`_int_valued` says it
        is a Python int, what :mod:`intfacts` knows about it.
        ``ring`` says the consumer is a ring operator, which a
        deferred wrap cannot change."""
        # Within-statement CSE: the first occurrence of a repeated
        # pure subexpression walrus-binds a temp, later occurrences
        # reuse it.  The memo is cleared at every statement boundary;
        # inserts are suppressed in lazily-evaluated positions
        # (Select arms, vector lanes) where the binding might not
        # execute before a reuse would read it.  What is bound is
        # exact: a later occurrence may be an observer's.
        key = self._cse_key(expr)
        if key is not None:
            hit = self._cse.get(key)
            if hit is not None:
                self._note_pure(expr)
                return hit
        bind = key is not None and self._cse_lazy == 0 and \
            key in self._cse_worthy and \
            isinstance(expr, (N.BinOp, N.UnOp, N.Cast, N.Select))
        src, fact = self._gen_inner(expr, env, ring and not bind)
        if isinstance(expr, (N.BinOp, N.UnOp, N.Select)):
            self._note_op(expr)
        elif isinstance(expr, N.Mem):
            self._note("load")
        if bind:
            name = self._tmp_name()
            self._cse[key] = (name, fact)
            return f"({name} := {src})", fact
        return src, fact

    def _gen_inner(self, expr: N.Expr, env: Dict[str, object],
                   ring: bool) -> Tuple[str, Optional[IntFact]]:
        ctype = expr.ctype
        if isinstance(expr, N.AddrOf):
            sym = expr.sym
            slot = self._mem_slots.get(sym)
            memory = self.engine.memory
            if slot is not None:
                return f"_m{slot}", IntFact(0, len(memory.data))
            if memory.has_storage(sym):
                addr = memory.address_of(sym)
                self._baked.append((sym, addr))
                return repr(addr), IntFact(addr, addr)
            # Lazy allocation of address-taken storage mutates engine
            # state mid-run: the oracle's to do.
            raise _Fallback("address of lazily-allocated symbol")
        if isinstance(expr, N.CallExpr):
            self._ncalls += 1
            costed = self._costs is not None
            helper = self._bind(
                env, _make_call_helper(self.engine, expr.name, costed),
                ("call", expr.name, costed))
            args = [self._gen(a, env) for a in expr.args]
            if not costed:
                return f"{helper}({', '.join(args)})", None
            if self._in_arm:
                # The events pending outside the arm would have to be
                # settled before this call, on this arm only.
                raise _Fallback("costed call under a select")
            # The callee charges the model itself: after the arguments,
            # settle everything pending and park the running total
            # (None until reloaded, so a fault in the callee leaves
            # the parked total alone); reload once it returns.
            self._note("call")
            settle = self._cost_exprs(self._items)
            self._items.clear()
            settle.append("(_cy := _park(_cy))")
            args.append("(" + ", ".join(settle) + ",)")
            t = self._tmp_name()
            return (f"(({t} := {helper}({', '.join(args)})), "
                    f"(_cy := _M.cycles))[0]"), None
        if isinstance(expr, (N.Section, N.Iota)):
            raise _Fallback("vector expression in scalar context")
        if isinstance(expr, N.Mem) and not _is_aggregate(ctype):
            addr = self._gen_int(expr.addr, env)
            return (self._gen_load(addr, ctype, env),
                    intfacts.of_type(ctype))
        if isinstance(expr, N.Const):
            value = expr.value
            if isinstance(value, int):
                return intfacts.literal(value), IntFact(value, value)
            if isinstance(value, float) and \
                    (value != value or value in (math.inf, -math.inf)):
                return self._bind(env, value), None
            return f"({value!r})", None
        if isinstance(expr, N.VarRef):
            fact = self._ranges.get(expr.sym) \
                or intfacts.of_type(expr.sym.ctype)
            return (self._gen_var_read(expr.sym, env),
                    fact if self._int_valued(expr) else None)
        held = intfacts.of_type(ctype)
        if isinstance(expr, N.BinOp):
            op = expr.op
            ints = held is not None and self._int_valued(expr.left) \
                and self._int_valued(expr.right)
            defer = ints and op in intfacts.RING_OPS
            left, lf = self._gen_fact(expr.left, env, defer)
            right, rf = self._gen_fact(expr.right, env,
                                       defer or (ints and op == ">>"))
            if ints and op in intfacts.INLINE_OPS:
                return self._settle(
                    *intfacts.binop(op, left, lf, right, rf), ctype, ring)
            if op in self._CMP_OPS:
                return f"(1 if {left} {op} {right} else 0)", intfacts.BIT
            if op in ("+", "-", "*") and isinstance(ctype, FloatType) \
                    and (self._float_valued(expr.left)
                         or self._float_valued(expr.right)):
                # One float operand makes the Python result a float, so
                # the conversion's float() coercion is the identity.
                raw = f"({left} {op} {right})"
                if ctype.sizeof() != 4:
                    return raw, None
                return self._f32_inline(raw, env), None
            if op in self._ARITH_OPS:
                if op in ("<<", ">>"):
                    raw = f"(int({left}) {op} (int({right}) & 31))"
                elif op in ("&", "|", "^"):
                    raw = f"(int({left}) {op} int({right}))"
                else:
                    raw = f"({left} {op} {right})"
                return self._gen_conv(raw, ctype, env), held
            if op not in KERNEL_OPS:
                # The oracle raises its message when it gets there.
                raise _Fallback(f"operator {op!r}")
            # Division/modulo fault ordering and min/max stay behind a
            # pre-bound kernel; Python's call-argument order keeps
            # left-then-right evaluation.
            impl = self._bind(env, _binop_impl(op, ctype))
            return f"{impl}({left}, {right})", held
        if isinstance(expr, (N.UnOp, N.Cast)):
            op = getattr(expr, "op", "cast")
            if op == "not":
                operand = self._gen(expr.operand, env)
                return f"(0 if {operand} else 1)", intfacts.BIT
            if op not in ("neg", "bnot", "cast"):
                raise _Fallback(f"operator {op!r}")
            defer = held is not None and self._int_valued(expr.operand)
            operand, fact = self._gen_fact(expr.operand, env, defer)
            if defer:
                if op != "cast":
                    operand, fact = intfacts.negated(op, operand, fact)
                return self._settle(operand, fact, ctype, ring)
            raw = {"neg": f"(-{operand})", "bnot": f"(~int({operand}))"
                   }.get(op, operand)
            return self._gen_conv(raw, ctype, env), held
        if isinstance(expr, N.Select):
            # Python's conditional expression is lazy exactly like the
            # oracle's Select: condition, then only the chosen arm —
            # so no CSE inserts inside.
            defer = held is not None and self._int_valued(expr.then) \
                and self._int_valued(expr.otherwise)
            self._cse_lazy += 1
            try:
                cond = self._gen(expr.cond, env)
                then, then_items, tf = self._captured(
                    expr.then, env, arm=True, ring=defer)
                other, other_items, of = self._captured(
                    expr.otherwise, env, arm=True, ring=defer)
            finally:
                self._cse_lazy -= 1
            if then_items or other_items:
                # Only the taken arm's events are charged: replayed
                # at the next sync from the condition's value.
                t = self._tmp_name()
                cond = f"({t} := {cond})"
                self._items.append((t, then_items, other_items))
            raw = f"({then} if {cond} else {other})"
            if defer:
                return self._settle(raw, intfacts.join(tf, of), ctype,
                                    ring)
            return self._gen_conv(raw, ctype, env), held
        # Aggregate Mem or an unknown node kind: the oracle raises
        # its message when it gets there.
        raise _Fallback("oracle-only construct")

    def _guarded_src(self, expr: N.Expr, env: Dict[str, object],
                     lines: List[str]) -> str:
        """Expression source; if it can re-enter the engine (calls),
        evaluate it into a temp with the step cell flushed before and
        reloaded after, so callees observe exact counts."""
        self._cse_reset(expr)
        before = self._ncalls
        src = self._gen(expr, env)
        if self._ncalls == before:
            return src
        t = self._tmp_name()
        lines += ["_sc[0] = count", f"{t} = {src}", "count = _sc[0]"]
        return t

    def _guarded_assign(self, expr: N.Expr, env: Dict[str, object],
                        lines: List[str], target: str) -> None:
        self._cse_reset(expr)
        before = self._ncalls
        src = self._gen(expr, env)
        if self._ncalls == before:
            lines.append(f"{target} = {src}")
        else:
            lines += ["_sc[0] = count", f"{target} = {src}",
                      "count = _sc[0]"]

    def _gen_bool(self, expr: N.Expr, env: Dict[str, object]) -> str:
        """Branch-condition source: a top-level comparison skips the
        oracle-visible 0/1 wrap — the truth value is identical."""
        if isinstance(expr, N.BinOp) and expr.op in self._CMP_OPS:
            left = self._gen(expr.left, env)
            right = self._gen(expr.right, env)
            self._note_op(expr)
            return f"(({left}) {expr.op} ({right}))"
        return self._gen(expr, env)

    def _guarded_bool_src(self, expr: N.Expr, env: Dict[str, object],
                          lines: List[str]) -> str:
        self._cse_reset(expr)
        before = self._ncalls
        src = self._gen_bool(expr, env)
        if self._ncalls == before:
            return src
        t = self._tmp_name()
        lines += ["_sc[0] = count", f"{t} = {src}", "count = _sc[0]"]
        return t

    def _expr_nofault(self, expr: N.Expr) -> bool:
        """True when evaluating ``expr`` can raise nothing: no loads,
        no calls, no div/mod, every register read definitely assigned.
        Ticks for register-only assigns of such values may ride to the
        next limit check — aborting a few nodes early on the limit
        path is unobservable because register state dies with the
        frame and the step cell lands at max_steps + 1 either way."""
        if isinstance(expr, N.Const):
            return True
        if isinstance(expr, N.VarRef):
            sym = expr.sym
            if sym.is_volatile or _is_aggregate(sym.ctype):
                return False
            kind, where = self._binding(sym)
            return kind == "reg" and where in self._da
        if isinstance(expr, N.BinOp):
            if expr.op in ("/", "%"):
                return False
            if expr.op not in self._CMP_OPS and \
                    expr.op not in self._ARITH_OPS and \
                    expr.op not in ("min", "max"):
                return False
            return self._expr_nofault(expr.left) and \
                self._expr_nofault(expr.right)
        if isinstance(expr, N.UnOp):
            return expr.op in ("neg", "not", "bnot") and \
                self._expr_nofault(expr.operand)
        if isinstance(expr, N.Cast):
            return self._expr_nofault(expr.operand)
        if isinstance(expr, N.Select):
            return (self._expr_nofault(expr.cond)
                    and self._expr_nofault(expr.then)
                    and self._expr_nofault(expr.otherwise))
        return False

    def _is_fusible_assign(self, stmt: N.Stmt) -> bool:
        """A register-only assign whose evaluation cannot fault: its
        tick may batch with the following nodes' ticks."""
        if not isinstance(stmt, N.Assign):
            return False
        target = stmt.target
        if not isinstance(target, N.VarRef):
            return False
        sym = target.sym
        if sym.is_volatile or _is_aggregate(sym.ctype):
            return False
        kind, _ = self._binding(sym)
        return kind == "reg" and self._expr_nofault(stmt.value)

    # -- leaf statements ---------------------------------------------------

    def _int_valued(self, expr: N.Expr) -> bool:
        """True when the generated source is guaranteed to be a Python
        int already (:meth:`_gen_fact` then says what is known about
        it): converted integer/pointer arithmetic, integer register
        reads and loads, comparisons, addresses.  Lets address
        contexts skip a redundant ``int()`` wrap."""
        if isinstance(expr, (N.BinOp, N.UnOp, N.Cast, N.Select, N.Mem)):
            return isinstance(expr.ctype, (IntType, PointerType))
        if isinstance(expr, N.VarRef):
            sym = expr.sym
            return (not sym.is_volatile
                    and not _is_aggregate(sym.ctype)
                    and isinstance(sym.ctype, (IntType, PointerType)))
        if isinstance(expr, N.Const):
            return isinstance(expr.value, int)
        return isinstance(expr, N.AddrOf)

    def _gen_int(self, expr: N.Expr, env: Dict[str, object]) -> str:
        src = self._gen(expr, env)
        return src if self._int_valued(expr) else f"int({src})"

    def _float_valued(self, expr: N.Expr) -> bool:
        """True when the generated source is guaranteed to be a Python
        float: float-typed arithmetic (the conversion wraps it), float
        register reads and loads, float constants."""
        if isinstance(expr, N.BinOp):
            return (isinstance(expr.ctype, FloatType)
                    and expr.op not in self._CMP_OPS)
        if isinstance(expr, (N.Cast, N.Select)):
            return isinstance(expr.ctype, FloatType)
        if isinstance(expr, N.UnOp):
            return (isinstance(expr.ctype, FloatType)
                    and expr.op != "not")
        if isinstance(expr, N.VarRef):
            sym = expr.sym
            return (not sym.is_volatile
                    and not _is_aggregate(sym.ctype)
                    and isinstance(sym.ctype, FloatType))
        if isinstance(expr, N.Mem):
            return (not _is_aggregate(expr.ctype)
                    and isinstance(expr.ctype, FloatType))
        if isinstance(expr, N.Const):
            return isinstance(expr.value, float)
        return False

    def _gen_assign_stmt_lines(self, stmt: N.Assign,
                               env: Dict[str, object]) -> List[str]:
        target = stmt.target
        if isinstance(target, N.VarRef):
            sym = target.sym
            value, fact = self._gen_fact(stmt.value, env)
            return self._gen_write_lines(
                sym, value, env, fact=fact,
                pre_converted=self._conv_matches(stmt.value, sym.ctype))
        if isinstance(target, N.Mem):
            if _is_aggregate(target.ctype):
                raise _Fallback("aggregate store")
            # Value before address — the oracle's evaluation order
            # (store lines land the value in a temp first).
            value, fact = self._gen_fact(stmt.value, env)
            addr = self._gen_int(target.addr, env)
            self._note("store")
            return self._gen_store_lines(
                addr, value, target.ctype, env, fact=fact,
                float_value=self._float_valued(stmt.value))
        raise _Fallback("bad assign target")

    def _emit_leaf(self, stmt: N.Stmt, env: Dict[str, object],
                   lines: List[str]) -> None:
        if isinstance(stmt, N.Assign):
            target = stmt.target
            self._cse_reset(stmt.value,
                            target.addr if isinstance(target, N.Mem)
                            else None)
        else:
            # A vector statement's scalars may run conditionally (under
            # a mask or an arm): none of them binds a shared temp.
            self._cse_reset()
        before = self._ncalls
        if isinstance(stmt, N.Assign):
            sub = self._gen_assign_stmt_lines(stmt, env)
        elif isinstance(stmt, (N.VectorAssign, N.VectorReduce)):
            sub = self._gen_vector_lines(stmt, env)
        else:
            raise _Fallback(f"leaf statement {type(stmt).__name__}")
        if self._ncalls != before:
            lines.append("_sc[0] = count")
            lines.extend(sub)
            lines.append("count = _sc[0]")
        else:
            lines.extend(sub)

    def _emit_call_stmt(self, stmt: N.CallStmt, env: Dict[str, object],
                        lines: List[str]) -> None:
        self._cse_reset(stmt.call)
        src = self._gen(stmt.call, env)
        lines += ["_sc[0] = count", src, "count = _sc[0]"]

    # -- vector statements -------------------------------------------------

    def _gen_vector_lines(self, stmt: N.Stmt,
                          env: Dict[str, object]) -> List[str]:
        """One vector statement: whole-vector operations when the bulk
        form expresses it (:mod:`repro.interp.vectorgen` — which falls
        back, at run time, to the same call the lane form is), else
        the oracle's per-lane routine."""
        reason = vectorgen.bulk_obstacle(stmt)
        form = "lane" if reason else "bulk"
        _lowering_counter(form, reason).inc()
        lines = [f"# vector statement {stmt.sid}: {form}"
                 + (f" ({reason})" if reason else "")]
        # Either form starts from a settled total.
        self._cost_sync(lines)
        lane = self._vector_lane_lines(stmt, env, bulk=not reason)
        if reason:
            if reason == "call":
                self._ncalls += 1  # the step cell is flushed around it
            return lines + lane
        bulk = vectorgen.BulkStatement(self, stmt, env, self._group)
        body = bulk.assign_lines(lane) if isinstance(stmt, N.VectorAssign) \
            else bulk.reduce_lines(lane)
        if bulk.proved is not None:
            lines[0] += f", int lanes in [{bulk.proved.lo}, " \
                        f"{bulk.proved.hi}]"
        return lines + body

    def _vector_lane_lines(self, stmt: N.Stmt, env: Dict[str, object],
                           bulk: bool) -> List[str]:
        """Run ``stmt`` through the oracle's own per-lane routine on a
        frame built from this activation's locals
        (:meth:`CompiledInterpreter._run_vector_lanes`); under a cost
        model the oracle charges it event by event, between park and
        reload.  ``bulk`` says the call is the bulk form's way out,
        which the engine counts."""
        regs: Dict[Symbol, str] = {}
        mems: Dict[Symbol, str] = {}
        for top in N.stmt_exprs(stmt):
            for node in N.walk_expr(top):
                if not isinstance(node, (N.VarRef, N.AddrOf)):
                    continue
                sym = node.sym
                if sym.is_volatile:
                    raise _Fallback("volatile read")
                kind, where = self._binding(sym)
                if kind == "reg":
                    regs[sym] = f"_r{where}"
                elif kind == "mem":
                    mems[sym] = f"_m{where}"
        plan = self._bind(env, (stmt, tuple(regs), tuple(mems), bulk))
        call = (f"_eng._run_vector_lanes({plan}, "
                f"({''.join(r + ', ' for r in regs.values())}), "
                f"({''.join(m + ', ' for m in mems.values())}))")
        if isinstance(stmt, N.VectorReduce):
            kind, where = self._binding(stmt.target.sym)
            if kind == "reg":
                self._da.add(where)
                call = f"_r{where} = {call}"
        if self._costs is None:
            return [call]
        return ["_cy = _park(_cy)", call, "_cy = _M.cycles"]

    # -- structured statements (parallel/vector loop bodies) ---------------

    def _gen_stmt_list_lines(self, stmts: Sequence[N.Stmt],
                             env: Dict[str, object]) -> List[str]:
        """One tick per statement, exactly like the oracle's
        ``_exec_stmt_list``.  A tick that reaches the step limit
        charges the events still pending first: the oracle charged
        the statements before it as they ran."""
        lines: List[str] = []
        for stmt in stmts:
            lines.append("count += 1")
            if self._items:
                lines.append("if count > _ms:")
                lines.extend(_ind(self._cost_lines(self._items)
                                  + ["_hit(_ms + 1)"]))
            else:
                lines.append("if count > _ms: _hit(_ms + 1)")
            if isinstance(stmt, (N.Assign, N.VectorAssign,
                                 N.VectorReduce)):
                self._emit_leaf(stmt, env, lines)
            elif isinstance(stmt, N.CallStmt):
                self._emit_call_stmt(stmt, env, lines)
            elif isinstance(stmt, N.IfStmt):
                src = self._guarded_bool_src(stmt.cond, env, lines)
                src = self._cost_settle(src, lines)
                da0 = set(self._da)
                lines.append(f"if {src}:")
                then = self._gen_stmt_list_lines(stmt.then, env)
                lines.extend(_ind(then or ["pass"]))
                da_then = self._da
                if stmt.otherwise:
                    self._da = set(da0)
                    lines.append("else:")
                    lines.extend(_ind(
                        self._gen_stmt_list_lines(stmt.otherwise, env)))
                    self._da = da_then & self._da
                else:
                    self._da = da0
                self._note("branch")  # after the taken arm, like the oracle
            elif isinstance(stmt, N.WhileLoop):
                self._cost_sync(lines)
                lines.append("while True:")
                sub: List[str] = []
                csrc = self._guarded_bool_src(stmt.cond, env, sub)
                csrc = self._cost_settle(csrc, sub)
                sub.append(f"if not ({csrc}): break")
                sub.append("count += 1")
                sub.append("if count > _ms: _hit(_ms + 1)")
                da0 = set(self._da)
                sub.extend(self._gen_stmt_list_lines(stmt.body, env))
                self._da = da0  # body may run zero times
                lines.extend(_ind(sub))
            elif isinstance(stmt, N.DoLoop):
                # Nested DO loops run serially inside a parallel body,
                # parallel/vector flags included — like the oracle.
                tlo = self._tmp_name()
                self._guarded_assign(stmt.lo, env, lines, tlo)
                hi = self._guarded_src(stmt.hi, env, lines)
                tvs = self._bind(env, _trip_values)
                it = self._tmp_name()
                trips = f"{tvs}({tlo}, ({hi}), {stmt.step!r})"
                quiet = self._scheduled(stmt)
                if quiet:
                    tr = self._tmp_name()
                    lines.append(f"{tr} = {trips}")
                    trips = tr
                self._cost_sync(lines)
                lines.append(f"for {it} in {trips}:")
                sub = ["count += 1", "if count > _ms: _hit(_ms + 1)"]
                da0 = set(self._da)
                self._quiet = quiet
                sub.extend(self._gen_trip_lines(stmt, it, env)[0])
                self._note("branch")
                self._cost_sync(sub)
                self._quiet = False  # scheduled loops do not nest
                self._da = da0  # zero-trip loops write nothing
                lines.extend(_ind(sub))
                if quiet:
                    lines.append(self._lump_line(stmt.sid,
                                                 f"len({trips})"))
            else:
                # The oracle rejects these at run time, with its own
                # message.
                raise _Fallback(
                    f"{type(stmt).__name__} in structured body")
        self._cost_sync(lines)
        return lines

    def _gen_trip_lines(self, stmt: N.DoLoop, it: str,
                        env: Dict[str, object]
                        ) -> Tuple[List[str], Optional[IntFact]]:
        """One trip of a structured DO loop: the variable's write,
        then the body.  Between integer constant bounds the trip
        values lie between them (returned too), and a register
        nothing else writes stays there throughout the body."""
        lines, trips = self._trip_prologue(stmt, it, env)
        lines.extend(self._gen_stmt_list_lines(stmt.body, env))
        self._ranges.pop(stmt.var, None)
        return lines, trips

    def _trip_prologue(self, stmt: N.DoLoop, it: str,
                       env: Dict[str, object]
                       ) -> Tuple[List[str], Optional[IntFact]]:
        """The write of one trip's value ``it`` to the DO variable,
        and what is known of it — recorded for the body in
        ``_ranges``, which the caller clears after the body."""
        var, trips, ends = stmt.var, None, (stmt.lo, stmt.hi)
        if all(isinstance(end, N.Const) and isinstance(end.value, int)
               for end in ends):
            trips = IntFact(*sorted(end.value for end in ends))
        lines = self._gen_write_lines(var, it, env, fact=trips)
        if intfacts.fits(trips, var.ctype) and \
                self._reg_slot(var) is not None and not any(
                    getattr(inner, "var", None) is var or getattr(
                        getattr(inner, "target", None), "sym", None) is var
                    for inner in N.walk_statements(stmt.body)):
            self._ranges[var] = trips
        return lines, trips

    def _emit_special_loop(self, stmt: N.DoLoop, env: Dict[str, object],
                           lines: List[str]) -> None:
        """Parallel (or vector) DoLoop executed as one flow node,
        mirroring the oracle's ``_exec_special_loop``."""
        tlo = self._tmp_name()
        self._guarded_assign(stmt.lo, env, lines, tlo)
        hi = self._guarded_src(stmt.hi, env, lines)
        tr = self._tmp_name()
        shape = strips.shape(self, stmt)
        tvs = self._bind(env, _trip_values)
        trip_values = f"{tvs}({tlo}, ({hi}), {stmt.step!r})"
        if stmt.parallel:
            # Iteration order is an engine-instance knob read at run
            # time (never baked).
            trip_values = f"_eng._in_order({trip_values}, " \
                          f"{self._bind(env, stmt)})"
        lines.append(f"{tr} = {trip_values}")
        costed = self._costs is not None
        quiet = not stmt.parallel and self._scheduled(stmt)
        self._cost_sync(lines)
        if costed and stmt.parallel:
            lines += ["_park(_cy)", f"_hk('parallel_begin', {stmt.sid})"]
        da0 = set(self._da)
        if shape is not None:
            trips = strips.emit(self, stmt, shape, tr, env, lines)
        else:
            it = self._tmp_name()
            lines.append(f"for {it} in {tr}:")
            self._quiet = quiet
            body, trips = self._gen_trip_lines(stmt, it, env)
            self._quiet = False
            lines.extend(_ind(body))
        self._da = da0  # per-trip writes are conditional on trips
        if costed and stmt.parallel:
            lines.extend(self._hook_lines(
                f"'parallel_end', {stmt.sid}, len({tr}), "
                f"{stmt.combines()!r}"))
        elif quiet:
            lines.append(self._lump_line(stmt.sid, f"len({tr})"))
        # The trailing write is unconditional (so the loop variable IS
        # definitely assigned downstream).
        lines.extend(self._gen_write_lines(
            stmt.var, f"({tr}[-1] + {stmt.step!r} if {tr} else {tlo})",
            env, fact=trips and IntFact(trips.lo + min(stmt.step, 0),
                                        trips.hi + max(stmt.step, 0))))

    # -- flow lowering -----------------------------------------------------

    def _reachable(self, graph) -> Set[FlowNode]:
        """Nodes reachable under special-loop short-circuit: a
        parallel/vector DoLoop executes as one node, so its do_cond/
        do_step/body machinery is dead unless a goto jumps into the
        body (in which case the oracle runs those nodes scalar-style,
        and so do we)."""
        exit_node = graph.exit
        reach: Set[FlowNode] = set()
        worklist = [graph.entry]
        while worklist:
            node = worklist.pop()
            if node is None or node is exit_node or node in reach:
                continue
            reach.add(node)
            if node.kind == "do_init" and \
                    (node.stmt.parallel or node.stmt.vector):
                worklist.append(node.succs[0].false_succ)
            else:
                worklist.extend(node.succs)
        return reach

    def _reg_slot(self, sym: Symbol) -> Optional[int]:
        if sym.is_volatile:
            return None
        kind, where = self._binding(sym)
        return where if kind == "reg" else None

    def _block_effects(self, head: FlowNode,
                       pc_of: Dict[FlowNode, int],
                       exit_node: FlowNode
                       ) -> Tuple[Set[int], List[FlowNode]]:
        """(definitely-written register slots, successor heads) of one
        block — the transfer function for the must-assign dataflow.
        Mirrors :meth:`_gen_block`'s node walk; writes inside
        structured loop bodies are conditional and excluded."""
        writes: Set[int] = set()
        succs: List[FlowNode] = []
        node: Optional[FlowNode] = head
        first = True
        while True:
            if node is None or node is exit_node:
                return writes, succs
            if not first and node in pc_of:
                succs.append(node)
                return writes, succs
            first = False
            kind = node.kind
            if kind == "assign":
                stmt = node.stmt
                target = getattr(stmt, "target", None)
                if isinstance(stmt, N.Assign) and \
                        isinstance(target, N.VarRef):
                    slot = self._reg_slot(target.sym)
                    if slot is not None:
                        writes.add(slot)
                elif isinstance(stmt, N.VectorReduce):
                    slot = self._reg_slot(stmt.target.sym)
                    if slot is not None:
                        writes.add(slot)
            elif kind in ("cond", "do_cond"):
                for succ in (node.true_succ, node.false_succ):
                    if succ is not None and succ is not exit_node:
                        succs.append(succ)
                return writes, succs
            elif kind == "do_init":
                stmt = node.stmt
                slot = self._reg_slot(stmt.var)
                if slot is not None:
                    writes.add(slot)
                if stmt.parallel or stmt.vector:
                    node = node.succs[0].false_succ
                    continue
            elif kind == "do_step":
                slot = self._reg_slot(node.stmt.var)
                if slot is not None:
                    writes.add(slot)
            elif kind == "return":
                return writes, succs
            elif kind not in _PURE_KINDS and kind != "call":
                return writes, succs  # emission will fall back
            node = node.succs[0] if node.succs else None

    def _compute_da(self, heads: List[FlowNode],
                    pc_of: Dict[FlowNode, int],
                    exit_node: FlowNode) -> Dict[FlowNode, Set[int]]:
        """Forward must-assign dataflow over the block graph: which
        register slots are definitely assigned at each block entry.
        Seeds the entry block with the parameter registers."""
        effects = {h: self._block_effects(h, pc_of, exit_node)
                   for h in heads}
        entry_in: Set[int] = set()
        for sym in self.fn.params:
            slot = self._reg_slot(sym)
            if slot is not None:
                entry_in.add(slot)
        ins: Dict[FlowNode, Set[int]] = {heads[0]: entry_in}
        work = [heads[0]]
        while work:
            head = work.pop()
            writes, succs = effects[head]
            out = ins[head] | writes
            for succ in succs:
                cur = ins.get(succ)
                if cur is None:
                    ins[succ] = set(out)
                    work.append(succ)
                else:
                    new = cur & out
                    if new != cur:
                        ins[succ] = new
                        work.append(succ)
        return ins

    def _block_terminal(self, head: FlowNode,
                        head_set: Dict[FlowNode, int],
                        exit_node: FlowNode
                        ) -> Optional[Tuple[str, FlowNode]]:
        """How the block starting at ``head`` ends: ("branch", cond)
        for a two-way branch, ("jump", target) for a fallthrough into
        another block head, None for a return/exit."""
        node: Optional[FlowNode] = head
        first = True
        while True:
            if node is None or node is exit_node:
                return None
            if not first and node in head_set:
                return ("jump", node)
            first = False
            kind = node.kind
            if kind in ("cond", "do_cond"):
                return ("branch", node)
            if kind == "return":
                return None
            if kind == "do_init" and (node.stmt.parallel
                                      or node.stmt.vector):
                node = node.succs[0].false_succ
                continue
            if kind in _PURE_KINDS or kind in ("assign", "call",
                                               "do_init", "do_step"):
                node = node.succs[0] if node.succs else None
                continue
            return None  # emission will fall back anyway

    def _find_loops(self, heads: List[FlowNode],
                    head_set: Dict[FlowNode, int],
                    exit_node: FlowNode,
                    effects) -> Dict[FlowNode, tuple]:
        """Single-body natural loops: a header block ending in a
        branch whose one arm is a body block B with no other
        predecessors that unconditionally jumps back to the header.
        Such a pair compiles to a native ``while True`` inside the
        header's dispatch arm, removing the per-iteration dispatch."""
        preds_ct: Dict[FlowNode, int] = {}
        for h in heads:
            for s in effects[h][1]:
                preds_ct[s] = preds_ct.get(s, 0) + 1
        loops: Dict[FlowNode, tuple] = {}
        absorbed: Set[FlowNode] = set()
        for h in heads:
            term = self._block_terminal(h, head_set, exit_node)
            if term is None or term[0] != "branch":
                continue
            cond = term[1]
            for body, ext, on_true in (
                    (cond.true_succ, cond.false_succ, True),
                    (cond.false_succ, cond.true_succ, False)):
                if body is None or body is exit_node or \
                        body not in head_set:
                    continue
                if body is h or body is heads[0] or ext is body or \
                        body in absorbed:
                    continue
                if preds_ct.get(body, 0) != 1:
                    continue
                b_term = self._block_terminal(body, head_set,
                                              exit_node)
                if b_term is not None and b_term[0] == "jump" and \
                        b_term[1] is h and effects[body][1] == [h]:
                    loops[h] = (body, ext, on_true)
                    absorbed.add(body)
                    break
        return loops

    def _gen_loop_block(self, head: FlowNode, loop: tuple,
                        env: Dict[str, object],
                        head_set: Dict[FlowNode, int],
                        pc_of: Dict[FlowNode, int],
                        exit_node: FlowNode, da_ins) -> List[str]:
        body, ext, on_true = loop
        inner = self._gen_block(head, env, head_set, pc_of, exit_node,
                                da_ins.get(head, set()),
                                loop_break=loop)
        inner.extend(self._gen_block(body, env, head_set, pc_of,
                                     exit_node,
                                     da_ins.get(body, set()),
                                     loop_continue=head))
        lines = ["while True:"] + _ind(inner)
        lines.extend(self._jump_lines(ext, pc_of, exit_node))
        return lines

    def _gen_flow(self, env: Dict[str, object]) -> List[str]:
        graph = self.engine._graph(self.fn)
        exit_node = graph.exit
        entry = graph.entry
        reach = self._reachable(graph)
        heads = []
        for node in graph.nodes:
            if node is exit_node or node not in reach:
                continue
            # Block heads: the entry, merge points, and branch
            # targets.  Everything else has a unique non-branching
            # predecessor and is inlined into its block.
            if node is entry or len(node.preds) != 1 or \
                    node.preds[0].kind in ("cond", "do_cond"):
                heads.append(node)
        heads.sort(key=lambda n: n is not entry)  # stable: entry first
        head_set = {node: pc for pc, node in enumerate(heads)}
        da_ins = self._compute_da(heads, head_set, exit_node)
        effects = {h: self._block_effects(h, head_set, exit_node)
                   for h in heads}
        loops = self._find_loops(heads, head_set, exit_node, effects)
        absorbed = {body for body, _, _ in loops.values()}
        arm_heads = [h for h in heads if h not in absorbed]
        pc_of = {node: pc for pc, node in enumerate(arm_heads)}
        blocks = []
        for node in arm_heads:
            loop = loops.get(node)
            if loop is None:
                blocks.append(self._gen_block(
                    node, env, head_set, pc_of, exit_node,
                    da_ins.get(node, set())))
            else:
                blocks.append(self._gen_loop_block(
                    node, loop, env, head_set, pc_of, exit_node,
                    da_ins))
        if len(blocks) == 1:
            return blocks[0]
        lines = ["_pc = 0", "while True:"]
        for pc, block in enumerate(blocks):
            kw = "if" if pc == 0 else "elif"
            lines.append(f"    {kw} _pc == {pc}:")
            lines.extend(_ind(_ind(block)))
        return lines

    def _jump_lines(self, node: Optional[FlowNode],
                    pc_of: Dict[FlowNode, int],
                    exit_node: FlowNode) -> List[str]:
        """Transfer control to ``node``: a dispatch jump, or a return
        when the target is the function exit."""
        if node is None or node is exit_node:
            return ["return None"]
        if node not in pc_of:
            raise _Fallback("jump into an absorbed loop body")
        return [f"_pc = {pc_of[node]}", "continue"]

    def _emit_branch(self, lines: List[str], cond_src: str,
                     true_succ: Optional[FlowNode],
                     false_succ: Optional[FlowNode],
                     pc_of: Dict[FlowNode, int],
                     exit_node: FlowNode,
                     on_false: Sequence[str] = ()) -> None:
        """Two-way branch; either arm may be the function exit.
        ``on_false`` lines run on the false edge only."""
        t_exit = true_succ is None or true_succ is exit_node
        f_exit = false_succ is None or false_succ is exit_node
        if not t_exit and not f_exit and not on_false:
            t, f = pc_of[true_succ], pc_of[false_succ]
            lines.append(f"_pc = {t} if ({cond_src}) else {f}")
            lines.append("continue")
            return
        lines.append(f"if ({cond_src}):")
        lines.extend(_ind(self._jump_lines(true_succ, pc_of,
                                           exit_node)))
        lines.extend(on_false)
        lines.extend(self._jump_lines(false_succ, pc_of, exit_node))

    def _gen_block(self, head: FlowNode, env: Dict[str, object],
                   head_set: Dict[FlowNode, int],
                   pc_of: Dict[FlowNode, int],
                   exit_node: FlowNode,
                   da_in: Set[int],
                   loop_break: Optional[tuple] = None,
                   loop_continue: Optional[FlowNode] = None
                   ) -> List[str]:
        self._da = set(da_in)
        lines: List[str] = []
        pending = 0
        # Per pending tick, where its node's events start in _items.
        starts: List[int] = []

        def flush_ticks() -> None:
            # Batched ticks: one add + one check per side-effecting
            # node (plus the pure nodes since the last one).  On
            # overflow the crossing tick was max_steps + 1, which is
            # exactly where _hit lands the shared cell; first the
            # events pending from nodes the oracle reached are
            # charged, as it charged them while they ran.
            nonlocal pending
            if pending:
                add = "count += 1" if pending == 1 \
                    else f"count += {pending}"
                lines.append(add)
                if self._items:
                    lines.append("if count > _ms:")
                    lines.extend(_ind(self._overflow_lines(starts)
                                      + ["_hit(_ms + 1)"]))
                else:
                    lines.append("if count > _ms: _hit(_ms + 1)")
                pending = 0
                starts.clear()

        node: Optional[FlowNode] = head
        first = True
        while True:
            if node is None or node is exit_node:
                flush_ticks()
                self._cost_sync(lines)
                lines.append("return None")
                return lines
            if not first and node in head_set:
                flush_ticks()
                self._cost_sync(lines)
                if node is loop_continue:
                    # Back edge of an absorbed loop: fall off the end
                    # of the native while body.
                    return lines
                lines.extend(self._jump_lines(node, pc_of, exit_node))
                return lines
            first = False
            kind = node.kind
            pending += 1
            starts.append(len(self._items))
            if kind in _PURE_KINDS:
                node = node.succs[0] if node.succs else None
                continue
            if kind == "assign":
                # A register-only, fault-free assign keeps its tick
                # pending: executing it a hair past the step limit is
                # unobservable (registers die with the frame, the cell
                # still lands at max_steps + 1).
                if not self._is_fusible_assign(node.stmt):
                    flush_ticks()
                self._quiet = id(node.stmt) in self._quiet_stmts
                self._emit_leaf(node.stmt, env, lines)
                self._quiet = False
                node = node.succs[0] if node.succs else None
                continue
            if kind == "call":
                flush_ticks()
                self._emit_call_stmt(node.stmt, env, lines)
                node = node.succs[0] if node.succs else None
                continue
            if kind == "cond":
                flush_ticks()
                src = self._guarded_bool_src(node.stmt.cond, env,
                                             lines)
                self._note("branch")
                src = self._cost_settle(src, lines)
                if loop_break is not None:
                    lines.append(f"if not ({src}): break"
                                 if loop_break[2]
                                 else f"if ({src}): break")
                    return lines
                self._emit_branch(lines, src, node.true_succ,
                                  node.false_succ, pc_of, exit_node)
                return lines
            if kind == "do_init":
                stmt = node.stmt
                flush_ticks()
                if stmt.parallel or stmt.vector:
                    self._emit_special_loop(stmt, env, lines)
                    # The whole loop ran as one node; continue at the
                    # 'after' join (do_cond's false branch).
                    node = node.succs[0].false_succ
                    continue
                lo = self._guarded_src(stmt.lo, env, lines)
                lines.extend(self._gen_write_lines(stmt.var, lo, env))
                hi = self._guarded_src(stmt.hi, env, lines)
                lines.append(f"_h{self._hi_slot(stmt.sid)} = {hi}")
                if self._scheduled(stmt):
                    lines.append(f"{self._iter_local(stmt.sid)} = 0")
                node = node.succs[0] if node.succs else None
                continue
            if kind == "do_cond":
                stmt = node.stmt
                flush_ticks()
                # A scheduled loop's own events are only counted;
                # leaving it (the false edge) pays its lump.
                on_false: List[str] = []
                if self._scheduled(stmt):
                    self._quiet = True
                    on_false.append(self._lump_line(
                        stmt.sid, self._iter_local(stmt.sid)))
                # Variable read first (its uninitialized fault comes
                # before any live bound evaluation), then the captured
                # bound, re-evaluated live when entered by goto.
                tv = self._gen_var_read(stmt.var, env)
                if not tv.startswith("_r"):  # guarded read: hoist
                    t = self._tmp_name()
                    lines.append(f"{t} = {tv}")
                    tv = t
                th = self._tmp_name()
                lines.append(f"{th} = _h{self._hi_slot(stmt.sid)}")
                self._cost_sync(lines)
                lines.append(f"if {th} is _U:")
                sub: List[str] = []
                hi = self._guarded_src(stmt.hi, env, sub)
                sub.append(f"{th} = {hi}")
                self._cost_sync(sub)
                lines.extend(_ind(sub))
                self._note("branch")
                self._cost_sync(lines)
                self._quiet = False
                cmp = "<=" if stmt.step > 0 else ">="
                if loop_break is not None and loop_break[2] and on_false:
                    lines.append(f"if not ({tv} {cmp} {th}):")
                    lines.extend(_ind(on_false + ["break"]))
                elif loop_break is not None:
                    lines.append(f"if not ({tv} {cmp} {th}): break"
                                 if loop_break[2]
                                 else f"if ({tv} {cmp} {th}): break")
                    lines.extend(on_false)  # false edge stays in the loop
                else:
                    self._emit_branch(lines, f"{tv} {cmp} {th}",
                                      node.true_succ, node.false_succ,
                                      pc_of, exit_node, on_false)
                return lines
            if kind == "do_step":
                stmt = node.stmt
                sym = stmt.var
                if sym.is_volatile:
                    raise _Fallback("volatile loop variable")
                if self._scheduled(stmt):
                    self._quiet = True
                    lines.append(f"{self._iter_local(stmt.sid)} += 1")
                kind2, where = self._binding(sym)
                t = f"_r{where}"
                if kind2 != "reg":
                    flush_ticks()
                    t = self._tmp_name()
                    lines.append(
                        f"{t} = {self._gen_var_read(sym, env)}")
                elif where not in self._da:
                    # (Else a fault-free register bump: the tick stays
                    # pending.)
                    flush_ticks()
                    un = self._bind(env, sym.name)
                    lines.append(f"if {t} is _U: _ui({un})")
                held = intfacts.of_type(sym.ctype)
                lines.extend(self._gen_write_lines(
                    sym, f"({t} + {stmt.step!r})", env,
                    fact=held and intfacts.interval(
                        "+", held, IntFact(stmt.step, stmt.step))))
                self._note("intop")
                self._quiet = False
                node = node.succs[0] if node.succs else None
                continue
            if kind == "return":
                stmt = node.stmt
                flush_ticks()
                if stmt.value is None:
                    self._cost_sync(lines)
                    lines.append("return None")
                else:
                    src = self._guarded_src(stmt.value, env, lines)
                    src = self._cost_settle(src, lines)
                    lines.append(f"return {src}")
                return lines
            raise _Fallback(f"flow node kind {kind!r}")

    # -- entry point -------------------------------------------------------

    def _gen_param_lines(self, env: Dict[str, object]) -> List[str]:
        lines: List[str] = []
        for i, sym in enumerate(self.fn.params):
            if sym.is_volatile:
                raise _Fallback("volatile parameter")
            kind, where = self._binding(sym)
            if kind == "reg":
                self._param_regs.add(where)
                value = self._gen_conv(f"args[{i}]", sym.ctype, env)
                lines.append(f"_r{where} = {value}")
                continue
            if _is_aggregate(sym.ctype):
                raise _Fallback("aggregate parameter")
            value = self._gen_conv(f"args[{i}]", sym.ctype, env)
            is_float = isinstance(sym.ctype, FloatType)
            if kind == "mem":
                lines.extend(self._gen_store_lines(
                    f"_m{where}", value, sym.ctype, env,
                    float_value=is_float))
            else:
                lines.extend(self._gen_store_lines(
                    str(where), value, sym.ctype, env,
                    const_addr=where, float_value=is_float))
        return lines

    def generate(self) -> _CodegenEntry:
        """Lower the whole function to one generated Python function;
        raises :class:`_Fallback` when the oracle must run it."""
        fn = self.fn
        env: Dict[str, object] = {
            "_U": _UNSET, "_ui": _raise_uninit, "_f32": round_f32,
            "_sc": self.engine._step_cell,
            "_hit": self.engine._hit_limit,
            "_eng": self.engine,
            "_mem": self.engine.memory,
        }
        self._recipes = {"_sc": ("scell",), "_hit": ("hit",),
                         "_eng": ("engine",), "_mem": ("memory",)}
        costed = self._costs is not None
        if costed:
            hook = self.engine.cost_hook
            env.update(_M=hook, _hk=hook, _park=hook.park,
                       _sx=hook.scheduled_exit,
                       _vx=hook.vector_statement)
            self._recipes.update(
                _M=("hook",), _hk=("hook",), _park=("hookattr", "park"),
                _sx=("hookattr", "scheduled_exit"),
                _vx=("hookattr", "vector_statement"))
        try:
            body = self._gen_flow(env)
            params = self._gen_param_lines(env)
            self._cost_sync(params)
        except RecursionError:
            raise _Fallback("function too deep to generate") from None
        check = self._bind(env,
                           _make_arg_check(fn.name, len(fn.params)))
        # Prologue mirrors the oracle's _exec_function: argument check,
        # memory mark, memory-backed locals in tree-walker order
        # (duplicates preserved — last allocation wins), converted
        # parameter writes; all *outside* the try so an allocation
        # failure does not release the mark, exactly like the oracle.
        inner: List[str] = [
            f"if len(args) != {len(fn.params)}:",
            f"    {check}(len(args))",
            "count = _sc[0]",
            "_ms = _eng.max_steps",
            "_mark = _mem.mark()",
        ]
        for slot, ctype in self._mem_allocs:
            inner.append(f"_m{slot} = _mem.allocate({ctype.sizeof()})")
        if costed:
            # The accounting locals: the model's running total, and
            # operation counts since entry for absorb() to add.
            inner.append("_cy = _M.cycles")
            zeroed = sorted(self._cost_locals | self._iter_locals)
            if zeroed:
                inner.append(" = ".join(zeroed) + " = 0")
        inner.extend(params)
        regs = sorted(set(self._reg_slots.values()) - self._param_regs)
        if regs:
            inner.append(" = ".join(f"_r{s}" for s in regs) + " = _U")
        his = sorted(self._hi_slots.values())
        if his:
            inner.append(" = ".join(f"_h{s}" for s in his) + " = _U")
        inner.append("try:")
        inner.extend(_ind(body))
        # The finally lands the local count in the shared cell — but
        # only when it is ahead (a fault in a *callee* leaves the cell
        # ahead of this frame's stale local) and within the limit (on
        # the limit path _hit already landed the cell at exactly
        # max_steps + 1; a batched local count may sit past it) —
        # then releases this activation's memory.
        inner.append("finally:")
        if costed:
            counts = ["(" + ", ".join(
                name if name in self._cost_locals else "0"
                for name in (f"{prefix}{i}"
                             for i in range(len(self._kinds)))) + ")"
                for prefix in ("_k", "_u")]
            if not any(n.startswith("_u") for n in self._cost_locals):
                del counts[1]
            # _cy is None while parked for a callee that faulted.
            inner.append(f"    _M.absorb(_cy, {', '.join(counts)})")
        inner.extend(["    if _sc[0] < count <= _ms:",
                      "        _sc[0] = count",
                      "    _mem.release(_mark)"])
        source = ("def _bytecode_fn(args):\n"
                  + "".join(f"    {line}\n" for line in inner))
        if len(source) > _SOURCE_LIMIT:
            raise _Fallback("generated source too large")
        try:
            code = compile(source, f"<titancc-bytecode:{fn.name}>",
                           "exec")
        except (SyntaxError, RecursionError, MemoryError,
                ValueError) as exc:
            raise _Fallback(f"compile failed: {exc}") from None
        # The oracle's integer conversions met on the way, by site
        # (``scalar`` code, ``vector`` statements) and what became of
        # them (``proved`` unnecessary, ``deferred``, ``emitted``).
        for (site, outcome), n in self._conversions.items():
            REGISTRY.counter("titancc_engine_int_conversions_total",
                             {"site": site, "outcome": outcome}).inc(n)
        return _CodegenEntry(fn, source, code, dict(self._recipes),
                             tuple(dict.fromkeys(self._baked)),
                             len(self.engine.memory.data),
                             _baked_costs(fn, self._costs))


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class CompiledInterpreter(Interpreter):
    """Drop-in :class:`Interpreter` — the fast engine.

    Same constructor, same public API, same observable semantics (the
    differential tests enforce this against the tree oracle).  Each
    function is materialized lazily on first call, from what the
    engine can observe: with no cost hook installed it runs as one
    generated Python function (memoized across engine instances);
    under a hook that offers its scalar cost table (TitanSimulator's
    model) as the same function with that accounting inline; under
    any other hook (recording hooks, a profiler), or when the
    generator raised :class:`_Fallback`, on the tree oracle this
    class inherits.  Installing a different ``cost_hook`` afterwards
    re-materializes, because costed code has its hook baked in.
    """

    engine_name = "compiled"

    def __init__(self, program: N.ILProgram, **kwargs):
        super().__init__(program, **kwargs)
        # name -> (the ILFunction, what the engine calls for it).
        self._compiled: Dict[str, Tuple[N.ILFunction, _Invoke]] = {}
        # (hook, what it lets generated code do): see _hook_costs.
        self._hook_memo: tuple = (None, None)

    def _hit_limit(self, count: int) -> None:
        """Overflow path for generated code: land the function's local
        step count in the shared cell, then raise exactly like the
        oracle."""
        self._step_cell[0] = count
        raise StepLimitExceeded(
            f"exceeded {self.max_steps} steps (infinite loop?)")

    def _run_vector_lanes(self, plan: tuple, regs: tuple,
                          mems: tuple) -> Optional[Value]:
        """One vector statement by the oracle's per-lane definition,
        for generated code: the lane form of a statement, and where
        the bulk form goes when anything before its first store
        raised (or its length is not positive) — so faults, stored
        prefixes and charges are the oracle's by construction.
        ``regs``/``mems`` are the caller's register values and
        memory-backed local addresses for the symbols in ``plan``.
        Returns a reduction's new target value (the caller's register,
        when it lives in one)."""
        stmt, reg_syms, mem_syms, bulk = plan
        if bulk:
            REGISTRY.counter("titancc_vector_bulk_miss_total").inc()
        frame = _Frame(
            env={sym: value for sym, value in zip(reg_syms, regs)
                 if value is not _UNSET},
            addr_of=dict(zip(mem_syms, mems)))
        if isinstance(stmt, N.VectorAssign):
            self._exec_vector_assign(stmt, frame)
            return None
        self._exec_vector_reduce(stmt, frame)
        return frame.env.get(stmt.target.sym)

    def _drop_graphs(self) -> None:
        super()._drop_graphs()
        self._compiled.clear()

    def close(self) -> None:
        super().close()
        self._hook_memo = (None, None)

    def _exec_function(self, fn: N.ILFunction,
                       args: List[Value]) -> Optional[Value]:
        if self.cost_hook is not self._hook_memo[0]:
            self._hook_costs()  # swapped: drops what was materialized
        cached = self._compiled.get(fn.name)
        if cached is None or cached[0] is not fn:
            cached = self._compiled[fn.name] = (
                fn, self._materialize_function(fn))
        return cached[1](args)

    def _materialize_function(self, fn: N.ILFunction) -> _Invoke:
        """Pick the tier for one function and count the decision."""
        costs = self._hook_costs()
        if isinstance(costs, str):
            return self._oracle_function(fn, costs)
        entry = self._codegen_entry(fn, costs)
        if isinstance(entry, _FallbackEntry):
            return self._oracle_function(fn, entry.reason)
        _tier_counter("generated", "costed" if costs else "").inc()
        return self._install(entry)

    def _hook_costs(self):
        """What the installed cost hook lets generated code do: None
        (no hook: observation-free code), the hook's scalar cost table
        (it advertises ``inline_costs()``: generated code accounts for
        scalar events itself), or the tier-counter reason every
        function runs on the tree oracle instead.  Asked once per
        hook; this is also where a swapped hook is noticed, and what
        was materialized for the old one dropped — costed code has its
        hook baked in, plain code has none."""
        hook = self.cost_hook
        if hook is not self._hook_memo[0]:
            self._compiled.clear()
            if hook is None:
                costs = None
            else:
                advertised = getattr(hook, "inline_costs", None)
                costs = advertised() if advertised is not None \
                    else "hook"
            self._hook_memo = (hook, costs)
        return self._hook_memo[1]

    def _oracle_function(self, fn: N.ILFunction, reason: str) -> _Invoke:
        """``fn`` on the tree oracle this engine inherits.  Its calls
        come back through :meth:`_exec_function`, so its callees still
        run generated code; it ticks the shared step cell and emits
        every event to the hook — under a cost model, between its
        caller's park and reload."""
        _tier_counter("oracle", reason).inc()
        return functools.partial(Interpreter._exec_function, self, fn)

    def _codegen_entry(self, fn: N.ILFunction, costs=None):
        """The function's cross-instance codegen entry for one variant
        (with ``costs``' accounting, or observation-free): the cached
        one while its baked facts hold, else freshly generated (a
        :class:`_Fallback` is cached as a decision too)."""
        from ..obs import telemetry
        cache = getattr(fn, _CACHE_ATTR, None)
        if cache is None:
            cache = {}
            try:
                setattr(fn, _CACHE_ATTR, cache)
            except (AttributeError, TypeError):
                pass
        costed = costs is not None
        entry = cache.get(costed)
        if entry is not None and self._entry_valid(entry, costs):
            outcome = "hit" if isinstance(entry, _CodegenEntry) \
                else "miss"
            _cache_counter(outcome).inc()
            return entry
        _cache_counter("miss").inc()
        with telemetry.span("engine-codegen", cat="engine",
                            engine=self.engine_name, function=fn.name):
            try:
                entry = _CodeGenerator(self, fn, costs).generate()
            except _Fallback as exc:
                entry = _FallbackEntry(fn, str(exc))
        cache[costed] = entry
        return entry

    def _entry_valid(self, entry, costs=None) -> bool:
        """A cached entry is reusable only while its baked facts hold:
        same memory size, every baked global symbol still at its
        compile-time address, same latencies and scheduled loops."""
        if isinstance(entry, _FallbackEntry):
            return True
        if not isinstance(entry, _CodegenEntry):
            return False
        if entry.mem_limit != len(self.memory.data) or \
                entry.costs != _baked_costs(entry.fn, costs):
            return False
        memory = self.memory
        for sym, addr in entry.baked:
            if not memory.has_storage(sym) or \
                    memory.address_of(sym) != addr:
                return False
        return True

    def _install(self, entry: _CodegenEntry) -> _Invoke:
        env: Dict[str, object] = {"_U": _UNSET, "_ui": _raise_uninit,
                                  "_f32": round_f32}
        for name, recipe in entry.recipes.items():
            env[name] = _materialize_recipe(self, recipe)
        namespace: Dict[str, object] = {}
        exec(entry.code, env, namespace)
        return namespace["_bytecode_fn"]

    def invalidate_graphs(self) -> None:
        super().invalidate_graphs()
        for fn in self.program.functions.values():
            if hasattr(fn, _CACHE_ATTR):
                try:
                    delattr(fn, _CACHE_ATTR)
                except AttributeError:
                    pass

    # -- debugging ---------------------------------------------------------

    def disassemble(self, name: str) -> str:
        """Generated source + CPython disassembly for one function
        (the CLI's ``--dump-code``), without executing it: the variant
        a run on this engine would execute — observation-free, or with
        the installed hook's accounting.  Functions that run on the
        tree oracle report why they have no generated bytecode."""
        fn = self.program.functions.get(name)
        if fn is None:
            raise InterpreterError(f"no function named {name!r}")
        costs = self._hook_costs()
        if isinstance(costs, str):
            return (f"{name}: no generated bytecode "
                    f"(tree oracle under this cost hook: {costs})\n")
        entry = self._codegen_entry(fn, costs)
        if isinstance(entry, _FallbackEntry):
            return (f"{name}: no generated bytecode "
                    f"(tree-oracle fallback: {entry.reason})\n")
        buf = io.StringIO()
        buf.write(f"# generated source for {name}\n")
        buf.write(entry.source)
        buf.write(f"\n# CPython bytecode for {name}\n")
        dis.dis(self._install(entry), file=buf)
        return buf.getvalue()
