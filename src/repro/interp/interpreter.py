"""Reference interpreter for the IL.

This is the semantic oracle: every optimization and the vectorizer must
preserve what this interpreter computes.  It executes a function's flow
graph (so ``goto`` into loops works exactly as the CFG says), backs
address-taken data with the byte-addressable :class:`Memory`, and
supports:

* volatile *devices* — callbacks invoked on reads/writes of a volatile
  symbol, modelling the paper's ``keyboard_status`` example (section 1);
* a *cost hook* — every dynamic operation is reported to an optional
  callback, which is how the Titan simulator layers its timing model on
  top of one shared execution semantics;
* vector assignments with true vector semantics (all operand elements
  are read before any result element is written);
* parallel loops with a configurable iteration order, so tests can check
  that a loop the compiler marked ``do parallel`` is genuinely
  order-independent.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..analysis.flowgraph import FlowGraph, FlowNode
from ..frontend.ctypes_ import (ArrayType, CType, StructType, Value,
                                ValueFault, binop_value, unop_value)
from ..frontend.symtab import Symbol
from ..il import nodes as N
from ..titan.vector_ops import vector_instructions
from .memory import Memory


class InterpreterError(Exception):
    pass


class StepLimitExceeded(InterpreterError):
    """The program ran longer than ``max_steps`` dynamic operations."""


@dataclass
class Device:
    """Volatile-variable device model: hooks fire on every access."""

    on_read: Optional[Callable[[], Value]] = None
    on_write: Optional[Callable[[Value], None]] = None
    reads: int = 0
    writes: int = 0


@dataclass
class _Frame:
    env: Dict[Symbol, Value] = field(default_factory=dict)
    mark: int = 0
    # Fortran DO semantics: bounds are captured once at loop entry.
    do_bounds: Dict[int, Value] = field(default_factory=dict)
    # Per-frame storage for memory-backed locals (recursion gets a
    # fresh address each activation).
    addr_of: Dict[Symbol, int] = field(default_factory=dict)


class Interpreter:
    #: Engine identifier surfaced in benchmark telemetry; the
    #: fast-engine subclass overrides it.
    engine_name = "tree"

    def __init__(self, program: N.ILProgram, memory_size: int = 1 << 22,
                 max_steps: int = 10_000_000,
                 cost_hook: Optional[Callable[..., None]] = None,
                 parallel_order: str = "forward",
                 seed: int = 0):
        self.program = program
        self.memory = Memory(memory_size)
        self.max_steps = max_steps
        # The one step counter, shared by every engine: a mutable cell
        # so generated code and the tree walker charge the same
        # budget (StepLimitExceeded must fire at the same dynamic op
        # count regardless of engine).
        self._step_cell: List[int] = [0]
        self.cost_hook = cost_hook
        self.parallel_order = parallel_order
        self._rng = random.Random(seed)
        self.output: List[str] = []
        self.devices: Dict[str, Device] = {}
        self._graphs: Dict[str, FlowGraph] = {}
        self._init_globals()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _init_globals(self) -> None:
        # Allocate every global before storing any initializer: an
        # address-valued init (``char *s = "abc";`` lowers to the
        # Symbol of the interned string) may refer to any other global.
        for g in self.program.globals:
            self.memory.allocate_symbol(g.sym)
        for g in self.program.globals:
            if g.init is None:
                continue
            self._store_init(self.memory.address_of(g.sym),
                             g.sym.ctype, g.init)

    def _store_init(self, addr: int, ctype: CType, init) -> None:
        if isinstance(init, Symbol):
            self.memory.store(addr, _scalar_type(ctype),
                              self.memory.address_of(init))
            return
        if isinstance(init, (int, float)):
            self.memory.store(addr, _scalar_type(ctype), init)
            return
        if isinstance(ctype, ArrayType):
            elem_size = ctype.base.sizeof()
            flat = _flatten(init)
            elem = ctype.base
            while isinstance(elem, ArrayType):
                elem = elem.base
            inner_size = elem.sizeof()
            for index, value in enumerate(flat):
                self.memory.store(addr + index * inner_size, elem, value)
            return
        raise InterpreterError(f"cannot initialize {ctype} from {init!r}")

    def add_device(self, name: str,
                   on_read: Optional[Callable[[], Value]] = None,
                   on_write: Optional[Callable[[Value], None]] = None
                   ) -> Device:
        device = Device(on_read=on_read, on_write=on_write)
        self.devices[name] = device
        return device

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, entry: str = "main", *args: Value) -> Optional[Value]:
        """Call ``entry`` with scalar/pointer arguments.

        One ``engine-run`` telemetry span per top-level run; with no
        session active the span is a no-op, so the hot path (the
        execution itself) stays observation-free."""
        from ..obs import telemetry
        with telemetry.span("engine-run", cat="engine",
                            engine=self.engine_name,
                            entry=entry) as targs:
            before = self._step_cell[0]
            value = self.call_function(entry, list(args))
            if targs:
                targs["steps"] = self._step_cell[0] - before
            return value

    def call_function(self, name: str,
                      args: Sequence[Value]) -> Optional[Value]:
        fn = self.program.functions.get(name)
        if fn is None:
            return self._call_builtin(name, list(args))
        return self._exec_function(fn, list(args))

    def global_array(self, name: str, count: int,
                     ctype: Optional[CType] = None) -> List[Value]:
        """Read ``count`` elements of a global array (test helper)."""
        g = self.program.global_named(name)
        base = self.memory.address_of(g.sym)
        elem = g.sym.ctype.base if isinstance(g.sym.ctype, ArrayType) \
            else (ctype or g.sym.ctype)
        while isinstance(elem, ArrayType):
            elem = elem.base
        size = elem.sizeof()
        return [self.memory.load(base + i * size, elem)
                for i in range(count)]

    def set_global_array(self, name: str,
                         values: Sequence[Value]) -> None:
        """Write elements into a global array.  Multi-dimensional
        arrays accept nested lists (flattened row-major)."""
        g = self.program.global_named(name)
        base = self.memory.address_of(g.sym)
        assert isinstance(g.sym.ctype, ArrayType)
        elem = g.sym.ctype.base
        while isinstance(elem, ArrayType):
            elem = elem.base
        size = elem.sizeof()
        for i, value in enumerate(_flatten(list(values))):
            self.memory.store(base + i * size, elem, value)

    def global_scalar(self, name: str) -> Value:
        g = self.program.global_named(name)
        return self.memory.load(self.memory.address_of(g.sym),
                                _scalar_type(g.sym.ctype))

    def set_global_scalar(self, name: str, value: Value) -> None:
        g = self.program.global_named(name)
        self.memory.store(self.memory.address_of(g.sym),
                          _scalar_type(g.sym.ctype), value)

    @property
    def stdout(self) -> str:
        return "".join(self.output)

    # ------------------------------------------------------------------
    # Function execution over the flow graph
    # ------------------------------------------------------------------

    def _graph(self, fn: N.ILFunction) -> FlowGraph:
        cached = self._graphs.get(fn.name)
        if cached is not None and cached.fn is fn:
            return cached
        graph = FlowGraph(fn)
        self._graphs[fn.name] = graph
        return graph

    def invalidate_graphs(self) -> None:
        """Call after transforming the program in place."""
        self._drop_graphs()

    def _drop_graphs(self) -> None:
        """Forget (and unlink: they are reference cycles) the flow
        graphs and whatever an engine compiled from them — this
        engine's own state only, which is why ``close`` calls it and
        not ``invalidate_graphs`` (the fast engine's also drops the
        code cache it shares across instances)."""
        for graph in self._graphs.values():
            graph.close()
        self._graphs.clear()

    def close(self) -> None:
        """Release what a finished run no longer needs: the memory
        image, the flow graphs and functions compiled from them, the
        hook and device references.  An engine and the functions
        materialized for it point at each other, so a dropped engine
        would otherwise keep its image until the cycle collector next
        runs.
        ``stdout`` and ``steps`` stay readable."""
        self._drop_graphs()
        self.cost_hook = None
        self.devices.clear()
        self.memory.data = bytearray()

    def __enter__(self) -> "Interpreter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _exec_function(self, fn: N.ILFunction,
                       args: List[Value]) -> Optional[Value]:
        if len(args) != len(fn.params):
            raise InterpreterError(
                f"{fn.name} expects {len(fn.params)} args, got {len(args)}")
        frame = _Frame(mark=self.memory.mark())
        for sym in N.memory_locals(fn):
            frame.addr_of[sym] = self.memory.allocate(
                sym.ctype.sizeof())
        for sym, value in zip(fn.params, args):
            self._write_var(frame, sym, value)
        graph = self._graph(fn)
        node: Optional[FlowNode] = graph.entry
        retval: Optional[Value] = None
        self._cost("fn_enter", fn.name)
        try:
            while node is not None and node is not graph.exit:
                self._tick()
                node = self._exec_node(node, frame)
                if isinstance(node, tuple):  # ("return", value)
                    retval = node[1]
                    break
        finally:
            self.memory.release(frame.mark)
            self._cost("fn_exit", fn.name)
        return retval

    def _exec_node(self, node: FlowNode, frame: _Frame):
        kind = node.kind
        if kind in ("entry", "label", "join"):
            return node.succs[0] if node.succs else None
        if kind == "goto":
            return node.succs[0]
        if kind == "assign":
            stmt = node.stmt
            if isinstance(stmt, N.VectorAssign):
                self._exec_vector_assign(stmt, frame)
            elif isinstance(stmt, N.VectorReduce):
                self._exec_vector_reduce(stmt, frame)
            else:
                self._exec_assign(stmt, frame)
            return node.succs[0] if node.succs else None
        if kind == "call":
            stmt = node.stmt
            assert isinstance(stmt, N.CallStmt)
            self._eval_call(stmt.call, frame)
            return node.succs[0] if node.succs else None
        if kind == "cond":
            stmt = node.stmt
            value = self._eval(stmt.cond, frame)
            self._cost("branch")
            return node.true_succ if value else node.false_succ
        if kind == "do_init":
            stmt = node.stmt
            assert isinstance(stmt, N.DoLoop)
            if stmt.parallel or stmt.vector:
                return self._exec_special_loop(node, stmt, frame)
            self._write_var(frame, stmt.var,
                            self._eval(stmt.lo, frame))
            frame.do_bounds[stmt.sid] = self._eval(stmt.hi, frame)
            self._cost("do_enter", stmt.sid)
            return node.succs[0]
        if kind == "do_cond":
            stmt = node.stmt
            assert isinstance(stmt, N.DoLoop)
            var = self._read_var(frame, stmt.var)
            hi = frame.do_bounds.get(stmt.sid)
            if hi is None:  # entered by goto: fall back to live bound
                hi = self._eval(stmt.hi, frame)
            taken = var <= hi if stmt.step > 0 else var >= hi
            self._cost("branch")
            if not taken:
                self._cost("do_exit", stmt.sid)
            return node.true_succ if taken else node.false_succ
        if kind == "do_step":
            stmt = node.stmt
            assert isinstance(stmt, N.DoLoop)
            self._write_var(frame, stmt.var,
                            self._read_var(frame, stmt.var) + stmt.step)
            self._cost("intop", "+")
            self._cost("do_iter", stmt.sid)
            return node.succs[0]
        if kind == "list_loop":
            stmt = node.stmt
            assert isinstance(stmt, N.ListParallelLoop)
            self._exec_list_parallel(stmt, frame)
            return node.succs[0] if node.succs else None
        if kind == "return":
            stmt = node.stmt
            assert isinstance(stmt, N.Return)
            value = None if stmt.value is None \
                else self._eval(stmt.value, frame)
            return ("return", value)
        raise InterpreterError(f"cannot execute node {node!r}")

    def _exec_list_parallel(self, stmt: N.ListParallelLoop,
                            frame: _Frame) -> None:
        """Section 10 semantics: chase the links serially, then run the
        per-node bodies in any order (parallel across processors)."""
        nodes: List[Value] = []
        while True:
            self._tick()
            current = self._read_var(frame, stmt.ptr)
            if not current:
                break
            nodes.append(current)
            self._exec_stmt_list(stmt.advance, frame)
            self._cost("list_chase", 1)
            if len(nodes) > self.max_steps:
                raise StepLimitExceeded("unterminated list traversal")
        order = self._in_order(nodes, stmt)
        self._cost("parallel_begin", stmt.sid)
        for node_addr in order:
            self._tick()
            self._write_var(frame, stmt.ptr, node_addr)
            self._exec_stmt_list(stmt.body, frame)
        self._cost("parallel_end", stmt.sid, len(order))
        self._write_var(frame, stmt.ptr, 0)

    def reorders(self, stmt: N.Stmt) -> bool:
        """Does this engine run loop ``stmt``'s iterations out of
        index order?  A parallel loop runs in ``parallel_order`` —
        forward, reverse or shuffle — except a forked reduction
        (``DoLoop.combines``), which always runs in index order so its
        result is the serial loop's bit for bit.  The one rule every
        engine path reads."""
        if self.parallel_order == "forward":
            return False
        if isinstance(stmt, N.DoLoop):
            return stmt.parallel and not stmt.combines()
        return isinstance(stmt, N.ListParallelLoop)

    def _in_order(self, items: List, stmt: N.Stmt) -> List:
        """Loop ``stmt``'s iterations ``items`` in this engine's
        order (:meth:`reorders`): reversed, or shuffled by the
        engine's seeded generator (a new list unless in order)."""
        if not self.reorders(stmt):
            return items
        if self.parallel_order == "reverse":
            return list(reversed(items))
        if self.parallel_order == "shuffle":
            items = list(items)
            self._rng.shuffle(items)
        return items

    def _exec_special_loop(self, init_node: FlowNode, stmt: N.DoLoop,
                           frame: _Frame) -> Optional[FlowNode]:
        """Execute a parallel (or parallel-vector) DoLoop as a unit.

        Iterations run in a configurable order; a correctly parallelized
        loop must produce the same result for every order.
        """
        lo = self._eval(stmt.lo, frame)
        hi = self._eval(stmt.hi, frame)
        step = stmt.step
        trips = _trip_values(lo, hi, step)
        if stmt.parallel:
            trips = self._in_order(trips, stmt)
            self._cost("parallel_begin", stmt.sid)
        else:
            # Vector (non-parallel) loops bypass the flow-graph DO
            # nodes, so announce the loop ourselves.  The cost model
            # ignores these for unscheduled loops; the profiler uses
            # them for per-loop attribution.
            self._cost("do_enter", stmt.sid)
        for value in trips:
            self._write_var(frame, stmt.var, value)
            self._exec_stmt_list(stmt.body, frame)
            if not stmt.parallel:
                self._cost("do_iter", stmt.sid)
        if stmt.parallel:
            self._cost("parallel_end", stmt.sid, len(trips),
                       stmt.combines())
        else:
            self._cost("do_exit", stmt.sid)
        self._write_var(frame, stmt.var,
                        trips[-1] + step if trips else lo)
        # do_init's structured successor chain: init -> cond -> ... ->
        # join.  The 'after' join is the false successor of do_cond.
        cond = init_node.succs[0]
        return cond.false_succ

    def _exec_stmt_list(self, stmts: Sequence[N.Stmt],
                        frame: _Frame) -> None:
        """Structured executor used inside parallel loop bodies (no
        gotos may escape a parallel loop by construction)."""
        for stmt in stmts:
            self._tick()
            if isinstance(stmt, N.Assign):
                self._exec_assign(stmt, frame)
            elif isinstance(stmt, N.VectorAssign):
                self._exec_vector_assign(stmt, frame)
            elif isinstance(stmt, N.VectorReduce):
                self._exec_vector_reduce(stmt, frame)
            elif isinstance(stmt, N.CallStmt):
                self._eval_call(stmt.call, frame)
            elif isinstance(stmt, N.IfStmt):
                if self._eval(stmt.cond, frame):
                    self._exec_stmt_list(stmt.then, frame)
                else:
                    self._exec_stmt_list(stmt.otherwise, frame)
                self._cost("branch")
            elif isinstance(stmt, N.WhileLoop):
                while self._eval(stmt.cond, frame):
                    self._tick()
                    self._exec_stmt_list(stmt.body, frame)
            elif isinstance(stmt, N.DoLoop):
                lo = self._eval(stmt.lo, frame)
                hi = self._eval(stmt.hi, frame)
                self._cost("do_enter", stmt.sid)
                for value in _trip_values(lo, hi, stmt.step):
                    self._tick()
                    self._write_var(frame, stmt.var, value)
                    self._exec_stmt_list(stmt.body, frame)
                    self._cost("do_iter", stmt.sid)
                    self._cost("branch")
                self._cost("do_exit", stmt.sid)
            else:
                raise InterpreterError(
                    f"statement {type(stmt).__name__} not allowed inside "
                    "a parallel loop body")

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _exec_assign(self, stmt: N.Assign, frame: _Frame) -> None:
        value = self._eval(stmt.value, frame)
        target = stmt.target
        if isinstance(target, N.VarRef):
            self._write_var(frame, target.sym, value,
                            volatile=target.is_volatile)
        elif isinstance(target, N.Mem):
            addr = self._eval(target.addr, frame)
            ctype = _scalar_type(target.ctype)
            self.memory.store(int(addr), ctype, value)
            self._cost("store", ctype)
        else:
            raise InterpreterError(f"bad assign target {target!r}")

    def _exec_vector_assign(self, stmt: N.VectorAssign,
                            frame: _Frame) -> None:
        target = stmt.target
        length = int(self._eval(target.length, frame))
        if length <= 0:
            return
        # Section base addresses and broadcast scalars are evaluated
        # once per vector statement, like real vector addressing.
        cache: Dict[int, Value] = {}
        # Masked store: the mask is evaluated for every lane first,
        # then the value for the *active* lanes only (reads before
        # writes, as for any vector statement).  Inactive lanes never
        # touch their operands, so a guard that protected an
        # out-of-bounds load or a zero divisor keeps protecting it.
        masks = None
        if stmt.mask is not None:
            masks = [self._eval_vector_elem(stmt.mask, i, frame, cache)
                     for i in range(length)]
        values = [self._eval_vector_elem(stmt.value, i, frame, cache)
                  if masks is None or masks[i] else None
                  for i in range(length)]
        base = int(self._eval(target.addr, frame))
        elem = _scalar_type(target.ctype)
        esize = elem.sizeof()
        for i, value in enumerate(values):
            if masks is not None and not masks[i]:
                continue
            self.memory.store(base + i * target.stride * esize, elem,
                              value)
        self._vector_cost(stmt, length)

    def _vector_cost(self, stmt: N.VectorAssign, length: int) -> None:
        """One cost event per vector instruction the statement issues,
        each processing ``length`` elements."""
        if self.cost_hook is None:
            return
        for op, stride in vector_instructions(stmt):
            self._cost("vector", op, length, stride)

    def _exec_vector_reduce(self, stmt: N.VectorReduce,
                            frame: _Frame) -> None:
        """target = target op-combine(elements), accumulated in index
        order so results match the scalar loop bit-for-bit.  A NaN
        accumulator stays, as a floating-point unit returns its first
        operand's NaN: CPython's float ``+`` of two NaNs returns
        either, depending on the path it takes."""
        length = int(self._eval(stmt.length, frame))
        acc = self._read_var(frame, stmt.target.sym)
        if length > 0:
            cache: Dict[int, Value] = {}
            for i in range(length):
                elem = self._eval_vector_elem(stmt.value, i, frame,
                                              cache)
                if acc == acc:
                    acc = _apply_binop(stmt.op, acc, elem,
                                       stmt.target.ctype)
            self._cost("vector_reduce", stmt.op, length)
        self._write_var(frame, stmt.target.sym, acc)

    def _eval_vector_elem(self, expr: N.Expr, index: int, frame: _Frame,
                          cache: Dict[int, Value]) -> Value:
        if isinstance(expr, N.Section):
            key = id(expr)
            if key not in cache:
                cache[key] = int(self._eval(expr.addr, frame))
            elem = _scalar_type(expr.ctype)
            return self.memory.load(int(cache[key]) + index * expr.stride
                                    * elem.sizeof(), elem)
        if isinstance(expr, N.BinOp):
            left = self._eval_vector_elem(expr.left, index, frame, cache)
            right = self._eval_vector_elem(expr.right, index, frame,
                                           cache)
            return _apply_binop(expr.op, left, right, expr.ctype)
        if isinstance(expr, N.UnOp):
            value = self._eval_vector_elem(expr.operand, index, frame,
                                           cache)
            return _apply_unop(expr.op, value, expr.ctype)
        if isinstance(expr, N.Cast):
            value = self._eval_vector_elem(expr.operand, index, frame,
                                           cache)
            return expr.ctype.convert(value)
        if isinstance(expr, N.Select):
            # Lazy per lane, mirroring scalar Select: the untaken arm
            # of this lane is never evaluated.
            cond = self._eval_vector_elem(expr.cond, index, frame,
                                          cache)
            arm = expr.then if cond else expr.otherwise
            value = self._eval_vector_elem(arm, index, frame, cache)
            return expr.ctype.convert(value)
        if isinstance(expr, N.Iota):
            key = id(expr)
            if key not in cache:
                cache[key] = int(self._eval(expr.start, frame))
            return cache[key] + index
        # Scalars broadcast: evaluate once.
        key = id(expr)
        if key not in cache:
            cache[key] = self._eval(expr, frame)
        return cache[key]

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _eval(self, expr: N.Expr, frame: _Frame) -> Value:
        if isinstance(expr, N.Const):
            return expr.value
        if isinstance(expr, N.VarRef):
            return self._read_var(frame, expr.sym,
                                  volatile=expr.is_volatile)
        if isinstance(expr, N.AddrOf):
            if expr.sym in frame.addr_of:
                return frame.addr_of[expr.sym]
            if not self.memory.has_storage(expr.sym):
                self.memory.allocate_symbol(expr.sym)
            return self.memory.address_of(expr.sym)
        if isinstance(expr, N.Mem):
            addr = int(self._eval(expr.addr, frame))
            ctype = _scalar_type(expr.ctype)
            value = self.memory.load(addr, ctype)
            self._cost("load", ctype)
            return value
        if isinstance(expr, N.BinOp):
            left = self._eval(expr.left, frame)
            right = self._eval(expr.right, frame)
            self._cost("flop" if expr.ctype.is_float else "intop",
                       expr.op)
            return _apply_binop(expr.op, left, right, expr.ctype)
        if isinstance(expr, N.UnOp):
            value = self._eval(expr.operand, frame)
            self._cost("flop" if expr.ctype.is_float else "intop",
                       expr.op)
            return _apply_unop(expr.op, value, expr.ctype)
        if isinstance(expr, N.Cast):
            return expr.ctype.convert(self._eval(expr.operand, frame))
        if isinstance(expr, N.Select):
            # Lazy, like the branch it replaced: only the chosen arm is
            # evaluated, so if-conversion never speculates a faulting
            # load or division the original guard protected.
            cond = self._eval(expr.cond, frame)
            value = self._eval(expr.then if cond else expr.otherwise,
                               frame)
            self._cost("flop" if expr.ctype.is_float else "intop",
                       "select")
            return expr.ctype.convert(value)
        if isinstance(expr, N.CallExpr):
            return self._eval_call(expr, frame)
        raise InterpreterError(f"cannot evaluate {expr!r}")

    def _eval_call(self, call: N.CallExpr, frame: _Frame) -> Value:
        args = [self._eval(a, frame) for a in call.args]
        self._cost("call", call.name)
        fn = self.program.functions.get(call.name)
        if fn is not None:
            result = self._exec_function(fn, args)
            return 0 if result is None else result
        return self._call_builtin(call.name, args)

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------

    def _read_var(self, frame: _Frame, sym: Symbol,
                  volatile: bool = False) -> Value:
        if volatile or sym.is_volatile:
            device = self.devices.get(sym.name)
            if device is not None:
                device.reads += 1
                if device.on_read is not None:
                    value = device.on_read()
                    if self.memory.has_storage(sym):
                        self.memory.store(self.memory.address_of(sym),
                                          _scalar_type(sym.ctype), value)
                    return value
        addr = frame.addr_of.get(sym)
        if addr is None and self.memory.has_storage(sym):
            addr = self.memory.address_of(sym)
        if addr is not None:
            value = self.memory.load(addr, _scalar_type(sym.ctype))
            self._cost("load", sym.ctype)
            return value
        if sym in frame.env:
            return frame.env[sym]
        raise InterpreterError(
            f"read of uninitialized variable {sym.name!r}")

    def _write_var(self, frame: _Frame, sym: Symbol, value: Value,
                   volatile: bool = False) -> None:
        value = sym.ctype.convert(value)
        if volatile or sym.is_volatile:
            device = self.devices.get(sym.name)
            if device is not None:
                device.writes += 1
                if device.on_write is not None:
                    device.on_write(value)
        addr = frame.addr_of.get(sym)
        if addr is None and self.memory.has_storage(sym):
            addr = self.memory.address_of(sym)
        if addr is not None:
            self.memory.store(addr, _scalar_type(sym.ctype), value)
            self._cost("store", sym.ctype)
            return
        frame.env[sym] = value

    # ------------------------------------------------------------------
    # Builtins
    # ------------------------------------------------------------------

    def _call_builtin(self, name: str, args: List[Value]) -> Value:
        if name == "printf":
            return self._printf(args)
        if name == "putchar":
            self.output.append(chr(int(args[0]) & 0xFF))
            return int(args[0])
        if name in ("malloc", "calloc"):
            size = int(args[0]) * (int(args[1]) if name == "calloc"
                                   and len(args) > 1 else 1)
            return self.memory.allocate_heap(max(size, 1))
        if name == "free":
            return 0
        if name in ("abs", "labs"):
            return abs(int(args[0]))
        unary = {"sqrt": math.sqrt, "fabs": abs, "sin": math.sin,
                 "cos": math.cos, "tan": math.tan, "exp": math.exp,
                 "log": math.log, "floor": math.floor,
                 "ceil": math.ceil, "sqrtf": math.sqrt, "fabsf": abs}
        if name in unary:
            self._cost("flop", name)
            return float(unary[name](float(args[0])))
        if name == "pow":
            self._cost("flop", "pow")
            return float(math.pow(float(args[0]), float(args[1])))
        if name == "exit":
            raise InterpreterError(f"exit({args[0]}) called")
        raise InterpreterError(f"call to unknown function {name!r}")

    def _printf(self, args: List[Value]) -> int:
        fmt = self.memory.load_string(int(args[0]))
        out: List[str] = []
        arg_index = 1
        i = 0
        while i < len(fmt):
            ch = fmt[i]
            if ch != "%":
                out.append(ch)
                i += 1
                continue
            i += 1
            # Skip width/precision/flags.
            spec = ""
            while i < len(fmt) and fmt[i] in "-+ #0123456789.l":
                spec += fmt[i]
                i += 1
            conv = fmt[i] if i < len(fmt) else "%"
            i += 1
            if conv == "%":
                out.append("%")
                continue
            arg = args[arg_index]
            arg_index += 1
            if conv in "di":
                out.append(f"%{spec}d" % int(arg))
            elif conv == "u":
                out.append(f"%{spec}d" % (int(arg) & 0xFFFFFFFF))
            elif conv in "fgeE":
                out.append(f"%{spec}{conv}" % float(arg))
            elif conv == "x":
                out.append(f"%{spec}x" % (int(arg) & 0xFFFFFFFF))
            elif conv == "c":
                out.append(chr(int(arg) & 0xFF))
            elif conv == "s":
                out.append(self.memory.load_string(int(arg)))
            else:
                out.append(conv)
        text = "".join(out)
        self.output.append(text)
        return len(text)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    @property
    def steps(self) -> int:
        return self._step_cell[0]

    @steps.setter
    def steps(self, value: int) -> None:
        self._step_cell[0] = value

    def _tick(self) -> None:
        cell = self._step_cell
        cell[0] += 1
        if cell[0] > self.max_steps:
            raise StepLimitExceeded(
                f"exceeded {self.max_steps} steps (infinite loop?)")

    def _cost(self, kind: str, *details) -> None:
        if self.cost_hook is not None:
            self.cost_hook(kind, *details)


# ---------------------------------------------------------------------------
# Value semantics: the rule in ``frontend/ctypes_.py``, its faults raised
# as the oracle's own error
# ---------------------------------------------------------------------------


def _apply_binop(op: str, left: Value, right: Value,
                 ctype: CType) -> Value:
    try:
        return binop_value(op, left, right, ctype)
    except ValueFault as fault:
        raise InterpreterError(str(fault)) from None


def _apply_unop(op: str, value: Value, ctype: CType) -> Value:
    try:
        return unop_value(op, value, ctype)
    except ValueFault as fault:
        raise InterpreterError(str(fault)) from None


def _scalar_type(ctype: CType) -> CType:
    if isinstance(ctype, (ArrayType, StructType)):
        raise InterpreterError(f"scalar access at aggregate type {ctype}")
    return ctype


def _flatten(init) -> List[Value]:
    if isinstance(init, (int, float)):
        return [init]
    out: List[Value] = []
    for item in init:
        out.extend(_flatten(item))
    return out


def _trip_values(lo: Value, hi: Value, step: int) -> List[int]:
    lo, hi = int(lo), int(hi)
    if step > 0:
        return list(range(lo, hi + 1, step))
    return list(range(lo, hi - 1, step))


#: Engine names accepted by :func:`make_interpreter` (and everything
#: layered on it: TitanSimulator, the fuzz harness, the benchmark
#: harness, the CLI).
ENGINES = ("tree", "compiled")


def make_interpreter(program: N.ILProgram, engine: str = "tree",
                     **kwargs) -> Interpreter:
    """Build an execution engine over one shared semantics.

    ``engine="tree"`` is this module's tree-walking evaluator — the
    semantic oracle.  ``engine="compiled"`` is the fast engine
    (:mod:`repro.interp.bytecode`): same results, same stdout, same
    step accounting, same cost-event stream.  It picks a tier per
    function — one generated Python function when no cost hook is
    installed or the hook offers its scalar cost table for inline
    accounting; this module's evaluator, which it inherits, under any
    other hook and for what the generator refuses.
    """
    if engine == "tree":
        return Interpreter(program, **kwargs)
    if engine == "compiled":
        from .bytecode import CompiledInterpreter
        return CompiledInterpreter(program, **kwargs)
    raise ValueError(
        f"unknown interpreter engine {engine!r} (expected one of "
        f"{', '.join(ENGINES)})")


def run_c(source: str, entry: str = "main", *args: Value,
          engine: str = "tree", **kwargs) -> Interpreter:
    """Compile C text with the front end only and run it (no optimizer).

    Returns the interpreter so callers can inspect globals and output.
    """
    from ..frontend.lower import compile_to_il
    program = compile_to_il(source)
    interp = make_interpreter(program, engine=engine, **kwargs)
    interp.run(entry, *args)
    return interp
