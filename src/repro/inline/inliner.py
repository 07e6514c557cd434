"""Inline expansion of procedure calls (sections 7, 9).

The paper's two goals: efficient inlining of small static functions in
the same file, and inlining math/library routines from procedure
databases.  The expansion at a call site follows the §9 transcript
exactly:

* each parameter binds to a fresh ``in_<name>`` temporary assigned the
  argument expression;
* the callee body is cloned with locals renamed, labels uniquified, and
  every ``return`` rewritten to (optionally) assign the result
  temporary and jump to a fresh exit label ``lb_k``;
* recursion is fenced ("since C permits recursion, which can lead to
  infinite inlining if care is not taken"): self-calls and calls that
  would re-enter a function already on the expansion stack stay calls;
* inline *order* matters ("since inlined functions may inline other
  functions, order is very important"): callees are fully expanded
  bottom-up over the call graph before their callers.
"""

from __future__ import annotations

#: Canonical pass name used by the pipeline hook layer, the
#: per-pass checker, and bisection culprit reports.
PASS_NAME = "inline"
PASS_DESCRIPTION = "inline expansion (section 7)"

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..frontend.ctypes_ import VOID
from ..frontend.symtab import Symbol, SymbolTable
from ..il import nodes as N
from ..obs.remarks import RemarkCollector
from ..opt import utils
from .database import InlineDatabase, import_entry


@dataclass
class InlineOptions:
    enabled: bool = True
    max_callee_statements: int = 500  # refuse to inline huge bodies
    max_depth: int = 8
    inline_only: Optional[Set[str]] = None  # restrict to these names


@dataclass
class InlineStats:
    sites_examined: int = 0
    sites_inlined: int = 0
    recursion_skipped: int = 0
    too_large_skipped: int = 0
    unknown_skipped: int = 0


class Inliner:
    def __init__(self, program: N.ILProgram,
                 database: Optional[InlineDatabase] = None,
                 options: Optional[InlineOptions] = None,
                 remarks: Optional[RemarkCollector] = None):
        self.program = program
        self.symtab: SymbolTable = program.symtab
        self.database = database
        self.options = options or InlineOptions()
        self.stats = InlineStats()
        self.remarks = remarks
        self._label_counter = itertools.count(1)
        self._imported: Dict[str, N.ILFunction] = {}

    # ------------------------------------------------------------------

    def run(self) -> InlineStats:
        if not self.options.enabled:
            return self.stats
        from ..obs import telemetry
        with telemetry.span("inline-expand", cat="analysis") as targs:
            for name in self._bottom_up_order():
                fn = self.program.functions[name]
                self._expand_function(fn, stack={name})
            targs["sites_examined"] = self.stats.sites_examined
            targs["sites_inlined"] = self.stats.sites_inlined
        return self.stats

    def _bottom_up_order(self) -> List[str]:
        """Functions ordered so callees come before callers (cycles in
        arbitrary order — recursion is skipped at expansion time)."""
        graph = {name: self._called_names(fn)
                 for name, fn in self.program.functions.items()}
        order: List[str] = []
        state: Dict[str, int] = {}

        def dfs(node: str) -> None:
            state[node] = 1
            for callee in sorted(graph.get(node, ())):
                if callee in graph and state.get(callee, 0) == 0:
                    dfs(callee)
            state[node] = 2
            order.append(node)

        for name in sorted(graph):
            if state.get(name, 0) == 0:
                dfs(name)
        return order

    def _called_names(self, fn: N.ILFunction) -> Set[str]:
        out: Set[str] = set()
        for stmt in fn.all_statements():
            for expr in N.stmt_exprs(stmt):
                for node in N.walk_expr(expr):
                    if isinstance(node, N.CallExpr):
                        out.add(node.name)
        return out

    # ------------------------------------------------------------------

    def _expand_function(self, fn: N.ILFunction,
                         stack: Set[str], depth: int = 0) -> None:
        self._expand_list(fn, fn.body, stack, depth)

    def _expand_list(self, fn: N.ILFunction, stmts: List[N.Stmt],
                     stack: Set[str], depth: int) -> None:
        index = 0
        while index < len(stmts):
            stmt = stmts[index]
            call = _call_of(stmt)
            if call is not None:
                expansion = self._try_inline(fn, stmt, call, stack,
                                             depth)
                if expansion is not None:
                    # Recursively expand residual calls inside the
                    # expansion with the callee on the stack, so
                    # mutual recursion through database imports is
                    # fenced exactly like direct recursion.
                    self._expand_list(fn, expansion,
                                      stack | {call.name}, depth + 1)
                    stmts[index:index + 1] = expansion
                    index += len(expansion)
                    continue
            for sublist in stmt.substatements():
                self._expand_list(fn, sublist, stack, depth)
            index += 1

    def _try_inline(self, caller: N.ILFunction, stmt: N.Stmt,
                    call: N.CallExpr, stack: Set[str],
                    depth: int) -> Optional[List[N.Stmt]]:
        self.stats.sites_examined += 1
        name = call.name
        if self.options.inline_only is not None \
                and name not in self.options.inline_only:
            return None
        if depth >= self.options.max_depth:
            self.stats.recursion_skipped += 1
            self._remark_missed(caller, stmt, name,
                                f"inline depth limit "
                                f"{self.options.max_depth} reached")
            return None
        if name in stack:
            self.stats.recursion_skipped += 1
            self._remark_missed(caller, stmt, name,
                                "recursive call (callee already on the "
                                "expansion stack)")
            return None
        callee = self._resolve(name)
        if callee is None:
            self.stats.unknown_skipped += 1
            self._remark_missed(caller, stmt, name,
                                "callee not found in this file or any "
                                "inline database")
            return None
        if len(call.args) != len(callee.params):
            self.stats.unknown_skipped += 1
            self._remark_missed(caller, stmt, name,
                                f"argument count {len(call.args)} does "
                                f"not match {len(callee.params)} "
                                f"parameter(s)")
            return None
        size = utils.count_statements(callee.body)
        if size > self.options.max_callee_statements:
            self.stats.too_large_skipped += 1
            self._remark_missed(caller, stmt, name,
                                f"callee body too large ({size} > "
                                f"{self.options.max_callee_statements} "
                                f"statements)")
            return None
        expansion = self._expand_site(caller, stmt, call, callee)
        self.stats.sites_inlined += 1
        if self.remarks is not None:
            self.remarks.transformed(
                "inline", caller.name,
                f"call to '{name}' inlined ({size} statement(s), "
                f"{len(callee.params)} parameter(s) bound to "
                f"in_ temporaries)", stmt=stmt, callee=name, size=size)
        return expansion

    def _remark_missed(self, caller: N.ILFunction, stmt: N.Stmt,
                       name: str, detail: str) -> None:
        if self.remarks is not None:
            self.remarks.missed("inline", caller.name,
                                f"call to '{name}' not inlined: "
                                f"{detail}", stmt=stmt, callee=name)

    def _resolve(self, name: str) -> Optional[N.ILFunction]:
        fn = self.program.functions.get(name)
        if fn is not None:
            return fn
        if name in self._imported:
            return self._imported[name]
        if self.database is not None:
            entry = self.database.get(name)
            if entry is not None:
                imported = import_entry(entry, self.program)
                self._imported[name] = imported
                return imported
        return None

    # ------------------------------------------------------------------

    def _expand_site(self, caller: N.ILFunction, stmt: N.Stmt,
                     call: N.CallExpr,
                     callee: N.ILFunction) -> List[N.Stmt]:
        out: List[N.Stmt] = []
        mapping: Dict[Symbol, Symbol] = {}
        # Bind parameters to in_<name> temporaries (§9 transcript).
        for param, arg in zip(callee.params, call.args):
            clone = self.symtab.clone_symbol(param, prefix="in")
            caller.local_syms.append(clone)
            mapping[param] = clone
            out.append(N.Assign(
                target=N.VarRef(sym=clone, ctype=clone.ctype),
                value=N.clone_expr(arg), line=stmt.line))
        for loc in callee.local_syms:
            clone = self.symtab.clone_symbol(loc, prefix="in")
            caller.local_syms.append(clone)
            mapping[loc] = clone
        # Result temporary for non-void callees whose value is used.
        result_sym: Optional[Symbol] = None
        if isinstance(stmt, N.Assign):
            ret_type = callee.ret_type if not callee.ret_type.is_void \
                else call.ctype
            result_sym = self.symtab.fresh_temp(ret_type, "ret")
            caller.local_syms.append(result_sym)
            # Falling off the end of a value-returning function is legal
            # C if the value is unused; give the temp a defined value so
            # execution stays deterministic either way.
            zero = N.Const(value=0.0 if ret_type.is_float else 0,
                           ctype=ret_type)
            out.append(N.Assign(
                target=N.VarRef(sym=result_sym, ctype=result_sym.ctype),
                value=zero))
        exit_label = f"lb_{next(self._label_counter)}"
        label_map: Dict[str, str] = {}
        body = [self._clone_for_inline(s, mapping, label_map,
                                       result_sym, exit_label)
                for s in callee.body]
        out.extend(body)
        out.append(N.LabelStmt(label=exit_label))
        if isinstance(stmt, N.Assign):
            out.append(N.Assign(
                target=stmt.target,
                value=N.VarRef(sym=result_sym,
                               ctype=result_sym.ctype)))
        return out

    def _clone_for_inline(self, stmt: N.Stmt,
                          mapping: Dict[Symbol, Symbol],
                          label_map: Dict[str, str],
                          result_sym: Optional[Symbol],
                          exit_label: str) -> N.Stmt:
        (cloned,) = N.clone_statements([stmt])
        return self._rewrite(cloned, mapping, label_map, result_sym,
                             exit_label)

    def _rewrite(self, stmt: N.Stmt, mapping: Dict[Symbol, Symbol],
                 label_map: Dict[str, str],
                 result_sym: Optional[Symbol],
                 exit_label: str) -> N.Stmt:
        if isinstance(stmt, N.Return):
            out_stmts: List[N.Stmt] = []
            if stmt.value is not None and result_sym is not None:
                out_stmts.append(N.Assign(
                    target=N.VarRef(sym=result_sym,
                                    ctype=result_sym.ctype),
                    value=self._remap_expr(stmt.value, mapping)))
            out_stmts.append(N.Goto(label=exit_label))
            if len(out_stmts) == 1:
                return out_stmts[0]
            # Wrap in an always-taken if so one statement slot suffices.
            return N.IfStmt(cond=N.int_const(1), then=out_stmts,
                            otherwise=[])
        if isinstance(stmt, N.Goto):
            stmt.label = self._map_label(stmt.label, label_map)
            return stmt
        if isinstance(stmt, N.LabelStmt):
            stmt.label = self._map_label(stmt.label, label_map)
            return stmt
        utils.rewrite_stmt_exprs(
            stmt, lambda expr: self._remap_expr(expr, mapping),
            targets=True)
        if isinstance(stmt, N.DoLoop) and stmt.var in mapping:
            stmt.var = mapping[stmt.var]
        for sublist in stmt.substatements():
            sublist[:] = [self._rewrite(s, mapping, label_map,
                                        result_sym, exit_label)
                          for s in sublist]
        return stmt

    def _map_label(self, label: str, label_map: Dict[str, str]) -> str:
        if label not in label_map:
            label_map[label] = f"{label}_in{next(self._label_counter)}"
        return label_map[label]

    def _remap_expr(self, expr: N.Expr,
                    mapping: Dict[Symbol, Symbol]) -> N.Expr:
        return N.map_expr(expr, lambda e: self._remap_node(e, mapping))

    @staticmethod
    def _remap_node(expr: N.Expr,
                    mapping: Dict[Symbol, Symbol]) -> N.Expr:
        if isinstance(expr, N.VarRef) and expr.sym in mapping:
            return N.VarRef(sym=mapping[expr.sym], ctype=expr.ctype)
        if isinstance(expr, N.AddrOf) and expr.sym in mapping:
            new = mapping[expr.sym]
            new.address_taken = True
            return N.AddrOf(sym=new, ctype=expr.ctype)
        return expr


def _call_of(stmt: N.Stmt) -> Optional[N.CallExpr]:
    if isinstance(stmt, N.CallStmt):
        return stmt.call
    if isinstance(stmt, N.Assign) and isinstance(stmt.value, N.CallExpr):
        return stmt.value
    return None


def inline_program(program: N.ILProgram,
                   database: Optional[InlineDatabase] = None,
                   options: Optional[InlineOptions] = None,
                   remarks: Optional[RemarkCollector] = None
                   ) -> InlineStats:
    return Inliner(program, database, options, remarks=remarks).run()
