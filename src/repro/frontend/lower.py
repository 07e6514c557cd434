"""AST → IL lowering: the paper's C front end (section 4).

The front end represents each C expression as a pair *(SL, E)*: a list of
IL statements followed by a pure IL expression.  All the transformations
described in the paper are implemented here:

* assignments become statements through a temporary —
  ``(SL1,E1) = (SL2,E2)  =>  (SL1; SL2; t = E2; E1 = t,  t)`` — which
  makes ``a = v = b`` write the volatile ``v`` exactly once (the paper's
  ANSI-ambiguity example);
* ``&&``, ``||``, ``?:`` compile to ``if`` statements on a temporary;
* ``++``/``--``/compound assignment expand to explicit temp chains
  (``temp_1 = a; a = temp_1 + 4`` for a ``float*`` increment, exactly the
  section 5.3 transcript);
* ``for`` loops lower to ``while`` loops with the step appended to the
  body (the while→DO pass later recovers counted loops);
* ``while ((SL,E))`` duplicates SL into the tail of the loop body, the
  section 4 rewrite;
* volatile reads are hoisted into single-read temp assignments so no
  later pass can duplicate or delete them;
* subscripts become the star form ``*(base + elemsize*i)`` — the
  pointer-plus-scaled-offset representation the vectorizer is tuned for;
* array rvalues decay to address constants, string literals become
  anonymous global arrays, and static locals are promoted to uniquely
  named globals (as the paper requires for procedures stored in inline
  databases, section 7).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from . import c_ast as A
from .ctypes_ import (ArrayType, CType, DOUBLE, FLOAT, FunctionType, INT,
                      IntType, PointerType, StructType, TypeError_, VOID,
                      decay, pointer_target_size, usual_arithmetic_conversion)
from .symtab import (AUTO, EXTERN, GLOBAL, PARAM, STATIC, Symbol,
                     SymbolError, SymbolTable)
from ..il import nodes as N
from ..opt import fold


class LoweringError(Exception):
    def __init__(self, message: str, coord: Optional[A.Coord] = None):
        if coord is not None:
            message = f"{coord}: {message}"
        super().__init__(message)


Pair = Tuple[List[N.Stmt], N.Expr]


@dataclass
class _FunctionContext:
    fn_name: str
    ret_type: CType
    locals: List[Symbol] = field(default_factory=list)
    break_labels: List[str] = field(default_factory=list)
    continue_labels: List[str] = field(default_factory=list)
    # For `continue` in a for loop the step code must run; we map each
    # continue label to the statements to execute before jumping.
    pending_pragmas: List[str] = field(default_factory=list)


class Lowerer:
    """Lowers one translation unit to an :class:`~repro.il.nodes.ILProgram`."""

    def __init__(self) -> None:
        self.symtab = SymbolTable()
        self.globals: List[N.GlobalVar] = []
        self.functions: Dict[str, N.ILFunction] = {}
        self._label_count = itertools.count(1)
        self._string_count = itertools.count(1)
        self._static_count = itertools.count(1)
        self._fn: Optional[_FunctionContext] = None
        #: "struct T" / "union T" -> the parser's final type per tag.
        self._tags: Dict[str, StructType] = {}

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def lower_unit(self, unit: A.TranslationUnit) -> N.ILProgram:
        self._tags = unit.tags
        # First pass: declare all functions so forward calls type-check.
        for item in unit.items:
            if isinstance(item, A.FuncDef):
                self._declare_global(item.name, item.ctype, EXTERN)
        for item in unit.items:
            if isinstance(item, A.FuncDef):
                self._lower_function(item)
            elif isinstance(item, A.Decl):
                self._lower_global_decl(item)
        return N.ILProgram(functions=self.functions, globals=self.globals,
                           symtab=self.symtab)

    # ------------------------------------------------------------------
    # Globals
    # ------------------------------------------------------------------

    def _declare_global(self, name: str, ctype: CType,
                        storage: str) -> Symbol:
        try:
            return self.symtab.declare(name, ctype, storage)
        except SymbolError:
            return self.symtab.lookup(name)

    def _lower_global_decl(self, decl: A.Decl) -> None:
        for d in decl.declarators:
            storage = GLOBAL if decl.storage in ("auto",) else decl.storage
            if isinstance(d.ctype, FunctionType):
                self._declare_global(d.name, d.ctype, EXTERN)
                continue
            ctype = d.ctype
            if isinstance(ctype, ArrayType) and ctype.length is None \
                    and d.init is not None and not d.init.is_list \
                    and isinstance(d.init.expr, A.StringLit):
                ctype = ArrayType(base=ctype.base,
                                  length=len(d.init.expr.value) + 1)
            sym = self._declare_global(d.name, ctype, storage)
            init = self._const_initializer(d.init, ctype) \
                if d.init is not None else None
            if not any(g.sym == sym for g in self.globals):
                self.globals.append(N.GlobalVar(sym=sym, init=init))
            elif init is not None:
                self._program_global(sym).init = init

    def _program_global(self, sym: Symbol) -> N.GlobalVar:
        for g in self.globals:
            if g.sym == sym:
                return g
        raise KeyError(sym.name)

    def _const_initializer(self, init: A.Initializer, ctype: CType):
        """Fold a global initializer to Python scalars / nested lists.

        String literals are constants too: for a char array they fold
        to the byte list (NUL-terminated), for a pointer they intern an
        anonymous string global and fold to its :class:`Symbol`, which
        the interpreter resolves to the string's address at load time.
        """
        if init.is_list:
            elem = ctype.base if isinstance(ctype, ArrayType) else None
            return [self._const_initializer(item, elem or INT)
                    for item in init.items]
        if isinstance(init.expr, A.StringLit):
            return self._string_initializer(init.expr, ctype, init.coord)
        value = self._constant(init.expr, ctype)
        if value is None:
            raise LoweringError("global initializer is not constant",
                                init.coord)
        return value

    def _constant(self, expr: A.Expr, ctype: CType):
        """The value of a constant expression converted to ``ctype``
        — lowered, and folded by C's value rule — else None."""
        stmts, value = self.lower_expr(expr)
        value = fold.simplify(_convert(value, ctype))
        if stmts or not isinstance(value, N.Const):
            return None
        return value.value

    def _string_initializer(self, lit: A.StringLit, ctype: CType,
                            coord: Optional[A.Coord]):
        data = [ord(c) for c in lit.value] + [0]
        if isinstance(ctype, ArrayType):
            if not isinstance(ctype.base, IntType):
                raise LoweringError("string initializer on non-char "
                                    "array", coord)
            if ctype.length is not None and ctype.length < len(data) - 1:
                raise LoweringError(
                    f"string literal of length {len(data) - 1} does not "
                    f"fit array of {ctype.length}", coord)
            if ctype.length is not None:
                return data[:ctype.length]
            return data
        if ctype.is_pointer:
            return self._intern_string(lit.value)
        raise LoweringError(f"string initializer for non-array, "
                            f"non-pointer type {ctype}", coord)

    def _intern_string(self, value: str) -> Symbol:
        """Create the anonymous global backing a string literal."""
        data = [ord(c) for c in value] + [0]
        ctype = ArrayType(base=IntType(kind="char"), length=len(data))
        name = f"__string_{next(self._string_count)}"
        sym = Symbol(name=name, ctype=ctype, storage=STATIC,
                     uid=self.symtab.new_uid())
        self.symtab.symbols[sym.uid] = sym
        self.globals.append(N.GlobalVar(sym=sym, init=data))
        return sym

    # ------------------------------------------------------------------
    # Functions
    # ------------------------------------------------------------------

    def _lower_function(self, fndef: A.FuncDef) -> None:
        assert isinstance(fndef.ctype, FunctionType)
        self._fn = _FunctionContext(fn_name=fndef.name,
                                    ret_type=fndef.ctype.ret)
        self.symtab.push_scope()
        params: List[Symbol] = []
        for p in fndef.params:
            name = p.name or f"__anon_param_{len(params)}"
            sym = self.symtab.declare(name, p.ctype, PARAM)
            params.append(sym)
        body: List[N.Stmt] = []
        self._lower_compound(fndef.body, body)
        self.symtab.pop_scope()
        fn = N.ILFunction(name=fndef.name, params=params,
                          ret_type=fndef.ctype.ret, body=body,
                          pragmas=fndef.pragmas,
                          local_syms=self._fn.locals)
        self.functions[fndef.name] = fn
        self._fn = None

    def fresh_temp(self, ctype: CType, prefix: str = "temp") -> Symbol:
        sym = self.symtab.fresh_temp(ctype.unqualified()
                                     if ctype.is_scalar else ctype, prefix)
        if self._fn is not None:
            self._fn.locals.append(sym)
        return sym

    def _fresh_label(self, hint: str = "L") -> str:
        return f"{hint}_{next(self._label_count)}"

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _lower_compound(self, node: A.Compound, out: List[N.Stmt]) -> None:
        self.symtab.push_scope()
        for item in node.items:
            self._lower_stmt(item, out)
        self.symtab.pop_scope()

    def _lower_stmt(self, node: A.Stmt, out: List[N.Stmt]) -> None:
        start = len(out)
        self._lower_stmt_dispatch(node, out)
        coord = getattr(node, "coord", None)
        if coord is not None and coord.line:
            _stamp_lines(out[start:], coord.line)

    def _lower_stmt_dispatch(self, node: A.Stmt,
                             out: List[N.Stmt]) -> None:
        if isinstance(node, A.Compound):
            self._lower_compound(node, out)
        elif isinstance(node, A.DeclStmt):
            self._lower_local_decl(node.decl, out)
        elif isinstance(node, A.ExprStmt):
            if node.expr is not None:
                stmts, _ = self._lower_expr_for_effect(node.expr)
                out.extend(stmts)
        elif isinstance(node, A.If):
            stmts, cond = self.lower_expr(node.cond)
            out.extend(stmts)
            then: List[N.Stmt] = []
            self._lower_stmt(node.then, then)
            otherwise: List[N.Stmt] = []
            if node.otherwise is not None:
                self._lower_stmt(node.otherwise, otherwise)
            out.append(N.IfStmt(cond=_truth(cond), then=then,
                                otherwise=otherwise))
        elif isinstance(node, A.While):
            self._lower_while(node.cond, node.body, None, out)
        elif isinstance(node, A.DoWhile):
            self._lower_do_while(node, out)
        elif isinstance(node, A.For):
            self._lower_for(node, out)
        elif isinstance(node, A.Return):
            if node.value is not None:
                stmts, expr = self.lower_expr(node.value)
                out.extend(stmts)
                out.append(N.Return(value=_convert(expr,
                                                   self._fn.ret_type)))
            else:
                out.append(N.Return(value=None))
        elif isinstance(node, A.Break):
            if not self._fn.break_labels:
                raise LoweringError("break outside a loop/switch",
                                    node.coord)
            out.append(N.Goto(label=self._fn.break_labels[-1]))
        elif isinstance(node, A.Continue):
            if not self._fn.continue_labels:
                raise LoweringError("continue outside a loop", node.coord)
            out.append(N.Goto(label=self._fn.continue_labels[-1]))
        elif isinstance(node, A.Goto):
            out.append(N.Goto(label="user_" + node.label))
        elif isinstance(node, A.LabelStmt):
            out.append(N.LabelStmt(label="user_" + node.label))
            self._lower_stmt(node.stmt, out)
        elif isinstance(node, A.Switch):
            self._lower_switch(node, out)
        elif isinstance(node, (A.Case, A.Default)):
            raise LoweringError("case/default outside a switch", node.coord)
        elif isinstance(node, A.Pragma):
            self._fn.pending_pragmas.append(node.text)
        else:
            raise LoweringError(f"cannot lower statement {node!r}",
                                node.coord)

    def _lower_local_decl(self, decl: A.Decl, out: List[N.Stmt]) -> None:
        for d in decl.declarators:
            if isinstance(d.ctype, FunctionType):
                self._declare_global(d.name, d.ctype, EXTERN)
                continue
            if decl.storage == "static":
                # Promote to a uniquely named global (section 7: statics
                # in database procedures must be externally known).
                unique = f"{self._fn.fn_name}__static_{d.name}_" \
                         f"{next(self._static_count)}"
                gsym = Symbol(name=unique, ctype=d.ctype, storage=STATIC,
                              uid=self.symtab.new_uid())
                self.symtab.symbols[gsym.uid] = gsym
                self.symtab.current.names[d.name] = gsym
                init = self._const_initializer(d.init, d.ctype) \
                    if d.init is not None else None
                self.globals.append(N.GlobalVar(sym=gsym, init=init))
                continue
            if decl.storage == "extern":
                sym = self._declare_global(d.name, d.ctype, EXTERN)
                self.symtab.current.names[d.name] = sym
                continue
            sym = self.symtab.declare(d.name, d.ctype, AUTO)
            self._fn.locals.append(sym)
            if d.init is not None:
                self._lower_local_init(sym, d.ctype, d.init, out)

    def _lower_local_init(self, sym: Symbol, ctype: CType,
                          init: A.Initializer, out: List[N.Stmt]) -> None:
        if not init.is_list:
            stmts, expr = self.lower_expr(init.expr)
            out.extend(stmts)
            target_type = decay(ctype)
            out.append(N.Assign(
                target=N.VarRef(sym=sym, ctype=target_type),
                value=_convert(expr, target_type)))
            return
        if not isinstance(ctype, ArrayType):
            raise LoweringError("brace initializer on non-array local",
                                init.coord)
        size = ctype.base.sizeof()
        for index, item in enumerate(init.items):
            if item.is_list:
                raise LoweringError("nested local array initializers are "
                                    "not supported", item.coord)
            stmts, expr = self.lower_expr(item.expr)
            out.extend(stmts)
            addr = N.BinOp(op="+",
                           left=N.AddrOf(sym=sym,
                                         ctype=PointerType(base=ctype.base)),
                           right=N.int_const(size * index),
                           ctype=PointerType(base=ctype.base))
            out.append(N.Assign(target=N.Mem(addr=addr, ctype=ctype.base),
                                value=_convert(expr, ctype.base)))

    # -- loops -----------------------------------------------------------

    def _take_pragmas(self) -> Tuple[str, ...]:
        pragmas = tuple(self._fn.pending_pragmas)
        self._fn.pending_pragmas.clear()
        return pragmas

    def _lower_while(self, cond: A.Expr, body: A.Stmt,
                     step: Optional[A.Expr], out: List[N.Stmt]) -> None:
        """Lower while/for.  For a `for`, ``step`` runs after the body.

        Implements the section 4 rewrite:
            while ((SL, E)) S   =>   SL; while (E) { S; SL; }
        with fresh statement ids for the duplicated SL.
        """
        pragmas = self._take_pragmas()
        cond_stmts, cond_expr = self.lower_expr(cond)
        out.extend(cond_stmts)
        break_label = self._fresh_label("Lbrk")
        cont_label = self._fresh_label("Lcont")
        self._fn.break_labels.append(break_label)
        self._fn.continue_labels.append(cont_label)
        body_stmts: List[N.Stmt] = []
        self._lower_stmt(body, body_stmts)
        self._fn.break_labels.pop()
        self._fn.continue_labels.pop()
        tail: List[N.Stmt] = []
        uses_continue = _uses_label(body_stmts, cont_label)
        if uses_continue:
            tail.append(N.LabelStmt(label=cont_label))
        if step is not None:
            step_stmts, _ = self._lower_expr_for_effect(step)
            tail.extend(step_stmts)
        # Duplicate the condition statement list at the end of the body
        # ("the list of statements is duplicated", section 4).
        tail.extend(N.clone_statements(cond_stmts))
        loop = N.WhileLoop(cond=_truth(cond_expr),
                           body=body_stmts + tail, pragmas=pragmas)
        out.append(loop)
        if _uses_label([loop], break_label):
            out.append(N.LabelStmt(label=break_label))

    def _lower_for(self, node: A.For, out: List[N.Stmt]) -> None:
        self.symtab.push_scope()
        if isinstance(node.init, A.Decl):
            self._lower_local_decl(node.init, out)
        elif node.init is not None:
            stmts, _ = self._lower_expr_for_effect(node.init)
            out.extend(stmts)
        cond = node.cond if node.cond is not None else A.IntLit(value=1)
        self._lower_while(cond, node.body, node.step, out)
        self.symtab.pop_scope()

    def _lower_do_while(self, node: A.DoWhile, out: List[N.Stmt]) -> None:
        self._take_pragmas()
        top_label = self._fresh_label("Ldo")
        break_label = self._fresh_label("Lbrk")
        cont_label = self._fresh_label("Lcont")
        self._fn.break_labels.append(break_label)
        self._fn.continue_labels.append(cont_label)
        body_stmts: List[N.Stmt] = []
        self._lower_stmt(node.body, body_stmts)
        self._fn.break_labels.pop()
        self._fn.continue_labels.pop()
        out.append(N.LabelStmt(label=top_label))
        out.extend(body_stmts)
        if _uses_label(body_stmts, cont_label):
            out.append(N.LabelStmt(label=cont_label))
        cond_stmts, cond_expr = self.lower_expr(node.cond)
        out.extend(cond_stmts)
        out.append(N.IfStmt(cond=_truth(cond_expr),
                            then=[N.Goto(label=top_label)], otherwise=[]))
        if _uses_label(out, break_label):
            out.append(N.LabelStmt(label=break_label))

    def _lower_switch(self, node: A.Switch, out: List[N.Stmt]) -> None:
        stmts, cond = self.lower_expr(node.cond)
        out.extend(stmts)
        temp = self.fresh_temp(INT, "switch")
        out.append(N.Assign(target=N.VarRef(sym=temp, ctype=INT),
                            value=_convert(cond, INT)))
        if not isinstance(node.body, A.Compound):
            raise LoweringError("switch body must be a compound statement",
                                node.coord)
        break_label = self._fresh_label("Lbrk")
        cases: List[Tuple[int, str]] = []
        default_label: Optional[str] = None
        body_plan: List[Tuple[Optional[str], A.Stmt]] = []
        for item in node.body.items:
            while isinstance(item, (A.Case, A.Default)):
                if isinstance(item, A.Case):
                    value = self._constant(item.value, INT)
                    if value is None:
                        raise LoweringError("case label is not constant",
                                            item.coord)
                    label = self._fresh_label("Lcase")
                    cases.append((value, label))
                else:
                    label = self._fresh_label("Ldefault")
                    default_label = label
                body_plan.append((label, A.ExprStmt(expr=None)))
                item = item.stmt
            body_plan.append((None, item))
        for value, label in cases:
            out.append(N.IfStmt(
                cond=N.BinOp(op="==", left=N.VarRef(sym=temp, ctype=INT),
                             right=N.int_const(value), ctype=INT),
                then=[N.Goto(label=label)], otherwise=[]))
        out.append(N.Goto(label=default_label or break_label))
        self._fn.break_labels.append(break_label)
        for label, stmt in body_plan:
            if label is not None:
                out.append(N.LabelStmt(label=label))
            self._lower_stmt(stmt, out)
        self._fn.break_labels.pop()
        out.append(N.LabelStmt(label=break_label))

    # ------------------------------------------------------------------
    # Expressions → (SL, E) pairs
    # ------------------------------------------------------------------

    def lower_expr(self, node: A.Expr) -> Pair:
        """Lower to a (statement list, pure rvalue expression) pair."""
        stmts, expr = self._lower(node)
        expr = self._rvalue(stmts, expr)
        return stmts, expr

    def _lower_expr_for_effect(self, node: A.Expr) -> Pair:
        """Lower an expression whose value is discarded.

        Plain/compound assignments skip the result temporary: the paper's
        ``t = E2; E1 = t`` exists to give the *expression* a value, which
        a statement context does not need.
        """
        if isinstance(node, A.Assignment) and node.op == "=":
            stmts: List[N.Stmt] = []
            lv = self._lower_lvalue(node.target, stmts)
            vstmts, value = self.lower_expr(node.value)
            stmts.extend(vstmts)
            stmts.append(N.Assign(target=lv,
                                  value=_convert(value, lv.ctype)))
            return stmts, N.int_const(0)
        if isinstance(node, A.BinaryOp) and node.op == ",":
            stmts, _ = self._lower_expr_for_effect(node.left)
            more, expr = self._lower_expr_for_effect(node.right)
            return stmts + more, expr
        return self.lower_expr(node)

    def _rvalue(self, stmts: List[N.Stmt], expr: N.Expr) -> N.Expr:
        """Convert an lvalue-ish IL expression to a usable rvalue:
        decay array references and hoist volatile reads into temps."""
        if isinstance(expr.ctype, ArrayType):
            if isinstance(expr, N.Mem):
                return N.Cast(operand=expr.addr,
                              ctype=PointerType(base=expr.ctype.base)) \
                    if not _is_pointer(expr.addr.ctype) else \
                    _with_type(expr.addr, PointerType(base=expr.ctype.base))
            if isinstance(expr, N.AddrOf):
                return N.AddrOf(sym=expr.sym,
                                ctype=PointerType(base=expr.ctype.base))
        if isinstance(expr, (N.VarRef, N.Mem)) and expr.is_volatile:
            temp = self.fresh_temp(expr.ctype.unqualified(), "vol")
            stmts.append(N.Assign(
                target=N.VarRef(sym=temp, ctype=temp.ctype), value=expr))
            return N.VarRef(sym=temp, ctype=temp.ctype)
        return expr

    def _lower(self, node: A.Expr) -> Pair:
        method = getattr(self, "_lower_" + type(node).__name__, None)
        if method is None:
            raise LoweringError(f"cannot lower expression {node!r}",
                                node.coord)
        return method(node)

    # -- leaves ------------------------------------------------------------

    def _lower_IntLit(self, node: A.IntLit) -> Pair:
        long = "l" in node.suffix
        if "u" in node.suffix or node.value > 0x7FFFFFFF:
            # Unsigned, or too big for its signed type (a literal is
            # never negative): the unsigned one.
            ctype = IntType(kind="unsigned long" if long
                            else "unsigned int")
            return [], N.Const(value=ctype.wrap(node.value), ctype=ctype)
        ctype = IntType(kind="long") if long else INT
        return [], N.Const(value=node.value, ctype=ctype)

    def _lower_FloatLit(self, node: A.FloatLit) -> Pair:
        ctype = FLOAT if "f" in node.suffix else DOUBLE
        return [], N.Const(value=ctype.convert(node.value), ctype=ctype)

    def _lower_CharLit(self, node: A.CharLit) -> Pair:
        return [], N.Const(value=node.value, ctype=INT)

    def _lower_StringLit(self, node: A.StringLit) -> Pair:
        sym = self._intern_string(node.value)
        return [], N.AddrOf(sym=sym,
                            ctype=PointerType(base=IntType(kind="char")))

    def _lower_Ident(self, node: A.Ident) -> Pair:
        sym = self.symtab.maybe_lookup(node.name)
        if sym is None:
            raise LoweringError(f"use of undeclared identifier "
                                f"{node.name!r}", node.coord)
        if isinstance(sym.ctype, ArrayType):
            return [], N.AddrOf(sym=sym, ctype=sym.ctype)
        return [], N.VarRef(sym=sym, ctype=sym.ctype)

    # -- operators --------------------------------------------------------

    def _lower_UnaryOp(self, node: A.UnaryOp) -> Pair:
        if node.op in ("++", "--"):
            return self._lower_incdec(node.operand, node.op, prefix=True,
                                      coord=node.coord)
        if node.op == "&":
            stmts: List[N.Stmt] = []
            lv = self._lower_lvalue(node.operand, stmts)
            if isinstance(lv, N.VarRef):
                lv.sym.address_taken = True
                return stmts, N.AddrOf(sym=lv.sym,
                                       ctype=PointerType(base=lv.ctype))
            assert isinstance(lv, N.Mem)
            return stmts, _with_type(lv.addr,
                                     PointerType(base=lv.ctype))
        if node.op == "*":
            stmts, expr = self.lower_expr(node.operand)
            base = expr.ctype
            if not (base.is_pointer or isinstance(base, ArrayType)):
                raise LoweringError(f"dereference of non-pointer "
                                    f"type {base}", node.coord)
            pointee = base.base
            mem = N.Mem(addr=expr, ctype=pointee)
            return stmts, self._rvalue(stmts, mem)
        if node.op == "sizeof":
            stmts, expr = self._lower(node.operand)
            try:
                size = expr.ctype.sizeof()
            except TypeError_ as exc:
                raise LoweringError(str(exc), node.coord) from exc
            return [], N.Const(value=size, ctype=INT)
        stmts, expr = self.lower_expr(node.operand)
        if node.op == "+":
            return stmts, expr
        if node.op == "-":
            return stmts, N.UnOp(op="neg", operand=expr, ctype=expr.ctype)
        if node.op == "~":
            return stmts, N.UnOp(op="bnot", operand=expr, ctype=INT)
        if node.op == "!":
            return stmts, N.BinOp(op="==", left=expr,
                                  right=_zero_like(expr.ctype), ctype=INT)
        raise LoweringError(f"unknown unary operator {node.op!r}",
                            node.coord)

    def _lower_PostfixOp(self, node: A.PostfixOp) -> Pair:
        op = "++" if node.op == "p++" else "--"
        return self._lower_incdec(node.operand, op, prefix=False,
                                  coord=node.coord)

    def _lower_incdec(self, target: A.Expr, op: str, prefix: bool,
                      coord: Optional[A.Coord]) -> Pair:
        """``a++``  =>  ``temp = a; a = temp + delta``, value ``temp``
        (postfix) or the updated variable re-read via temp (prefix).
        This is exactly the section 5.3 shape the IV-substitution pass
        is designed to clean up."""
        stmts: List[N.Stmt] = []
        lv = self._lower_lvalue(target, stmts, need_reread=True)
        delta = pointer_target_size(lv.ctype) if lv.ctype.is_pointer else 1
        binop = "+" if op == "++" else "-"
        old = self.fresh_temp(lv.ctype.unqualified())
        old_ref = N.VarRef(sym=old, ctype=old.ctype)
        stmts.append(N.Assign(target=old_ref, value=_reread(lv)))
        updated = N.BinOp(op=binop, left=N.VarRef(sym=old, ctype=old.ctype),
                          right=N.int_const(delta), ctype=old.ctype)
        if prefix:
            new = self.fresh_temp(lv.ctype.unqualified())
            stmts.append(N.Assign(target=N.VarRef(sym=new, ctype=new.ctype),
                                  value=updated))
            stmts.append(N.Assign(target=_reread(lv),
                                  value=N.VarRef(sym=new, ctype=new.ctype)))
            return stmts, N.VarRef(sym=new, ctype=new.ctype)
        stmts.append(N.Assign(target=_reread(lv), value=updated))
        return stmts, N.VarRef(sym=old, ctype=old.ctype)

    def _lower_BinaryOp(self, node: A.BinaryOp) -> Pair:
        if node.op == "&&":
            return self._lower_logical(node, is_and=True)
        if node.op == "||":
            return self._lower_logical(node, is_and=False)
        if node.op == ",":
            stmts, _ = self._lower_expr_for_effect(node.left)
            more, expr = self.lower_expr(node.right)
            return stmts + more, expr
        stmts, left = self.lower_expr(node.left)
        more, right = self.lower_expr(node.right)
        stmts.extend(more)
        return stmts, self._build_binop(node.op, left, right, node.coord)

    def _build_binop(self, op: str, left: N.Expr, right: N.Expr,
                     coord: Optional[A.Coord]) -> N.Expr:
        lt, rt = left.ctype, right.ctype
        # Pointer arithmetic: scale the integer side by the element size
        # so subscripts appear in the star form (section 9).
        if op in ("+", "-") and lt.is_pointer and rt.is_integer:
            scale = pointer_target_size(lt)
            offset = _scale(right, scale)
            return N.BinOp(op=op, left=left, right=offset, ctype=lt)
        if op == "+" and lt.is_integer and rt.is_pointer:
            scale = pointer_target_size(rt)
            return N.BinOp(op="+", left=right, right=_scale(left, scale),
                           ctype=rt)
        if op == "-" and lt.is_pointer and rt.is_pointer:
            diff = N.BinOp(op="-", left=left, right=right, ctype=INT)
            size = pointer_target_size(lt)
            if size == 1:
                return diff
            return N.BinOp(op="/", left=diff, right=N.int_const(size),
                           ctype=INT)
        if op in ("==", "!=", "<", ">", "<=", ">="):
            if lt.is_pointer or rt.is_pointer:
                return N.BinOp(op=op, left=left, right=right, ctype=INT)
            common = usual_arithmetic_conversion(lt, rt)
            return N.BinOp(op=op, left=_convert(left, common),
                           right=_convert(right, common), ctype=INT)
        if op in ("<<", ">>", "&", "|", "^", "%"):
            if not (lt.is_integer and rt.is_integer):
                raise LoweringError(f"operator {op!r} requires integers",
                                    coord)
            common = usual_arithmetic_conversion(lt, rt)
            return N.BinOp(op=op, left=_convert(left, common),
                           right=_convert(right, common), ctype=common)
        if op in ("+", "-", "*", "/"):
            if not (lt.is_arithmetic and rt.is_arithmetic):
                raise LoweringError(
                    f"operator {op!r} applied to {lt} and {rt}", coord)
            common = usual_arithmetic_conversion(lt, rt)
            return N.BinOp(op=op, left=_convert(left, common),
                           right=_convert(right, common), ctype=common)
        raise LoweringError(f"unknown binary operator {op!r}", coord)

    def _lower_logical(self, node: A.BinaryOp, is_and: bool) -> Pair:
        """``E1 && E2`` => ``t = (E1 != 0); if (t) { t = (E2 != 0); }``"""
        stmts, left = self.lower_expr(node.left)
        temp = self.fresh_temp(INT, "log")
        tref = N.VarRef(sym=temp, ctype=INT)
        stmts.append(N.Assign(target=tref, value=_truth(left)))
        inner, right = self.lower_expr(node.right)
        inner = inner + [N.Assign(target=N.VarRef(sym=temp, ctype=INT),
                                  value=_truth(right))]
        guard = N.VarRef(sym=temp, ctype=INT)
        if is_and:
            stmts.append(N.IfStmt(cond=guard, then=inner, otherwise=[]))
        else:
            stmts.append(N.IfStmt(
                cond=N.BinOp(op="==", left=guard, right=N.int_const(0),
                             ctype=INT),
                then=inner, otherwise=[]))
        return stmts, N.VarRef(sym=temp, ctype=INT)

    def _lower_Assignment(self, node: A.Assignment) -> Pair:
        """The paper's transform, including the result temporary:
        ``(SL1,E1) = (SL2,E2) => (SL1; SL2; t = E2; E1 = t,  t)``."""
        stmts: List[N.Stmt] = []
        lv = self._lower_lvalue(node.target, stmts,
                                need_reread=node.op != "=")
        vstmts, value = self.lower_expr(node.value)
        stmts.extend(vstmts)
        if node.op != "=":
            binop = node.op[:-1]
            value = self._build_binop(binop, _reread(lv), value, node.coord)
        temp = self.fresh_temp(lv.ctype.unqualified())
        tref = N.VarRef(sym=temp, ctype=temp.ctype)
        stmts.append(N.Assign(target=tref, value=_convert(value,
                                                          temp.ctype)))
        stmts.append(N.Assign(target=lv,
                              value=N.VarRef(sym=temp, ctype=temp.ctype)))
        return stmts, N.VarRef(sym=temp, ctype=temp.ctype)

    def _lower_Conditional(self, node: A.Conditional) -> Pair:
        stmts, cond = self.lower_expr(node.cond)
        then_stmts, then_expr = self.lower_expr(node.then)
        else_stmts, else_expr = self.lower_expr(node.otherwise)
        if then_expr.ctype.is_arithmetic and else_expr.ctype.is_arithmetic:
            common = usual_arithmetic_conversion(then_expr.ctype,
                                                 else_expr.ctype)
        else:
            common = then_expr.ctype
        temp = self.fresh_temp(common, "cond")
        then_stmts.append(N.Assign(
            target=N.VarRef(sym=temp, ctype=temp.ctype),
            value=_convert(then_expr, common)))
        else_stmts.append(N.Assign(
            target=N.VarRef(sym=temp, ctype=temp.ctype),
            value=_convert(else_expr, common)))
        stmts.append(N.IfStmt(cond=_truth(cond), then=then_stmts,
                              otherwise=else_stmts))
        return stmts, N.VarRef(sym=temp, ctype=temp.ctype)

    def _lower_Call(self, node: A.Call) -> Pair:
        if not isinstance(node.func, A.Ident):
            raise LoweringError("calls through expressions are not "
                                "supported; call a named function",
                                node.coord)
        name = node.func.name
        sym = self.symtab.maybe_lookup(name)
        if sym is not None and isinstance(sym.ctype, FunctionType):
            fn_type = sym.ctype
        elif sym is not None and isinstance(sym.ctype, PointerType) and \
                isinstance(sym.ctype.base, FunctionType):
            # A CallExpr names its callee: the IL has no indirect call,
            # and a call to "f" would only fail at run time.
            raise LoweringError(f"call through function pointer "
                                f"'{name}' is not supported; call a "
                                f"named function", node.coord)
        else:
            # Implicit declaration: int f(...), as classic C allows.
            fn_type = FunctionType(ret=INT, params=(), varargs=True,
                                   prototyped=False)
            if sym is None:
                self._declare_global(name, fn_type, EXTERN)
        stmts: List[N.Stmt] = []
        args: List[N.Expr] = []
        for index, arg in enumerate(node.args):
            astmts, expr = self.lower_expr(arg)
            stmts.extend(astmts)
            if fn_type.prototyped and index < len(fn_type.params):
                expr = _convert(expr, decay(fn_type.params[index]))
            args.append(expr)
        call = N.CallExpr(name=name, args=args, ctype=fn_type.ret)
        if fn_type.ret.is_void:
            stmts.append(N.CallStmt(call=call))
            return stmts, N.Const(value=0, ctype=VOID)
        temp = self.fresh_temp(fn_type.ret, "ret")
        stmts.append(N.Assign(target=N.VarRef(sym=temp, ctype=temp.ctype),
                              value=call))
        return stmts, N.VarRef(sym=temp, ctype=temp.ctype)

    def _lower_Subscript(self, node: A.Subscript) -> Pair:
        stmts: List[N.Stmt] = []
        mem = self._subscript_mem(node, stmts)
        return stmts, self._rvalue(stmts, mem)

    def _subscript_mem(self, node: A.Subscript,
                       stmts: List[N.Stmt]) -> N.Mem:
        bstmts, base = self.lower_expr(node.base)
        stmts.extend(bstmts)
        istmts, index = self.lower_expr(node.index)
        stmts.extend(istmts)
        bt = base.ctype
        if not bt.is_pointer:
            raise LoweringError(f"subscript of non-pointer type {bt}",
                                node.coord)
        elem = bt.base
        elem_size = elem.sizeof() if not isinstance(elem, ArrayType) \
            else elem.sizeof()
        addr = N.BinOp(op="+", left=base,
                       right=_scale(index, elem_size), ctype=bt)
        return N.Mem(addr=addr, ctype=elem)

    def _lower_Member(self, node: A.Member) -> Pair:
        stmts: List[N.Stmt] = []
        mem = self._member_mem(node, stmts)
        return stmts, self._rvalue(stmts, mem)

    def _member_mem(self, node: A.Member, stmts: List[N.Stmt]) -> N.Mem:
        if node.arrow:
            bstmts, base = self.lower_expr(node.base)
            stmts.extend(bstmts)
            if not base.ctype.is_pointer or not isinstance(
                    base.ctype.base, StructType):
                raise LoweringError("-> applied to non-struct-pointer",
                                    node.coord)
            struct = base.ctype.base
            base_addr = base
        else:
            lv = self._lower_lvalue(node.base, stmts)
            if not isinstance(lv.ctype, StructType):
                raise LoweringError(". applied to non-struct", node.coord)
            struct = lv.ctype
            if isinstance(lv, N.VarRef):
                lv.sym.address_taken = True
                base_addr = N.AddrOf(sym=lv.sym,
                                     ctype=PointerType(base=struct))
            else:
                base_addr = lv.addr
        if not struct.complete:
            # `struct N { ...; struct N *next; }`: the pointee was
            # parsed before the tag had a body; the layout is under it.
            kw = "union " if struct.is_union else "struct "
            struct = self._tags.get(kw + struct.tag, struct)
            if not struct.complete:
                raise LoweringError(f"member access into incomplete "
                                    f"{kw}{struct.tag}", node.coord)
        field_ = struct.field_named(node.field_name)
        addr = N.BinOp(op="+", left=base_addr,
                       right=N.int_const(field_.offset),
                       ctype=PointerType(base=field_.ctype))
        if field_.offset == 0:
            addr = _with_type(base_addr, PointerType(base=field_.ctype))
        return N.Mem(addr=addr, ctype=field_.ctype)

    def _lower_Cast(self, node: A.Cast) -> Pair:
        stmts, expr = self.lower_expr(node.operand)
        to_type = node.to_type.ctype
        return stmts, _convert(expr, to_type)

    def _lower_SizeofType(self, node: A.SizeofType) -> Pair:
        try:
            return [], N.Const(value=node.of_type.ctype.sizeof(),
                               ctype=INT)
        except TypeError_ as exc:
            raise LoweringError(str(exc), node.coord) from exc

    # -- lvalues -----------------------------------------------------------

    def _lower_lvalue(self, node: A.Expr, stmts: List[N.Stmt],
                      need_reread: bool = False
                      ) -> Union[N.VarRef, N.Mem]:
        """Lower an expression in lvalue position.

        With ``need_reread`` (compound assignment, ``++``) the address
        is materialized into a temp so the caller can both read and
        write the same location; a plain store keeps the pure address
        expression inline — the star form the vectorizer wants.
        """
        if isinstance(node, A.Ident):
            sym = self.symtab.maybe_lookup(node.name)
            if sym is None:
                raise LoweringError(f"use of undeclared identifier "
                                    f"{node.name!r}", node.coord)
            return N.VarRef(sym=sym, ctype=sym.ctype)
        if isinstance(node, A.UnaryOp) and node.op == "*":
            sub, expr = self.lower_expr(node.operand)
            stmts.extend(sub)
            if not expr.ctype.is_pointer:
                raise LoweringError("dereference of non-pointer",
                                    node.coord)
            if need_reread:
                expr = self._materialize_addr(expr, stmts)
            return N.Mem(addr=expr, ctype=expr.ctype.base)
        if isinstance(node, A.Subscript):
            mem = self._subscript_mem(node, stmts)
            if need_reread:
                addr = self._materialize_addr(mem.addr, stmts)
                return N.Mem(addr=addr, ctype=mem.ctype)
            return mem
        if isinstance(node, A.Member):
            mem = self._member_mem(node, stmts)
            if need_reread:
                addr = self._materialize_addr(mem.addr, stmts)
                return N.Mem(addr=addr, ctype=mem.ctype)
            return mem
        if isinstance(node, A.Cast):
            lv = self._lower_lvalue(node.operand, stmts, need_reread)
            to_type = node.to_type.ctype
            if isinstance(lv, N.Mem):
                return N.Mem(addr=lv.addr, ctype=to_type)
            return N.VarRef(sym=lv.sym, ctype=to_type)
        raise LoweringError(f"expression is not an lvalue: {node!r}",
                            node.coord)

    def _materialize_addr(self, addr: N.Expr,
                          stmts: List[N.Stmt]) -> N.Expr:
        """Ensure an address expression is cheap and duplicate-safe."""
        if isinstance(addr, (N.VarRef, N.AddrOf, N.Const)):
            return addr
        temp = self.fresh_temp(addr.ctype, "addr")
        stmts.append(N.Assign(target=N.VarRef(sym=temp, ctype=temp.ctype),
                              value=addr))
        return N.VarRef(sym=temp, ctype=temp.ctype)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _is_pointer(ctype: CType) -> bool:
    return ctype.is_pointer


def _with_type(expr: N.Expr, ctype: CType) -> N.Expr:
    """Return ``expr`` retyped (rebuilding the node)."""
    if expr.ctype == ctype:
        return expr
    if isinstance(expr, N.Const):
        return N.Const(value=expr.value, ctype=ctype)
    if isinstance(expr, N.VarRef):
        return N.VarRef(sym=expr.sym, ctype=ctype)
    if isinstance(expr, N.AddrOf):
        return N.AddrOf(sym=expr.sym, ctype=ctype)
    if isinstance(expr, N.BinOp):
        return N.BinOp(op=expr.op, left=expr.left, right=expr.right,
                       ctype=ctype)
    if isinstance(expr, N.UnOp):
        return N.UnOp(op=expr.op, operand=expr.operand, ctype=ctype)
    if isinstance(expr, N.Cast):
        return N.Cast(operand=expr.operand, ctype=ctype)
    if isinstance(expr, N.Mem):
        return N.Mem(addr=expr.addr, ctype=ctype)
    return N.Cast(operand=expr, ctype=ctype)


def _reread(lv: Union[N.VarRef, N.Mem]) -> Union[N.VarRef, N.Mem]:
    """A fresh read of the same location (addresses are pure here)."""
    if isinstance(lv, N.VarRef):
        return N.VarRef(sym=lv.sym, ctype=lv.ctype)
    return N.Mem(addr=N.clone_expr(lv.addr), ctype=lv.ctype)


def _scale(index: N.Expr, size: int) -> N.Expr:
    index = _convert(index, INT)
    if size == 1:
        return index
    if isinstance(index, N.Const):
        return N.Const(value=INT.convert(index.value * size), ctype=INT)
    return N.BinOp(op="*", left=N.int_const(size), right=index, ctype=INT)


def _convert(expr: N.Expr, to_type: CType) -> N.Expr:
    """Insert a Cast when the value representation changes."""
    if to_type.is_scalar:
        if expr.ctype.compatible(to_type):
            return expr
        to_type = to_type.unqualified()
    elif expr.ctype == to_type or to_type.is_void:
        return expr
    if expr.ctype.is_pointer and to_type.is_pointer:
        return _with_type(expr, to_type)
    if isinstance(expr, N.Const) and to_type.is_arithmetic:
        value = fold.coerce(expr.value, to_type)
        if value is not None:
            return N.Const(value=value, ctype=to_type)
    return N.Cast(operand=expr, ctype=to_type)


def _truth(expr: N.Expr) -> N.Expr:
    """Normalize a controlling expression to int 0/1 semantics."""
    if expr.ctype == INT and isinstance(expr, N.BinOp) and expr.op in (
            "==", "!=", "<", ">", "<=", ">="):
        return expr
    return N.BinOp(op="!=", left=expr, right=_zero_like(expr.ctype),
                   ctype=INT)


def _zero_like(ctype: CType) -> N.Const:
    if ctype.is_float:
        return N.Const(value=0.0, ctype=ctype.unqualified())
    return N.Const(value=0, ctype=INT)


def _stamp_lines(stmts: List[N.Stmt], line: int) -> None:
    """Attribute freshly lowered statements to a source line.  Nested
    statements lowered from their own AST nodes were stamped first and
    keep their lines; only line-0 (synthetic) statements are filled."""
    for stmt in stmts:
        if stmt.line == 0:
            stmt.line = line
        for sub in stmt.substatements():
            _stamp_lines(sub, line)


def _uses_label(stmts: List[N.Stmt], label: str) -> bool:
    return any(isinstance(s, N.Goto) and s.label == label
               for s in N.walk_statements(stmts))


def lower(unit: A.TranslationUnit) -> N.ILProgram:
    return Lowerer().lower_unit(unit)


def compile_to_il(source: str, filename: str = "<input>",
                  headers: Optional[Dict[str, str]] = None) -> N.ILProgram:
    """Front-end convenience: preprocess, parse, and lower C text."""
    from .parser import parse
    from .preprocessor import preprocess
    text = preprocess(source, filename, headers=headers)
    return lower(parse(text, filename))
