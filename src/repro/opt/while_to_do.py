"""While→DO conversion (section 5.2).

The C front end lowers every ``for`` loop to a ``while`` loop, so
recovering counted DO loops is "essential to success".  The paper places
the conversion immediately after use-def chains are built, before IV
substitution / constant propagation / dead-code elimination.

A ``while`` converts when we can prove it is an iterative loop in
disguise:

* the condition is ``v cmp bound`` with ``v`` an integer scalar and
  ``bound`` loop-invariant;
* ``v`` has exactly one unconditional update per iteration whose traced
  effect (through the front end's temp chains, via use-def information)
  is ``v = v + c`` for a non-zero integer constant ``c`` whose direction
  agrees with the comparison;
* no branch enters the loop body and no branch leaves it early
  ("control flow information is necessary", built from the CFG for
  scalar analysis);
* ``v`` is neither volatile nor address-taken (a store through a
  pointer could change it mid-flight).

The converted loop is emitted in normalized form —
``do fortran dovar = 0, count-1, 1`` — exactly the shape the paper's
section 9 transcript shows (``do fortran temp_i = 0, n-1, 1``); the
original update statements stay in the body for IV substitution and DCE
to clean up, as in the paper's ``i = temp - s`` example.

Like the paper, a loop whose condition is ``v != 0`` with ``|c| = 1``
converts on the assumption the program terminates (the daxpy
``for (; n; n--)`` case); ``strict`` mode disables that assumption —
the ablation experiment compares the two policies.
"""

from __future__ import annotations

#: Canonical pass name used by the pipeline hook layer, the
#: per-pass checker, and bisection culprit reports.
PASS_NAME = "while-to-do"
PASS_DESCRIPTION = "while->DO conversion (section 4)"

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..frontend.ctypes_ import INT
from ..frontend.symtab import Symbol, SymbolTable
from ..il import nodes as N
from ..obs.remarks import RemarkCollector
from . import utils
from .affine import trace_step
from .fold import simplify

_FLIP = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "!=": "!=",
         "==": "=="}


@dataclass
class WhileToDoStats:
    examined: int = 0
    converted: int = 0
    rejected: Dict[str, int] = field(default_factory=dict)

    def reject(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1

    @property
    def changed(self) -> bool:
        return self.converted > 0


class WhileToDo:
    """Converts eligible while loops in one function, innermost first."""

    REJECT_MESSAGES = {
        "irregular-flow": "loop body has irregular control flow "
                          "(goto/break/early return)",
        "condition-shape": "condition is not 'var cmp loop-invariant "
                           "bound'",
        "variable-unsafe": "control variable is volatile, address-taken,"
                           " or globally visible",
        "no-simple-update": "control variable lacks a single "
                            "unconditional constant-step update",
        "bound-varies": "loop bound is redefined inside the body",
        "direction-or-strictness": "step direction disagrees with the "
                                   "comparison (or '!=' termination "
                                   "assumption disabled by strict mode)",
    }

    def __init__(self, symtab: SymbolTable, strict: bool = False,
                 remarks: Optional[RemarkCollector] = None):
        self.symtab = symtab
        self.strict = strict
        self.stats = WhileToDoStats()
        self.remarks = remarks
        self._fn_name = ""

    def run(self, fn: N.ILFunction) -> WhileToDoStats:
        self._fn_name = fn.name

        def visit(loop: N.Stmt, owner: List[N.Stmt], index: int) -> None:
            if isinstance(loop, N.WhileLoop):
                self.stats.examined += 1
                do_loop = self._try_convert(loop)
                if do_loop is not None:
                    owner[index] = do_loop
                    self.stats.converted += 1
                    new_locals = [do_loop.var]
                    fn.local_syms.extend(new_locals)

        utils.for_each_loop(fn.body, visit)
        return self.stats

    # ------------------------------------------------------------------

    def _reject(self, loop: N.WhileLoop, reason: str) -> None:
        self.stats.reject(reason)
        if self.remarks is not None:
            self.remarks.missed(
                "while-to-do", self._fn_name,
                f"while loop not converted to DO: "
                f"{self.REJECT_MESSAGES[reason]}",
                stmt=loop, reason=reason)

    def _try_convert(self, loop: N.WhileLoop) -> Optional[N.DoLoop]:
        if utils.has_irregular_flow(loop.body):
            self._reject(loop, "irregular-flow")
            return None
        parsed = self._parse_condition(loop.cond)
        if parsed is None:
            self._reject(loop, "condition-shape")
            return None
        var, cmp_op, bound = parsed
        if var.is_volatile or var.address_taken or \
                var.storage in ("global", "static", "extern"):
            self._reject(loop, "variable-unsafe")
            return None
        step = self._update_step(loop.body, var)
        if step is None:
            self._reject(loop, "no-simple-update")
            return None
        defined = utils.symbols_defined_in(loop.body)
        if not utils.expr_is_invariant(bound, defined):
            self._reject(loop, "bound-varies")
            return None
        count = self._trip_count(var, cmp_op, bound, step)
        if count is None:
            self._reject(loop, "direction-or-strictness")
            return None
        dovar = self.symtab.fresh_temp(INT, "dovar")
        hi = simplify(N.BinOp(op="-", left=count, right=N.int_const(1),
                              ctype=INT))
        if self.remarks is not None:
            self.remarks.transformed(
                "while-to-do", self._fn_name,
                f"while loop converted to normalized DO loop "
                f"({dovar.name} = 0..count-1, step {step:+d} on "
                f"'{var.name}')",
                stmt=loop, control_var=var.name, step=step)
        return N.DoLoop(var=dovar, lo=N.int_const(0), hi=hi, step=1,
                        body=loop.body, pragmas=loop.pragmas,
                        line=loop.line)

    def _parse_condition(self, cond: N.Expr
                         ) -> Optional[Tuple[Symbol, str, N.Expr]]:
        if not isinstance(cond, N.BinOp) or cond.op not in _FLIP:
            return None
        left, right, op = cond.left, cond.right, cond.op
        if isinstance(right, N.VarRef) and not isinstance(left, N.VarRef):
            left, right, op = right, left, _FLIP[op]
        if not isinstance(left, N.VarRef):
            return None
        if not left.sym.ctype.is_integer:
            return None
        return left.sym, op, right

    def _update_step(self, body: List[N.Stmt],
                     var: Symbol) -> Optional[int]:
        """The per-iteration constant step of ``var``, or None.

        All defs of ``var`` must be unconditional top-level statements;
        their combined traced effect must be ``var + c``.  Tracing
        resolves the front end's temp chains ("a transitive transfer
        from the locations identified as the sources", section 5.2).
        """
        defs = utils.scalar_defs_in(body)
        var_defs = defs.get(var, [])
        if not var_defs:
            return None
        top_level = [s for s in body if isinstance(s, N.Assign)
                     and isinstance(s.target, N.VarRef)
                     and s.target.sym == var]
        if len(top_level) != len(var_defs):
            return None  # some update is conditional / nested
        total = 0
        for stmt in var_defs:
            traced = trace_step(stmt.value, body, body.index(stmt), var)
            if traced is None:
                return None
            total += traced
        return total if total != 0 else None

    def _trip_count(self, var: Symbol, op: str, bound: N.Expr,
                    step: int) -> Optional[N.Expr]:
        """An expression (evaluated at loop entry) for the trip count."""
        v = N.VarRef(sym=var, ctype=INT)
        if op == "<" and step > 0:
            diff = N.BinOp(op="-", left=bound, right=v, ctype=INT)
            return _ceil_div(diff, step)
        if op == "<=" and step > 0:
            diff = N.BinOp(op="-",
                           left=N.BinOp(op="+", left=bound,
                                        right=N.int_const(1), ctype=INT),
                           right=v, ctype=INT)
            return _ceil_div(diff, step)
        if op == ">" and step < 0:
            diff = N.BinOp(op="-", left=v, right=bound, ctype=INT)
            return _ceil_div(diff, -step)
        if op == ">=" and step < 0:
            diff = N.BinOp(op="-", left=v,
                           right=N.BinOp(op="-", left=bound,
                                         right=N.int_const(1), ctype=INT),
                           ctype=INT)
            return _ceil_div(diff, -step)
        if op == "!=" and abs(step) == 1 and not self.strict:
            # The daxpy pattern: `for (; n; n--)`.  Converting assumes
            # the source loop terminates (the paper converts these; a
            # non-terminating while has no meaning as a DO loop anyway).
            if N.is_const(bound, 0):
                count = v if step < 0 else N.UnOp(op="neg", operand=v,
                                                  ctype=INT)
                return simplify(count)
            diff = N.BinOp(op="-", left=bound, right=v, ctype=INT) \
                if step > 0 else \
                N.BinOp(op="-", left=v, right=bound, ctype=INT)
            return simplify(diff)
        return None


def _ceil_div(diff: N.Expr, step: int) -> N.Expr:
    """ceil(diff/step) for positive step, as an IL expression.

    For non-positive ``diff`` C's truncating division still yields a
    value <= 0, so the zero-trip case stays zero-trip.
    """
    diff = simplify(diff)
    if step == 1:
        return diff
    num = N.BinOp(op="+", left=diff, right=N.int_const(step - 1),
                  ctype=INT)
    return simplify(N.BinOp(op="/", left=num, right=N.int_const(step),
                            ctype=INT))


def convert_while_loops(fn: N.ILFunction, symtab: SymbolTable,
                        strict: bool = False,
                        remarks: Optional[RemarkCollector] = None
                        ) -> WhileToDoStats:
    return WhileToDo(symtab, strict, remarks=remarks).run(fn)
