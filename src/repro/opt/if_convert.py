"""If-conversion: predicate branchy DO-loop bodies into select merges.

The paper's vectorizer (section 5) assumes straight-line loop bodies,
so a guarded assignment like::

    for (i = 0; i < n; i++)
        if (b[i] > 0.0f)
            a[i] = b[i];

used to bail with the ``control-flow`` miss reason.  Following the
predication idea of *Retrofitting Control Flow Graphs in LLVM IR for
Auto Vectorization*, this pass folds the control dependence into the
data: each assignment under a single-level ``IfStmt`` becomes an
unconditional merge through a pure :class:`~repro.il.nodes.Select`::

    a[i] = select(b[i] > 0.0f, b[i], a[i]);

which the vectorizer then turns into a masked vector section store.
When both arms assign the same targets pairwise the merge needs no
old-value read at all (``t = select(c, x, y)`` — the clamp/abs idiom).

One guarded scalar update becomes an operator instead of a select:
the conditional min/max ``if (E > m) m = E;`` (or ``E < m``, either
operand order; a strict compare at ``m``'s type, no ``else``, the same
``E`` compared and stored, ``E`` not reading ``m``) is
``m = max(m, E)`` (``min``).  The IL's ``max(m, E)`` is ``E if E > m
else m`` — the branch exactly, NaN and −0.0 included — and the
vectorizer reduces it (:func:`conditional_minmax`).

``select`` is *lazy* like the branch it replaces: only the chosen arm
is evaluated (and a masked vector store only evaluates active lanes),
so predication never speculates a faulting load or division the
original guard protected.

Legality (rejected otherwise, with a counted reason):

* the condition must be duplicable: no calls, no volatile references
  (it is re-evaluated once per merge statement);
* each arm may contain only plain ``Assign`` statements — no nested
  control flow, calls, volatile accesses, or irregular flow
  (``break``/``continue``/``goto``/``return`` lower to irregular flow
  and never reach here as plain assigns anyway);
* a scalar target that is not pairwise-merged must have an earlier
  unconditional definition in the same loop body, so reading its old
  value is well-defined on every iteration.
"""

from __future__ import annotations

#: Canonical pass name used by the pipeline hook layer, the
#: per-pass checker, and bisection culprit reports.
PASS_NAME = "if-convert"
PASS_DESCRIPTION = ("if-conversion of branchy DO-loop bodies into "
                    "select merges")

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..il import nodes as N
from ..obs.remarks import RemarkCollector
from . import utils


@dataclass
class IfConvertStats:
    examined: int = 0
    converted: int = 0
    statements: int = 0  # merge assignments produced
    rejected: Dict[str, int] = field(default_factory=dict)

    def reject(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1


class IfConverter:
    REJECT_MESSAGES = {
        "cond-call": "condition calls a function (not duplicable)",
        "cond-volatile": "condition reads a volatile object",
        "empty": "both arms are empty",
        "arm-shape": "an arm contains a non-assignment statement",
        "arm-call": "an arm calls a function",
        "arm-volatile": "an arm references a volatile object",
        "scalar-merge": "a guarded scalar has no earlier unconditional "
                        "definition to merge with",
    }

    def __init__(self, remarks: Optional[RemarkCollector] = None):
        self.stats = IfConvertStats()
        self.remarks = remarks
        self._fn: Optional[N.ILFunction] = None

    def run(self, fn: N.ILFunction) -> IfConvertStats:
        self._fn = fn

        def visit(loop: N.Stmt, owner: List[N.Stmt], index: int) -> None:
            if isinstance(loop, N.DoLoop):
                self._convert_body(loop.body)

        utils.for_each_loop(fn.body, visit)
        return self.stats

    # ------------------------------------------------------------------

    def _convert_body(self, body: List[N.Stmt]) -> None:
        for stmt in list(body):
            if not isinstance(stmt, N.IfStmt):
                continue
            self.stats.examined += 1
            merged = self._try_convert(stmt, body)
            if merged is None:
                continue
            utils.replace_stmt(body, stmt, merged)
            merged = self._forward_minmax(body, merged)
            self.stats.converted += 1
            self.stats.statements += len(merged)
            if self.remarks is not None:
                value = merged[0].value
                what = f"{value.op}({merged[0].target.sym.name}, ...)" \
                    if isinstance(value, N.BinOp) \
                    else f"{len(merged)} select merge(s)"
                self.remarks.transformed(
                    "if-convert", self._fn.name,
                    f"branch predicated into {what}", stmt=stmt,
                    statements=len(merged))

    def _forward_minmax(self, body: List[N.Stmt],
                        merged: List[N.Stmt]) -> List[N.Stmt]:
        """The ternary spelling of a conditional min/max, ``m = E > m ?
        E : m;``, is ``t = select(E > m, E, m); m = t;`` once merged:
        when nothing else in the function reads the temporary ``t``,
        the pair is ``m = max(m, E)`` (:func:`conditional_minmax`'s
        rule, the same as for ``if (E > m) m = E;``).  ``merged``, or
        the one statement replacing the pair."""
        if len(merged) != 1 or not isinstance(merged[0].value, N.Select):
            return merged
        first = merged[0]
        at = next(k for k, stmt in enumerate(body) if stmt is first)
        later = body[at + 1] if at + 1 < len(body) else None
        temp = first.target
        if not isinstance(later, N.Assign) \
                or not isinstance(later.target, N.VarRef) \
                or not isinstance(later.value, N.VarRef) \
                or not isinstance(temp, N.VarRef) \
                or later.value.sym != temp.sym \
                or N.lives_in_memory(temp.sym) \
                or not temp.ctype.compatible(later.target.ctype):
            return merged
        select = first.value
        shape, _ = conditional_minmax(select.cond, select.then,
                                      later.target)
        if shape is None \
                or not N.expr_equal(select.otherwise, later.target) \
                or any(temp.sym in utils.stmt_reads(stmt)
                       for stmt in self._fn.all_statements()
                       if stmt is not later):
            return merged
        op, value = shape
        target = later.target
        update = N.Assign(target=N.clone_expr(target),
                          value=N.BinOp(op=op, left=N.clone_expr(target),
                                        right=N.clone_expr(value),
                                        ctype=target.ctype),
                          line=later.line or first.line)
        body[at:at + 2] = [update]
        return [update]

    def _reject(self, reason: str, stmt: N.IfStmt) -> None:
        self.stats.reject(reason)
        if self.remarks is not None:
            self.remarks.missed(
                "if-convert", self._fn.name,
                f"branch not predicated: "
                f"{self.REJECT_MESSAGES[reason]}",
                stmt=stmt, reason=reason)
        return None

    def _try_convert(self, stmt: N.IfStmt,
                     body: List[N.Stmt]) -> Optional[List[N.Stmt]]:
        cond = stmt.cond
        if utils.expr_has_call(cond):
            return self._reject("cond-call", stmt)
        if utils.expr_has_volatile(cond):
            return self._reject("cond-volatile", stmt)
        if not stmt.then and not stmt.otherwise:
            return self._reject("empty", stmt)
        for arm in (stmt.then, stmt.otherwise):
            reason = self._check_arm(arm)
            if reason is not None:
                return self._reject(reason, stmt)
        if len(stmt.then) == 1 and not stmt.otherwise:
            update = stmt.then[0]
            shape, _ = conditional_minmax(stmt.cond, update.value,
                                          update.target)
            if shape is not None:
                op, value = shape
                target = update.target
                return [N.Assign(
                    target=N.clone_expr(target),
                    value=N.BinOp(op=op, left=N.clone_expr(target),
                                  right=N.clone_expr(value),
                                  ctype=target.ctype),
                    line=update.line or stmt.line)]
        paired = self._pairwise(stmt)
        if paired is not None:
            return paired
        return self._guarded(stmt, body)

    def _check_arm(self, arm: List[N.Stmt]) -> Optional[str]:
        for sub in arm:
            if not isinstance(sub, N.Assign):
                return "arm-shape"
            if not isinstance(sub.target, (N.VarRef, N.Mem)):
                return "arm-shape"
            for expr in (sub.value, sub.target):
                if utils.expr_has_call(expr):
                    return "arm-call"
                if utils.expr_has_volatile(expr):
                    return "arm-volatile"
        return None

    # -- pairwise merges (no old-value reads) ---------------------------

    def _pairwise(self, stmt: N.IfStmt) -> Optional[List[N.Stmt]]:
        """``if (c) {t=x; ...} else {t=y; ...}`` with the same targets
        in the same order becomes ``t = select(c, x, y); ...`` — later
        merges correctly read the already-merged earlier targets."""
        then, other = stmt.then, stmt.otherwise
        if not then or len(then) != len(other):
            return None
        for a, b in zip(then, other):
            if not N.expr_equal(a.target, b.target):
                return None
        out: List[N.Stmt] = []
        for a, b in zip(then, other):
            out.append(self._merge(a.target, stmt.cond, a.value,
                                   b.value, a.line or stmt.line))
        return out

    # -- guarded merges (keep-old-value reads) --------------------------

    def _guarded(self, stmt: N.IfStmt,
                 body: List[N.Stmt]) -> Optional[List[N.Stmt]]:
        defined = self._earlier_defs(stmt, body)
        for arm in (stmt.then, stmt.otherwise):
            for sub in arm:
                if isinstance(sub.target, N.VarRef) \
                        and sub.target.sym not in defined:
                    return self._reject("scalar-merge", stmt)
        out: List[N.Stmt] = []
        for sub in stmt.then:
            old = _target_read(sub.target)
            out.append(self._merge(sub.target, stmt.cond, sub.value,
                                   old, sub.line or stmt.line))
        for sub in stmt.otherwise:
            old = _target_read(sub.target)
            out.append(self._merge(sub.target, stmt.cond, old,
                                   sub.value, sub.line or stmt.line))
        return out

    @staticmethod
    def _earlier_defs(stmt: N.IfStmt, body: List[N.Stmt]):
        """Scalars unconditionally defined at top level before ``stmt``
        in the loop body (safe to read on every iteration)."""
        out = set()
        for prior in body:
            if prior is stmt:
                break
            sym = utils.stmt_writes_scalar(prior)
            if sym is not None:
                out.add(sym)
        return out

    def _merge(self, target: N.Expr, cond: N.Expr, then: N.Expr,
               otherwise: N.Expr, line: int) -> N.Assign:
        select = N.Select(cond=N.clone_expr(cond),
                          then=N.clone_expr(then),
                          otherwise=N.clone_expr(otherwise),
                          ctype=target.ctype)
        return N.Assign(target=N.clone_expr(target), value=select,
                        line=line)


#: ``E ⊙ m`` read as ``m ⊙' E``.
_MIRRORED = {">": "<", "<": ">", ">=": "<=", "<=": ">="}


def conditional_minmax(cond: N.Expr, value: N.Expr, target: N.Expr
                       ) -> Tuple[Optional[Tuple[str, N.Expr]], str]:
    """``if (cond) target = value`` as ``target = op(target, E)``:
    ``(op, E)`` when ``cond`` is ``E > m`` (``max``) or ``E < m``
    (``min``), or the same compare mirrored, ``target`` is the scalar
    ``m``, ``value`` is ``E``, and ``E`` has ``m``'s type and does not
    read it.  Else None, with the reason when this is otherwise a
    guarded update of ``m`` compared against ``m`` ("" when it is
    not one)."""
    if not isinstance(target, N.VarRef) or not isinstance(cond, N.BinOp) \
            or cond.op not in _MIRRORED:
        return None, ""
    sym, rel = target.sym, cond.op
    if isinstance(cond.right, N.VarRef) and cond.right.sym == sym:
        expr = cond.left
    elif isinstance(cond.left, N.VarRef) and cond.left.sym == sym:
        expr, rel = cond.right, _MIRRORED[rel]
    else:
        return None, ""
    name = sym.name
    if sym in N.facts(expr).reads:
        return None, f"the value compared with {name} reads {name}"
    if not N.expr_equal(expr, value):
        return None, f"the value stored in {name} is not the one " \
                     f"compared with it"
    if not expr.ctype.compatible(target.ctype):
        return None, f"{name} ({target.ctype}) is compared with a " \
                     f"{expr.ctype} value"
    if rel in (">=", "<="):
        return None, f"non-strict compare '{cond.op}': on a tie the " \
                     f"update stores the new value, min/max keeps {name}"
    return ("max" if rel == ">" else "min", expr), ""


def _target_read(target: N.Expr) -> N.Expr:
    """The assignment target re-read as an rvalue (its old value)."""
    return N.clone_expr(target)


def if_convert_function(fn: N.ILFunction,
                        remarks: Optional[RemarkCollector] = None
                        ) -> IfConvertStats:
    return IfConverter(remarks=remarks).run(fn)
