"""The statement-level dependence graph for a DO loop (sections 5, 6).

Nodes are the top-level statements of the loop body; edges carry the
dependence kind (true/anti/output), whether the dependence is
loop-carried, and the constant distance when known.  The same graph
drives vectorization (its dual use for register allocation and
scheduling is section 6's subject: "data dependences pinpoint the memory
locations that are most frequently accessed").

Alias policy — the crux of compiling *C*:

* references into *different named arrays* are independent;
* two references through the *same* loop-invariant pointer are analyzed
  precisely (their difference is affine);
* a pointer-based reference against a named array, or two different
  pointers, **may alias** — unless the loop carries a ``safe`` pragma,
  the function was compiled with Fortran pointer semantics (the paper's
  compiler option), or inlining + constant propagation already rewrote
  the pointers into named-array form (the §9 punchline);
* an unparseable reference may alias everything;
* calls conflict with every memory reference and every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..frontend.symtab import Symbol
from ..il import nodes as N
from ..opt import utils
from ..opt.fold import static_trip_count
from .refs import AffineRef, collect_refs, parse_ref
from .tests import DependenceResult, EQ, GT, LT, test_pair

TRUE_DEP = "true"
ANTI_DEP = "anti"
OUTPUT_DEP = "output"


@dataclass(frozen=True)
class DependenceEdge:
    src: int  # statement index in body
    dst: int
    kind: str
    carried: bool
    distance: Optional[int] = None
    reason: str = ""

    def __repr__(self) -> str:
        carried = "carried" if self.carried else "independent"
        return (f"Edge({self.src}->{self.dst}, {self.kind}, {carried}"
                f", {self.reason})")


@dataclass
class AliasPolicy:
    """How bold the analyzer may be about C pointers."""

    assume_no_alias: bool = False  # pragma safe / Fortran semantics

    def may_alias(self, a: AffineRef, b: AffineRef) -> bool:
        if a.base is None or b.base is None:
            return True
        if a.same_shape(b):
            return True  # precisely analyzable; tests decide
        kind_a, sym_a = a.base
        kind_b, sym_b = b.base
        if kind_a == "array" and kind_b == "array":
            return sym_a == sym_b  # distinct named arrays are disjoint
        if self.assume_no_alias:
            return (kind_a, sym_a) == (kind_b, sym_b) \
                and a.sym_terms == b.sym_terms
        return True  # C default: pointers may point anywhere


class DependenceGraph:
    """Dependence graph over the top-level statements of a loop body.

    With ``split`` it holds only the edges between statements before
    index ``split`` and statements from it on: what two bodies fused
    into one add to the edges each already has."""

    def __init__(self, loop: N.DoLoop,
                 policy: Optional[AliasPolicy] = None,
                 extra_invariants: Sequence[Symbol] = (),
                 split: Optional[int] = None):
        self.loop = loop
        self.body = loop.body
        self.policy = policy or AliasPolicy()
        self.split = split
        self.edges: List[DependenceEdge] = []
        # Bounded (Banerjee) reasoning only applies when loop-variable
        # values coincide with iteration numbers, i.e. normalized loops.
        if N.is_const(loop.lo, 0) and loop.step == 1:
            self.trip_count = static_trip_count(loop)
        else:
            self.trip_count = None
        self._build(extra_invariants)

    # ------------------------------------------------------------------

    def _build(self, extra_invariants: Sequence[Symbol]) -> None:
        from ..obs import telemetry
        with telemetry.span("dependence-build", cat="analysis",
                            loop=self.loop.var.name,
                            line=self.loop.line) as targs:
            body = self.body
            loop_var = self.loop.var
            defined = utils.symbols_defined_in(body)
            invariants = self._invariant_symbols(defined) | set(
                extra_invariants)
            # Memory references per top-level statement.
            refs_of: Dict[int, List[AffineRef]] = {}
            for index, stmt in enumerate(body):
                refs_of[index] = collect_refs([stmt], [loop_var],
                                              invariants)
            self._memory_edges(refs_of)
            self._scalar_edges(defined)
            self._call_edges(refs_of)
            if targs:
                targs["edges"] = len(self.edges)
                targs["statements"] = len(body)

    def _invariant_symbols(self, defined: Set[Symbol]) -> Set[Symbol]:
        read: Set[Symbol] = set()
        for stmt in N.walk_statements(self.body):
            for expr in N.stmt_exprs(stmt):
                read |= N.facts(expr).reads
        return {sym for sym in read
                if sym not in defined and sym != self.loop.var
                and not sym.address_taken}

    def _memory_edges(self, refs_of: Dict[int, List[AffineRef]]) -> None:
        indices = sorted(refs_of)
        split = self.split
        for i in indices:
            for j in indices:
                if j < i or split is not None and not i < split <= j:
                    continue
                for ra in refs_of[i]:
                    for rb in refs_of[j]:
                        if not (ra.is_write or rb.is_write):
                            continue
                        self._test_and_add(i, j, ra, rb,
                                           self_pair=ra is rb)

    def _test_and_add(self, i: int, j: int, ra: AffineRef,
                      rb: AffineRef, self_pair: bool = False) -> None:
        if not self.policy.may_alias(ra, rb):
            return
        if ra.base is None or rb.base is None or not ra.same_shape(rb):
            # May alias but not analyzable: all directions possible.
            result = DependenceResult.all_directions()
            reason = "may-alias"
        else:
            result = test_pair(ra, rb, self.loop.var, self.trip_count)
            reason = "affine"
        if self_pair:
            # A reference against itself: the same-iteration access is
            # the access itself, but cross-iteration overlap (e.g. the
            # ZIV store `a[0] = ...` every trip) is a carried self-dep.
            directions = result.directions - {EQ}
            if not directions:
                return
            result = DependenceResult(possible=True,
                                      directions=frozenset(directions),
                                      distance=result.distance)
        if not result.possible:
            return
        self._add_edges(i, j, ra, rb, result, reason)

    def _add_edges(self, i: int, j: int, ra: AffineRef, rb: AffineRef,
                   result: DependenceResult, reason: str) -> None:
        # result.directions relate iteration of ra (i1) to rb (i2).
        # '<' : ra's access happens in an earlier iteration -> carried
        #       dependence from stmt i to stmt j.
        # '=' : same iteration: textual order decides src/dst.
        # '>' : rb's iteration is earlier: carried from j to i.
        # Sorted ("<", "=", ">"): a frozenset of strings iterates in an
        # order the hash seed picks, and so would the edges.
        for direction in sorted(result.directions):
            if direction == EQ:
                if i == j:
                    continue  # same statement, same iteration: ordered
                src, dst = (i, j) if i < j else (j, i)
                src_ref, dst_ref = (ra, rb) if i < j else (rb, ra)
                kind = _dep_kind(src_ref, dst_ref)
                self._append(src, dst, kind, carried=False,
                             distance=0, reason=reason)
            elif direction == LT:
                kind = _dep_kind(ra, rb)
                self._append(i, j, kind, carried=True,
                             distance=result.distance, reason=reason)
            else:  # GT: dependence actually flows rb -> ra
                kind = _dep_kind(rb, ra)
                self._append(j, i, kind, carried=True,
                             distance=result.distance, reason=reason)

    def _scalar_edges(self, defined: Set[Symbol]) -> None:
        """Dependences through scalar variables defined in the body."""
        body = self.body
        for sym in defined:
            if sym == self.loop.var:
                continue
            def_idx = [k for k, s in enumerate(body)
                       if sym in utils.symbols_defined_in([s])]
            use_idx = [k for k, s in enumerate(body)
                       if sym in _scalar_uses(s)]
            for d in def_idx:
                for u in use_idx:
                    if d == u:
                        # e.g. `x = x + 1`: carried flow onto itself.
                        self._append(d, d, TRUE_DEP, carried=True,
                                     reason=f"scalar {sym.name}")
                        continue
                    if d < u:
                        self._append(d, u, TRUE_DEP, carried=False,
                                     reason=f"scalar {sym.name}")
                    else:
                        self._append(d, u, TRUE_DEP, carried=True,
                                     reason=f"scalar {sym.name}")
                        self._append(u, d, ANTI_DEP, carried=False,
                                     reason=f"scalar {sym.name}")
                for d2 in def_idx:
                    if d < d2:
                        self._append(d, d2, OUTPUT_DEP, carried=False,
                                     reason=f"scalar {sym.name}")
            # A scalar def depends on itself across iterations (its
            # value must persist in order).
            for d in def_idx:
                self._append(d, d, OUTPUT_DEP, carried=True,
                             reason=f"scalar {sym.name}")

    def _call_edges(self, refs_of: Dict[int, List[AffineRef]]) -> None:
        call_idx = [k for k, s in enumerate(self.body)
                    if _has_call(s)]
        if not call_idx:
            return
        for c in call_idx:
            for k in range(len(self.body)):
                if k == c:
                    self._append(c, c, OUTPUT_DEP, carried=True,
                                 reason="call")
                    continue
                src, dst = (c, k) if c < k else (k, c)
                self._append(src, dst, TRUE_DEP, carried=False,
                             reason="call")
                self._append(min(c, k), max(c, k), TRUE_DEP,
                             carried=True, reason="call")

    def _append(self, src: int, dst: int, kind: str, carried: bool,
                distance: Optional[int] = None, reason: str = "") -> None:
        split = self.split
        if split is not None and (src < split) == (dst < split):
            return
        edge = DependenceEdge(src=src, dst=dst, kind=kind,
                              carried=carried, distance=distance,
                              reason=reason)
        if edge not in self.edges:
            self.edges.append(edge)

    # -- queries -----------------------------------------------------------

    def successors(self, index: int) -> List[DependenceEdge]:
        return [e for e in self.edges if e.src == index]

    def has_carried_dependence(self) -> bool:
        return any(e.carried for e in self.edges)

    def carried_edges(self) -> List[DependenceEdge]:
        return [e for e in self.edges if e.carried]

    def adjacency(self) -> Dict[int, Set[int]]:
        adj: Dict[int, Set[int]] = {k: set()
                                    for k in range(len(self.body))}
        for e in self.edges:
            adj[e.src].add(e.dst)
        return adj


def _dep_kind(src_ref: AffineRef, dst_ref: AffineRef) -> str:
    if src_ref.is_write and dst_ref.is_write:
        return OUTPUT_DEP
    if src_ref.is_write:
        return TRUE_DEP
    return ANTI_DEP


def _scalar_uses(stmt: N.Stmt) -> Set[Symbol]:
    out: Set[Symbol] = set()
    for sub in N.walk_statements([stmt]):
        out.update(utils.stmt_reads(sub))
    return out


def _has_call(stmt: N.Stmt) -> bool:
    if isinstance(stmt, N.CallStmt):
        return True
    for sub in N.walk_statements([stmt]):
        for expr in N.stmt_exprs(sub):
            if utils.expr_has_call(expr):
                return True
    return False
