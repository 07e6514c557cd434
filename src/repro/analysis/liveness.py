"""Backward live-variable analysis.

Dead-code elimination (section 8: "Dead code is common" after inlining)
deletes assignments whose scalar target is dead, so long as the value
expression has no observable effect (no call, no volatile access).

Locations are numbered and the dataflow runs on integer bitmasks held
in lists indexed by ``FlowNode.index`` — the representation the
reaching-definitions solve uses (:mod:`repro.analysis.usedef`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

from ..frontend.symtab import Symbol
from ..il import nodes as N
from .flowgraph import FlowGraph, FlowNode, MEMORY, solve_bitmasks


class Liveness:
    def __init__(self, graph: FlowGraph,
                 globals_: Sequence[N.GlobalVar] = ()):
        self.graph = graph
        self.aliased = graph.aliased
        self._bit: Dict[object, int] = {}
        self._solve()

    def _mask(self, locations: Iterable[object]) -> int:
        bits = self._bit
        mask = 0
        for loc in locations:
            bit = bits.get(loc)
            if bit is None:
                bit = bits[loc] = 1 << len(bits)
            mask |= bit
        return mask

    def _solve(self) -> None:
        nodes = self.graph.nodes
        _, uses = self.graph.defs_uses
        use = [self._mask(u) for u in uses]
        # Only *must*-defs kill liveness.  A call's may-defs (every
        # aliased symbol) are in the graph's def sets so DCE knows the
        # call can write them, but a may-def must not make an earlier
        # store look dead — the callee might not write the symbol at
        # all (fuzz find: `g = g - 6; r = h(x); use g` lost the store
        # to g).
        keep = [~self._mask(_must_defs(node)) for node in nodes]
        # At exit, globals, aliased locals, params of pointer type (the
        # caller can see what they point at) and MEMORY remain live.
        exit_live = self._mask([MEMORY, *self.aliased])
        #: Per-node masks of the locations live after / before it.
        self.live_out, self.live_in = solve_bitmasks(
            nodes, use, keep, backward=True,
            boundary={self.graph.exit.index: exit_live})

    def is_live_after(self, node: FlowNode, sym: Symbol) -> bool:
        return bool(self.live_out[node.index] & self._bit.get(sym, 0))


def _must_defs(node: FlowNode) -> tuple:
    """Symbols ``node`` definitely writes (the kill set)."""
    stmt = node.stmt
    if node.kind in ("do_init", "do_step"):
        return (stmt.var,)
    if node.kind == "assign" and isinstance(stmt, N.Assign) \
            and isinstance(stmt.target, N.VarRef):
        return (stmt.target.sym,)
    return ()
