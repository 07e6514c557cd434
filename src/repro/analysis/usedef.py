"""Reaching definitions and use-def chains.

Section 5.2 places while→DO conversion "immediately after use-def chains
have been constructed", and induction-variable substitution, constant
propagation, and dead-code elimination are all driven off the same
chains.  This module computes them with a classic iterative worklist over
the flow graph, at single-event granularity (our procedures are small —
the paper's own argument for pragmatism over asymptotics, section 5.3).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, NamedTuple, Sequence, Set, Tuple

from ..il import nodes as N
from .flowgraph import FlowGraph, FlowNode, MEMORY, solve_bitmasks


class Definition(NamedTuple):
    """One definition point: ``node`` defines ``location``."""

    node: FlowNode
    location: object  # Symbol or MEMORY


class UseDefChains:
    """Reaching-definition sets per flow node, queryable per use."""

    def __init__(self, graph: FlowGraph,
                 globals_: Sequence[N.GlobalVar] = ()):
        self.graph = graph
        self.aliased = graph.aliased
        self._defs_at, self._uses_at = graph.defs_uses
        self._solve()

    # -- dataflow ----------------------------------------------------------

    def _solve(self) -> None:
        # Definitions are numbered and the dataflow runs on integer
        # bitmasks: without inlining, every call site gen's a may-def of
        # MEMORY plus each aliased symbol, none of which is ever killed,
        # so frozenset-of-Definition sets grow with call count and the
        # solve goes quadratic.  Bit operations keep each transfer O(1)
        # in practice.  Masks live in lists indexed by FlowNode.index.
        nodes = self.graph.nodes
        all_defs: List[Definition] = []
        gen: List[int] = []
        defs_by_loc: Dict[object, int] = defaultdict(int)
        for node, locs in zip(nodes, self._defs_at):
            mask = 0
            for loc in locs:
                bit = 1 << len(all_defs)
                all_defs.append(Definition(node, loc))
                defs_by_loc[loc] |= bit
                mask |= bit
            gen.append(mask)
        keep: List[int] = []
        for node, locs in zip(nodes, self._defs_at):
            kill = 0
            if _is_strong_def(node):
                # A definite scalar assignment kills prior defs of that
                # scalar; MEMORY and aliased defs accumulate (may-defs).
                for loc in locs:
                    if loc is not MEMORY and loc not in self.aliased:
                        kill |= defs_by_loc[loc]
            keep.append(~kill)
        self._in_mask, _ = solve_bitmasks(nodes, gen, keep)
        self._all_defs = all_defs
        self._defs_by_loc = defs_by_loc

    # -- queries -----------------------------------------------------------

    def defs_reaching(self, node: FlowNode,
                      location: object) -> List[Definition]:
        mask = self._in_mask[node.index] \
            & self._defs_by_loc.get(location, 0)
        defs = []
        while mask:
            low = mask & -mask
            defs.append(self._all_defs[low.bit_length() - 1])
            mask ^= low
        return defs

    def uses_of(self, node: FlowNode) -> Set[object]:
        return self._uses_at[node.index]


def _is_strong_def(node: FlowNode) -> bool:
    """Does this node *definitely* overwrite its scalar targets?"""
    stmt = node.stmt
    if node.kind in ("do_init", "do_step"):
        return True
    if node.kind == "entry":
        return True
    if node.kind == "assign" and isinstance(stmt, N.Assign):
        return isinstance(stmt.target, N.VarRef)
    return False


def build_chains(fn: N.ILFunction,
                 globals_: Sequence[N.GlobalVar] = ()
                 ) -> Tuple[FlowGraph, UseDefChains]:
    """Build the flow graph and use-def chains for ``fn``."""
    graph = FlowGraph(fn)
    return graph, UseDefChains(graph, globals_)
