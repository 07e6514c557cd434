"""One analysis set per function (paper section 5.2).

The paper builds use-def chains once and *repairs* them, so the scalar
phase never reconstructs its analyses.  We keep the first half of that
bargain and make the second explicit: a :class:`FunctionAnalyses`
lazily builds the flow graph, liveness and use-def chains of one
function and hands the same objects to every pass that asks, until
someone reports a change.  The driver keeps one holder per function
for the whole compile, so round 2 and the final DCE start from what
round 1 left valid.  What a pass reports (DESIGN.md has the table of
who reports what):

* :meth:`expressions_rewritten` — statements kept their places, some
  expressions were replaced: the graph's shape stands; its def/use
  sets, liveness and chains go;
* :meth:`invalidate` — statements were added, removed or moved: the
  graph goes too;
* :meth:`forget` — someone outside the contract had the function (a
  ``mutates_il`` hook, a pass outside the scalar rounds): the alias
  set goes as well.

Constprop and DCE take the holder and report each of their own edits;
the driver reports for every other pass from its stats object.  The
alias set outlives the graphs because no scalar pass can make a
symbol aliased (they drop mentions or add compiler temporaries), so it
may be a *superset* of a fresh walk's — sound, and invisible: a symbol
nothing mentions has no definition and no use.

``counts`` records every request as ``(analysis, "built" | "reused")``
— plain integers, surfaced as ``titancc_analysis_solves_total``.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence, Set

from ..frontend.symtab import Symbol
from ..il import nodes as N
from .flowgraph import FlowGraph
from .liveness import Liveness
from .usedef import UseDefChains


class FunctionAnalyses:
    def __init__(self, fn: N.ILFunction,
                 globals_: Sequence[N.GlobalVar] = (),
                 counts: Optional[Counter] = None):
        self.fn = fn
        self.globals = globals_
        self.counts: Counter = Counter() if counts is None else counts
        self._aliased: Optional[Set[Symbol]] = None
        self._graph: Optional[FlowGraph] = None
        self._liveness: Optional[Liveness] = None
        self._chains: Optional[UseDefChains] = None

    def _count(self, analysis: str, cached: object) -> None:
        outcome = "built" if cached is None else "reused"
        self.counts[analysis, outcome] += 1

    def _flowgraph(self, requested: bool = False) -> FlowGraph:
        """The graph; a solve sharing the cached one is not a request."""
        if requested or self._graph is None:
            self._count("flowgraph", self._graph)
        if self._graph is None:
            # The first graph walks the function for its alias set.
            self._graph = FlowGraph(self.fn, self._aliased)
            self._aliased = self._graph.aliased
        return self._graph

    @property
    def graph(self) -> FlowGraph:
        return self._flowgraph(requested=True)

    @property
    def liveness(self) -> Liveness:
        self._count("liveness", self._liveness)
        if self._liveness is None:
            self._liveness = Liveness(self._flowgraph(), self.globals)
        return self._liveness

    @property
    def chains(self) -> UseDefChains:
        self._count("usedef", self._chains)
        if self._chains is None:
            self._chains = UseDefChains(self._flowgraph(), self.globals)
        return self._chains

    @property
    def cached(self) -> tuple:
        """``(graph, liveness, chains)`` as currently held — ``None``
        for whatever is not built.  Looking does not count or build."""
        return self._graph, self._liveness, self._chains

    def expressions_rewritten(self, changed: bool = True) -> None:
        """Expressions of the function were replaced, every statement
        still where it was."""
        if changed and self._graph is not None:
            self._graph.expressions_rewritten()
            self._liveness = self._chains = None

    def invalidate(self, changed: bool = True) -> None:
        """The function's structure changed (or may have): drop graph
        and solves.  The graph is unlinked, not just forgotten — see
        :meth:`FlowGraph.close`."""
        if changed and self._graph is not None:
            self._graph.close()
            self._graph = self._liveness = self._chains = None

    def forget(self) -> None:
        """Someone outside the holder's contract had the function."""
        self.invalidate()
        self._aliased = None
