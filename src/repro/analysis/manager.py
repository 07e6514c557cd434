"""One analysis set per function (paper section 5.2).

The paper builds use-def chains once and *repairs* them, so the scalar
phase never reconstructs its analyses.  We keep the first half of that
bargain and make the second explicit: a :class:`FunctionAnalyses`
lazily builds the flow graph, liveness and use-def chains of one
function and hands the same objects to every pass that asks, until
someone says the function changed.  The contract for a pass:

* a pass that takes the holder (constprop, DCE) calls
  :meth:`~FunctionAnalyses.invalidate` itself, right after each
  mutation, so what it leaves behind is valid for the next pass;
* any other pass reports ``changed`` on its stats object and the driver
  (``TitanCompiler._scalar_round``) invalidates on its behalf;
* a :class:`~repro.pipeline.PipelineHook` that edits the program
  declares ``mutates_il = True`` and the driver invalidates after it.

``counts`` records every request as ``(analysis, "built" | "reused")``
— plain integers, surfaced as ``titancc_analysis_solves_total``.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence

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
            self._graph = FlowGraph(self.fn)
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

    def invalidate(self, changed: bool = True) -> None:
        """The function changed (or may have): drop everything.  The
        graph is unlinked, not just forgotten — see
        :meth:`FlowGraph.close`."""
        if changed and self._graph is not None:
            self._graph.close()
            self._graph = self._liveness = self._chains = None

    def __enter__(self) -> "FunctionAnalyses":
        return self

    def __exit__(self, *exc_info) -> None:
        self.invalidate()
