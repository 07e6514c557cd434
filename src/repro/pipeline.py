"""The Titan C compiler driver (section 2's strategy of compilation).

Phase order implements the paper's placement arguments:

1. front end (preprocess → parse → lower to IL);
2. inline expansion from the program and any procedure databases;
3. scalar optimization — copy propagation, **while→DO conversion**
   ("immediately after use-def chains have been constructed"),
   **induction-variable substitution**, **constant propagation** with
   unreachable-code elimination, forward substitution, dead-code
   elimination — iterated, since each enables the others;
4. vectorization and parallelization (Allen–Kennedy);
5. dependence-driven optimizations for the loops that did *not*
   vectorize (section 6): register pipelining and strength reduction,
   undoing IV-substitution damage on scalar loops;
6. final cleanup DCE.

Every stage can be dumped (``dump_stages``) — the golden tests compare
the dumps against the transcripts printed in the paper.

Steps 2 and 3 are the *mid end*; no option in :data:`BACK_END_OPTIONS`
reaches them.  A :class:`MidEnd` snapshot of a compile at that boundary
lets :meth:`TitanCompiler.resume` run another back end (another vector
length, processor count...) without repeating steps 1-3.
"""

from __future__ import annotations

import pickle
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .analysis.manager import FunctionAnalyses
from .frontend.lower import compile_to_il
from .il import nodes as N
from .il.printer import format_function, format_program
from .il.validate import validate_program, validate_unique_sids
from .inline import inliner
from .inline.database import InlineDatabase
from .inline.inliner import InlineOptions, InlineStats, inline_program
from .obs.counters import merge_stats, stats_field, stats_fields
from .obs.remarks import RemarkCollector
from .obs.trace import PassTracer, TraceEvent
from .opt import (cond_split, constprop, deadcode, if_convert, ivsub,
                  promote, regpipe, strength, utils, while_to_do)
from .opt.constprop import ConstPropStats, propagate_constants
from .opt.deadcode import DCEStats, eliminate_dead_code
from .opt.forward_sub import forward_substitute
from .opt.ivsub import IVSubStats, InductionVariableSubstitution
from .opt.while_to_do import WhileToDo, WhileToDoStats
from .sched.scheduler import LoopScheduler
from .titan.config import TitanConfig
from .titan.static import StaticCostEstimator
from .vectorize import listparallel, vectorizer
from .vectorize.vectorizer import (VectorizeOptions, VectorizeStats,
                                   Vectorizer)


@dataclass
class CompilerOptions:
    inline: bool = True
    scalar_opt: bool = True
    vectorize: bool = True
    parallelize: bool = True
    # If-conversion (section 5 prerequisite): predicate single-level
    # branchy DO-loop bodies into select merges so the vectorizer sees
    # straight-line code instead of bailing with ``control-flow``.
    if_convert: bool = True
    reg_pipeline: bool = True
    strength_reduction: bool = True
    vector_length: int = 32
    processors: int = 2
    fortran_pointer_semantics: bool = False
    strict_while_conversion: bool = False
    # Section 10 future work (implemented): spread linked-list loops
    # across processors.  Off by default — it asserts the paper's
    # "each motion down a pointer goes to independent storage".
    parallelize_lists: bool = False
    # Section 5.2's planned loop splitting: pull termination-criteria
    # computation into a serial chase so the work loop becomes a
    # counted (vectorizable) DO loop.  Sound (dependence-checked), so
    # on by default.
    split_termination: bool = True
    max_inline_statements: int = 500
    dump_stages: bool = False
    scalar_opt_rounds: int = 2
    # Observability: snapshot per-loop dependence graphs right before
    # vectorization (the graphs the Allen–Kennedy decision is made
    # from), for --dump-deps / --report-json.  Off by default — graph
    # construction per loop nest is pure overhead otherwise.
    collect_deps: bool = False


#: The options only the back end reads (from dependence export on, or
#: through ``TitanConfig``).  A denylist: any option not named here
#: keys the mid-end snapshot (:class:`MidEnd`), so a new option that a
#: scalar pass reads cannot be mistaken for one it does not.
BACK_END_OPTIONS = frozenset({
    "vectorize", "if_convert", "parallelize", "vector_length",
    "processors", "reg_pipeline",
    "strength_reduction", "parallelize_lists", "collect_deps",
    "fortran_pointer_semantics"})


def titan_config(options: CompilerOptions) -> TitanConfig:
    """The machine a compile with ``options`` runs on: its processor
    count, and its vector length as the maximum vector length.  Runs
    are charged under it, and the vectorizer prices its forks with
    it."""
    return TitanConfig(processors=options.processors,
                       max_vector_length=options.vector_length)


class PipelineHook:
    """Observe the pipeline pass-by-pass.

    The driver notifies every installed hook around each transforming
    pass: ``before_pass`` right before the pass runs (so a crash inside
    the pass can be attributed to it) and ``after_pass`` with the live,
    just-transformed program.  Pass names are the ``PASS_NAME``
    constants the pass modules export ("while-to-do", "ivsub",
    "constprop", ...); ``function`` is the function the pass ran on
    (empty for whole-program passes like the inliner) and ``round_no``
    is the 1-based scalar-optimization round.

    Hooks observe — they are the substrate for the per-pass semantic
    checker (:mod:`repro.check.checker`) and the miscompile bisector
    (:mod:`repro.check.bisect`) — but a hook *may* mutate the program
    (that is how :class:`repro.check.inject.InjectedBug` plants
    deliberate miscompiles for testing the bisector) provided it says
    so: after a hook with ``mutates_il = True`` the driver drops the
    function's cached analyses.  Observing hooks therefore see exactly
    the compile an unhooked run performs — same cached analyses, same
    solve counts — and with no hooks installed the pipeline takes the
    exact pre-hook code path: the default compile is observation-free.
    """

    #: Set on hooks whose ``after_pass`` edits the program.
    mutates_il = False

    def before_pass(self, name: str, function: str = "",
                    round_no: int = 0) -> None:
        """Called right before pass ``name`` runs."""

    def after_pass(self, name: str, program: N.ILProgram,
                   function: str = "", round_no: int = 0) -> None:
        """Called right after pass ``name`` transformed ``program``."""


@dataclass
class StageDump:
    stage: str
    text: str


@dataclass
class CompilationResult:
    program: N.ILProgram
    options: CompilerOptions
    stages: List[StageDump] = field(default_factory=list)
    # The statistics table: one field per pass, in phase order, naming
    # its pass.  The report's counters, the mid-end snapshot and
    # ``_merge`` read it (``repro.obs.counters.stats_fields``).
    inline_stats: Optional[InlineStats] = stats_field(
        inliner.PASS_NAME, default=None)
    while_to_do_stats: Dict[str, WhileToDoStats] = stats_field(
        while_to_do.PASS_NAME, default_factory=dict)
    cond_split_stats: Dict[str, object] = stats_field(
        cond_split.PASS_NAME, default_factory=dict)
    ivsub_stats: Dict[str, IVSubStats] = stats_field(
        ivsub.PASS_NAME, default_factory=dict)
    constprop_stats: Dict[str, ConstPropStats] = stats_field(
        constprop.PASS_NAME, default_factory=dict)
    dce_stats: Dict[str, DCEStats] = stats_field(
        deadcode.PASS_NAME, default_factory=dict)
    if_convert_stats: Dict[str, object] = stats_field(
        if_convert.PASS_NAME, default_factory=dict)
    vectorize_stats: Dict[str, VectorizeStats] = stats_field(
        vectorizer.PASS_NAME, default_factory=dict)
    listparallel_stats: Dict[str, object] = stats_field(
        listparallel.PASS_NAME, default_factory=dict)
    regpipe_stats: Dict[str, object] = stats_field(
        regpipe.PASS_NAME, default_factory=dict)
    promote_stats: Dict[str, object] = stats_field(
        promote.PASS_NAME, default_factory=dict)
    strength_stats: Dict[str, object] = stats_field(
        strength.PASS_NAME, default_factory=dict)
    # Loop schedules (sid -> LoopSchedule) captured pre-strength-
    # reduction; feed these to TitanSimulator(schedules=...).
    schedules: Dict[int, object] = field(default_factory=dict)
    # Observability: always collected (negligible cost, no output
    # unless asked for).  ``remarks`` is the per-decision stream the
    # CLI prints under --remarks; ``trace`` holds per-phase wall-time
    # and work spans exportable as Chrome trace JSON (--trace-json).
    remarks: RemarkCollector = field(default_factory=RemarkCollector)
    trace: PassTracer = field(default_factory=PassTracer)
    # Pre-vectorization dependence-graph exports (LoopDepExport), one
    # per innermost DO loop; populated when options.collect_deps.
    dep_graphs: List[object] = field(default_factory=list)
    # (analysis, "built" | "reused") -> requests the passes made of
    # the per-function analysis holders: the
    # ``titancc_analysis_solves_total`` family.
    analysis_solves: Counter = field(default_factory=Counter)
    # (pass, n) -> runs of the pass's fixed point that took n passes:
    # the ``titancc_pass_iterations`` histogram.
    pass_iterations: Counter = field(default_factory=Counter)

    def note_iterations(self, pass_name: str, function: str, count: int,
                        capped: bool) -> None:
        """One run of a pass-level fixed point (section 5.3: "worst
        case n passes, ~1 in practice"); ``capped`` when its bound, not
        convergence, ended it: correct code, maybe under-optimized."""
        self.pass_iterations[pass_name, count] += 1
        if capped:
            self.remarks.analysis(
                pass_name, function,
                f"fixed point stopped by its iteration bound after "
                f"{count} pass(es) with changes still pending "
                f"(section 5.3's worst case)", iterations=count)

    def stage_text(self, stage: str) -> str:
        for dump in self.stages:
            if dump.stage == stage:
                return dump.text
        raise KeyError(stage)

    def function_text(self, name: str) -> str:
        return format_function(self.program.functions[name])


@dataclass
class MidEnd:
    """A compile as the scalar rounds leave it — the state a back end
    starts from — owned by nobody else: a skeleton copy of the program
    (:func:`~repro.il.nodes.copy_program`; expressions and symbols are
    shared, being immutable past the inliner), copies of the remarks,
    statistics, stage dumps and the two tallies, the phase spans as
    ``(name, cat, args)``, and the sid the next statement draws.
    Remarks are shared records: nothing edits one once emitted."""

    program: N.ILProgram
    filename: str
    next_sid: int
    remarks: list
    spans: list
    stats: bytes  # the statistics, pickled: a copy per resume
    analysis_solves: Counter
    pass_iterations: Counter
    stages: List[StageDump]

    @classmethod
    def of(cls, result: CompilationResult) -> "MidEnd":
        return cls(
            program=N.copy_program(result.program),
            filename=result.remarks.filename,
            next_sid=N.sid_position(),
            remarks=list(result.remarks),
            spans=[(e.name, e.cat, dict(e.args))
                   for e in result.trace.events],
            stats=pickle.dumps({f.name: getattr(result, f.name)
                                for f in stats_fields(result)},
                               pickle.HIGHEST_PROTOCOL),
            analysis_solves=Counter(result.analysis_solves),
            pass_iterations=Counter(result.pass_iterations),
            stages=list(result.stages))

    def result(self, options: CompilerOptions) -> CompilationResult:
        """A fresh result to run a back end on, copied from this
        snapshot (which stays as it is), with the sid counter where
        the snapshot found it.  The spans carry no time: none was
        spent on them in this compile."""
        N.reset_sids(self.next_sid)
        result = CompilationResult(
            program=N.copy_program(self.program), options=options,
            remarks=RemarkCollector(self.filename),
            stages=list(self.stages),
            analysis_solves=Counter(self.analysis_solves),
            pass_iterations=Counter(self.pass_iterations),
            **pickle.loads(self.stats))
        result.remarks.remarks.extend(self.remarks)
        result.trace.events.extend(
            TraceEvent(name, cat, 0.0, 0.0, dict(args))
            for name, cat, args in self.spans)
        return result


class TitanCompiler:
    """Front door: C source in, optimized (possibly vector/parallel)
    IL program out, ready for the Titan simulator."""

    def __init__(self, options: Optional[CompilerOptions] = None,
                 database: Optional[InlineDatabase] = None,
                 hooks: Sequence[PipelineHook] = ()):
        self.options = options or CompilerOptions()
        self.database = database
        self.hooks: tuple = tuple(hooks)
        self._hooks_mutate = any(getattr(hook, "mutates_il", False)
                                 for hook in self.hooks)
        #: One analysis holder per function while a compile runs.
        self._holders: Dict[str, FunctionAnalyses] = {}
        #: The holder of the function a scalar round or the final DCE
        #: is working on (None anywhere else).
        self._analyses: Optional[FunctionAnalyses] = None

    # ------------------------------------------------------------------

    @contextmanager
    def _pass(self, name: str, program: N.ILProgram,
              function: str = "", round_no: int = 0):
        """Notify hooks around one pass.  With no hooks installed this
        is a no-op wrapper (the default path stays observation-free).
        If the pass raises, ``after_pass`` is *not* delivered — the
        pending ``before_pass`` is how the bisector attributes compiler
        crashes to the pass that was running."""
        for hook in self.hooks:
            hook.before_pass(name, function, round_no)
        yield
        for hook in self.hooks:
            hook.after_pass(name, program, function, round_no)
        if self._hooks_mutate:
            for holder in self._holders.values():
                holder.forget()

    def _examined(self, function: str, count: int) -> None:
        """A pass outside the scalar rounds examined ``count`` loops
        (or branches) of ``function``.  It reports nothing finer, so
        any forfeits what is held; none leaves it for the final DCE."""
        if count and function in self._holders:
            self._holders[function].forget()

    # ------------------------------------------------------------------

    def compile(self, source: str, filename: str = "<input>",
                headers: Optional[Dict[str, str]] = None
                ) -> CompilationResult:
        tracer = PassTracer()
        with tracer.span("front-end") as args:
            program = compile_to_il(source, filename, headers=headers)
            args["statements"] = _program_statements(program)
            args["functions"] = len(program.functions)
        return self.compile_program(program, filename=filename,
                                    tracer=tracer)

    def compile_program(self, program: N.ILProgram,
                        filename: str = "<input>",
                        tracer: Optional[PassTracer] = None, *,
                        on_mid_end: Optional[Callable[[MidEnd], None]]
                        = None) -> CompilationResult:
        """Optimize ``program`` in place.  ``on_mid_end`` receives a
        :class:`MidEnd` snapshot as the scalar rounds leave the compile,
        for :meth:`resume` to start another back end from — unless hooks
        are installed: they must see every pass, and a resumed compile
        runs none of the mid end's."""
        def work() -> CompilationResult:
            result = self._mid_end(program, filename, tracer)
            if on_mid_end is not None and not self.hooks:
                on_mid_end(MidEnd.of(result))
            return self._back_end(result)
        return self._releasing(work)

    def resume(self, mid_end: MidEnd) -> CompilationResult:
        """The back end on a copy of ``mid_end``: the result
        :meth:`compile_program` gives for the program the snapshot was
        taken from, provided this compiler's options differ from that
        compile's in :data:`BACK_END_OPTIONS` only.  Its analysis
        holders start empty, so ``analysis_solves`` may read ``built``
        where the full compile read ``reused``."""
        if self.hooks:
            raise ValueError("a resumed compile runs none of the mid "
                             "end's passes, which hooks must see")
        return self._releasing(
            lambda: self._back_end(mid_end.result(self.options)))

    def _releasing(self, work: Callable[[], CompilationResult]
                   ) -> CompilationResult:
        try:
            return work()
        finally:
            # Flow graphs are reference cycles; unlink what is held.
            for holder in self._holders.values():
                holder.invalidate()
            self._holders = {}

    def _mid_end(self, program: N.ILProgram, filename: str,
                 tracer: Optional[PassTracer]) -> CompilationResult:
        """Inline expansion and the scalar rounds: everything no
        :data:`BACK_END_OPTIONS` field can change (section 2's order)."""
        opts = self.options
        result = CompilationResult(program=program, options=opts,
                                   remarks=RemarkCollector(filename),
                                   trace=tracer or PassTracer())
        remarks = result.remarks
        trace = result.trace
        self._dump(result, "front-end")
        for hook in self.hooks:
            hook.after_pass("front-end", program)
        if opts.inline:
            with trace.span("inline") as args, \
                    self._pass("inline", program):
                result.inline_stats = inline_program(
                    program, self.database,
                    InlineOptions(
                        max_callee_statements=opts
                        .max_inline_statements),
                    remarks=remarks)
                args["sites_inlined"] = result.inline_stats.sites_inlined
                args["statements"] = _program_statements(program)
            # The inliner clones callee statements into callers; a
            # stale sid would corrupt schedules and profiles keyed on
            # program-wide statement identity.
            validate_unique_sids(program)
            self._dump(result, "inline")
        if opts.scalar_opt:
            for round_no in range(opts.scalar_opt_rounds):
                with trace.span(f"scalar-opt round {round_no + 1}") \
                        as args:
                    self._scalar_round(program, result, remarks,
                                       round_no + 1)
                    args["statements"] = _program_statements(program)
            self._dump(result, "scalar-opt")
        return result

    def _back_end(self, result: CompilationResult) -> CompilationResult:
        """Dependence export onward: vectorize, parallelize, the
        section 6 passes, the final DCE and validation."""
        opts = self.options
        program = result.program
        remarks = result.remarks
        trace = result.trace
        if opts.collect_deps:
            from .dependence.graph import AliasPolicy
            from .obs.depviz import collect_program_graphs
            with trace.span("dep-export") as args:
                result.dep_graphs = collect_program_graphs(
                    program,
                    AliasPolicy(
                        assume_no_alias=opts.fortran_pointer_semantics))
                args["loops_exported"] = len(result.dep_graphs)
        if opts.vectorize:
            if opts.if_convert:
                with trace.span("if-convert") as args:
                    for name, fn in program.functions.items():
                        with self._pass("if-convert", program, name):
                            istats = if_convert.if_convert_function(
                                fn, remarks=remarks)
                            self._examined(name, istats.examined)
                        _merge(result.if_convert_stats, name, istats)
                    args["ifs_converted"] = sum(
                        s.converted
                        for s in result.if_convert_stats.values())
            voptions = VectorizeOptions(
                vector_length=opts.vector_length,
                parallelize=opts.parallelize,
                assume_no_alias=opts.fortran_pointer_semantics,
                if_converted=opts.if_convert,
                config=titan_config(opts))
            with trace.span("vectorize") as args:
                for name, fn in program.functions.items():
                    with self._pass("vectorize", program, name):
                        stats = Vectorizer(program.symtab, voptions,
                                           remarks=remarks).run(fn)
                        self._examined(name, stats.loops_examined)
                        result.vectorize_stats[name] = stats
                args["loops_vectorized"] = sum(
                    s.loops_vectorized
                    for s in result.vectorize_stats.values())
                args["loops_parallelized"] = sum(
                    s.loops_parallelized
                    for s in result.vectorize_stats.values())
                args["statements"] = _program_statements(program)
            # The vectorizer rebuilds loop bodies as vector statements
            # and strip loops; re-check program-wide sid uniqueness on
            # the vector IL too.
            validate_unique_sids(program)
            self._dump(result, "vectorize")
        if opts.parallelize_lists:
            with trace.span("list-parallel") as args:
                for name, fn in program.functions.items():
                    with self._pass("list-parallel", program, name):
                        parallelizer = listparallel.ListParallelizer()
                        parallelizer.run(fn)
                        self._examined(
                            name, parallelizer.stats.loops_examined)
                        result.listparallel_stats[name] = \
                            parallelizer.stats
                args["statements"] = _program_statements(program)
            self._dump(result, "list-parallel")
        if opts.reg_pipeline or opts.strength_reduction:
            if opts.reg_pipeline:
                with trace.span("reg-pipeline") as args:
                    for name, fn in program.functions.items():
                        with self._pass("reg-pipeline", program, name):
                            pipe = regpipe.RegisterPipelining(
                                program.symtab, remarks=remarks)
                            pipe.run(fn)
                            self._examined(name,
                                           pipe.stats.loops_examined)
                            result.regpipe_stats[name] = pipe.stats
                    args["loads_replaced"] = sum(
                        s.loads_replaced
                        for s in result.regpipe_stats.values())
            # Schedules are derived while named-array dependence
            # information is still visible (section 6: the dependence
            # graph is "passed back to the code generation"); strength
            # reduction afterwards rewrites addresses to pointer bumps,
            # which would hide the aliasing structure.
            with trace.span("schedule") as args:
                scheduler = LoopScheduler(remarks=remarks)
                for name, fn in program.functions.items():
                    with self._pass("schedule", program, name):
                        scheduler.run(fn)
                result.schedules = scheduler.schedules
                args["loops_scheduled"] = len(result.schedules)
            if opts.reg_pipeline:
                with trace.span("promote") as args:
                    candidates = promote.promotable_globals(program)
                    estimator = StaticCostEstimator(
                        titan_config(opts), schedules=result.schedules)
                    for name, fn in program.functions.items():
                        with self._pass("promote", program, name):
                            promotion = promote.GlobalPromotion(
                                program.symtab, candidates, estimator,
                                remarks=remarks)
                            promotion.run(fn)
                            self._examined(
                                name, promotion.stats.loops_promoted)
                            result.promote_stats[name] = promotion.stats
                    args["globals_held"] = sum(
                        s.globals_held
                        for s in result.promote_stats.values())
            if opts.strength_reduction:
                with trace.span("strength-reduction") as args:
                    for name, fn in program.functions.items():
                        with self._pass("strength", program, name):
                            red = strength.StrengthReduction(
                                program.symtab, remarks=remarks)
                            red.run(fn)
                            self._examined(name,
                                           red.stats.loops_examined)
                            result.strength_stats[name] = red.stats
                    args["addresses_reduced"] = sum(
                        s.addresses_reduced
                        for s in result.strength_stats.values())
            self._dump(result, "dependence-opt")
        if opts.scalar_opt:
            with trace.span("final-dce") as args:
                for name, fn in program.functions.items():
                    with self._holding(fn, program, result) as analyses, \
                            self._pass("deadcode", program, name):
                        dstats = eliminate_dead_code(
                            fn, program.globals, analyses)
                    result.note_iterations("deadcode", name,
                                           dstats.iterations,
                                           dstats.capped)
                args["statements"] = _program_statements(program)
            self._dump(result, "final")
        with trace.span("validate"):
            validate_program(program)
        return result

    # ------------------------------------------------------------------

    @contextmanager
    def _holding(self, fn: N.ILFunction, program: N.ILProgram,
                 result: CompilationResult):
        """The compile's analysis holder for ``fn``, current while the
        driver works on the function."""
        analyses = self._holders.get(fn.name)
        if analyses is None:
            analyses = self._holders[fn.name] = FunctionAnalyses(
                fn, program.globals, result.analysis_solves)
        self._analyses = analyses
        try:
            yield analyses
        finally:
            self._analyses = None

    def _scalar_round(self, program: N.ILProgram,
                      result: CompilationResult,
                      remarks: Optional[RemarkCollector] = None,
                      round_no: int = 0) -> None:
        """One round over every function.  Constprop and DCE work off
        the function's analysis holder and keep it valid themselves;
        every other pass reports what it changed and the holder is told
        here on its behalf (section 5.2: build once, and rebuild only
        what a transformation disturbed)."""
        opts = self.options
        for name, fn in program.functions.items():
            with self._holding(fn, program, result) as analyses:
                # Copy propagation first, so while conditions that test a
                # front-end temp (`while (temp != 0)`) expose the variable.
                with self._pass("forward-sub", program, name, round_no):
                    analyses.expressions_rewritten(
                        _copy_propagate(fn, result))
                with self._pass("while-to-do", program, name, round_no):
                    wstats = WhileToDo(program.symtab,
                                       strict=opts.strict_while_conversion,
                                       remarks=remarks).run(fn)
                    analyses.invalidate(wstats.changed)
                _merge(result.while_to_do_stats, name, wstats)
                if opts.split_termination:
                    with self._pass("cond-split", program, name, round_no):
                        sstats = cond_split.TerminationSplitter(
                            program.symtab).run(fn)
                        analyses.invalidate(sstats.changed)
                    _merge(result.cond_split_stats, name, sstats)
                with self._pass("ivsub", program, name, round_no):
                    istats = InductionVariableSubstitution(
                        program.symtab, remarks=remarks).run(fn)
                    analyses.invalidate(istats.restructured)
                    analyses.expressions_rewritten(istats.changed)
                for sweeps, capped in istats.forward_sub_runs:
                    result.note_iterations("forward-sub", name, sweeps,
                                           capped)
                _merge(result.ivsub_stats, name, istats)
                with self._pass("constprop", program, name, round_no):
                    cstats = propagate_constants(fn, program.globals,
                                                 analyses=analyses)
                result.note_iterations("constprop", name, cstats.rounds,
                                       cstats.capped)
                _merge(result.constprop_stats, name, cstats)
                with self._pass("forward-sub", program, name, round_no):
                    analyses.expressions_rewritten(
                        _copy_propagate(fn, result))
                with self._pass("deadcode", program, name, round_no):
                    dstats = eliminate_dead_code(fn, program.globals, analyses)
                result.note_iterations("deadcode", name, dstats.iterations,
                                       dstats.capped)
                _merge(result.dce_stats, name, dstats)

    def _dump(self, result: CompilationResult, stage: str) -> None:
        if self.options.dump_stages:
            result.stages.append(
                StageDump(stage=stage,
                          text=format_program(result.program)))


def _copy_propagate(fn: N.ILFunction, result: CompilationResult) -> bool:
    """Conservative forward substitution over every statement list of
    ``fn``; reports whether anything was substituted (expressions
    only: substitution never adds, removes or moves a statement)."""
    changed = False
    for lst in utils.each_stmt_list(fn.body):
        stats = forward_substitute(lst, aggressive=False)
        changed |= stats.changed
        result.note_iterations("forward-sub", fn.name, stats.sweeps,
                               stats.capped)
    return changed


def _program_statements(program: N.ILProgram) -> int:
    """Total statement count across all functions (trace span metric)."""
    return sum(1 for fn in program.functions.values()
               for _ in fn.all_statements())


def _merge(store: Dict[str, object], name: str, stats: object) -> None:
    """Record a pass's run over function ``name``, adding its counters
    to an earlier round's."""
    prior = store.setdefault(name, stats)
    if prior is not stats:
        merge_stats(prior, stats)


def compile_c(source: str, options: Optional[CompilerOptions] = None,
              database: Optional[InlineDatabase] = None,
              headers: Optional[Dict[str, str]] = None,
              hooks: Sequence[PipelineHook] = ()) -> CompilationResult:
    """One-call convenience used by examples, tests, and benchmarks."""
    return TitanCompiler(options, database, hooks=hooks) \
        .compile(source, headers=headers)
