"""The differential harness: one program, many option points, one
semantic oracle.

The reference semantics of a program is what the :class:`Interpreter`
computes on the *unoptimized* IL (front end only).  Every other
compilation — scalar-opt-only, the full pipeline, a
``vector_length``/``processors`` sweep — must produce IL that the same
interpreter drives to the same ``main()`` return value, and for
parallel loops the result must also be independent of the iteration
order (forward / reverse / shuffle).

The harness is also an *engine* differential: the reference runs on
the tree-walking oracle (``engine="tree"``) while every variant runs
on the fast engine by default, so each fuzz program cross-checks the
execution engines on top of the optimization sweep.  What the fast
engine generates depends on the cost hook it observes, so
``engine="all"`` runs each variant on both halves — uninstrumented
(observation-free generated code) and under a
:class:`~repro.titan.cost_model.TitanCostModel` (generated code with
inline accounting, compared field by field with the tree oracle under
the same model).  Under any other hook the fast engine runs the tree
oracle itself, so there is nothing further to compare; pass
``engine="tree"`` to take the fast engine out of the loop when
bisecting a failure.

Exception classification is the second half of the oracle.  The
diagnostic types in :data:`CLEAN_REJECTIONS` are the front end doing
its job on invalid input; anything else escaping ``compile`` is a
compiler crash bug, and any exception from a *variant* of a program
the reference accepted — including a "clean" diagnostic — is a
pipeline bug.  This is the same classification the hypothesis
robustness property in ``tests/test_properties.py`` enforces.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..frontend.ctypes_ import TypeError_
from ..frontend.lexer import LexError
from ..frontend.lower import LoweringError, compile_to_il
from ..frontend.parser import ParseError
from ..frontend.preprocessor import PreprocessorError
from ..frontend.symtab import SymbolError
from ..interp.interpreter import make_interpreter
from ..jobs import TaskOutcome, run_ordered
from ..obs.metrics import MetricsRegistry
from ..pipeline import CompilerOptions, compile_c
from ..sched.scheduler import schedule_program
from ..titan.config import TitanConfig
from ..titan.cost_model import TitanCostModel
from .generator import GeneratedProgram, GeneratorOptions, \
    generate_program

#: Generated-source-size histogram bounds (bytes).  Fixed so worker
#: registries always merge (matching bounds are required).
SOURCE_BYTES_BUCKETS = (128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0,
                        8192.0)

#: Exceptions that are legitimate diagnostics for invalid input.
CLEAN_REJECTIONS = (LexError, ParseError, LoweringError,
                    PreprocessorError, SymbolError, TypeError_)


def classify_exception(exc: BaseException) -> str:
    """``"reject"`` for a clean front-end diagnostic, ``"crash"`` for
    anything else (an internal error escaping the compiler)."""
    return "reject" if isinstance(exc, CLEAN_REJECTIONS) else "crash"


#: Suffix selecting the fast engine's costed half: the engine under the
#: Titan cost model, i.e. generated code with inline accounting.
_COSTED = "+cost"


def resolve_engines(engine: str) -> Tuple[str, ...]:
    """The engine runs one ``engine`` selector puts variants through:
    ``"all"`` means both halves of the fast engine (``compiled`` and
    ``compiled+cost``), anything else is a single engine name
    (validated by :func:`make_interpreter` at run time)."""
    if engine == "all":
        return ("compiled", "compiled" + _COSTED)
    return (engine,)


# ---------------------------------------------------------------------------
# Option points
# ---------------------------------------------------------------------------


def _o0() -> CompilerOptions:
    return CompilerOptions(inline=False, scalar_opt=False,
                           vectorize=False, parallelize=False,
                           reg_pipeline=False, strength_reduction=False,
                           split_termination=False)


def _scalar_only() -> CompilerOptions:
    return CompilerOptions(inline=False, scalar_opt=True,
                           vectorize=False, parallelize=False,
                           reg_pipeline=False,
                           strength_reduction=False)


def option_points(vector_lengths: Sequence[int] = (4, 32),
                  processors: Sequence[int] = (1, 3)
                  ) -> List[Tuple[str, CompilerOptions]]:
    """The compilation configurations every program is checked at."""
    points: List[Tuple[str, CompilerOptions]] = [
        ("O0", _o0()),
        ("scalar", _scalar_only()),
        ("inline+scalar", CompilerOptions(vectorize=False,
                                          parallelize=False,
                                          reg_pipeline=False,
                                          strength_reduction=False)),
        ("full", CompilerOptions()),
    ]
    for vl in vector_lengths:
        for procs in processors:
            points.append((f"full-vl{vl}-p{procs}",
                           CompilerOptions(vector_length=vl,
                                           processors=procs)))
    return points


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class VariantResult:
    name: str
    status: str  # "ok" | "reject" | "crash" | "divergence"
    value: Optional[int] = None
    phase: str = ""       # "compile" | "run" for failures
    error_type: str = ""
    error: str = ""
    #: Bisection verdict (a ``titancc-bisect/1`` document) attached to
    #: failing variants when the harness runs with bisection enabled.
    culprit: Optional[dict] = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class DifferentialResult:
    """The outcome of one program across every option point."""

    name: str
    source: str
    status: str  # "ok" | "reject" | "crash" | "divergence"
    reference: Optional[VariantResult] = None
    variants: List[VariantResult] = field(default_factory=list)
    seed: Optional[int] = None
    #: Wall time spent executing programs, keyed by engine name
    #: ("tree" is the reference run).  Deliberately excluded from
    #: :meth:`to_dict` — wall times are nondeterministic and the
    #: per-program JSON must stay byte-stable across ``--jobs``.
    engine_seconds: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.status in ("crash", "divergence")

    def failing_variants(self) -> List[VariantResult]:
        return [v for v in self.variants if v.status != "ok"]

    def signature(self) -> str:
        """A stable failure identity used by the reducer: the reduced
        program must fail the same way, not just fail."""
        if self.status == "ok":
            return "ok"
        if self.reference is not None and self.reference.status != "ok":
            return (f"{self.status}:reference:"
                    f"{self.reference.error_type}")
        worst = next((v for v in self.variants
                      if v.status == self.status), None)
        if worst is None:
            return self.status
        return f"{self.status}:{worst.phase}:{worst.error_type}"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "status": self.status,
            "signature": self.signature(),
            "reference": None if self.reference is None
            else self.reference.to_dict(),
            "variants": [v.to_dict() for v in self.variants],
        }


# ---------------------------------------------------------------------------
# Running one program
# ---------------------------------------------------------------------------


def _run_program(program, max_steps: int, order: str = "forward",
                 engine: str = "compiled",
                 timings: Optional[dict] = None) -> int:
    interp = make_interpreter(program, engine=engine,
                              max_steps=max_steps, parallel_order=order,
                              seed=7)
    start = time.perf_counter()
    try:
        value = interp.run("main")
    finally:
        if timings is not None:
            timings[engine] = (timings.get(engine, 0.0)
                               + time.perf_counter() - start)
    return 0 if value is None else int(value)


def _observe_costed(program, config: TitanConfig, schedules: dict,
                    max_steps: int, order: str, engine: str,
                    timings: Optional[dict], label: str) -> tuple:
    """One run under a fresh Titan cost model: everything the model
    and the engine let a simulation report."""
    model = TitanCostModel(config, schedules)
    interp = make_interpreter(program, engine=engine,
                              max_steps=max_steps, parallel_order=order,
                              seed=7, cost_hook=model)
    start = time.perf_counter()
    try:
        value = interp.run("main")
    finally:
        if timings is not None:
            timings[label] = (timings.get(label, 0.0)
                              + time.perf_counter() - start)
    return (0 if value is None else int(value), interp.stdout,
            interp.steps, model.cycles, model.counters,
            model.breakdown, model.parallel_adjust)


_COSTED_FIELDS = ("result", "stdout", "steps", "cycles", "counters",
                  "breakdown", "parallel_adjust")


def run_costed(program, options: CompilerOptions, max_steps: int,
               order: str = "forward", engine: str = "compiled+cost",
               timings: Optional[dict] = None) -> Tuple[int, str]:
    """The costed half: tree and fast engine, each under its own
    :class:`TitanCostModel` (same configuration, same loop schedules).
    Returns the fast engine's ``main()`` value and the name of the
    first field it disagrees with the oracle on — exactly, cycles
    included — or ``""``."""
    config = TitanConfig(processors=options.processors,
                         max_vector_length=options.vector_length)
    schedules = schedule_program(program, config)
    name = engine.partition(_COSTED)[0]
    oracle = _observe_costed(program, config, schedules, max_steps,
                             order, "tree", timings, "tree")
    fast = _observe_costed(program, config, schedules, max_steps,
                           order, name, timings, engine)
    differs = next((field for field, a, b
                    in zip(_COSTED_FIELDS, oracle, fast) if a != b), "")
    return fast[0], differs


def run_source(source: str, name: str = "<fuzz>",
               points: Optional[List[Tuple[str, CompilerOptions]]]
               = None,
               max_steps: int = 2_000_000,
               seed: Optional[int] = None,
               engine: str = "compiled",
               check_passes: bool = False,
               bisect_failures: bool = True) -> DifferentialResult:
    """Differentially test one C source string.

    The reference is the unoptimized front-end IL run on the
    tree-walking oracle; a reference-level clean diagnostic classifies
    the whole program as ``reject`` (the variants are then skipped —
    invalid input has no semantics to compare).  ``engine`` selects
    the execution engine(s) for the *variants* only, so the default
    configuration differentially tests both the optimizer and the
    fast engine against the oracle; ``engine="all"`` runs both
    halves of the fast engine over each variant (see
    :func:`resolve_engines`), and a failing run's variant name
    carries a ``#engine`` suffix naming the half that disagreed.
    Per-engine wall times accumulate in the result's
    ``engine_seconds``.

    ``check_passes`` compiles every variant with a
    :class:`~repro.check.checker.PassChecker` installed: each pass's
    output is re-validated and executed on the tree oracle, so a
    miscompile is caught (and attributed) at the first guilty pass
    even when later passes happen to mask it end-to-end.
    ``bisect_failures`` replays the first failing variant of an
    end-to-end failure through the bisector so the result's JSON
    carries a ``titancc-bisect/1`` culprit document.
    """
    result = DifferentialResult(name=name, source=source, status="ok",
                                seed=seed)
    try:
        ref_program = compile_to_il(source, name)
        ref_value = _run_program(ref_program, max_steps,
                                 engine="tree",
                                 timings=result.engine_seconds)
    except Exception as exc:  # noqa: BLE001 — classification is the point
        status = classify_exception(exc)
        result.status = status
        result.reference = VariantResult(
            name="reference", status=status, phase="compile",
            error_type=type(exc).__name__, error=str(exc))
        return result
    result.reference = VariantResult(name="reference", status="ok",
                                     value=ref_value)

    pts = points or option_points()
    for point_name, options in pts:
        variant = _run_variant(source, name, point_name, options,
                               ref_value, max_steps, engine,
                               check_passes=check_passes,
                               timings=result.engine_seconds)
        result.variants.append(variant)
    if any(v.status == "crash" for v in result.variants):
        result.status = "crash"
    elif any(v.status in ("divergence", "reject")
             for v in result.variants):
        # A rejection of a program the reference accepted is a
        # pipeline bug, not a diagnostic: treat it as a divergence
        # from the reference's "this program is valid" verdict.
        result.status = "divergence"
    if bisect_failures and result.failed:
        _bisect_first_failure(result, pts, max_steps, engine)
    return result


def _run_variant(source: str, name: str, point_name: str,
                 options: CompilerOptions, ref_value: int,
                 max_steps: int,
                 engine: str = "compiled",
                 check_passes: bool = False,
                 timings: Optional[dict] = None) -> VariantResult:
    checker = None
    hooks: tuple = ()
    if check_passes:
        from ..check.checker import PassChecker
        # collect_deps so a conviction can carry the dependence edges
        # the guilty pass decided from.
        options = dataclasses.replace(options, collect_deps=True)
        checker = PassChecker(max_steps=max_steps)
        hooks = (checker,)
    try:
        compiled = compile_c(source, options, hooks=hooks)
    except Exception as exc:  # noqa: BLE001
        variant = VariantResult(name=point_name,
                                status=classify_exception(exc),
                                phase="compile",
                                error_type=type(exc).__name__,
                                error=str(exc))
        if checker is not None and variant.status == "crash":
            from ..check.bisect import crash_report
            variant.culprit = crash_report(point_name, checker,
                                           exc).to_dict()
        return variant
    if checker is not None:
        from ..check.bisect import report_from_checker
        report = report_from_checker(point_name, checker, compiled)
        if report.status == "culprit":
            return VariantResult(name=point_name, status="divergence",
                                 phase="pass-check",
                                 error=report.reason,
                                 culprit=report.to_dict())
    # Parallel loops must be iteration-order independent; the sweep
    # would be meaningless if we only ever ran them forward.
    orders = ("forward", "reverse", "shuffle") \
        if options.parallelize else ("forward",)
    engines = resolve_engines(engine)
    for order in orders:
        for eng in engines:
            # The engine suffix only appears in multi-engine mode so
            # single-engine variant names stay stable for existing
            # reproducers and reducers.
            label = (f"{point_name}@{order}#{eng}"
                     if len(engines) > 1
                     else f"{point_name}@{order}")
            differs = ""
            try:
                if eng.endswith(_COSTED):
                    value, differs = run_costed(
                        compiled.program, options, max_steps, order,
                        eng, timings)
                else:
                    value = _run_program(compiled.program, max_steps,
                                         order, eng, timings=timings)
            except Exception as exc:  # noqa: BLE001
                return VariantResult(name=label,
                                     status="crash", phase="run",
                                     error_type=type(exc).__name__,
                                     error=str(exc))
            if differs:
                return VariantResult(
                    name=label, status="divergence", value=value,
                    phase="run",
                    error=f"cost model {differs} differs from the "
                          f"tree oracle's")
            if value != ref_value:
                return VariantResult(name=label,
                                     status="divergence", value=value,
                                     phase="run")
    return VariantResult(name=point_name, status="ok", value=ref_value)


def _bisect_first_failure(result: DifferentialResult,
                          points: List[Tuple[str, CompilerOptions]],
                          max_steps: int, engine: str) -> None:
    """Attach a ``titancc-bisect/1`` culprit document to the first
    failing variant that does not already carry one (variants that
    failed a pass check were attributed during the compile itself)."""
    from ..check.bisect import bisect_source
    by_name = dict(points)
    for variant in result.variants:
        if variant.status == "ok" or variant.culprit is not None:
            continue
        point_name, _, tail = variant.name.partition("@")
        order, _, failed_engine = tail.partition("#")
        options = by_name.get(point_name)
        if options is None:
            continue
        # In "all" mode the #engine suffix names the engine half that
        # disagreed; replay the bisection on that engine.  A
        # compile-time failure has no suffix — any engine will do.
        failed_engine = (failed_engine
                         or resolve_engines(engine)[0]
                         ).partition("+")[0]
        report = bisect_source(result.source, options,
                               name=f"{result.name}:{variant.name}",
                               max_steps=max_steps,
                               parallel_order=order or "forward",
                               engine=failed_engine)
        variant.culprit = report.to_dict()
        return


# ---------------------------------------------------------------------------
# Fuzzing loops
# ---------------------------------------------------------------------------


@dataclass
class FuzzReport:
    seed: int
    count: int
    ok: int = 0
    rejected: int = 0
    divergences: int = 0
    crashes: int = 0
    failures: List[DifferentialResult] = field(default_factory=list)
    #: Aggregate wall time per execution engine across every program
    #: (``"tree"`` is the reference).  Kept out of :meth:`to_dict`:
    #: the report JSON stays deterministic; the CLI publishes these
    #: separately as ``summary["engine_timings"]``.
    engine_seconds: dict = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return self.divergences == 0 and self.crashes == 0

    def to_dict(self) -> dict:
        from ..obs import schemas
        return {
            "schema": schemas.FUZZ,
            "seed": self.seed,
            "count": self.count,
            "ok": self.ok,
            "rejected": self.rejected,
            "divergences": self.divergences,
            "crashes": self.crashes,
            "failures": [f.to_dict() for f in self.failures],
        }


def fuzz(seed: int, count: int,
         generator_options: Optional[GeneratorOptions] = None,
         points: Optional[List[Tuple[str, CompilerOptions]]] = None,
         max_steps: int = 2_000_000,
         on_result: Optional[Callable[[DifferentialResult], None]]
         = None,
         engine: str = "compiled",
         check_passes: bool = False,
         registry: Optional["MetricsRegistry"] = None) -> FuzzReport:
    """Generate ``count`` programs from consecutive seeds and test
    each differentially.  Generated programs are valid by construction,
    so a reference-level rejection counts as a failure too: either the
    generator or the front end is wrong, and both are worth a look.

    ``registry`` (optional) collects run metrics.  Only deterministic
    observations go in — program/variant outcome counts and source-size
    histograms, never wall times — so a parallel run's merged registry
    is byte-identical to the sequential run's (the cross-process
    determinism the fuzz tests pin down)."""
    report = FuzzReport(seed=seed, count=count)
    for offset in range(count):
        program: GeneratedProgram = generate_program(
            seed + offset, generator_options)
        result = run_source(program.source,
                            name=f"seed-{program.seed}",
                            points=points, max_steps=max_steps,
                            seed=program.seed, engine=engine,
                            check_passes=check_passes)
        if result.status == "ok":
            report.ok += 1
        elif result.status == "reject":
            report.rejected += 1
            report.failures.append(result)
        elif result.status == "divergence":
            report.divergences += 1
            report.failures.append(result)
        else:
            report.crashes += 1
            report.failures.append(result)
        for eng, seconds in result.engine_seconds.items():
            report.engine_seconds[eng] = (
                report.engine_seconds.get(eng, 0.0) + seconds)
        if registry is not None:
            _observe_result(registry, program, result)
        if on_result is not None:
            on_result(result)
    return report


def _observe_result(registry: "MetricsRegistry",
                    program: GeneratedProgram,
                    result: DifferentialResult) -> None:
    """Record one program's deterministic metrics."""
    registry.counter("titancc_fuzz_programs_total",
                     {"status": result.status}).inc()
    for variant in result.variants:
        point = variant.name.partition("@")[0]
        registry.counter("titancc_fuzz_variants_total",
                         {"point": point,
                          "status": variant.status}).inc()
    registry.histogram("titancc_fuzz_source_bytes",
                       buckets=SOURCE_BYTES_BUCKETS) \
        .observe(float(len(program.source)))


def seed_chunks(seed: int, count: int, jobs: int
                ) -> List[Tuple[int, int]]:
    """Split ``count`` consecutive seeds into ``jobs`` contiguous
    ``(start_seed, count)`` chunks.  Contiguity is what makes the
    parallel run a pure repartition of the sequential one: every seed
    is tested exactly once, by exactly one worker."""
    jobs = max(1, min(jobs, count))
    base, extra = divmod(count, jobs)
    chunks: List[Tuple[int, int]] = []
    start = seed
    for index in range(jobs):
        size = base + (1 if index < extra else 0)
        if size:
            chunks.append((start, size))
            start += size
    return chunks


def _fuzz_worker(task: tuple) -> Tuple[FuzzReport, dict]:
    """Pool entry point: run one seed chunk and return its report plus
    its metrics-registry snapshot (deterministic observations only).
    Wall time comes from the jobs layer (:class:`TaskOutcome`)."""
    (seed, count, generator_options, points, max_steps,
     engine, check_passes) = task
    registry = MetricsRegistry()
    report = fuzz(seed, count, generator_options=generator_options,
                  points=points, max_steps=max_steps, engine=engine,
                  check_passes=check_passes, registry=registry)
    return report, registry.to_dict()


def fuzz_parallel(seed: int, count: int, jobs: int,
                  generator_options: Optional[GeneratorOptions] = None,
                  points: Optional[List[Tuple[str, CompilerOptions]]]
                  = None,
                  max_steps: int = 2_000_000,
                  engine: str = "compiled",
                  check_passes: bool = False,
                  on_chunk: Optional[
                      Callable[[FuzzReport, float], None]] = None
                  ) -> Tuple[FuzzReport, List[dict], MetricsRegistry]:
    """Like :func:`fuzz`, fanned out over ``jobs`` worker processes.

    Seeds are split into contiguous chunks (:func:`seed_chunks`) and
    the per-chunk reports and metrics registries are merged back *in
    seed order*, so the merged report and registry are byte-identical
    to a sequential :func:`fuzz` run over the same range no matter how
    the workers were scheduled.  Returns the merged report, one
    ``{"seed", "count", "seconds", "failures"}`` timing entry per
    worker (in seed order) for the summary artifact, and the merged
    :class:`MetricsRegistry`.  ``on_chunk`` fires in the parent as
    each worker finishes (completion order), for progress reporting.
    """
    chunks = seed_chunks(seed, count, jobs)
    tasks = [(start, size, generator_options, points, max_steps,
              engine, check_passes) for start, size in chunks]

    def completed(outcome: TaskOutcome) -> None:
        if on_chunk is not None and outcome.ok:
            on_chunk(outcome.value[0], outcome.seconds)

    outcomes = run_ordered(_fuzz_worker, tasks, jobs=len(chunks),
                           on_complete=completed)
    for outcome in outcomes:
        if not outcome.ok:
            # A worker *function* failure is a harness bug, not a fuzz
            # finding — surface it loudly rather than under-counting.
            raise RuntimeError(
                f"fuzz worker for chunk {chunks[outcome.index]} "
                f"failed: {outcome.error['type']}: "
                f"{outcome.error['message']}")

    merged = FuzzReport(seed=seed, count=count)
    metrics = MetricsRegistry()
    timings: List[dict] = []
    for outcome in outcomes:
        (chunk_report, snapshot), seconds = outcome.value, \
            outcome.seconds
        merged.ok += chunk_report.ok
        merged.rejected += chunk_report.rejected
        merged.divergences += chunk_report.divergences
        merged.crashes += chunk_report.crashes
        merged.failures.extend(chunk_report.failures)
        for eng, eng_seconds in chunk_report.engine_seconds.items():
            merged.engine_seconds[eng] = (
                merged.engine_seconds.get(eng, 0.0) + eng_seconds)
        metrics.merge(snapshot)
        timings.append({"seed": chunk_report.seed,
                        "count": chunk_report.count,
                        "seconds": seconds,
                        "failures": len(chunk_report.failures)})
    return merged, timings, metrics
