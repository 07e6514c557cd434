"""Automatic miscompile bisection.

Given any failing program — a fuzzer divergence or a hand-written
reproducer — :func:`bisect_source` recompiles it with a
:class:`~repro.check.checker.PassChecker` installed and convicts the
*first* pass whose output either breaks an IL invariant or computes a
different answer than the front-end baseline on the tree oracle.  The
verdict is a :class:`CulpritReport` (schema ``titancc-bisect/1``)
carrying everything a human needs to start debugging:

* the guilty pass name (from the pass modules' ``PASS_NAME``
  vocabulary), the function it ran on, and the scalar round;
* a unified diff of the IL printer output immediately before vs
  immediately after the guilty pass;
* the optimization remarks that pass emitted for that function (why
  it believed the transformation was legal);
* the dependence-graph exports for that function's loops (the edges
  the decision was made from), collected via ``collect_deps``;
* the full per-pass snapshot table.

Verdict statuses:

``clean``
    every snapshot validated and matched the baseline (and, when an
    engine cross-check was requested, the engine agreed too);
``culprit``
    a pass broke validation or changed semantics — the report names it;
``compile-crash``
    the compiler itself raised; the pending ``before_pass`` without a
    matching ``after_pass`` attributes the crash;
``reference-error``
    the front-end baseline itself failed to execute (bad input
    program, step-budget exhaustion) — nothing to bisect against;
``engine``
    every pass is innocent but the requested execution engine
    disagrees with the tree oracle on the final IL: the bug is in the
    engine, not the optimizer.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from ..pipeline import (CompilerOptions, PipelineHook, TitanCompiler)
from .checker import PassChecker, PassSnapshot, outcome_differs

from ..obs import schemas

BISECT_SCHEMA = schemas.BISECT

#: Checker/registry pass names -> the names the same pass uses in its
#: remark stream (kept distinct historically; reports bridge the gap).
_REMARK_ALIASES: Dict[str, tuple] = {
    "reg-pipeline": ("reg-pipeline", "regpipe"),
}


def _remark_names(pass_name: str) -> tuple:
    return _REMARK_ALIASES.get(pass_name, (pass_name,))


@dataclass
class CulpritReport:
    """Machine-readable bisection verdict (schema ``titancc-bisect/1``)."""

    name: str
    status: str  # clean | culprit | compile-crash | reference-error | engine
    reason: str = ""
    guilty_pass: str = ""
    function: str = ""
    round_no: int = 0
    diff: str = ""
    validation_error: str = ""
    baseline_outcome: Optional[dict] = None
    culprit_outcome: Optional[dict] = None
    engine_outcome: Optional[dict] = None
    remarks: List[dict] = field(default_factory=list)
    dep_graphs: List[dict] = field(default_factory=list)
    passes: List[dict] = field(default_factory=list)
    error: str = ""

    def to_dict(self) -> dict:
        return {
            "schema": BISECT_SCHEMA,
            "name": self.name,
            "status": self.status,
            "reason": self.reason,
            "guilty_pass": self.guilty_pass,
            "function": self.function,
            "round": self.round_no,
            "diff": self.diff,
            "validation_error": self.validation_error,
            "baseline_outcome": self.baseline_outcome,
            "culprit_outcome": self.culprit_outcome,
            "engine_outcome": self.engine_outcome,
            "remarks": self.remarks,
            "dep_graphs": self.dep_graphs,
            "passes": self.passes,
            "error": self.error,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def format(self) -> str:
        """Human one-screen summary (the ``--bisect`` stderr output)."""
        lines = [f"/* bisect: {self.name} */",
                 f"status: {self.status}"]
        if self.guilty_pass:
            where = f" in {self.function}" if self.function else ""
            rnd = f" (round {self.round_no})" if self.round_no else ""
            lines.append(f"guilty pass: {self.guilty_pass}{where}{rnd}")
        if self.reason:
            lines.append(f"reason: {self.reason}")
        if self.validation_error:
            lines.append(f"validation: {self.validation_error}")
        if self.error:
            lines.append(f"error: {self.error}")
        if self.diff:
            lines.append("")
            lines.append(self.diff.rstrip("\n"))
        return "\n".join(lines)


def _snapshot_diff(before: Optional[PassSnapshot],
                   after: PassSnapshot) -> str:
    old = before.text if before is not None else ""
    old_label = before.label if before is not None else "<empty>"
    return "".join(difflib.unified_diff(
        old.splitlines(keepends=True),
        after.text.splitlines(keepends=True),
        fromfile=f"before {after.label} ({old_label})",
        tofile=f"after {after.label}"))


def _remark_dicts(result, pass_name: str, function: str) -> List[dict]:
    names = set(_remark_names(pass_name))
    picked = []
    for remark in result.remarks:
        if remark.pass_name not in names:
            continue
        if function and remark.function != function:
            continue
        picked.append({"pass": remark.pass_name, "kind": remark.kind,
                       "function": remark.function,
                       "message": remark.message, "sid": remark.sid,
                       "line": remark.line})
    return picked


def _dep_dicts(result, function: str) -> List[dict]:
    return [export.to_json() for export in result.dep_graphs
            if not function or export.function == function]


def report_from_checker(name: str, checker: PassChecker,
                        result=None) -> CulpritReport:
    """Build the verdict from a checker that already observed a
    compile.  ``result`` (the :class:`CompilationResult`) supplies the
    remarks and dependence exports attached to a conviction; without
    it the report still names the culprit and carries the diff."""
    report = CulpritReport(name=name, status="clean",
                           passes=checker.to_records())
    base = checker.baseline
    if base is not None and base.outcome is not None:
        report.baseline_outcome = base.outcome.to_dict()
    culprit = checker.first_divergence()
    if culprit is not None:
        report.status = "culprit"
        report.guilty_pass = culprit.pass_name
        report.function = culprit.function
        report.round_no = culprit.round_no
        report.validation_error = culprit.validation_error
        if culprit.outcome is not None:
            report.culprit_outcome = culprit.outcome.to_dict()
        if not culprit.valid:
            report.reason = ("pass output failed IL validation: "
                             + culprit.validation_error)
        else:
            report.reason = ("execution diverges from the front-end "
                             "baseline after this pass")
        report.diff = _snapshot_diff(checker.snapshot_before(culprit),
                                     culprit)
        if result is not None:
            report.remarks = _remark_dicts(result, culprit.pass_name,
                                           culprit.function)
            report.dep_graphs = _dep_dicts(result, culprit.function)
        return report
    if base is not None and base.outcome is not None \
            and base.outcome.status == "error":
        report.status = "reference-error"
        report.reason = ("front-end baseline failed to execute "
                         f"({base.outcome.error_type}); nothing to "
                         "bisect against")
        return report
    report.reason = "all pass snapshots validate and match the baseline"
    return report


def crash_report(name: str, checker: PassChecker,
                 exc: BaseException) -> CulpritReport:
    """Attribute a compiler crash to the pass that was running (the
    pending ``before_pass`` that never delivered ``after_pass``)."""
    pending = checker.pending or {"pass": "front-end", "function": "",
                                  "round": 0}
    return CulpritReport(
        name=name, status="compile-crash",
        guilty_pass=pending["pass"],
        function=pending["function"],
        round_no=pending["round"],
        reason=f"compiler raised {type(exc).__name__} during "
               f"pass {pending['pass']!r}",
        error=f"{type(exc).__name__}: {exc}",
        passes=checker.to_records())


def bisect_source(source: str,
                  options: Optional[CompilerOptions] = None, *,
                  name: str = "<input>", entry: str = "main",
                  entry_args: Sequence = (),
                  max_steps: int = 2_000_000,
                  parallel_order: str = "forward", seed: int = 7,
                  engine: Optional[str] = None,
                  extra_hooks: Sequence[PipelineHook] = (),
                  database=None,
                  headers: Optional[Dict[str, str]] = None
                  ) -> CulpritReport:
    """Replay ``source`` through the hooked pipeline and convict the
    first semantics-changing pass.

    ``options`` are the exact options of the failing variant (the bug
    may only fire at a particular optimization level);
    ``parallel_order``/``seed`` must match the failing run so
    order-dependent parallel results reproduce.  ``engine`` (e.g.
    ``"compiled"``) adds a final cross-check of that engine against
    the tree oracle when all passes come back innocent.
    ``extra_hooks`` run *before* the checker — this is where the test
    suite installs :class:`~repro.check.inject.InjectedBug`.
    """
    opts = replace(options or CompilerOptions(), collect_deps=True)
    checker = PassChecker(entry=entry, entry_args=tuple(entry_args),
                          execute=True, max_steps=max_steps,
                          parallel_order=parallel_order, seed=seed)
    compiler = TitanCompiler(opts, database,
                             hooks=list(extra_hooks) + [checker])
    try:
        result = compiler.compile(source, filename=name,
                                  headers=headers)
    except Exception as exc:  # noqa: BLE001 — crash attribution
        return crash_report(name, checker, exc)
    report = report_from_checker(name, checker, result)
    if report.status != "clean":
        return report
    if engine and engine != "tree":
        engine_outcome = checker._run(result.program, engine)
        report.engine_outcome = engine_outcome.to_dict()
        final = checker.snapshots[-1] if checker.snapshots else None
        if final is not None and outcome_differs(final.outcome,
                                                 engine_outcome):
            report.status = "engine"
            report.reason = (f"every pass matches the oracle but the "
                             f"{engine!r} engine disagrees with the "
                             "tree engine on the final IL")
            report.culprit_outcome = engine_outcome.to_dict()
    return report

