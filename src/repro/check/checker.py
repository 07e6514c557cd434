"""The per-pass semantic checker.

A :class:`PassChecker` is a :class:`~repro.pipeline.PipelineHook` that
observes every transforming pass.  After each one it

1. pretty-prints the whole program (the snapshot — also the diff
   source for culprit reports),
2. re-validates the section 3/4 IL invariants
   (:func:`repro.il.validate.validate_program` plus program-wide
   statement-id uniqueness), and
3. in execution mode, runs the snapshot through an execution engine
   (the *tree-walking* oracle by default) on the captured input and
   compares result value, stdout, and exit status against the
   front-end baseline.

Execution is skipped when the printer text did not change (an
unchanged program has unchanged semantics), which is what makes
checking every pass of every scalar round affordable: most
per-function pass events are no-ops on that function.

This mirrors how *Lifting C Semantics for Dataflow Optimization*
(PAPERS.md) validates each lifting step against reference semantics
instead of only checking end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..il import nodes as N
from ..il.printer import format_program
from ..il.validate import (ILValidationError, validate_program,
                           validate_unique_sids)
from ..pipeline import PipelineHook


def pass_registry() -> Dict[str, str]:
    """Canonical pass names -> descriptions, collected from the
    ``PASS_NAME`` / ``PASS_DESCRIPTION`` metadata every pass module
    exports.  This is the vocabulary culprit reports speak."""
    from ..inline import inliner
    from ..opt import (cond_split, constprop, deadcode, fold,
                       forward_sub, if_convert, ivsub, regpipe,
                       strength, unreachable, while_to_do)
    from ..sched import scheduler
    from ..vectorize import listparallel, vectorizer
    modules = (while_to_do, ivsub, constprop, fold, forward_sub,
               deadcode, unreachable, cond_split, if_convert, inliner,
               vectorizer, listparallel, regpipe, strength, scheduler)
    registry = {"front-end": "front end: preprocess, parse, lower"}
    for module in modules:
        registry[module.PASS_NAME] = module.PASS_DESCRIPTION
    return registry


@dataclass
class ExecOutcome:
    """What one snapshot computed: result value (the exit status),
    stdout, or the error that stopped it."""

    status: str  # "ok" | "error"
    value: Optional[int] = None
    stdout: str = ""
    error_type: str = ""
    error: str = ""

    def to_dict(self) -> dict:
        return {"status": self.status, "value": self.value,
                "stdout": self.stdout, "error_type": self.error_type,
                "error": self.error}


def outcome_differs(a: Optional[ExecOutcome],
                    b: Optional[ExecOutcome]) -> bool:
    """Semantic difference between two snapshot outcomes.  Errors
    compare by type only — messages legitimately drift as the IL is
    rewritten (e.g. a renamed temp in a division-by-zero message)."""
    if a is None or b is None:
        return False
    if a.status != b.status:
        return True
    if a.status == "ok":
        return a.value != b.value or a.stdout != b.stdout
    return a.error_type != b.error_type


@dataclass
class PassSnapshot:
    """The checker's record of the program right after one pass."""

    index: int
    pass_name: str
    function: str
    round_no: int
    text: str
    changed: bool
    valid: bool = True
    validation_error: str = ""
    outcome: Optional[ExecOutcome] = None
    executed: bool = False  # ran fresh (vs inherited from previous)

    @property
    def label(self) -> str:
        """Human identity, e.g. ``constprop(main) round 2``."""
        where = f"({self.function})" if self.function else ""
        rnd = f" round {self.round_no}" if self.round_no else ""
        return f"{self.pass_name}{where}{rnd}"

    def to_dict(self, include_text: bool = False) -> dict:
        doc = {
            "index": self.index,
            "pass": self.pass_name,
            "function": self.function,
            "round": self.round_no,
            "changed": self.changed,
            "valid": self.valid,
            "validation_error": self.validation_error,
            "executed": self.executed,
            "outcome": None if self.outcome is None
            else self.outcome.to_dict(),
        }
        if include_text:
            doc["text"] = self.text
        return doc


class PassChecker(PipelineHook):
    """Snapshot + validate (+ execute) after every pipeline pass.

    ``entry``/``entry_args`` are the captured input: fuzz programs and
    the committed reproducers are self-contained, so running ``main``
    *is* replaying the failure.  ``parallel_order``/``seed`` must match
    the failing variant's run so order-dependent parallel bugs
    reproduce at the pass where the loop went parallel.  ``engine``
    selects the execution engine the snapshots replay on (default the
    tree-walking oracle; pass a fast engine to check a pass pipeline
    against that engine's semantics instead).
    """

    def __init__(self, entry: str = "main", entry_args: tuple = (),
                 execute: bool = True, max_steps: int = 2_000_000,
                 parallel_order: str = "forward", seed: int = 7,
                 memory_size: int = 1 << 22, engine: str = "tree"):
        self.entry = entry
        self.entry_args = tuple(entry_args)
        self.execute = execute
        self.max_steps = max_steps
        self.parallel_order = parallel_order
        self.seed = seed
        self.memory_size = memory_size
        self.engine = engine
        self.snapshots: List[PassSnapshot] = []
        #: The pass announced by ``before_pass`` that has not yet
        #: delivered ``after_pass`` — the crash suspect.
        self.pending: Optional[dict] = None
        self.executions = 0

    # -- PipelineHook ---------------------------------------------------

    def before_pass(self, name: str, function: str = "",
                    round_no: int = 0) -> None:
        self.pending = {"pass": name, "function": function,
                        "round": round_no}

    def after_pass(self, name: str, program: N.ILProgram,
                   function: str = "", round_no: int = 0) -> None:
        self.pending = None
        text = format_program(program)
        previous = self.snapshots[-1] if self.snapshots else None
        changed = previous is None or text != previous.text
        snap = PassSnapshot(index=len(self.snapshots), pass_name=name,
                            function=function, round_no=round_no,
                            text=text, changed=changed)
        try:
            validate_program(program)
            validate_unique_sids(program)
        except ILValidationError as exc:
            snap.valid = False
            snap.validation_error = str(exc)
        if self.execute and snap.valid:
            if changed:
                snap.outcome = self._run(program)
                snap.executed = True
                self.executions += 1
            elif previous is not None:
                # Byte-identical IL: semantics carried over verbatim.
                snap.outcome = previous.outcome
        self.snapshots.append(snap)

    # -- queries --------------------------------------------------------

    @property
    def baseline(self) -> Optional[PassSnapshot]:
        """The front-end snapshot — the reference semantics."""
        return self.snapshots[0] if self.snapshots else None

    def first_divergence(self) -> Optional[PassSnapshot]:
        """The first snapshot that broke an invariant: IL validation
        failed, or execution disagrees with the front-end baseline."""
        base = self.baseline
        for snap in self.snapshots[1:]:
            if not snap.valid:
                return snap
            if base is not None and outcome_differs(base.outcome,
                                                    snap.outcome):
                return snap
        return None

    def snapshot_before(self, snap: PassSnapshot
                        ) -> Optional[PassSnapshot]:
        return self.snapshots[snap.index - 1] if snap.index > 0 \
            else None

    def to_records(self) -> List[dict]:
        """JSON-ready per-pass table (no IL texts — those are huge;
        the bisector carries the one diff that matters)."""
        return [snap.to_dict() for snap in self.snapshots]

    def format_table(self) -> str:
        """The ``--check-passes`` stderr table."""
        lines = ["/* pass checks */",
                 f"{'#':>3} {'pass':<24} {'chg':<3} {'valid':<5} "
                 f"outcome"]
        base = self.baseline
        for snap in self.snapshots:
            if snap.outcome is None:
                outcome = "-" if snap.valid else "invalid"
            elif snap.outcome.status == "ok":
                outcome = f"ok value={snap.outcome.value}"
            else:
                outcome = f"error {snap.outcome.error_type}"
            flag = ""
            if not snap.valid:
                flag = "  <-- INVALID IL: " + snap.validation_error
            elif base is not None and snap is not base \
                    and outcome_differs(base.outcome, snap.outcome):
                flag = "  <-- DIVERGES from front-end baseline"
            lines.append(f"{snap.index:>3} {snap.label:<24} "
                         f"{'y' if snap.changed else '.':<3} "
                         f"{'y' if snap.valid else 'N':<5} "
                         f"{outcome}{flag}")
        lines.append(f"/* {len(self.snapshots)} snapshots, "
                     f"{self.executions} oracle executions */")
        return "\n".join(lines)

    # -- execution ------------------------------------------------------

    def _run(self, program: N.ILProgram,
             engine: Optional[str] = None) -> ExecOutcome:
        """Run the captured input on ``engine`` (default: the
        checker's own) and classify the outcome."""
        from ..interp.interpreter import make_interpreter
        try:
            interp = make_interpreter(
                program, engine=engine or self.engine,
                max_steps=self.max_steps,
                parallel_order=self.parallel_order, seed=self.seed,
                memory_size=self.memory_size)
            value = interp.run(self.entry, *self.entry_args)
            return ExecOutcome(status="ok",
                               value=0 if value is None
                               else int(value),
                               stdout=interp.stdout)
        except Exception as exc:  # noqa: BLE001 — outcome classification
            return ExecOutcome(status="error",
                               error_type=type(exc).__name__,
                               error=str(exc))
