"""Deliberate-bug injection for validating the bisector.

A bisector you have never watched convict a *known* culprit is just a
report generator.  :class:`InjectedBug` is a pipeline hook that
corrupts the IL immediately after a chosen pass runs — from the
checker's point of view the corruption is indistinguishable from that
pass miscompiling, so :func:`repro.check.bisect.bisect_source` must
name exactly that pass.  ``tests/test_check.py`` injects a flipped
loop bound after several different passes and asserts the conviction
lands on each.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..il import nodes as N
from ..pipeline import PipelineHook


def flip_loop_bound(program: N.ILProgram,
                    function: Optional[str] = None) -> bool:
    """The canonical injected miscompile: truncate the first counted
    loop by replacing its upper bound with its lower bound (a one-trip
    loop).  Returns True when a loop was found and corrupted.

    With no ``function`` given, ``main`` is corrupted first: after
    inline expansion the entry point holds the inlined copies that
    actually execute, while the original callee bodies are dead.
    """
    names = sorted(program.functions, key=lambda n: n != "main")
    fallback = None
    for name in names:
        fn = program.functions[name]
        if function is not None and name != function:
            continue
        for stmt in fn.all_statements():
            if not isinstance(stmt, N.DoLoop):
                continue
            if not stmt.vector:
                stmt.hi = N.clone_expr(stmt.lo)
                return True
            if fallback is None:
                fallback = stmt
    if fallback is not None:  # only vector loops left: flip one anyway
        fallback.hi = N.clone_expr(fallback.lo)
        return True
    return False


class InjectedBug(PipelineHook):
    """Corrupt the program right after pass ``after`` runs.

    ``mutate(program, function)`` performs the corruption and returns
    True on success; it fires once, on the first matching pass event
    (optionally restricted to ``function`` / ``round_no``).  Install it
    *before* the :class:`~repro.check.checker.PassChecker` in the hook
    list so the checker's snapshot of that pass sees the damage.
    """

    #: Tells the driver to drop the function's cached analyses after
    #: this hook ran: later passes must analyse the corrupted IL, as
    #: they would a real miscompile's output.
    mutates_il = True

    def __init__(self, after: str, function: Optional[str] = None,
                 round_no: Optional[int] = None,
                 mutate: Callable[[N.ILProgram, Optional[str]], bool]
                 = flip_loop_bound):
        self.after = after
        self.function = function
        self.round_no = round_no
        self.mutate = mutate
        self.fired = False

    def after_pass(self, name: str, program: N.ILProgram,
                   function: str = "", round_no: int = 0) -> None:
        if self.fired or name != self.after:
            return
        if self.function is not None and function != self.function:
            return
        if self.round_no is not None and round_no != self.round_no:
            return
        self.fired = self.mutate(program, self.function)
