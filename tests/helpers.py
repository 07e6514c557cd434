"""Shared utilities for the test suite."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.frontend.lower import compile_to_il
from repro.il.validate import validate_program
from repro.interp.interpreter import Interpreter
from repro.obs.metrics import REGISTRY
from repro.pipeline import CompilerOptions, compile_c


def tiers() -> Dict[Tuple[str, str], float]:
    """``(tier, reason) -> count`` of ``titancc_engine_tier_total``."""
    return {(dict(key)["tier"], dict(key)["reason"]): metric.value
            for name, key, metric in REGISTRY
            if name == "titancc_engine_tier_total"}


def tier_delta(before) -> Dict[Tuple[str, str], float]:
    """What the fast engine materialized since ``before = tiers()``."""
    return {key: value - before.get(key, 0)
            for key, value in tiers().items()
            if value != before.get(key, 0)}


def run_reference(source: str, entry: str = "main", args: Sequence = (),
                  arrays: Optional[Dict[str, Sequence]] = None,
                  scalars: Optional[Dict[str, float]] = None
                  ) -> Interpreter:
    """Execute unoptimized (front end only) — the semantic oracle."""
    program = compile_to_il(source)
    validate_program(program)
    interp = Interpreter(program)
    _setup(interp, arrays, scalars)
    interp.run(entry, *args)
    return interp


def run_optimized(source: str, entry: str = "main", args: Sequence = (),
                  arrays: Optional[Dict[str, Sequence]] = None,
                  scalars: Optional[Dict[str, float]] = None,
                  options: Optional[CompilerOptions] = None,
                  parallel_order: str = "forward") -> Interpreter:
    """Execute after the full (or configured) pipeline."""
    result = compile_c(source, options)
    validate_program(result.program)
    interp = Interpreter(result.program, parallel_order=parallel_order,
                         seed=1234)
    _setup(interp, arrays, scalars)
    interp.run(entry, *args)
    return interp


def _setup(interp: Interpreter, arrays, scalars) -> None:
    for name, values in (arrays or {}).items():
        interp.set_global_array(name, values)
    for name, value in (scalars or {}).items():
        interp.set_global_scalar(name, value)


def assert_same_behaviour(source: str, entry: str = "main",
                          args: Sequence = (),
                          arrays: Optional[Dict[str, Sequence]] = None,
                          scalars: Optional[Dict[str, float]] = None,
                          check_arrays: Sequence[Tuple[str, int]] = (),
                          check_scalars: Sequence[str] = (),
                          options: Optional[CompilerOptions] = None,
                          parallel_orders: Sequence[str] = ("forward",
                                                            "reverse")
                          ) -> None:
    """The central invariant: optimization preserves observable
    behaviour (global arrays/scalars, stdout, return value)."""
    ref = run_reference(source, entry, args, arrays, scalars)
    expected_arrays = {name: ref.global_array(name, count)
                       for name, count in check_arrays}
    expected_scalars = {name: ref.global_scalar(name)
                        for name in check_scalars}
    for order in parallel_orders:
        opt = run_optimized(source, entry, args, arrays, scalars,
                            options, parallel_order=order)
        for (name, count) in check_arrays:
            got = opt.global_array(name, count)
            assert _close(got, expected_arrays[name]), (
                f"array {name} differs under order={order}:\n"
                f"  expected {expected_arrays[name][:8]}\n"
                f"  got      {got[:8]}")
        for name in check_scalars:
            got = opt.global_scalar(name)
            assert _close([got], [expected_scalars[name]]), (
                f"scalar {name}: expected {expected_scalars[name]}, "
                f"got {got} (order={order})")
        assert opt.stdout == ref.stdout, (
            f"stdout differs: {opt.stdout!r} vs {ref.stdout!r}")


def _close(got: Sequence, expected: Sequence,
           tolerance: float = 1e-5) -> bool:
    if len(got) != len(expected):
        return False
    for a, b in zip(got, expected):
        if isinstance(a, float) or isinstance(b, float):
            scale = max(abs(a), abs(b), 1.0)
            if abs(a - b) > tolerance * scale:
                return False
        elif a != b:
            return False
    return True
