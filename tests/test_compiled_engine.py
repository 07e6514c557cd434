"""Unit parity tests for the fast engine: its factory, its runs under
a recording hook, and the switch between tiers.

``engine="compiled"`` must be observably indistinguishable from the
tree-walking oracle: same results, same stdout, same step accounting,
same cost-event stream, same errors at the same dynamic operation
counts.  With a recording cost hook installed (one that offers no
cost table) it routes every function to the tree oracle it inherits —
that is what is pinned here, so every parity run below installs one.
The uninstrumented half (generated code, its cache, its fallbacks) is
``test_bytecode_engine.py``, the costed half (generated code with the
Titan model's accounting inline) is ``test_costed_codegen.py``; the
broad sweeps live in ``test_engine_differential.py``.
"""

import os

import pytest

from repro.frontend.lower import compile_to_il
from repro.interp import (CompiledInterpreter, ENGINES, Interpreter,
                          InterpreterError, StepLimitExceeded,
                          make_interpreter)
from repro.pipeline import CompilerOptions, compile_c
from repro.titan.simulator import TitanSimulator
from tests.helpers import tier_delta, tiers

with open(os.path.join(os.path.dirname(__file__), os.pardir,
                       "examples", "daxpy.c")) as _handle:
    DAXPY_C = _handle.read()


def _hooked(program, engine, **kwargs):
    """An engine with a recording cost hook installed (the fast
    engine then runs the oracle), plus the list it records into."""
    events = []
    interp = make_interpreter(
        program, engine=engine,
        cost_hook=lambda *event: events.append(event), **kwargs)
    return interp, events


def _both(source, entry="main", args=(), **kwargs):
    """Run a program under both engines, hooked, returning the
    interpreters and their results."""
    program = compile_to_il(source, "<test>")
    out = {}
    for engine in ENGINES:
        interp, _ = _hooked(program, engine, **kwargs)
        out[engine] = (interp, interp.run(entry, *args))
    return out


class TestFactory:
    def test_engine_names(self):
        program = compile_to_il("int main(void) { return 1; }")
        tree = make_interpreter(program, engine="tree")
        fast = make_interpreter(program, engine="compiled")
        assert type(tree) is Interpreter
        assert type(fast) is CompiledInterpreter
        assert tree.engine_name == "tree"
        assert fast.engine_name == "compiled"

    def test_unknown_engine_rejected(self):
        program = compile_to_il("int main(void) { return 1; }")
        with pytest.raises(ValueError, match="unknown interpreter "
                                             "engine 'jit'"):
            make_interpreter(program, engine="jit")

    def test_bytecode_engine_refused(self):
        # The removed engine value is just another unknown engine.
        program = compile_to_il("int main(void) { return 1; }")
        with pytest.raises(ValueError, match="unknown interpreter "
                                             "engine 'bytecode'"):
            make_interpreter(program, engine="bytecode")

    def test_engines_tuple(self):
        assert ENGINES == ("tree", "compiled")


class TestObservableParity:
    def test_result_stdout_steps(self):
        src = ('int main(void) { int i; int s; s = 0; '
               'for (i = 0; i < 50; i++) s = s + i; '
               'printf("%d\\n", s); return s; }')
        out = _both(src)
        (tree, tv), (fast, fv) = out["tree"], out["compiled"]
        assert tv == fv == 1225
        assert tree.stdout == fast.stdout == "1225\n"
        assert tree.steps == fast.steps

    def test_recursion(self):
        src = ("int fib(int n) { if (n < 2) return n; "
               "return fib(n-1) + fib(n-2); } "
               "int main(void) { return fib(12); }")
        out = _both(src)
        (tree, tv), (fast, fv) = out["tree"], out["compiled"]
        assert tv == fv == 144
        assert tree.steps == fast.steps

    def test_float_narrowing(self):
        # f32 stores round through single precision in both engines.
        src = ("float f; int main(void) { f = 0.1; "
               "return (int)(f * 1e9); }")
        out = _both(src)
        assert out["tree"][1] == out["compiled"][1]


class TestErrorsAndLimits:
    def test_step_limit_same_count(self):
        src = "int main(void) { for (;;) ; return 0; }"
        program = compile_to_il(src, "<test>")
        outcomes = {}
        for engine in ENGINES:
            interp, _ = _hooked(program, engine, max_steps=997)
            with pytest.raises(StepLimitExceeded) as exc:
                interp.run("main")
            outcomes[engine] = (str(exc.value), interp.steps)
        assert outcomes["tree"] == outcomes["compiled"]
        assert outcomes["tree"][1] == 998  # the step that tripped

    def test_uninitialized_read_same_message(self):
        src = "int main(void) { int x; return x + 1; }"
        program = compile_to_il(src, "<test>")
        messages = {}
        for engine in ENGINES:
            interp, _ = _hooked(program, engine)
            with pytest.raises(InterpreterError) as exc:
                interp.run("main")
            messages[engine] = str(exc.value)
        assert messages["tree"] == messages["compiled"]

    def test_null_deref_same_message(self):
        src = ("int main(void) { int *p; p = 0; return *p; }")
        program = compile_to_il(src, "<test>")
        messages = {}
        for engine in ENGINES:
            interp, _ = _hooked(program, engine)
            with pytest.raises(Exception) as exc:
                interp.run("main")
            messages[engine] = (type(exc.value).__name__,
                                str(exc.value))
        assert messages["tree"] == messages["compiled"]


class TestDevicesAndHooks:
    def test_volatile_device_reads(self):
        src = ("volatile int status; int spins;"
               "int main(void) { spins = 0; "
               "while (!status) spins = spins + 1; return spins; }")
        program = compile_to_il(src)
        for engine in ENGINES:
            interp, _ = _hooked(program, engine)
            values = iter([0, 0, 0, 1])
            interp.add_device("status", on_read=lambda: next(values))
            assert interp.run("main") == 3

    def test_volatile_device_write_order(self):
        src = ("volatile int port;"
               "int main(void) { port = 1; port = 2; port = 3; "
               "return 0; }")
        program = compile_to_il(src)
        for engine in ENGINES:
            interp, _ = _hooked(program, engine)
            written = []
            interp.add_device("port", on_write=written.append)
            interp.run("main")
            assert written == [1, 2, 3]

    def test_hook_swap_recompiles(self):
        # Installing a hook after an uninstrumented run (generated
        # code, no events at all) must still produce the full event
        # stream.
        src = ("int main(void) { int i; int s; s = 0; "
               "for (i = 0; i < 4; i++) s = s + i; return s; }")
        program = compile_to_il(src, "<test>")
        interp = make_interpreter(program, engine="compiled")
        before = tiers()
        assert interp.run("main") == 6  # generated code
        assert tier_delta(before) == {("generated", ""): 1}
        events = []
        interp.cost_hook = lambda *event: events.append(event)
        assert interp.run("main") == 6  # the oracle
        assert tier_delta(before) == {("generated", ""): 1,
                                      ("oracle", "hook"): 1}
        reference = []
        oracle = make_interpreter(
            program, engine="tree",
            cost_hook=lambda *event: reference.append(event))
        oracle.run("main")
        assert events == reference
        assert events

    def test_hook_removal_recompiles(self):
        src = "int main(void) { return 41 + 1; }"
        program = compile_to_il(src, "<test>")
        interp, events = _hooked(program, "compiled")
        assert interp.run("main") == 42
        assert events
        interp.cost_hook = None
        events.clear()
        assert interp.run("main") == 42
        assert events == []


class TestTierDecision:
    """``titancc_engine_tier_total``: one increment per function
    materialization, labelled with the tier picked and why.  At
    default options daxpy.c's two callees are inlined, so one run
    materializes ``main`` only; without inlining, all three."""

    CASES = ((CompilerOptions(), 1), (CompilerOptions(inline=False), 3))

    def test_daxpy_uninstrumented_is_all_generated(self):
        for options, called in self.CASES:
            program = compile_c(DAXPY_C, options).program
            before = tiers()
            with make_interpreter(program, engine="compiled") as interp:
                interp.run("main")
            assert tier_delta(before) == {("generated", ""): called}

    def test_daxpy_simulated_is_all_costed_generated(self):
        # The Titan cost model advertises its scalar cost table, so a
        # simulated run stays in generated code (with accounting).
        for options, called in self.CASES:
            program = compile_c(DAXPY_C, options).program
            before = tiers()
            with TitanSimulator(program) as simulator:
                simulator.run("main")
            assert tier_delta(before) == {("generated", "costed"): called}

    def test_daxpy_profiled_is_all_oracle(self):
        # A profiler needs every event: the oracle, as under any hook
        # without a cost table.
        for options, called in self.CASES:
            program = compile_c(DAXPY_C, options).program
            before = tiers()
            with TitanSimulator(program, profile=True) as simulator:
                simulator.run("main")
            assert tier_delta(before) == {("oracle", "hook"): called}
