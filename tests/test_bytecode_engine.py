"""Unit parity tests for the fast engine's generated-code half.

With no cost hook installed ``engine="compiled"`` lowers each IL
function to ONE generated Python function (CPython bytecode) and must
stay observably indistinguishable from the tree-walking oracle: same
results, same stdout, same step accounting, same errors at the same
dynamic operation counts.  The broad sweeps live in
``test_engine_differential.py`` and the hooked runs (the tree oracle,
under any hook without a cost table) in ``test_compiled_engine.py``;
these tests pin what only the uninstrumented half has — the
cross-instance codegen cache and its metrics, cache invalidation, the
whole-function route to the tree oracle for constructs the generator
cannot lower, the switch to the oracle when a hook appears, and the
``disassemble`` debugging surface.
"""

import pytest

from repro.frontend.lower import compile_to_il
from repro.il import nodes as N
from repro.interp import (ENGINES, InterpreterError, StepLimitExceeded,
                          make_interpreter)
from repro.interp.bytecode import _CACHE_ATTR, _CodegenEntry
from repro.obs.metrics import REGISTRY
from repro.pipeline import CompilerOptions, compile_c
from repro.titan.cost_model import TitanCostModel
from tests import vector_cases
from tests.helpers import tier_delta, tiers


def _all(source, entry="main", args=(), **kwargs):
    """Run a program uninstrumented under every engine, returning the
    interpreters and their results keyed by engine name."""
    program = compile_to_il(source, "<test>")
    out = {}
    for engine in ENGINES:
        interp = make_interpreter(program, engine=engine, **kwargs)
        out[engine] = (interp, interp.run(entry, *args))
    return out


def _cache_value(outcome):
    return REGISTRY.value("titancc_engine_codegen_cache_total",
                          {"engine": "compiled", "outcome": outcome})


def _observe(program, engine, **kwargs):
    """(outcome, stdout, steps) of one uninstrumented run, where the
    outcome is the result or the exception's type and message."""
    interp = make_interpreter(program, engine=engine, **kwargs)
    try:
        outcome = interp.run("main")
    except Exception as exc:  # noqa: BLE001 — the message is compared
        outcome = (type(exc).__name__, str(exc))
    return outcome, interp.stdout, interp.steps


class TestObservableParity:
    def test_loop_result_stdout_steps(self):
        src = ('int main(void) { int i; int s; s = 0; '
               'for (i = 0; i < 50; i++) s = s + i; '
               'printf("%d\\n", s); return s; }')
        out = _all(src)
        tree, tv = out["tree"]
        fast, fv = out["compiled"]
        assert tv == fv == 1225
        assert tree.stdout == fast.stdout == "1225\n"
        assert tree.steps == fast.steps

    def test_goto_flow(self):
        src = ("int main(void) { int n; n = 0; "
               "again: n = n + 1; if (n < 5) goto again; "
               "return n; }")
        out = _all(src)
        assert out["tree"][1] == out["compiled"][1] == 5
        assert out["tree"][0].steps == out["compiled"][0].steps

    def test_recursion(self):
        src = ("int fib(int n) { if (n < 2) return n; "
               "return fib(n-1) + fib(n-2); } "
               "int main(void) { return fib(12); }")
        out = _all(src)
        assert out["tree"][1] == out["compiled"][1] == 144
        assert out["tree"][0].steps == out["compiled"][0].steps

    def test_f32_narrowing(self):
        src = ("float f; int main(void) { f = 0.1; "
               "return (int)(f * 1e9); }")
        out = _all(src)
        assert out["tree"][1] == out["compiled"][1]

    def test_vectorized_and_parallel_orders(self):
        src = ('float a[64], b[64]; '
               'int main(void) { int i; '
               'for (i = 0; i < 64; i++) a[i] = b[i] * 2.0f + 1.0f; '
               'return (int)a[63]; }')
        program = compile_c(src, CompilerOptions()).program
        for order in ("forward", "reverse", "shuffle"):
            obs = {}
            for engine in ENGINES:
                interp = make_interpreter(program, engine=engine,
                                          parallel_order=order, seed=7)
                obs[engine] = (interp.run("main"), interp.steps)
            assert obs["compiled"] == obs["tree"], order

    def test_cost_event_stream_identical(self):
        # The one hooked contract: under a hook that offers no cost
        # table the engine runs the oracle it inherits, so the event
        # stream is the oracle's.
        src = ('float a[16], b[16]; '
               'int main(void) { int i; '
               'for (i = 0; i < 16; i++) a[i] = b[i] + 1.0f; '
               'return 0; }')
        program = compile_to_il(src, "<test>")
        streams = {}
        for engine in ("tree", "compiled"):
            events = []
            interp = make_interpreter(
                program, engine=engine,
                cost_hook=lambda *event: events.append(event))
            interp.run("main")
            streams[engine] = events
        assert streams["tree"] == streams["compiled"]
        assert streams["tree"]


class TestErrorsAndLimits:
    def test_step_limit_same_count(self):
        src = "int main(void) { for (;;) ; return 0; }"
        program = compile_to_il(src, "<test>")
        outcomes = {}
        for engine in ("tree", "compiled"):
            interp = make_interpreter(program, engine=engine,
                                      max_steps=997)
            with pytest.raises(StepLimitExceeded) as exc:
                interp.run("main")
            outcomes[engine] = (str(exc.value), interp.steps)
        assert outcomes["tree"] == outcomes["compiled"]
        assert outcomes["tree"][1] == 998  # the step that tripped

    def test_uninitialized_read_same_message(self):
        src = "int main(void) { int x; return x + 1; }"
        program = compile_to_il(src, "<test>")
        messages = {}
        for engine in ("tree", "compiled"):
            interp = make_interpreter(program, engine=engine)
            with pytest.raises(InterpreterError) as exc:
                interp.run("main")
            messages[engine] = str(exc.value)
        assert messages["tree"] == messages["compiled"]

    def test_null_deref_same_message(self):
        src = "int main(void) { int *p; p = 0; return *p; }"
        program = compile_to_il(src, "<test>")
        messages = {}
        for engine in ("tree", "compiled"):
            interp = make_interpreter(program, engine=engine)
            with pytest.raises(Exception) as exc:
                interp.run("main")
            messages[engine] = (type(exc.value).__name__,
                                str(exc.value))
        assert messages["tree"] == messages["compiled"]


def _volatile_read():
    return compile_to_il(
        "volatile int status;"
        "int main(void) { return status + 41; }")


def _volatile_write():
    return compile_to_il(
        "volatile int port;"
        'int main(void) { port = 1; port = 2; printf("w\\n"); '
        "port = 3; return 0; }")


def _aggregate_scalar():
    # A whole-struct copy is a scalar access at aggregate type: the
    # oracle faults at run time, and so must the fallback.
    return compile_to_il(
        "struct S { int a; int b; }; struct S g, h;"
        "int main(void) { h.a = 3; g = h; return g.a; }")


def _lazy_address():
    # An address-taken symbol with no frame slot and no storage yet
    # (here: the flag cleared behind the front end's back) is
    # allocated on first evaluation — engine state the generator
    # refuses to mutate from generated code.
    program = compile_to_il(
        "int main(void) { int x; int *p; p = &x; *p = 9; "
        "return *p + 1; }")
    main = program.functions["main"]
    sym = next(s for s in main.local_syms if s.name == "x")
    sym.address_taken = False
    return program


def _list_parallel():
    source = (
        "struct node { int v; struct node *next; };"
        "struct node pool[4];"
        "int main(void) { struct node *p; int i;"
        "  for (i = 0; i < 3; i++) pool[i].next = &pool[i + 1];"
        "  pool[3].next = 0;"
        "  for (p = &pool[0]; p; p = p->next) p->v = 1;"
        "  return pool[2].v; }")
    program = compile_c(
        source, CompilerOptions(parallelize_lists=True)).program
    assert any(isinstance(stmt, N.ListParallelLoop)
               for stmt in program.functions["main"].all_statements())
    return program


#: One construct per :class:`_Fallback` reason.
FALLBACKS = pytest.mark.parametrize("build,reason", [
    (_volatile_read, "volatile read"),
    (_volatile_write, "volatile write"),
    (_aggregate_scalar, "aggregate scalar read"),
    (_lazy_address, "address of lazily-allocated symbol"),
    (_list_parallel, "flow node kind 'list_loop'"),
], ids=("volatile-read", "volatile-write", "aggregate-scalar",
        "lazy-address", "list-parallel"))

#: A mixed activation: ``main`` and ``leaf`` touch a volatile, so they
#: run on the tree oracle; ``mid``, between them, is generated code.
MIXED_C = (
    "volatile int port; int total;"
    "int leaf(int v) { port = v; return port + v; }"
    "int mid(int n) { int i; int s; s = 0;"
    " for (i = 0; i < n; i++) s = s + leaf(i);"
    " total = total + s; return s; }"
    "int main(void) { int r; port = 7; r = mid(5);"
    ' printf("%d %d\\n", r, total); return r + port; }')


class TestFallbackAndDevices:
    @FALLBACKS
    def test_fallback_reason_matches_oracle(self, build, reason):
        # Every construct the generator refuses runs on the tree
        # oracle the engine inherits, counted once under its reason,
        # and agrees with a pure tree run on result (or fault), stdout
        # and steps.  Each engine gets a freshly built program: lazy
        # allocation changes what a symbol is bound to.
        before = tiers()
        fast = _observe(build(), "compiled")
        assert tier_delta(before) == {("oracle", reason): 1}
        assert {tier for tier, _ in tiers()} <= {"generated", "oracle"}
        assert fast == _observe(build(), "tree")

    def test_mixed_activation_matches_oracle(self):
        # Oracle-run main -> generated mid -> oracle-run leaf: the
        # oracle's calls come back through the engine, generated code
        # calls back into the oracle, and all of them tick one cell.
        program = compile_to_il(MIXED_C, "<test>")
        before = tiers()
        fast = _observe(program, "compiled")
        assert tier_delta(before) == {("oracle", "volatile write"): 2,
                                      ("generated", ""): 1}
        assert fast == _observe(program, "tree") == (24, "20 20\n", 59)

    def test_volatile_device_reads(self):
        # Volatile accesses run on the oracle; the device protocol
        # must still work identically.
        src = ("volatile int status; int spins;"
               "int main(void) { spins = 0; "
               "while (!status) spins = spins + 1; return spins; }")
        interp = make_interpreter(compile_to_il(src), engine="compiled")
        values = iter([0, 0, 0, 1])
        interp.add_device("status", on_read=lambda: next(values))
        assert interp.run("main") == 3

    def test_volatile_device_write_order(self):
        # Device writes and stdout interleave in program order.
        log = []
        for engine in ENGINES:
            interp = make_interpreter(_volatile_write(), engine=engine)
            written = []
            interp.add_device(
                "port", on_write=lambda value, interp=interp,
                written=written: written.append(
                    (value, interp.stdout)))
            interp.run("main")
            log.append(written)
        assert log[0] == log[1] == [(1, ""), (2, ""), (3, "w\n")]

    def test_fallback_cached_on_function(self):
        src = ("volatile int port; "
               "int main(void) { port = 1; return 0; }")
        program = compile_to_il(src, "<test>")
        interp = make_interpreter(program, engine="compiled")
        interp.run("main")
        # The cache is keyed by variant; False is the uncosted one.
        entry = getattr(program.functions["main"], _CACHE_ATTR)[False]
        assert not isinstance(entry, _CodegenEntry)
        assert "volatile" in entry.reason


class TestVectorStatements:
    """Vector statements run as whole-vector operations; the oracle's
    per-lane loop is the definition.  One construct each
    (``tests/vector_cases.py``), uninstrumented: outcome or fault,
    stdout, steps and the final memory image equal the oracle's."""

    @pytest.mark.parametrize("name", sorted(vector_cases.CASES))
    def test_matches_the_oracle(self, name):
        vector_cases.CASES[name].run(costed=False)


class TestHooks:
    def test_hook_removal_returns_to_codegen(self):
        src = "int main(void) { return 41 + 1; }"
        program = compile_to_il(src, "<test>")
        events = []
        interp = make_interpreter(
            program, engine="compiled",
            cost_hook=lambda *event: events.append(event))
        assert interp.run("main") == 42
        assert events
        # Removing the hook returns to the generated function — the
        # one this run's first (hooked) call never had to generate.
        misses, hits = _cache_value("miss"), _cache_value("hit")
        before = tiers()
        interp.cost_hook = None
        events.clear()
        assert interp.run("main") == 42
        assert events == []
        assert _cache_value("miss") == misses + 1
        interp.cost_hook = lambda *event: events.append(event)
        assert interp.run("main") == 42 and events
        interp.cost_hook = None
        assert interp.run("main") == 42
        assert _cache_value("hit") == hits + 1  # cached, not regenerated
        assert tier_delta(before) == {("generated", ""): 2,
                                      ("oracle", "hook"): 1}


class TestCodegenCache:
    def test_cache_hit_across_instances(self):
        src = "int main(void) { return 6 * 7; }"
        program = compile_to_il(src, "<test>")
        fn = program.functions["main"]
        if hasattr(fn, _CACHE_ATTR):
            delattr(fn, _CACHE_ATTR)
        misses, hits = _cache_value("miss"), _cache_value("hit")
        first = make_interpreter(program, engine="compiled")
        assert first.run("main") == 42
        assert _cache_value("miss") == misses + 1
        assert _cache_value("hit") == hits
        # A second engine instance reuses the generated code object
        # hung on the ILFunction: hit, no second codegen.
        second = make_interpreter(program, engine="compiled")
        assert second.run("main") == 42
        assert _cache_value("hit") == hits + 1
        assert _cache_value("miss") == misses + 1

    def test_invalidate_graphs_clears_cache(self):
        src = "int main(void) { return 7; }"
        program = compile_to_il(src, "<test>")
        interp = make_interpreter(program, engine="compiled")
        interp.run("main")
        fn = program.functions["main"]
        assert hasattr(fn, _CACHE_ATTR)
        interp.invalidate_graphs()
        assert not hasattr(fn, _CACHE_ATTR)

    def test_stale_layout_recompiles(self):
        # The same ILFunction object under an interpreter with a
        # different memory layout must not reuse baked addresses.
        src = "int g; int main(void) { g = 9; return g; }"
        program = compile_to_il(src, "<test>")
        a = make_interpreter(program, engine="compiled")
        assert a.run("main") == 9
        b = make_interpreter(program, engine="compiled",
                             memory_size=1 << 18)
        assert b.run("main") == 9


class TestDisassemble:
    def test_smoke(self):
        src = ("int main(void) { int i; int s; s = 0; "
               "for (i = 0; i < 3; i++) s = s + i; return s; }")
        program = compile_to_il(src, "<test>")
        interp = make_interpreter(program, engine="compiled")
        text = interp.disassemble("main")
        assert "# generated source for main" in text
        assert "def _bytecode_fn" in text
        assert "# CPython bytecode for main" in text
        assert "RETURN_VALUE" in text or "RETURN_CONST" in text

    def test_works_without_running(self):
        program = compile_to_il("int main(void) { return 3; }",
                                "<test>")
        interp = make_interpreter(program, engine="compiled")
        assert "def _bytecode_fn" in interp.disassemble("main")

    def test_fallback_function_reports_reason(self):
        src = ("volatile int port; "
               "int main(void) { port = 5; return 0; }")
        program = compile_to_il(src, "<test>")
        interp = make_interpreter(program, engine="compiled")
        text = interp.disassemble("main")
        assert "tree-oracle fallback" in text
        assert "volatile" in text

    def test_hook_swapped_without_a_run_in_between(self):
        # The hook installed *now* is the one asked, also when no run
        # noticed the swap (this used to crash on the old answer).
        interp = make_interpreter(
            compile_to_il("int main(void) { return 3; }", "<test>"),
            engine="compiled", cost_hook=TitanCostModel())
        assert "_M.absorb(" in interp.disassemble("main")
        interp.cost_hook = lambda *event: None
        assert "cost hook: hook" in interp.disassemble("main")

    def test_unknown_function_rejected(self):
        program = compile_to_il("int main(void) { return 0; }")
        interp = make_interpreter(program, engine="compiled")
        with pytest.raises(InterpreterError,
                           match="no function named 'nope'"):
            interp.disassemble("nope")
