"""Inline Titan accounting in generated code — the costed variant.

Under a :class:`TitanCostModel` that advertises its scalar cost table
the fast engine stays in generated code and keeps cycles and operation
counts in function locals, handing them back to the model around
calls, vector statements, parallel regions and at exit.  Everything a
simulation reports must equal the tree oracle's under the same model
*exactly* (``cycles`` with ``==``), and every total a whole number.
The broad sweeps live in ``test_engine_differential.py``; these tests
pin one construct each, plus the tier pick and the codegen cache.
"""

import dataclasses

import pytest

from repro.frontend.lower import compile_to_il
from repro.il import nodes as N
from repro.interp import StepLimitExceeded, make_interpreter
from repro.obs.metrics import REGISTRY
from repro.pipeline import CompilerOptions, compile_c
from repro.sched.scheduler import schedule_program
from repro.titan.config import TitanConfig
from repro.titan.cost_model import TitanCostModel
from repro.titan.simulator import TitanSimulator
from repro.workloads.stencils import backsolve
from tests import vector_cases
from tests.helpers import tier_delta, tiers
from tests.test_bytecode_engine import FALLBACKS, MIXED_C

O0 = CompilerOptions(inline=False, scalar_opt=False, vectorize=False,
                     parallelize=False, reg_pipeline=False,
                     strength_reduction=False)


def _cache(outcome):
    return REGISTRY.value("titancc_engine_codegen_cache_total",
                          {"engine": "compiled", "outcome": outcome})


def _observe(program, engine, config=None, schedules=None, entry="main",
             **kwargs):
    """Everything one run under a fresh cost model reports; a fault is
    observed as its type and message."""
    model = TitanCostModel(config or TitanConfig(), schedules)
    interp = make_interpreter(program, engine=engine, cost_hook=model,
                              **kwargs)
    try:
        outcome = interp.run(entry)
    except Exception as exc:  # noqa: BLE001 — the message is compared
        outcome = (type(exc).__name__, str(exc))
    return {"outcome": outcome, "stdout": interp.stdout,
            "steps": interp.steps, "cycles": model.cycles,
            "counters": model.counters, "breakdown": model.breakdown,
            "parallel_adjust": model.parallel_adjust}


def _agree(program, expect=None, **kwargs):
    """Run under both engines; the fast one must have stayed in costed
    generated code (unless ``expect`` names other tiers) and agree
    with the oracle on every field.  Costed code runs under whole
    prices only, so its cycles, every breakdown bucket and the
    parallel rescale are whole numbers.  Returns the fast
    observation."""
    oracle = _observe(program, "tree", **kwargs)
    before = tiers()
    fast = _observe(program, "compiled", **kwargs)
    picked = set(tier_delta(before))
    assert picked == (expect or {("generated", "costed")}), picked
    for field, value in oracle.items():
        assert fast[field] == value, field
    if expect is None:
        for value in (fast["cycles"], fast["parallel_adjust"],
                      *dataclasses.astuple(fast["breakdown"])):
            assert value == int(value), value
    return fast


class TestConstructs:
    def test_scheduled_loop_counts_without_charging(self):
        # backsolve at default options: the recurrence loop is
        # scheduled, so its operations are counted, not charged, and
        # the loop pays initiation_interval * trips + branch at exit.
        source = backsolve(64) + (
            "int main(void) { int i; n = 64;"
            " for (i = 0; i < 64; i++)"
            " { x[i] = 1.0f; y[i] = i + 2.0f; z[i] = 0.5f; }"
            " backsolve(); return (int) x[63]; }")
        program = compile_c(source, CompilerOptions()).program
        config = TitanConfig()
        schedules = schedule_program(program, config)
        assert schedules
        fast = _agree(program, config=config, schedules=schedules)
        assert fast["breakdown"].scheduled > 0
        unscheduled = _agree(program, config=config, schedules={})
        assert unscheduled["breakdown"].scheduled == 0
        assert unscheduled["counters"] == fast["counters"]
        assert unscheduled["cycles"] > fast["cycles"]

    def test_call_in_the_middle_of_an_expression(self):
        # Loads before the call are charged before the callee's own
        # events, the multiply and the store after them.
        source = ("float a[4]; float b[4];"
                  "float half(float v) { return v * 0.5f; }"
                  "int main(void) { int i; float s; s = 0.0f;"
                  " for (i = 0; i < 4; i++) { a[i] = i + 1; b[i] = 2; }"
                  " for (i = 0; i < 4; i++)"
                  "  s = s + a[i] + half(b[i] + a[i]) * b[i];"
                  " return (int) s; }")
        fast = _agree(compile_c(source, O0).program)
        assert fast["counters"].calls == 4

    def test_two_calls_in_one_statement(self):
        source = ("int g;"
                  "int bump(int v) { g = g + v; return g; }"
                  "int main(void) { int r; g = 1;"
                  " r = bump(2) * 3 + bump(bump(4)) - g;"
                  " return r; }")
        fast = _agree(compile_c(source, O0).program)
        assert fast["counters"].calls == 3

    def test_recursion_parks_and_reloads(self):
        source = ("int fib(int n) { if (n < 2) return n;"
                  " return fib(n - 1) + fib(n - 2); }"
                  "int main(void) { return fib(12); }")
        assert _agree(compile_c(source, O0).program)["outcome"] == 144

    def test_builtin_charges_the_model_between_park_and_reload(self):
        source = ("float a[3];"
                  "int main(void) { a[0] = 16.0f;"
                  " a[1] = sqrt(a[0]) + a[0]; return (int) a[1]; }")
        assert _agree(compile_c(source, O0).program)["outcome"] == 20

    SELECT_C = (
        "float a[64]; float b[64];"
        "int main(void) { int i; float s; s = 0.0f;"
        " for (i = 0; i < 64; i++) a[i] = i - 20;"
        " for (i = 1; i < 64; i++) {"
        "  if (a[i] > 1.0f) b[i] = b[i-1] * 2.0f + a[i];"
        "  else b[i] = a[i] + b[i-1]; }"
        " for (i = 0; i < 64; i++) s = s + b[i];"
        " return (int) s; }")

    def test_scalar_select_charges_only_the_taken_arm(self):
        # If-converted recurrence: a scalar Select whose arms hold
        # different loads and flops; a[i] > 1 flips at i == 22, so
        # both arms are taken.
        program = compile_c(self.SELECT_C, CompilerOptions()).program
        assert any(isinstance(e, N.Select) and not isinstance(
                       stmt, (N.VectorAssign, N.VectorReduce))
                   for fn in program.functions.values()
                   for stmt in fn.all_statements()
                   for top in N.stmt_exprs(stmt)
                   for e in N.walk_expr(top))
        config = TitanConfig()
        # Charged (no schedules) and merely counted (scheduled loop).
        _agree(program, config=config, schedules={})
        _agree(program, config=config,
               schedules=schedule_program(program, config))

    def test_repeated_subexpression_charges_every_occurrence(self):
        # Generated code evaluates i * 3 + 1 once (a CSE temp); the
        # oracle evaluates — and charges — it three times.
        source = ("int main(void) { int i; int s; s = 0;"
                  " for (i = 0; i < 5; i++)"
                  "  s = s + (i * 3 + 1) * (i * 3 + 1) + (i * 3 + 1);"
                  " return s; }")
        _agree(compile_to_il(source, "<test>"))

    @pytest.mark.parametrize("max_steps,cycles",
                             [(3, 13), (4, 14), (5, 15), (6, 18)])
    def test_step_limit_in_straight_line_code(self, max_steps, cycles):
        # The register assigns batch their ticks with the store that
        # follows them; a limit that lands inside the batch charges
        # what the nodes it reached noted, as the oracle does.
        source = ("int g; int main(void) { int ri; ri = g + 5;"
                  " ri = ri - 3; ri = ri * 3; ri = ri * 3; g = ri;"
                  " return ri; }")
        fast = _agree(compile_c(source, CompilerOptions()).program,
                      max_steps=max_steps)
        assert fast["outcome"][0] == StepLimitExceeded.__name__
        assert fast["cycles"] == cycles

    def test_memory_backed_local_vs_register(self):
        # Taking k's address moves it to memory: every read is a load,
        # every write a store; j stays a register and costs nothing.
        source = ("int deref(int *p) { return *p; }"
                  "int main(void) { int j; int k; int s; s = 0;"
                  " for (k = 0; k < 6; k++)"
                  "  for (j = 0; j < 3; j++) s = s + j + deref(&k);"
                  " return s; }")
        fast = _agree(compile_c(source, O0).program)
        source = source.replace("deref(&k)", "k").replace(
            "int deref(int *p) { return *p; }", "")
        plain = _agree(compile_c(source, O0).program)
        assert fast["outcome"] == plain["outcome"]
        assert fast["counters"].loads > plain["counters"].loads

    def test_vector_statements_and_parallel_rescale(self):
        source = ("float a[200]; float b[200];"
                  "int main(void) { int i; float s; s = 0.0f;"
                  " for (i = 0; i < 200; i++) { a[i] = i; b[i] = 2; }"
                  " for (i = 0; i < 200; i++) a[i] = a[i] * b[i] + 1;"
                  " for (i = 0; i < 200; i++) s = s + a[i];"
                  " return (int) s; }")
        program = compile_c(source, CompilerOptions()).program
        for processors in (1, 2, 4):
            for order in ("forward", "reverse", "shuffle"):
                fast = _agree(program,
                              config=TitanConfig(processors=processors),
                              parallel_order=order, seed=7)
                assert fast["counters"].vector_instructions > 0
                # Its strip loops fork (compiled for two processors);
                # the rescale takes whole cycles off (see _agree) on
                # more than one.
                assert fast["counters"].parallel_loops > 0
                assert (fast["parallel_adjust"] < 0) == (processors > 1)


class TestVectorStatements:
    """The same constructs as ``test_bytecode_engine.py``'s
    (``tests/vector_cases.py``), under a cost model whose total does
    not start at zero: cycles ``==``, counters and breakdown too —
    also after a fault, which the oracle's own routine raises."""

    @pytest.mark.parametrize("name", sorted(vector_cases.CASES))
    def test_matches_the_oracle(self, name):
        vector_cases.CASES[name].run(costed=True)


class TestFaults:
    """A fault leaves the same message and step count as the oracle,
    and the model holding what the generated code had accounted for
    (the ``finally`` flush) — never more than the oracle charged."""

    def _fault(self, program, **kwargs):
        oracle = _observe(program, "tree", **kwargs)
        fast = _observe(program, "compiled", **kwargs)
        assert isinstance(fast["outcome"], tuple)
        assert fast["outcome"] == oracle["outcome"]
        assert fast["steps"] == oracle["steps"]
        assert 0 < fast["cycles"] <= oracle["cycles"]
        assert fast["breakdown"].charged() == fast["cycles"]
        return fast

    def test_step_limit_mid_loop(self):
        source = ("int a[8]; int main(void) { int i; i = 0;"
                  " while (1) { a[i & 7] = i; i = i + 1; }"
                  " return 0; }")
        fast = self._fault(compile_c(source, O0).program, max_steps=500)
        assert fast["outcome"][0] == StepLimitExceeded.__name__

    def test_null_deref_mid_loop(self):
        source = ("int a[8]; int *p;"
                  "int main(void) { int i; int s; s = 0; p = a;"
                  " for (i = 0; i < 8; i++)"
                  " { if (i == 5) p = 0; s = s + *p; }"
                  " return s; }")
        fast = self._fault(compile_c(source, O0).program)
        assert "null deref" in fast["outcome"][1]

    def test_fault_in_a_callee_keeps_the_callers_parked_total(self):
        source = ("int a[4];"
                  "int peek(int *p) { return *p; }"
                  "int main(void) { int i; int s; s = 0;"
                  " for (i = 0; i < 4; i++) s = s + a[i];"
                  " return s + peek(0); }")
        self._fault(compile_c(source, O0).program)


class TestTierPick:
    LOOP_C = ("float a[16];"
              "int main(void) { int i; float s; s = 0.0f;"
              " for (i = 0; i < 16; i++) a[i] = i * 0.5f;"
              " for (i = 0; i < 16; i++) s = s + a[i];"
              " return (int) s; }")

    def test_noninteger_latency_runs_on_the_oracle(self):
        program = compile_c(self.LOOP_C, O0).program
        for config in (TitanConfig(fp_latency=8.5),
                       TitanConfig(vector_element_cycles=0.5),
                       TitanConfig(vector_stride_penalty=1.5)):
            _agree(program, expect={("oracle", "noninteger-cost")},
                   config=config)
        # A whole number of cycles spelled as a float still inlines.
        _agree(program, config=TitanConfig(fp_latency=8.0))

    def test_profiler_runs_on_the_oracle_and_sums_to_total(self):
        program = compile_c(self.LOOP_C, CompilerOptions()).program
        before = tiers()
        with TitanSimulator(program, profile=True) as simulator:
            report = simulator.run("main")
        assert tier_delta(before) == {("oracle", "hook"): 1}
        profile = report.profile
        assert profile.toplevel_cycles + sum(
            loop.cycles for loop in profile.loops) == report.cycles
        with TitanSimulator(program, engine="tree") as simulator:
            assert simulator.run("main").cycles == report.cycles

    def test_call_in_a_loop_is_not_scheduled(self):
        # A call nested in an assign's value (lowering hoists calls
        # into their own statements, so it takes IL surgery to get
        # one): what the model suppresses in a scheduled loop would
        # then depend on the caller, so the scheduler refuses the loop
        # and the engine has nothing to discover.
        source = ("float a[16];"
                  "float twice(float v) { return v + v; }"
                  "int main(void) { int i;"
                  " for (i = 0; i < 16; i++) a[i] = twice(i) + 1.0f;"
                  " return (int) a[15]; }")
        program = compile_c(source, CompilerOptions(
            inline=False, vectorize=False, parallelize=False)).program
        loop = next(s for s in program.functions["main"].all_statements()
                    if isinstance(s, N.DoLoop))
        call, store = loop.body
        # Expressions are immutable (their facts are memoized): graft
        # by rebuilding the node, never by assigning a field.
        store.value = store.value.replace_children(
            [call.value, store.value.right])
        del loop.body[0]
        schedules = schedule_program(program, TitanConfig())
        assert loop.sid not in schedules
        assert _agree(program, schedules=schedules)["outcome"] == 31

    @FALLBACKS
    def test_fallback_under_the_model_matches_oracle(self, build, reason):
        # The generator's refusals do not depend on the hook: under
        # the cost model the function runs on the oracle too, charging
        # event by event (a fault included: same message, steps and
        # model total).
        _agree(build(), expect={("oracle", reason)})

    @pytest.mark.parametrize("ending,kwargs,kind", [
        ("return r + port;", {}, int),
        ("while (1) port = port + r; return 0;", {"max_steps": 300},
         tuple),
        ("return r / (port - 4);", {}, tuple),
    ], ids=("returns", "step-limit", "fault"))
    def test_mixed_activation_matches_oracle(self, ending, kwargs, kind):
        # Oracle-run main -> costed generated mid -> oracle-run leaf:
        # the oracle frames charge the model event by event between
        # mid's park and reload; a step limit or fault in main, after
        # mid came back, leaves the tree engine's model total exactly.
        source = MIXED_C.replace("return r + port;", ending)
        fast = _agree(compile_to_il(source, "<test>"), expect={
            ("oracle", "volatile write"), ("generated", "costed")},
            **kwargs)
        assert type(fast["outcome"]) is kind

    def test_call_under_a_select_falls_back_by_name(self):
        source = ("int g;"
                  "int bump(int v) { g = g + v; return g; }"
                  "int main(void) { int r; g = 1; r = g + 2;"
                  " return r; }")
        program = compile_to_il(source, "<test>")
        main = program.functions["main"]
        assign = next(s for s in main.all_statements()
                      if isinstance(s, N.Assign)
                      and isinstance(s.value, N.BinOp))
        ctype = assign.value.ctype
        call = N.CallExpr(ctype=ctype, name="bump",
                          args=[N.Const(ctype=ctype, value=5)])
        assign.value = N.Select(ctype=ctype, cond=assign.value.left,
                                then=call, otherwise=assign.value)
        # main runs on the oracle, event by event; its callee still
        # accounts for itself — the two mix through the model.
        fast = _agree(program, expect={
            ("oracle", "costed call under a select"),
            ("generated", "costed")})
        assert fast["outcome"] == 6

    def test_hook_swapped_mid_life_rematerializes(self):
        program = compile_c(self.LOOP_C, O0).program
        interp = make_interpreter(program, engine="compiled")
        before = tiers()
        assert interp.run("main") == 60
        model = TitanCostModel()
        interp.cost_hook = model
        assert interp.run("main") == 60
        events = []
        interp.cost_hook = lambda *event: events.append(event)
        assert interp.run("main") == 60
        assert tier_delta(before) == {("generated", ""): 1,
                                      ("generated", "costed"): 1,
                                      ("oracle", "hook"): 1}
        oracle = TitanCostModel()
        make_interpreter(program, engine="tree",
                         cost_hook=oracle).run("main")
        assert model.cycles == oracle.cycles
        assert model.counters == oracle.counters
        replayed = TitanCostModel()
        for event in events:
            replayed(*event)
        assert replayed.cycles == oracle.cycles

    def test_cache_keys_latencies_not_processors(self):
        program = compile_c(self.LOOP_C, CompilerOptions()).program

        def run(**config):
            hits, misses = _cache("hit"), _cache("miss")
            with TitanSimulator(program, TitanConfig(**config)) as sim:
                report = sim.run("main")
            return report, _cache("hit") - hits, _cache("miss") - misses

        _, _, misses = run()
        assert misses == 1
        # Processors only reach the model's parallel_end rescale.
        four, hits, misses = run(processors=4)
        assert (hits, misses) == (1, 0)
        # A latency is baked into the generated chains.
        slow, hits, misses = run(int_latency=3)
        assert (hits, misses) == (0, 1)
        for config, report in (({"processors": 4}, four),
                               ({"int_latency": 3}, slow)):
            with TitanSimulator(program, TitanConfig(**config),
                                engine="tree") as sim:
                oracle = sim.run("main")
            assert report.cycles == oracle.cycles
            assert report.breakdown == oracle.breakdown

    def test_disassemble_shows_the_variant_a_run_executes(self):
        program = compile_c(self.LOOP_C, O0).program
        plain = make_interpreter(program, engine="compiled")
        assert "_cy" not in plain.disassemble("main")
        with TitanSimulator(program) as simulator:
            listing = simulator.interpreter.disassemble("main")
        assert "_cy = _cy + " in listing and "_M.absorb(" in listing
        with TitanSimulator(program, profile=True) as simulator:
            listing = simulator.interpreter.disassemble("main")
        assert "tree oracle under this cost hook: hook" in listing


class TestRepeatedRuns:
    def test_second_run_reports_its_own_numbers(self):
        # Each run is timed from zero and owns its report; the memory
        # image and the engine's step count carry over.
        with open("examples/daxpy.c") as handle:
            program = compile_c(handle.read(),
                                CompilerOptions()).program
        for engine in ("compiled", "tree"):
            for profile in (False, True):
                with TitanSimulator(program, engine=engine,
                                    profile=profile) as simulator:
                    first = simulator.run("main")
                    snapshot = dataclasses.replace(first.counters)
                    steps = simulator.interpreter.steps
                    second = simulator.run("main")
                    assert simulator.interpreter.steps == 2 * steps
                assert second.cycles == first.cycles == 2244.0
                assert second.counters == first.counters == snapshot
                assert second.breakdown == first.breakdown
                if profile:
                    assert [(l.sid, l.cycles)
                            for l in second.profile.loops] == \
                        [(l.sid, l.cycles) for l in first.profile.loops]
