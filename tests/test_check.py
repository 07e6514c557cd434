"""Tests for the per-pass semantic checker and the miscompile
bisector (repro.check).

The core property under test: when a known bug is *planted* after a
chosen pass (the :class:`InjectedBug` fixture flips a loop bound), the
bisector must convict exactly that pass — not merely report "something
diverged".  Plus coverage for the checker's laziness, crash
attribution, the ``titancc-bisect/1`` document shape, the harness
wiring, and the tightened IL validator.
"""

import pytest

import repro.check.bisect as bisect_mod
import repro.fuzz.harness as harness_mod
from repro.check import (BISECT_SCHEMA, ExecOutcome, InjectedBug,
                         PassChecker, bisect_source, flip_loop_bound,
                         outcome_differs, pass_registry)
from repro.frontend.lower import compile_to_il
from repro.fuzz.harness import run_source
from repro.il import nodes as N
from repro.il.validate import (ILValidationError, validate_program,
                               validate_unique_sids)
from repro.pipeline import (CompilerOptions, PipelineHook,
                            TitanCompiler, compile_c)

SUM_LOOP = """
int main(void) {
    int i;
    int s;
    s = 0;
    for (i = 0; i < 10; i = i + 1) {
        s = s + i;
    }
    return s;
}
"""

DAXPY = """
double X[64], Y[64];
double a;

void daxpy(void) {
    int i;
    for (i = 0; i < 64; i = i + 1)
        Y[i] = Y[i] + a * X[i];
}

int main(void) {
    int i;
    a = 2.0;
    for (i = 0; i < 64; i = i + 1) {
        X[i] = i;
        Y[i] = 1.0;
    }
    daxpy();
    return (int)Y[63];
}
"""


class TestPassRegistry:
    def test_covers_every_pipeline_pass(self):
        registry = pass_registry()
        for name in ("front-end", "while-to-do", "ivsub", "constprop",
                     "fold", "forward-sub", "deadcode", "unreachable",
                     "cond-split", "inline", "vectorize",
                     "list-parallel", "reg-pipeline", "strength",
                     "schedule"):
            assert name in registry, name
            assert registry[name]

    def test_checker_pass_names_come_from_registry(self):
        checker = PassChecker()
        compile_c(DAXPY, hooks=(checker,))
        registry = pass_registry()
        for snap in checker.snapshots:
            assert snap.pass_name in registry, snap.label


class TestPassChecker:
    def test_clean_compile_has_no_divergence(self):
        checker = PassChecker()
        compile_c(DAXPY, hooks=(checker,))
        assert checker.first_divergence() is None
        assert checker.baseline.pass_name == "front-end"
        assert all(s.valid for s in checker.snapshots)

    def test_execution_is_lazy(self):
        # Unchanged snapshots inherit the previous outcome instead of
        # re-running the oracle; that is what makes per-pass checking
        # affordable.
        checker = PassChecker()
        compile_c(DAXPY, hooks=(checker,))
        assert checker.executions < len(checker.snapshots)
        unchanged = [s for s in checker.snapshots if not s.changed]
        assert unchanged
        assert all(not s.executed and s.outcome is not None
                   for s in unchanged)

    def test_shared_outcomes_run_each_text_once(self):
        outcomes = {}
        first = PassChecker(outcomes=outcomes)
        compile_c(DAXPY, hooks=(first,))
        again = PassChecker(outcomes=outcomes)
        compile_c(DAXPY, hooks=(again,))
        assert first.executions == len(outcomes) > 0
        assert again.executions == 0
        assert again.to_records() == first.to_records()
        # A setting the run reads is part of the key.
        bounded = PassChecker(outcomes=outcomes, max_steps=10)
        compile_c(DAXPY, hooks=(bounded,))
        assert bounded.executions == first.executions

    def test_shared_outcomes_tell_initializers_apart(self):
        # The printer leaves initializers out: these print alike.
        outcomes = {}
        values = []
        for init in ("3", "4", "4"):
            checker = PassChecker(outcomes=outcomes)
            compile_c(f"int g = {init}; int main(void) {{ return g; }}",
                      hooks=(checker,))
            values.append((checker.baseline.outcome.value,
                           checker.executions > 0))
        assert values == [(3, True), (4, True), (4, False)]

    def test_records_are_json_shaped(self):
        checker = PassChecker()
        compile_c(SUM_LOOP, hooks=(checker,))
        records = checker.to_records()
        assert records[0]["pass"] == "front-end"
        assert records[0]["outcome"]["value"] == 45
        assert all(set(r) >= {"index", "pass", "function", "round",
                              "changed", "valid", "executed"}
                   for r in records)

    def test_format_table_mentions_every_snapshot(self):
        checker = PassChecker()
        compile_c(SUM_LOOP, hooks=(checker,))
        table = checker.format_table()
        assert "front-end" in table
        assert f"{len(checker.snapshots)} snapshots" in table

    @pytest.mark.parametrize("engine", ("compiled",))
    def test_fast_engine_outcomes_match_oracle(self, engine):
        # The checker can replay snapshots on a fast engine; on a
        # clean compile every per-pass outcome must equal the tree
        # oracle's (result value AND stdout), and no divergence fires.
        oracle = PassChecker()
        compile_c(DAXPY, hooks=(oracle,))
        fast = PassChecker(engine=engine)
        compile_c(DAXPY, hooks=(fast,))
        assert fast.first_divergence() is None
        assert len(fast.snapshots) == len(oracle.snapshots)
        for a, b in zip(oracle.snapshots, fast.snapshots):
            assert (a.outcome is None) == (b.outcome is None), a.label
            if a.outcome is not None:
                assert a.outcome.to_dict() == b.outcome.to_dict(), \
                    a.label


class TestOutcomeDiffers:
    def test_value_difference(self):
        assert outcome_differs(ExecOutcome("ok", value=1),
                               ExecOutcome("ok", value=2))

    def test_stdout_difference(self):
        assert outcome_differs(ExecOutcome("ok", value=1, stdout="a"),
                               ExecOutcome("ok", value=1, stdout="b"))

    def test_status_difference(self):
        assert outcome_differs(ExecOutcome("ok", value=1),
                               ExecOutcome("error",
                                           error_type="ValueError"))

    def test_errors_compare_by_type_only(self):
        a = ExecOutcome("error", error_type="StepBudget",
                        error="exhausted after 10 steps")
        b = ExecOutcome("error", error_type="StepBudget",
                        error="exhausted after 20 steps")
        assert not outcome_differs(a, b)

    def test_none_never_differs(self):
        assert not outcome_differs(None, ExecOutcome("ok", value=1))
        assert not outcome_differs(ExecOutcome("ok", value=1), None)


class TestInjectedBugConviction:
    """The acceptance fixture: plant a flipped loop bound after pass
    P; the bisector must name P."""

    @pytest.mark.parametrize("guilty", ["ivsub", "constprop",
                                        "vectorize", "schedule"])
    def test_convicts_the_planted_pass(self, guilty):
        bug = InjectedBug(after=guilty, function="main")
        report = bisect_source(DAXPY, name="daxpy",
                               extra_hooks=[bug])
        assert bug.fired
        assert report.status == "culprit"
        assert report.guilty_pass == guilty
        assert report.function == "main"
        assert report.diff, "conviction must carry a before/after diff"
        assert "main" in report.diff

    def test_clean_program_is_acquitted(self):
        report = bisect_source(DAXPY, name="daxpy")
        assert report.status == "clean"
        assert report.guilty_pass == ""
        assert report.diff == ""

    def test_conviction_carries_remarks_and_deps(self):
        bug = InjectedBug(after="ivsub", function="main")
        report = bisect_source(DAXPY, name="daxpy",
                               extra_hooks=[bug])
        # ivsub emits remarks for main's loops; collect_deps is forced
        # on by the bisector so dependence edges ride along.
        assert any(r["pass"] == "ivsub" for r in report.remarks)
        assert all(r["function"] == "main" for r in report.remarks)
        assert report.dep_graphs
        assert all(g["function"] == "main" for g in report.dep_graphs)

    def test_scalar_round_is_attributed(self):
        bug = InjectedBug(after="constprop", function="main",
                          round_no=1)
        report = bisect_source(DAXPY, name="daxpy",
                               extra_hooks=[bug])
        assert report.status == "culprit"
        assert report.round_no == 1

    def test_flip_loop_bound_prefers_main(self):
        program = compile_to_il(DAXPY, "<t>")
        # Convert nothing: front-end IL has while loops only, so the
        # mutator reports failure instead of corrupting at random.
        assert not flip_loop_bound(program)


class TestCrashAttribution:
    class Exploder(PipelineHook):
        def __init__(self, at):
            self.at = at

        def after_pass(self, name, program, function="", round_no=0):
            if name == self.at:
                raise RuntimeError("planted crash")

    def test_crash_is_attributed_to_running_pass(self):
        report = bisect_source(DAXPY, name="daxpy",
                               extra_hooks=[self.Exploder("ivsub")])
        assert report.status == "compile-crash"
        assert report.guilty_pass == "ivsub"
        assert "RuntimeError" in report.error


class TestBisectDocument:
    def test_schema_and_shape(self):
        bug = InjectedBug(after="ivsub", function="main")
        doc = bisect_source(DAXPY, name="daxpy",
                            extra_hooks=[bug]).to_dict()
        assert doc["schema"] == BISECT_SCHEMA == "titancc-bisect/1"
        assert set(doc) >= {"name", "status", "guilty_pass",
                            "function", "round", "diff", "remarks",
                            "dep_graphs", "passes",
                            "baseline_outcome", "culprit_outcome"}
        assert doc["passes"], "per-pass table must be present"
        import json
        json.dumps(doc)  # must be JSON-serializable as-is

    def test_format_is_human_readable(self):
        bug = InjectedBug(after="ivsub", function="main")
        text = bisect_source(DAXPY, name="daxpy",
                             extra_hooks=[bug]).format()
        assert "guilty pass: ivsub" in text
        assert "daxpy" in text


class _BuggyCompiler(TitanCompiler):
    """A compiler whose ivsub pass miscompiles main — installed via
    monkeypatch so both the harness and the bisector see the bug."""

    def __init__(self, options=None, database=None, hooks=()):
        bug = InjectedBug(after="ivsub", function="main")
        super().__init__(options, database,
                         hooks=[bug] + list(hooks))


def _buggy_compile_c(source, options=None, database=None,
                     headers=None, hooks=()):
    return _BuggyCompiler(options, database, hooks=hooks) \
        .compile(source, headers=headers)


class TestHarnessWiring:
    def test_check_passes_attributes_during_compile(self, monkeypatch):
        monkeypatch.setattr(harness_mod, "compile_c",
                            _buggy_compile_c)
        result = run_source(SUM_LOOP, check_passes=True,
                            bisect_failures=False)
        assert result.status == "divergence"
        convicted = [v for v in result.variants if v.culprit]
        assert convicted
        for variant in convicted:
            assert variant.phase == "pass-check"
            assert variant.culprit["schema"] == BISECT_SCHEMA
            assert variant.culprit["guilty_pass"] == "ivsub"
        # O0 never runs ivsub, so that point stays green.
        o0 = next(v for v in result.variants if v.name == "O0")
        assert o0.status == "ok"

    def test_end_to_end_failure_is_auto_bisected(self, monkeypatch):
        monkeypatch.setattr(harness_mod, "compile_c",
                            _buggy_compile_c)
        monkeypatch.setattr(bisect_mod, "TitanCompiler",
                            _BuggyCompiler)
        result = run_source(SUM_LOOP)  # bisection on by default
        assert result.status == "divergence"
        culprits = [v.culprit for v in result.variants if v.culprit]
        assert len(culprits) == 1, \
            "only the first failing variant is bisected"
        assert culprits[0]["status"] == "culprit"
        assert culprits[0]["guilty_pass"] == "ivsub"

    def test_clean_program_carries_no_culprit(self):
        result = run_source(SUM_LOOP, check_passes=True)
        assert result.status == "ok"
        assert all(v.culprit is None for v in result.variants)


class TestTightenedValidator:
    def _vector_program(self):
        return compile_c(DAXPY).program

    def _first_vector_assign(self, program):
        for fn in program.functions.values():
            for stmt in fn.all_statements():
                if isinstance(stmt, N.VectorAssign):
                    return stmt
        pytest.fail("expected a vectorized statement")

    def test_zero_stride_section_rejected(self):
        program = self._vector_program()
        stmt = self._first_vector_assign(program)
        stmt.target.stride = 0
        with pytest.raises(ILValidationError, match="zero stride"):
            validate_program(program)

    def test_non_integer_stride_rejected(self):
        program = self._vector_program()
        stmt = self._first_vector_assign(program)
        stmt.target.stride = "wide"
        with pytest.raises(ILValidationError, match="not an"):
            validate_program(program)

    def test_cross_function_sid_collision_rejected(self):
        program = compile_to_il(SUM_LOOP, "<t>")
        validate_unique_sids(program)
        main = program.functions["main"]
        clone = N.ILFunction(name="copy", params=main.params,
                             ret_type=main.ret_type, body=main.body)
        program.functions["copy"] = clone
        with pytest.raises(ILValidationError, match="appears in both"):
            validate_unique_sids(program)
