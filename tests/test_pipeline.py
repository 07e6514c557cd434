"""End-to-end pipeline tests over the workload suites."""

import pytest

from repro.il import nodes as N
from repro.il.validate import validate_program, validate_unique_sids
from repro.pipeline import (CompilerOptions, PipelineHook,
                            TitanCompiler, compile_c)
from repro.workloads import blas, graphics, stencils

from tests.helpers import assert_same_behaviour, run_optimized, \
    run_reference


class TestWorkloadCorrectness:
    def test_blas_library_all_routines(self):
        n = 48
        src = blas.MATH_LIBRARY_C + f"""
        float a[{n}], b[{n}], c[{n}];
        float dot_result;
        int main(void) {{
            daxpy(a, b, c, 2.0, {n});
            scopy(c, a, {n});
            sscal(c, 0.5, {n});
            dot_result = sdot(a, b, {n});
            vadd(b, a, c, {n});
            return 0;
        }}
        """
        assert_same_behaviour(
            src,
            arrays={"b": [float(i % 5) for i in range(n)],
                    "c": [1.0] * n},
            check_arrays=[("a", n), ("b", n), ("c", n)],
            check_scalars=["dot_result"])

    def test_graphics_transform(self):
        src = graphics.transform_points(n=64) + """
        int main(void) { transform(64); return 0; }
        """
        mat = graphics.identity_matrix()
        assert_same_behaviour(
            src,
            arrays={"mat": mat,
                    "px": [float(i) for i in range(64)],
                    "py": [float(-i) for i in range(64)],
                    "pz": [0.5] * 64,
                    "pw": [1.0] * 64},
            check_arrays=[("ox", 64), ("oy", 64), ("oz", 64),
                          ("ow", 64)])

    def test_graphics_struct_arrays(self):
        src = graphics.struct_array(n=32) + """
        int main(void) { shade(32); return 0; }
        """
        ref = run_reference(src, scalars={"brightness": 2.0})
        opt = run_optimized(src, scalars={"brightness": 2.0})
        # compare raw struct memory
        g_r = ref.program.global_named("verts")
        g_o = opt.program.global_named("verts")
        size = g_r.sym.ctype.sizeof()
        base_r = ref.memory.address_of(g_r.sym)
        base_o = opt.memory.address_of(g_o.sym)
        assert ref.memory.data[base_r:base_r + size] == \
            opt.memory.data[base_o:base_o + size]

    def test_mat4_multiply(self):
        src = graphics.MAT4_MULTIPLY_C + """
        int main(void) { mat4mul(); return 0; }
        """
        assert_same_behaviour(
            src,
            arrays={"ma": [float(i) for i in range(16)],
                    "mb": [float((i * 7) % 5) for i in range(16)]},
            check_arrays=[("mc", 16)])

    @pytest.mark.parametrize("kernel,entry,arrays", [
        (stencils.prefix(128), "prefix",
         {"acc": [1.0] * 128, "w": [1.01] * 128}),
        (stencils.smooth(128), "smooth",
         {"src": [float(i % 9) for i in range(128)],
          "dst": [0.0] * 128}),
        (stencils.smooth_inplace(128), "smooth_inplace",
         {"buf": [float(i) for i in range(128)]}),
    ], ids=["prefix", "smooth", "smooth_inplace"])
    def test_stencils(self, kernel, entry, arrays):
        src = kernel + f"""
        int main(void) {{ {entry}(128); return 0; }}
        """
        names = [(name, 128) for name in arrays]
        assert_same_behaviour(src, arrays=arrays, check_arrays=names)

    def test_smooth_vectorizes_prefix_does_not(self):
        smooth = compile_c(stencils.smooth(256))
        prefix = compile_c(stencils.prefix(256))
        assert smooth.vectorize_stats["smooth"].loops_vectorized == 1
        assert prefix.vectorize_stats["prefix"].loops_vectorized == 0


class TestOptionMatrix:
    SRC = """
    float a[96], b[96];
    int out;
    int main(void) {
        int i;
        for (i = 0; i < 96; i++)
            a[i] = b[i] * 3.0f;
        out = (int) a[95];
        return out;
    }
    """

    @pytest.mark.parametrize("options", [
        CompilerOptions(),
        CompilerOptions(inline=False),
        CompilerOptions(vectorize=False),
        CompilerOptions(parallelize=False),
        CompilerOptions(scalar_opt=False),
        CompilerOptions(reg_pipeline=False, strength_reduction=False),
        CompilerOptions(inline=False, scalar_opt=False,
                        vectorize=False, reg_pipeline=False,
                        strength_reduction=False),
        CompilerOptions(vector_length=8),
        CompilerOptions(strict_while_conversion=True),
        CompilerOptions(fortran_pointer_semantics=True),
    ], ids=["full", "no-inline", "no-vec", "no-par", "no-scalar",
            "no-depopt", "O0", "vl8", "strict-while", "fortran-ptr"])
    def test_every_configuration_is_correct(self, options):
        assert_same_behaviour(
            self.SRC, arrays={"b": [float(i) for i in range(96)]},
            check_arrays=[("a", 96)], check_scalars=["out"],
            options=options)

    def test_parallelize_off_emits_no_parallel_loops(self):
        result = compile_c(self.SRC, CompilerOptions(parallelize=False))
        assert not any(isinstance(s, N.DoLoop) and s.parallel
                       for fn in result.program.functions.values()
                       for s in fn.all_statements())

    def test_vector_length_option_respected(self):
        result = compile_c(self.SRC, CompilerOptions(vector_length=8))
        strips = [s for fn in result.program.functions.values()
                  for s in fn.all_statements()
                  if isinstance(s, N.DoLoop) and s.vector]
        assert strips and strips[0].step == 8


class TestStageDumps:
    def test_stages_recorded_in_order(self):
        compiler = TitanCompiler(CompilerOptions(dump_stages=True))
        result = compiler.compile(
            "float a[8]; void f(void) { a[0] = 1.0f; }")
        names = [d.stage for d in result.stages]
        assert names == ["front-end", "inline", "scalar-opt",
                         "vectorize", "dependence-opt", "final"]

    def test_no_dumps_by_default(self):
        result = compile_c("void f(void) { }")
        assert result.stages == []

    def test_stage_text_lookup_raises_on_unknown(self):
        result = compile_c("void f(void) { }")
        with pytest.raises(KeyError):
            result.stage_text("nonexistent")


class TestValidationAfterEveryConfig:
    @pytest.mark.parametrize("source", [
        blas.MATH_LIBRARY_C,
        stencils.backsolve(64),
        stencils.prefix(64),
        graphics.transform_points(32),
        graphics.MAT4_MULTIPLY_C,
        graphics.struct_array(16),
    ], ids=["blas", "backsolve", "prefix", "transform", "mat4",
            "structs"])
    def test_compiled_programs_validate(self, source):
        result = compile_c(source)
        validate_program(result.program)


class ValidatingHook(PipelineHook):
    """Re-validate the IL after every pass, not just at the end."""

    def __init__(self):
        self.events = []

    def after_pass(self, name, program, function="", round_no=0):
        validate_program(program)
        validate_unique_sids(program)
        self.events.append((name, function, round_no))


class TestValidationAfterEveryPass:
    SOURCES = [
        blas.MATH_LIBRARY_C,
        stencils.backsolve(64),
        stencils.prefix(64),
        graphics.transform_points(32),
        graphics.MAT4_MULTIPLY_C,
        graphics.struct_array(16),
    ]

    @pytest.mark.parametrize("source", SOURCES,
                             ids=["blas", "backsolve", "prefix",
                                  "transform", "mat4", "structs"])
    def test_every_pass_output_validates(self, source):
        hook = ValidatingHook()
        compile_c(source, hooks=(hook,))
        names = {event[0] for event in hook.events}
        # The hook really observed the whole pipeline, front to back.
        assert "front-end" in names
        assert "vectorize" in names
        assert "deadcode" in names
        assert len(hook.events) > 10

    def test_hook_sees_both_scalar_rounds(self):
        hook = ValidatingHook()
        compile_c(stencils.backsolve(16), hooks=(hook,))
        rounds = {event[2] for event in hook.events
                  if event[0] == "constprop"}
        assert rounds == {1, 2}


class TestPassIterations:
    """Section 5.3's "worst case n passes, ~1 in practice", reported:
    every run of a pass-level fixed point lands in the
    ``titancc_pass_iterations{pass}`` histogram, and a bound that
    bites says so in an ``analysis`` remark."""

    CASCADE = ("int main(void) { int a, b, c, d; a = 1; b = a; c = b;"
               " d = c; return 7; }")

    @staticmethod
    def example(name):
        import os
        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "examples", name)
        with open(path) as handle:
            return handle.read()

    def test_every_fixed_point_run_is_counted(self):
        result = compile_c(self.example("daxpy.c"))
        runs = {}
        for (name, count), n in result.pass_iterations.items():
            runs.setdefault(name, []).extend([count] * n)
        assert sorted(runs) == ["constprop", "deadcode", "forward-sub"]
        functions = len(result.program.functions)
        rounds = result.options.scalar_opt_rounds
        # One constprop run per function per round; DCE also once more
        # at the end.  The totals are the stats the report prints.
        assert len(runs["constprop"]) == functions * rounds
        assert len(runs["deadcode"]) == functions * (rounds + 1)
        assert sum(runs["constprop"]) == sum(
            s.rounds for s in result.constprop_stats.values())
        assert sum(runs["deadcode"]) == functions + sum(
            s.iterations for s in result.dce_stats.values())
        assert sum(runs["forward-sub"]) > sum(
            s.sweeps for s in result.ivsub_stats.values()) > 0
        # "~1 in practice": most runs take one pass.
        assert runs["forward-sub"].count(1) > len(runs["forward-sub"]) / 2

    def test_histogram_family_beside_the_analysis_solves(self):
        from repro.obs.counters import (PASS_ITERATIONS_FAMILY,
                                        record_pass_iterations)
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.report import CompilationReport
        result = compile_c(self.example("daxpy.c"))
        registry = MetricsRegistry()
        record_pass_iterations(registry, result.pass_iterations)
        text = registry.format_prometheus()
        for name in ("forward-sub", "constprop", "deadcode"):
            assert (f'{PASS_ITERATIONS_FAMILY}_count{{pass="{name}"}}'
                    in text)
        assert f'{PASS_ITERATIONS_FAMILY}_sum{{pass="constprop"}} 12' \
            in text
        # Like the solve counts: a property of the compiler, not of the
        # compiled program — never in the cached, diffed report bytes.
        doc = CompilationReport.from_result(result).to_json()
        assert "pass_iterations" not in doc
        assert not [r for r in result.remarks
                    if "iteration bound" in r.message]

    def test_a_bound_that_bites_is_an_analysis_remark(self, monkeypatch):
        from repro.opt import deadcode
        # Dead copies that die one per iteration: d, then c, then b ...
        plain = compile_c(self.CASCADE, CompilerOptions(inline=False))
        assert max(s.iterations for s in plain.dce_stats.values()) > 1
        monkeypatch.setattr(deadcode, "MAX_ITERATIONS", 0)
        capped = compile_c(self.CASCADE, CompilerOptions(inline=False))
        remarks = [r for r in capped.remarks.for_kind("analysis")
                   if r.pass_name == "deadcode"]
        assert remarks and remarks[0].function == "main"
        assert "iteration bound after 1 pass(es)" in remarks[0].message
        assert remarks[0].args["iterations"] == 1

    def test_each_pass_reports_its_own_cap(self):
        from repro.frontend.lower import compile_to_il
        from repro.opt.constprop import propagate_constants
        from repro.opt.deadcode import eliminate_dead_code
        from repro.opt.forward_sub import forward_substitute
        source = ("int main(void) { int a, b; a = 2; b = a + 1;"
                  " if (b == 3) return 1; return 0; }")

        def fresh():
            program = compile_to_il(source, "<t>")
            return program.functions["main"], program.globals

        fn, _ = fresh()
        assert forward_substitute(fn.body, max_sweeps=1).capped
        assert not forward_substitute(fn.body).capped
        stats = propagate_constants(*fresh(), max_rounds=1)
        assert stats.rounds == 1 and stats.capped
        fn, globals_ = fresh()
        stats = propagate_constants(fn, globals_)
        assert stats.rounds > 1 and not stats.capped
        assert not eliminate_dead_code(fn, globals_).capped
