"""Tests for the observability subsystem: optimization remarks, pass
tracing (Chrome trace-event JSON), and the Titan hot-loop profiler."""

import glob
import json
import os

import pytest

from repro.cli import main
from repro.frontend.lower import compile_to_il
from repro.obs.remarks import (ANALYSIS, MISSED, TRANSFORMED, Remark,
                               RemarkCollector)
from repro.obs.trace import PassTracer
from repro.opt.ivsub import InductionVariableSubstitution
from repro.opt.while_to_do import convert_while_loops
from repro.pipeline import CompilerOptions, compile_c
from repro.titan.config import TitanConfig
from repro.titan.cost_model import TitanCostModel
from repro.titan.simulator import TitanSimulator
from repro.workloads.stencils import backsolve
from tests.test_fuzz import CORPUS_DIR, corpus_files, read_corpus

# One loop that vectorizes, one that cannot (loop-carried recurrence).
VEC_AND_MISS = """
double a[100], b[100];
double p[100], y[100], z[100];
void daxpy(int n, double alpha) {
    int i;
    for (i = 0; i < n; i++)
        a[i] = a[i] + alpha * b[i];
}
void solve(int n) {
    int i;
    for (i = 1; i < n; i++)
        p[i] = z[i] * (y[i] - p[i-1]);
}
"""


# ---------------------------------------------------------------------------
# Remarks
# ---------------------------------------------------------------------------


class TestRemarks:
    def test_vectorized_loop_explained(self):
        result = compile_c(VEC_AND_MISS)
        hits = [r for r in result.remarks.for_pass("vectorize")
                if r.kind == TRANSFORMED and r.function == "daxpy"]
        assert len(hits) == 1
        remark = hits[0]
        assert "vectorized" in remark.message
        assert "VL=32" in remark.message
        assert remark.line == 6  # the for statement in VEC_AND_MISS

    def test_dependence_cycle_miss_explained(self):
        result = compile_c(VEC_AND_MISS)
        misses = [r for r in result.remarks.for_pass("vectorize")
                  if r.kind == MISSED and r.function == "solve"]
        assert len(misses) == 1
        remark = misses[0]
        assert "dependence cycle" in remark.message
        assert "true dependence carried by the loop" in remark.message
        assert "distance 1" in remark.message
        assert remark.line == 11

    def test_ivsub_blocking_remark(self):
        # Section 5.3's blocking event: ``s = c`` cannot substitute
        # forward past the redefinition of ``c``.
        src = """
float x[64], y[64];
void f(float c, int n) {
    int i;
    float s;
    for (i = 0; i < n; i++) {
        s = c;
        c = c + x[i];
        y[i] = s;
    }
}
"""
        program = compile_to_il(src)
        fn = program.functions["f"]
        convert_while_loops(fn, program.symtab)
        collector = RemarkCollector("blocked.c")
        InductionVariableSubstitution(program.symtab,
                                      remarks=collector).run(fn)
        blocked = [r for r in collector.for_pass("ivsub")
                   if r.kind == ANALYSIS and "blocked" in r.message]
        assert blocked, collector.format_all()
        assert blocked[0].args["blocked"] >= 1
        assert "section 5.3" in blocked[0].message

    def test_ivsub_backtrack_remark(self, monkeypatch):
        # Backtracking (a re-sweep after unblocking) never occurs on
        # practical loops — the paper's own observation — so drive the
        # remark path with a substitution pass that reports one.
        import repro.opt.ivsub as ivsub_mod

        def fake_forward_substitute(stmts, aggressive=False,
                                    stats=None, max_sweeps=None):
            stats.sweeps = 3
            stats.backtracks = 2
            stats.substitutions = 4
            stats.blocked = 1
            return stats

        monkeypatch.setattr(ivsub_mod, "forward_substitute",
                            fake_forward_substitute)
        src = """
float a[64];
void f(int n) {
    int i;
    for (i = 0; i < n; i++)
        a[i] = a[i] + 1.0f;
}
"""
        program = compile_to_il(src)
        fn = program.functions["f"]
        convert_while_loops(fn, program.symtab)
        collector = RemarkCollector("bt.c")
        InductionVariableSubstitution(program.symtab,
                                      remarks=collector).run(fn)
        backtracked = [r for r in collector.for_pass("ivsub")
                       if r.kind == ANALYSIS
                       and "backtracked" in r.message]
        assert backtracked, collector.format_all()
        assert backtracked[0].args["backtracks"] == 2
        assert backtracked[0].args["sweeps"] == 3

    def test_while_to_do_reject_reason(self):
        src = """
volatile int status;
void spin(void) { while (status) { } }
"""
        result = compile_c(src)
        misses = result.remarks.for_pass("while-to-do")
        assert any(r.kind == MISSED for r in misses)

    def test_format_is_file_line_prefixed(self):
        collector = RemarkCollector("daxpy.c")
        collector.transformed("vectorize", "daxpy",
                              "loop vectorized, VL=32", line=7)
        text = collector.format_all()
        assert text.startswith("daxpy.c:7: remark: [vectorize] ")
        assert "(function 'daxpy')" in text

    def test_emit_rejects_unknown_kind(self):
        collector = RemarkCollector()
        with pytest.raises(ValueError):
            collector.emit("vectorize", "bogus", "f", "m")

    def test_filename_threaded_from_compile(self):
        from repro.pipeline import TitanCompiler
        result = TitanCompiler().compile(VEC_AND_MISS, "prog.c")
        assert all(r.filename == "prog.c" for r in result.remarks)
        assert len(result.remarks) > 0


# ---------------------------------------------------------------------------
# Pass tracing
# ---------------------------------------------------------------------------


class TestTrace:
    def test_chrome_trace_event_schema(self):
        """The export must validate against the chrome://tracing "JSON
        Object" format: a traceEvents array of complete events."""
        result = compile_c(VEC_AND_MISS)
        doc = json.loads(result.trace.to_json())
        assert isinstance(doc["traceEvents"], list)
        assert doc["traceEvents"], "no phases were traced"
        assert doc["displayTimeUnit"] in ("ms", "ns")
        for event in doc["traceEvents"]:
            assert set(event) >= {"name", "cat", "ph", "ts", "dur",
                                  "pid", "tid"}
            assert event["ph"] == "X"  # complete event
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["dur"], (int, float))
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)

    def test_phases_and_rounds_present(self):
        result = compile_c(VEC_AND_MISS)
        names = [e.name for e in result.trace.events]
        for expected in ("front-end", "inline", "scalar-opt round 1",
                         "scalar-opt round 2", "vectorize", "schedule",
                         "final-dce"):
            assert expected in names, names

    def test_span_args_record_work(self):
        result = compile_c(VEC_AND_MISS)
        vec = result.trace.event_named("vectorize")
        assert vec.args["loops_vectorized"] == 1
        front = result.trace.event_named("front-end")
        assert front.args["statements"] > 0
        assert front.args["functions"] == 2

    def test_events_are_ordered_and_timed(self):
        result = compile_c(VEC_AND_MISS)
        starts = [e.start_us for e in result.trace.events]
        assert starts == sorted(starts)
        assert result.trace.total_us() > 0

    def test_write_round_trips(self, tmp_path):
        tracer = PassTracer()
        with tracer.span("demo", statements=3):
            pass
        path = tmp_path / "trace.json"
        tracer.write(str(path))
        doc = json.loads(path.read_text())
        assert doc["traceEvents"][0]["name"] == "demo"
        assert doc["traceEvents"][0]["args"]["statements"] == 3


# ---------------------------------------------------------------------------
# Hot-loop profiler
# ---------------------------------------------------------------------------


N = 64


def _simulate_backsolve(profile=True):
    result = compile_c(backsolve(N))
    sim = TitanSimulator(result.program,
                         schedules=result.schedules or None,
                         profile=profile)
    sim.set_global_array("x", [1.0] * N)
    sim.set_global_array("y", [i + 2.0 for i in range(N)])
    sim.set_global_array("z", [0.5] * N)
    sim.set_global_scalar("n", N)
    return sim.run("backsolve")


class TestProfiler:
    def test_loop_cycles_sum_to_report_total(self):
        report = _simulate_backsolve()
        profile = report.profile
        assert profile is not None
        total = profile.toplevel_cycles \
            + sum(l.cycles for l in profile.loops)
        assert total == pytest.approx(report.cycles, rel=1e-9)
        assert profile.total_cycles == report.cycles

    def test_hottest_loop_is_the_recurrence(self):
        report = _simulate_backsolve()
        hottest = report.profile.hottest()
        assert hottest is not None
        assert hottest.cycles > 0.5 * report.cycles
        assert "backsolve" in hottest.label
        assert hottest.iterations > 0

    def test_profile_off_by_default(self):
        report = _simulate_backsolve(profile=False)
        assert report.profile is None

    def test_vector_loop_occupancy(self):
        result = compile_c(VEC_AND_MISS)
        sim = TitanSimulator(result.program,
                             schedules=result.schedules or None,
                             profile=True)
        sim.set_global_array("a", [1.0] * 100)
        sim.set_global_array("b", [2.0] * 100)
        report = sim.run("daxpy", 100, 3.0)
        hottest = report.profile.hottest()
        vec_share, _, _ = hottest.occupancy()
        assert "vector" in hottest.info.flavor
        assert vec_share > 0.5
        assert hottest.flops == 200  # one mul + one add per element

    def test_per_function_attribution(self):
        report = _simulate_backsolve()
        functions = {f.name: f for f in report.profile.functions}
        assert "backsolve" in functions
        assert functions["backsolve"].calls == 1
        assert functions["backsolve"].cycles == pytest.approx(
            report.cycles, rel=1e-9)

    def test_format_names_hot_loop_first(self):
        report = _simulate_backsolve()
        text = report.profile.format()
        assert "hot-loop profile" in text
        lines = text.splitlines()
        assert "backsolve" in lines[2]  # first data row = hottest


def _runnable_programs():
    """Every example and corpus program that runs ``main`` at default
    options."""
    examples = os.path.join(os.path.dirname(__file__), os.pardir,
                            "examples")
    paths = sorted(glob.glob(os.path.join(examples, "*.c")))
    paths += [os.path.join(CORPUS_DIR, name) for name in corpus_files()
              if read_corpus(name)[1] == "run"]
    return paths


class TestProfilerReadsTheModel:
    """The profiler's flops and occupancy are the cost model's own
    counter and bucket deltas, attributed to the innermost loop."""

    @pytest.mark.parametrize("path", _runnable_programs(),
                             ids=os.path.basename)
    def test_profile_matches_model_accounts(self, path):
        with open(path) as handle:
            result = compile_c(handle.read())
        with TitanSimulator(result.program,
                            schedules=result.schedules or None,
                            profile=True) as simulator:
            model, profiler = simulator.cost_model, simulator.profiler
            # Reference: the model's vector and memory buckets before
            # and after each event, charged to the loop the profiler
            # says is innermost (entries count inside, exits too).
            expected = {}
            previous = [0.0, 0.0, 0.0]
            on_event = profiler.on_event

            def checked(kind, details, *deltas):
                stack = list(profiler._loop_stack)
                on_event(kind, details, *deltas)
                if kind in ("do_enter", "parallel_begin"):
                    stack = profiler._loop_stack
                spent = model.breakdown
                now = [spent.vector_compute, spent.vector_memory,
                       spent.memory]
                if stack:
                    sums = expected.setdefault(stack[-1], [0.0, 0.0])
                    sums[0] += (now[0] - previous[0]) \
                        + (now[1] - previous[1])
                    sums[1] += now[2] - previous[2]
                previous[:] = now

            profiler.on_event = checked
            report = simulator.run("main")
        profile = report.profile
        assert sum(fn.flops for fn in profile.functions) \
            == report.counters.flops
        for loop in profile.loops:
            vector, memory = expected.get(loop.sid, [0.0, 0.0])
            assert (loop.vector_cycles, loop.memory_cycles) \
                == (vector, memory), loop.label


# ---------------------------------------------------------------------------
# Vector-length plumbing and cost-model chunking
# ---------------------------------------------------------------------------


class TestVectorLengthChunking:
    def test_long_vector_pays_startup_per_chunk(self):
        short = TitanCostModel(TitanConfig(max_vector_length=2048))
        short("vector", "load", 64, 1)
        chunked = TitanCostModel(TitanConfig(max_vector_length=16))
        chunked("vector", "load", 64, 1)
        cfg = TitanConfig()
        assert chunked.cycles - short.cycles == \
            pytest.approx(3 * cfg.vector_startup)  # 4 chunks vs 1
        assert chunked.counters.vector_instructions == 4

    def test_default_lengths_unaffected(self):
        a = TitanCostModel(TitanConfig(max_vector_length=2048))
        b = TitanCostModel(TitanConfig(max_vector_length=32))
        for model in (a, b):
            model("vector", "+", 32, 1)
            model("vector_reduce", "+", 32)
        assert a.cycles == b.cycles


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


@pytest.fixture
def prog_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(VEC_AND_MISS + """
int main(void) {
    daxpy(100, 3.0);
    solve(100);
    return 0;
}
""")
    return str(path)


class TestCLIObservability:
    def test_remarks_flag_prints_to_stderr(self, prog_file, capsys):
        assert main([prog_file, "--remarks"]) == 0
        captured = capsys.readouterr()
        assert "remark: [vectorize]" in captured.err
        assert "missed: [vectorize]" in captured.err
        assert "dependence cycle" in captured.err
        assert "remark" not in captured.out  # IL output unchanged

    def test_remarks_off_by_default(self, prog_file, capsys):
        assert main([prog_file]) == 0
        assert "remark" not in capsys.readouterr().err

    def test_trace_json_flag_writes_valid_trace(self, prog_file,
                                                tmp_path, capsys):
        out = str(tmp_path / "trace.json")
        assert main([prog_file, "--trace-json", out]) == 0
        doc = json.loads(open(out).read())
        assert all(e["ph"] == "X" for e in doc["traceEvents"])
        assert any(e["name"] == "vectorize"
                   for e in doc["traceEvents"])
        assert "wrote phase trace" in capsys.readouterr().err

    def test_profile_flag_prints_hot_loops(self, prog_file, capsys):
        assert main([prog_file, "--run", "main", "--profile"]) == 0
        captured = capsys.readouterr()
        assert "hot-loop profile" in captured.err
        assert "loop" in captured.err
        assert "MFLOPS" in captured.out

    def test_profile_requires_run(self, prog_file, capsys):
        with pytest.raises(SystemExit):
            main([prog_file, "--profile"])
        assert "--profile requires --run" in capsys.readouterr().err

    def test_vector_length_reaches_simulator(self, prog_file,
                                             monkeypatch):
        import repro.cli as cli
        seen = {}
        real = cli.TitanSimulator

        def spy(program, config=None, **kwargs):
            seen["config"] = config
            return real(program, config, **kwargs)

        monkeypatch.setattr(cli, "TitanSimulator", spy)
        assert main([prog_file, "--run", "main",
                     "--vector-length", "8"]) == 0
        assert seen["config"].max_vector_length == 8

    def test_use_db_collision_warns_and_last_wins(self, tmp_path,
                                                  capsys):
        lib1 = tmp_path / "one.c"
        lib1.write_text(
            "float first(float x) { return x + 1.0f; }\n"
            "float shared(float x) { return x * 2.0f; }\n")
        lib2 = tmp_path / "two.c"
        lib2.write_text(
            "float shared(float x) { return x * 3.0f; }\n")
        db1, db2 = str(tmp_path / "one.ildb"), str(tmp_path / "two.ildb")
        assert main([str(lib1), "--make-db", db1]) == 0
        assert main([str(lib2), "--make-db", db2]) == 0
        capsys.readouterr()

        client = tmp_path / "client.c"
        client.write_text("""
float shared(float);
float y;
void run(void) { y = shared(7.0f); }
""")
        assert main([str(client), "--use-db", db1,
                     "--use-db", db2]) == 0
        captured = capsys.readouterr()
        assert "warning: procedure 'shared'" in captured.err
        assert "two.ildb" in captured.err
        assert "overrides" in captured.err
        assert "one.ildb" in captured.err
        # Last database wins: shared(7) * 3 folds to 21.
        assert "21" in captured.out

    def test_use_db_no_warning_without_collision(self, tmp_path,
                                                 capsys):
        lib = tmp_path / "lib.c"
        lib.write_text("float one(float x) { return x + 1.0f; }\n")
        db = str(tmp_path / "lib.ildb")
        assert main([str(lib), "--make-db", db]) == 0
        client = tmp_path / "client.c"
        client.write_text("""
float one(float);
float y;
void run(void) { y = one(7.0f); }
""")
        capsys.readouterr()
        assert main([str(client), "--use-db", db]) == 0
        assert "warning" not in capsys.readouterr().err
