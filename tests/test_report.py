"""Tests for the machine-readable compilation report: the counter
records, the --report-json document, dependence-graph export (DOT and
JSON, with goldens), Titan utilization, and JSON hardening."""

import json
import os

import pytest

from repro.cli import main
from repro.il import nodes as N
from repro.inline import inliner
from repro.obs.counters import (PROGRAM, counter_records, counter_value,
                                format_counters, stats_fields)
from repro.obs.depviz import LoopDepExport, collect_program_graphs
from repro.obs.report import (REPORT_SCHEMA, CompilationReport,
                              loop_coverage)
from repro.obs.trace import jsonable
from repro.opt import (cond_split, constprop, deadcode, if_convert, ivsub,
                       promote, regpipe, strength, while_to_do)
from repro.opt.deadcode import DCEStats
from repro.opt.while_to_do import WhileToDoStats
from repro.pipeline import (CompilerOptions, TitanCompiler, _merge,
                            compile_c, titan_config)
from repro.service.protocol import canonicalize_report
from repro.titan.config import TitanConfig
from repro.titan.simulator import TitanSimulator
from repro.vectorize import listparallel, vectorizer

DAXPY_AND_RECURRENCE = """
double X[100], Y[100];
double a;
void daxpy() {
    int i;
    for (i = 0; i < 100; i++)
        Y[i] = Y[i] + a * X[i];
}
void recur() {
    int i;
    for (i = 1; i < 100; i++)
        X[i] = X[i-1] + Y[i];
}
int main() { daxpy(); recur(); return 0; }
"""

# The E4 scenario: C `for` lowered to while, convertible to DO.
WHILE_IDIOM = """
float a[64], b[64];
void f(int n) {
    int i;
    for (i = 0; i < n; i++)
        a[i] = b[i];
}
"""

# The E5 scenario: pointer walk whose IVs must be substituted.
IVSUB_IDIOM = """
void f(float *x, float *y, int n) {
    for (; n; n--)
        *x++ = *y++ + 1.0f;
}
"""


def _report(source=DAXPY_AND_RECURRENCE, options=None, run=None):
    options = options or CompilerOptions(collect_deps=True)
    result = compile_c(source, options)
    titan_report = None
    config = TitanConfig()
    if run:
        sim = TitanSimulator(result.program, config,
                             schedules=result.schedules or None)
        titan_report = sim.run(run)
    return CompilationReport.from_result(result, filename="test.c",
                                         titan_report=titan_report,
                                         config=config)


# ---------------------------------------------------------------------------
# Counter store
# ---------------------------------------------------------------------------


def _records(*triples):
    """Counter records for ``(pass, function, counter, value)``."""
    return [{"pass": p, "function": fn, "counter": c, "value": v}
            for p, fn, c, v in triples]


class TestCounters:
    def test_counter_value_sums_across_functions(self):
        records = _records(("p", "f", "c", 2), ("p", "g", "c", 3))
        assert counter_value(records, "p", "c", "f") == 2
        assert counter_value(records, "p", "c") == 5
        assert counter_value(records, "p", "absent") == 0

    def test_while_to_do_counter_moves(self):
        """E4-style input: the conversion counter must register."""
        records = counter_records(compile_c(WHILE_IDIOM))
        assert counter_value(records, "while-to-do", "converted", "f") >= 1
        assert counter_value(records, "while-to-do", "examined", "f") >= 1

    def test_ivsub_counter_moves(self):
        """E5-style input: pointer-bump IVs get substituted."""
        records = counter_records(compile_c(IVSUB_IDIOM))
        assert counter_value(records, "ivsub", "ivs_substituted",
                             "f") >= 2

    def test_rejected_histogram_flattens(self):
        records = counter_records(compile_c(DAXPY_AND_RECURRENCE))
        assert counter_value(records, "vectorize",
                             "rejected.recurrence", "recur") == 1

    def test_records_are_json_ready(self):
        records = counter_records(compile_c(WHILE_IDIOM))
        assert records, "no counters harvested"
        for record in records:
            assert set(record) == {"pass", "function", "counter",
                                   "value"}
        # Program-wide counters (inline) use the pseudo-function.
        assert any(r["function"] == PROGRAM for r in records)
        assert json.loads(json.dumps(records)) == records

    def test_format_suppresses_zeros(self):
        text = format_counters(_records(("p", "f", "hot", 1),
                                        ("p", "f", "cold", 0)))
        assert text == "f.p: hot=1"

    def test_records_follow_the_stats_table(self):
        """Each pass is named by its module's ``PASS_NAME``; records
        run inline first, each function's passes in phase order, then
        the loops scheduled."""
        result = compile_c(DAXPY_AND_RECURRENCE)
        table = [f.metadata["pass"] for f in stats_fields(result)]
        assert table == [inliner.PASS_NAME, while_to_do.PASS_NAME,
                         cond_split.PASS_NAME, ivsub.PASS_NAME,
                         constprop.PASS_NAME, deadcode.PASS_NAME,
                         if_convert.PASS_NAME, vectorizer.PASS_NAME,
                         listparallel.PASS_NAME, regpipe.PASS_NAME,
                         promote.PASS_NAME, strength.PASS_NAME]
        records = counter_records(result)
        order = []
        for r in records:
            if (r["function"], r["pass"]) not in order:
                order.append((r["function"], r["pass"]))
        ran = [p for p in table if p != listparallel.PASS_NAME]
        assert order == [(PROGRAM, "inline")] + [
            (fn, p) for fn in ("daxpy", "recur", "main")
            for p in ran[1:]] + [(PROGRAM, "schedule")]
        assert {"deadcode", "strength"} <= {r["pass"] for r in records}

    def test_rounds_merge_every_counter(self):
        """A pass's second round adds every ``int`` field and every
        histogram entry to the first's; flags keep the first round's."""
        first = WhileToDoStats(examined=2, converted=1,
                               rejected={"bound-varies": 1})
        _merge(store := {}, "f", first)
        _merge(store, "f", WhileToDoStats(
            examined=1, rejected={"bound-varies": 2,
                                  "condition-shape": 1}))
        assert store["f"] is first
        assert (first.examined, first.converted) == (3, 1)
        assert first.rejected == {"bound-varies": 3,
                                  "condition-shape": 1}
        capped = DCEStats(iterations=2, capped=True)
        _merge(store, "g", capped)
        _merge(store, "g", DCEStats(iterations=1, capped=False))
        assert (capped.iterations, capped.capped) == (3, True)


# ---------------------------------------------------------------------------
# The report document
# ---------------------------------------------------------------------------


class TestReportDocument:
    def test_schema_and_round_trip(self):
        report = _report()
        doc = json.loads(report.to_json())
        assert doc["schema"] == REPORT_SCHEMA
        assert doc["source"] == "test.c"
        assert set(doc) >= {"counters", "remarks", "loops",
                            "dependence_graphs", "trace", "titan",
                            "options"}

    def test_loop_coverage_statuses_and_miss_reason(self):
        report = _report()
        by_fn = {(row["function"], row["status"]): row
                 for row in json.loads(report.to_json())["loops"]}
        vec = by_fn[("daxpy", "vectorized+parallel")]
        assert vec["reason"] == ""
        assert vec["line"] > 0
        serial = by_fn[("recur", "serial")]
        assert serial["reason"] == "recurrence"
        assert serial["detail"]  # human explanation present

    def test_serial_loop_names_blocking_edge(self):
        report = _report()
        serial = [row for row in loop_coverage_rows(report)
                  if row["function"] == "recur"][0]
        blocking = serial["blocking"]
        assert blocking is not None
        assert blocking["kind"] == "true"
        assert blocking["carried"] is True
        assert blocking["distance"] == 1

    def test_static_titan_without_run(self):
        """--report-json must carry utilization estimates even when
        nothing was simulated."""
        report = _report()
        titan = json.loads(report.to_json())["titan"]
        assert titan["measured"] is None
        static = titan["static"]
        vec_loops = [l for l in static["loops"]
                     if l["kind"] == "vector"]
        sched_loops = [l for l in static["loops"]
                       if l["kind"] == "scheduled"]
        assert vec_loops and sched_loops
        # Constant trip counts -> concrete cycle estimates.
        assert all(l["cycles"] > 0 for l in vec_loops)
        assert all(l["cycles"] > 0 for l in sched_loops)
        assert static["totals"]["vector_startup_cycles"] > 0
        assert all(0.0 <= l["memory_pipe_share"] <= 1.0
                   for l in sched_loops)

    def test_measured_decomposition_is_exact(self):
        report = _report(run="main")
        measured = json.loads(report.to_json())["titan"]["measured"]
        util = measured["utilization"]
        charged = (util["vector_compute_cycles"]
                   + util["vector_memory_cycles"]
                   + util["scalar_cycles"] + util["memory_cycles"]
                   + util["scheduled_cycles"]
                   + util["parallel_overhead_cycles"])
        assert charged + util["parallel_adjust_cycles"] == \
            pytest.approx(measured["cycles"])
        assert 0.0 < util["vector_share"] <= 1.0
        assert util["vector_startup_cycles"] > 0
        assert measured["mflops"] > 0

    def test_counter_convenience(self):
        report = _report()
        assert report.counter("vectorize", "loops_vectorized") >= 1

    def test_stats_text_comes_from_the_same_counters(self):
        report = _report()
        text = report.format_stats()
        assert text.startswith("/* pass statistics */")
        assert "daxpy.vectorize: " in text
        assert "loops_vectorized=1" in text

    def test_write_and_reload(self, tmp_path):
        path = tmp_path / "report.json"
        _report(run="main").write(str(path))
        doc = json.loads(path.read_text())
        assert doc["schema"] == REPORT_SCHEMA
        assert doc["titan"]["measured"]["cycles"] > 0


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("fixture", ["daxpy_o0", "daxpy_full"])
def test_committed_fixture_reproduces(fixture):
    """Recompiling ``examples/daxpy.c`` with a committed report's own
    options and running ``main`` gives the whole report byte for byte
    once wall-clock times are stripped, key order included.  Sids are
    reset first: an earlier compile in the same process would shift
    the remarks' and loops' sids."""
    with open(os.path.join(ROOT, "benchmarks", "reports",
                           f"{fixture}.report.json")) as handle:
        committed = json.load(handle)
    with open(os.path.join(ROOT, committed["source"])) as handle:
        source = handle.read()
    options = CompilerOptions(**committed["options"])
    config = titan_config(options)
    N.reset_sids()
    result = TitanCompiler(options).compile(source, committed["source"])
    titan_report = TitanSimulator(
        result.program, config,
        schedules=result.schedules or None).run("main")
    report = CompilationReport.from_result(
        result, titan_report=titan_report, config=config)
    fresh = canonicalize_report(json.loads(report.to_json()))
    expected = canonicalize_report(committed)
    assert json.dumps(fresh) == json.dumps(expected)


def loop_coverage_rows(report):
    return json.loads(report.to_json())["loops"]


# ---------------------------------------------------------------------------
# Dependence-graph export
# ---------------------------------------------------------------------------


RECURRENCE_ONLY = """
double X[100], Y[100];
void recur() {
    int i;
    for (i = 1; i < 100; i++)
        X[i] = X[i-1] + Y[i];
}
"""


class TestDepExport:
    def _graphs(self, source):
        result = compile_c(source,
                           CompilerOptions(collect_deps=True))
        return result.dep_graphs

    def test_recurrence_graph_golden(self):
        """Golden structure for the serial loop: one node, a carried
        true self-edge at distance 1 (the cycle that blocks
        vectorization)."""
        (graph,) = [g for g in self._graphs(RECURRENCE_ONLY)
                    if g.function == "recur"]
        doc = graph.to_json()
        assert doc["function"] == "recur"
        assert doc["normalized"] is True
        assert len(doc["nodes"]) == 1
        carried = [e for e in doc["edges"]
                   if e["carried"] and e["kind"] == "true"
                   and e["distance"] == 1]
        assert carried, doc["edges"]
        assert carried[0]["direction"] == "<"
        assert carried[0]["src"] == carried[0]["dst"] == 0

    def test_recurrence_dot_golden(self):
        (graph,) = [g for g in self._graphs(RECURRENCE_ONLY)
                    if g.function == "recur"]
        dot = graph.to_dot()
        assert dot.startswith('digraph "recur:')
        assert dot.endswith("}")
        assert 'node [shape=box, fontname="monospace"];' in dot
        # The blocking edge renders bold red with its label.
        assert "color=red, style=bold" in dot
        assert 'label="true (<,1)"' in dot

    def test_daxpy_graph_has_no_carried_edges(self):
        graphs = self._graphs(DAXPY_AND_RECURRENCE)
        daxpy = [g for g in graphs if g.function == "daxpy"][0]
        assert daxpy.carried_edges() == []
        # ... and the compiler indeed vectorizes that loop.
        result = compile_c(DAXPY_AND_RECURRENCE)
        assert result.vectorize_stats["daxpy"].loops_vectorized == 1

    def test_slug_is_filename_friendly(self):
        graphs = self._graphs(DAXPY_AND_RECURRENCE)
        for graph in graphs:
            assert graph.slug.replace("_", "").isalnum()

    def test_dot_escapes_quotes_and_backslashes(self):
        export = LoopDepExport(function="f", line=3, sid=1, var="i",
                               normalized=True)
        export.nodes.append({"index": 0,
                             "text": 'say "hi\\n" twice',
                             "line": 3})
        dot = export.to_dot()
        assert '\\"hi\\\\n\\"' in dot
        # Every quote inside labels is escaped: the line parses as
        # label="..." with balanced quotes.
        for line in dot.splitlines():
            assert line.count('"') % 2 == 0, line

    def test_collect_honors_pragma_safe(self):
        src = """
        #pragma safe
        void f(float *x, float *y, int n) {
            int i;
            for (i = 0; i < n; i++)
                x[i] = y[i];
        }
        """
        result = compile_c(src, CompilerOptions(
            inline=False, collect_deps=True))
        graphs = [g for g in result.dep_graphs
                  if g.function == "f"]
        assert graphs, "no graph collected for f"
        assert all(not e["carried"] for g in graphs
                   for e in g.edges)

    def test_graphs_off_by_default(self):
        result = compile_c(DAXPY_AND_RECURRENCE)
        assert result.dep_graphs == []


# ---------------------------------------------------------------------------
# JSON hardening
# ---------------------------------------------------------------------------


class TestJsonHardening:
    def test_jsonable_handles_weird_values(self):
        weird = {
            "näme": 'quoted "identifier"',
            "nan": float("nan"),
            "inf": float("inf"),
            "tuple": (1, 2),
            "object": object(),
            3: "int key",
        }
        cooked = jsonable(weird)
        text = json.dumps(cooked, ensure_ascii=True)
        back = json.loads(text)
        assert back["nan"] == "nan"
        assert back["inf"] == "inf"
        assert back["tuple"] == [1, 2]
        assert back["3"] == "int key"
        assert "ä" not in text  # 7-bit clean

    def test_report_with_non_ascii_identifier_round_trips(self):
        src = """
        double donnees[50];
        void calculer() {
            int i;
            for (i = 0; i < 50; i++)
                donnees[i] = donnees[i] * 2.0;
        }
        """
        result = compile_c(src, CompilerOptions(collect_deps=True))
        report = CompilationReport.from_result(
            result, filename="données.c")
        text = report.to_json()
        assert all(ord(ch) < 128 for ch in text)
        doc = json.loads(text)
        assert doc["source"] == "données.c"

    def test_trace_args_with_unserializable_values(self):
        report = _report()
        report.trace_events[0].args["strange"] = {("a", "b"): object()}
        json.loads(report.to_json())  # must not raise


# ---------------------------------------------------------------------------
# CLI flags
# ---------------------------------------------------------------------------


@pytest.fixture
def prog_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(DAXPY_AND_RECURRENCE)
    return str(path)


class TestReportCli:
    def test_report_json_flag(self, prog_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main([prog_file, "--report-json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == REPORT_SCHEMA
        assert doc["loops"]
        assert doc["dependence_graphs"]
        assert doc["titan"]["static"]["loops"]
        assert "wrote compilation report" in capsys.readouterr().err

    def test_report_json_embeds_simulation(self, prog_file, tmp_path):
        out = tmp_path / "report.json"
        assert main([prog_file, "--run", "main",
                     "--report-json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["titan"]["measured"]["cycles"] > 0

    def test_dump_deps_writes_dot_and_json(self, prog_file, tmp_path,
                                           capsys):
        deps = tmp_path / "deps"
        assert main([prog_file, "--dump-deps", str(deps)]) == 0
        dots = sorted(p.name for p in deps.glob("*.dot"))
        jsons = sorted(p.name for p in deps.glob("*.json"))
        assert dots and len(dots) == len(jsons)
        for path in deps.glob("*.dot"):
            text = path.read_text()
            assert text.startswith("digraph ")
            assert text.rstrip().endswith("}")
        for path in deps.glob("*.json"):
            json.loads(path.read_text())

    def test_stats_flag_uses_counter_table(self, prog_file, capsys):
        assert main([prog_file, "--stats"]) == 0
        err = capsys.readouterr().err
        assert "/* pass statistics */" in err
        assert "inline:" in err
        assert "recur.vectorize: " in err
        assert "rejected.recurrence=1" in err

    def test_print_lines_annotates(self, prog_file, capsys):
        assert main([prog_file, "--print-lines"]) == 0
        out = capsys.readouterr().out
        assert "/* L" in out

    def test_default_print_has_no_line_comments(self, prog_file,
                                                capsys):
        assert main([prog_file]) == 0
        assert "/* L" not in capsys.readouterr().out
