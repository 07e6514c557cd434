"""Tests for the benchmark telemetry (BENCH_*.json) and the
regression gate (benchmarks/regress.py)."""

import importlib.util
import json
import os
import sys

import pytest

_BENCH_DIR = os.path.join(os.path.dirname(__file__), "..",
                          "benchmarks")


def _load(module_name, filename):
    spec = importlib.util.spec_from_file_location(
        module_name, os.path.join(_BENCH_DIR, filename))
    module = importlib.util.module_from_spec(spec)
    # Registered before exec: the module defines dataclasses, and
    # dataclass construction looks its module up in sys.modules.
    sys.modules[module_name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def regress():
    return _load("regress", "regress.py")


@pytest.fixture(scope="module")
def harness():
    # harness.py imports repro.*; conftest already puts src on the
    # path, and it needs itself importable for dataclass pickling.
    sys.path.insert(0, _BENCH_DIR)
    try:
        return _load("harness", "harness.py")
    finally:
        sys.path.remove(_BENCH_DIR)


def _write_bench(directory, name, variants):
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{name}.json")
    with open(path, "w") as handle:
        json.dump({"schema": "titancc-bench/1", "name": name,
                   "variants": variants}, handle)
    return path


class TestRecordBench:
    def test_record_merges_variants(self, harness, tmp_path,
                                    monkeypatch):
        monkeypatch.setenv("TITANCC_BENCH_DIR", str(tmp_path))
        harness.record_bench("demo", "o0", metrics={"cycles": 100.0})
        path = harness.record_bench("demo", "full",
                                    metrics={"cycles": 10.0})
        doc = json.loads(open(path).read())
        assert doc["schema"] == harness.BENCH_SCHEMA
        assert set(doc["variants"]) == {"o0", "full"}
        assert doc["variants"]["o0"]["cycles"] == 100.0

    def test_record_via_compile_and_simulate(self, harness, tmp_path,
                                             monkeypatch):
        monkeypatch.setenv("TITANCC_BENCH_DIR", str(tmp_path))
        src = """
        float a[64], b[64];
        void f(void) {
            int i;
            for (i = 0; i < 64; i++) a[i] = b[i] + 1.0f;
        }
        """
        report = harness.compile_and_simulate(
            src, "f", harness.FULL, arrays={"b": [1.0] * 64},
            record="mini/full")
        doc = json.loads(
            open(tmp_path / "BENCH_mini.json").read())
        metrics = doc["variants"]["full"]
        assert metrics["cycles"] == report.cycles
        assert metrics["mflops"] == pytest.approx(report.mflops)
        assert metrics["vectorized_loops"] == 1

    def test_determinism(self, harness, tmp_path, monkeypatch):
        """Recorded metrics must be identical across runs — they are
        committed as baselines."""
        monkeypatch.setenv("TITANCC_BENCH_DIR", str(tmp_path))
        src = """
        float a[32];
        void f(void) { int i;
            for (i = 0; i < 32; i++) a[i] = a[i] * 2.0f; }
        """
        first = harness.compile_and_simulate(
            src, "f", harness.FULL, record="det/full")
        second = harness.compile_and_simulate(
            src, "f", harness.FULL, record="det/full")
        assert first.cycles == second.cycles
        assert first.mflops == second.mflops


class TestRegressGate:
    def test_ok_within_tolerance(self, regress, tmp_path, capsys):
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        _write_bench(base, "b", {"full": {"cycles": 100.0,
                                          "mflops": 2.0}})
        _write_bench(cur, "b", {"full": {"cycles": 102.0,
                                         "mflops": 1.98}})
        assert regress.main(["--current", str(cur),
                             "--baselines", str(base)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_cycle_regression_fails(self, regress, tmp_path, capsys):
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        _write_bench(base, "b", {"full": {"cycles": 100.0}})
        _write_bench(cur, "b", {"full": {"cycles": 106.0}})  # +6%
        assert regress.main(["--current", str(cur),
                             "--baselines", str(base)]) == 1
        assert "cycles regressed" in capsys.readouterr().err

    def test_mflops_drop_fails_but_gain_passes(self, regress,
                                               tmp_path):
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        _write_bench(base, "b", {"full": {"mflops": 2.0}})
        _write_bench(cur, "b", {"full": {"mflops": 1.8}})  # -10%
        assert regress.main(["--current", str(cur),
                             "--baselines", str(base)]) == 1
        _write_bench(cur, "b", {"full": {"mflops": 4.0}})  # better
        assert regress.main(["--current", str(cur),
                             "--baselines", str(base)]) == 0

    def test_host_metrics_are_informational(self, regress, tmp_path,
                                            capsys):
        # Wall-clock telemetry may drift arbitrarily without failing
        # the gate — it is reported, not gated — and may even go
        # missing (e.g. a zero-duration run records no rates).
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        _write_bench(base, "b", {"full": {
            "host_compile_seconds": 1.0,
            "host_steps_per_sec": 1000.0,
            "host_cycles_per_sec": 500.0}})
        _write_bench(cur, "b", {"full": {
            "host_compile_seconds": 9.0,      # 9x slower: still OK
            "host_steps_per_sec": 10.0}})     # rate gone + collapsed
        assert regress.main(["--current", str(cur),
                             "--baselines", str(base)]) == 0
        assert "info (not gated)" in capsys.readouterr().out

    def test_host_speedup_ratio_is_gated(self, regress, tmp_path,
                                         capsys):
        # Engine speedup ratios divide out machine speed, so they DO
        # gate — with the looser SPEEDUP_TOLERANCE.
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        _write_bench(base, "b", {"full": {
            "host_engine_speedup_steps": 12.0}})
        within = 12.0 * (1 - regress.SPEEDUP_TOLERANCE) + 0.1
        _write_bench(cur, "b", {"full": {
            "host_engine_speedup_steps": within}})
        assert regress.main(["--current", str(cur),
                             "--baselines", str(base)]) == 0
        _write_bench(cur, "b", {"full": {
            "host_engine_speedup_steps": 2.0}})  # engine got slow
        assert regress.main(["--current", str(cur),
                             "--baselines", str(base)]) == 1
        err = capsys.readouterr().err
        assert "host_engine_speedup_steps regressed" in err
        _write_bench(cur, "b", {"full": {}})  # speedup went missing
        assert regress.main(["--current", str(cur),
                             "--baselines", str(base)]) == 1

    def test_metric_tolerance_rules(self, regress):
        assert regress.metric_tolerance("cycles", 0.05) == 0.05
        assert regress.metric_tolerance("host_run_seconds", 0.05) \
            == float("inf")
        assert regress.metric_tolerance("host_compile_seconds", 0.05) \
            == float("inf")
        assert regress.metric_tolerance(
            "host_engine_speedup_steps", 0.05) \
            == regress.SPEEDUP_TOLERANCE

    def test_cycle_improvement_passes(self, regress, tmp_path):
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        _write_bench(base, "b", {"full": {"cycles": 100.0}})
        _write_bench(cur, "b", {"full": {"cycles": 50.0}})
        assert regress.main(["--current", str(cur),
                             "--baselines", str(base)]) == 0

    def test_missing_bench_fails(self, regress, tmp_path, capsys):
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        _write_bench(base, "gone", {"full": {"cycles": 1.0}})
        _write_bench(cur, "other", {"full": {"cycles": 1.0}})
        assert regress.main(["--current", str(cur),
                             "--baselines", str(base)]) == 1
        assert "missing" in capsys.readouterr().err

    def test_missing_metric_fails(self, regress, tmp_path):
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        _write_bench(base, "b", {"full": {"cycles": 1.0,
                                          "mflops": 2.0}})
        _write_bench(cur, "b", {"full": {"cycles": 1.0}})
        assert regress.main(["--current", str(cur),
                             "--baselines", str(base)]) == 1

    def test_tolerance_flag(self, regress, tmp_path):
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        _write_bench(base, "b", {"full": {"cycles": 100.0}})
        _write_bench(cur, "b", {"full": {"cycles": 108.0}})
        assert regress.main(["--current", str(cur),
                             "--baselines", str(base),
                             "--tolerance", "0.1"]) == 0

    def test_empty_current_dir_errors(self, regress, tmp_path):
        assert regress.main(["--current", str(tmp_path / "nowhere"),
                             "--baselines", str(tmp_path)]) == 2

    def test_update_creates_then_keeps_history(self, regress,
                                               tmp_path):
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        _write_bench(cur, "b", {"full": {"cycles": 100.0}})
        assert regress.main(["--current", str(cur),
                             "--baselines", str(base),
                             "--update"]) == 0
        _write_bench(cur, "b", {"full": {"cycles": 90.0}})
        assert regress.main(["--current", str(cur),
                             "--baselines", str(base),
                             "--update"]) == 0
        doc = json.loads(
            open(base / "BENCH_b.json").read())
        assert doc["variants"]["full"]["cycles"] == 90.0
        assert doc["history"][-1]["variants"]["full"]["cycles"] \
            == 100.0

    def test_update_stamps_monotonic_run_index(self, regress,
                                               tmp_path):
        """Each accepted snapshot carries run_index = previous + 1 (no
        wall clock), and a pushed history entry keeps the index it was
        accepted under — the stable x-axis repro.obs.history needs."""
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        for run, cycles in enumerate((100.0, 90.0, 95.0)):
            _write_bench(cur, "b", {"full": {"cycles": cycles}})
            assert regress.main(["--current", str(cur),
                                 "--baselines", str(base),
                                 "--update"]) == 0
            doc = json.loads(open(base / "BENCH_b.json").read())
            assert doc["run_index"] == run
        assert [entry["run_index"] for entry in doc["history"]] \
            == [0, 1]

    def test_explain_writes_diff_and_attrib(self, regress, tmp_path,
                                            capsys):
        """A red gate under --explain self-diagnoses: a reportdiff
        naming the regressed metric, plus an attribution waterfall for
        benches with a registered workload."""
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        _write_bench(base, "e2_daxpy", {"full": {"cycles": 100.0}})
        _write_bench(cur, "e2_daxpy", {"full": {"cycles": 200.0}})
        assert regress.main(["--current", str(cur),
                             "--baselines", str(base),
                             "--explain", "--quiet"]) == 1
        explain = cur / "explain"
        diff_doc = json.loads(
            open(explain / "explain_e2_daxpy.diff.json").read())
        assert diff_doc["schema"] == "titancc-reportdiff/1"
        assert diff_doc["summary"]["worst_regression"] \
            == "full.cycles"
        assert any(entry["metric"] == "full.cycles"
                   for entry in diff_doc["classified"]["regressions"])
        attrib_doc = json.loads(
            open(explain / "explain_e2_daxpy.attrib.json").read())
        assert attrib_doc["schema"] == "titancc-attrib/1"
        assert attrib_doc["totals"]["exact"] is True

    def test_explain_without_failure_writes_nothing(self, regress,
                                                    tmp_path):
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        _write_bench(base, "b", {"full": {"cycles": 100.0}})
        _write_bench(cur, "b", {"full": {"cycles": 100.0}})
        assert regress.main(["--current", str(cur),
                             "--baselines", str(base),
                             "--explain"]) == 0
        assert not os.path.exists(cur / "explain")

    def test_bad_schema_skipped(self, regress, tmp_path, capsys):
        cur = tmp_path / "cur"
        os.makedirs(cur)
        with open(cur / "BENCH_x.json", "w") as handle:
            json.dump({"schema": "other/9", "name": "x"}, handle)
        assert regress.load_benches(str(cur)) == {}


class TestCommittedBaselines:
    """The repo ships baselines for every experiment; they must stay
    valid documents."""

    def test_baselines_present_and_versioned(self, regress):
        docs = regress.load_benches(regress.BASELINE_DIR)
        assert len(docs) == 17
        for name, doc in docs.items():
            assert doc["schema"] == regress.BENCH_SCHEMA
            assert doc["variants"], name

    def test_key_metrics_recorded(self, regress):
        docs = regress.load_benches(regress.BASELINE_DIR)
        e1 = docs["e1_backsolve"]["variants"]
        assert {"scalar", "full", "summary"} <= set(e1)
        assert e1["full"]["cycles"] > 0
        assert "hottest_loop" in e1["full"]
        assert docs["e2_daxpy"]["variants"]["summary"]["speedup"] > 8

    def test_engine_speedups_recorded(self, regress):
        # The E13 acceptance criterion lives in the committed
        # baselines: >=20x fast-vs-tree uninstrumented on backsolve
        # and daxpy, with the rate under the Titan cost hook riding
        # along as ungated trend telemetry.
        docs = regress.load_benches(regress.BASELINE_DIR)
        variants = docs["e13_engine"]["variants"]
        for workload in ("backsolve", "daxpy"):
            speedup = variants[workload]["host_engine_speedup_steps"]
            assert speedup >= 20.0, (workload, speedup)
            assert variants[workload][
                "host_instrumented_compiled_steps_per_sec"] > 0
        assert variants["transform"]["host_engine_speedup_steps"] > 0

    def test_telemetry_overhead_recorded(self, regress):
        # The E14 acceptance criterion: the enabled-session span count
        # is deterministic (gated exactly) and the telemetry speedup
        # ratio rides as a gated host metric.
        docs = regress.load_benches(regress.BASELINE_DIR)
        engine = docs["e14_telemetry"]["variants"]["engine"]
        assert engine["enabled_span_records"] == 7.0
        assert engine["host_telemetry_speedup"] > 0.6

    def test_forensics_exactness_recorded(self, regress):
        # The E15 acceptance criterion: attribution deltas summed
        # bit-exactly on both flagship workloads, and the attribution
        # volume is deterministic (gated exactly).
        docs = regress.load_benches(regress.BASELINE_DIR)
        attrib = docs["e15_forensics"]["variants"]["attrib"]
        assert attrib["exact_workloads"] == 2.0
        assert attrib["attrib_steps_daxpy"] > 0
        assert attrib["attrib_steps_backsolve"] > 0
        assert attrib["host_attrib_speedup"] > 0.6

    def test_service_cache_recorded(self, regress):
        # The E18 acceptance criterion: warm-cache throughput >=5x
        # the cold path over the fuzz corpus, with the deterministic
        # cache counters gated and the wall-clock ratio riding along
        # as ungated host telemetry.
        docs = regress.load_benches(regress.BASELINE_DIR)
        corpus = docs["e18_service"]["variants"]["corpus"]
        assert corpus["host_warm_x_cold"] >= 5.0
        assert corpus["requests"] > 0
        assert corpus["catalog_builds"] <= corpus["requests"]
        assert corpus["artifact_hits"] > 0
        assert corpus["cli_report_matches"] == \
            corpus["ok_responses"]

    def test_ifconvert_speedups_recorded(self, regress):
        # The E16 acceptance criterion: both formerly control-flow-
        # rejected kernels vectorize as masked sections and the
        # masking pays measured Titan cycles, not just coverage.
        docs = regress.load_benches(regress.BASELINE_DIR)
        variants = docs["e16_ifconvert"]["variants"]
        coverage = variants["coverage"]
        assert coverage["vectorized_loops"] >= 2
        assert coverage["masked_statements"] >= 2
        summary = variants["summary"]
        assert summary["diff_speedup"] > 1.5
        assert summary["clamp_speedup"] > 1.5
