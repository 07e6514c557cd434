"""Unit tests for the compilation-forensics layer: per-pass cycle
attribution (repro.obs.attrib), structured report/bench diffing
(repro.obs.diff), and benchmark-history anomaly detection
(repro.obs.history).  The end-to-end acceptance gate lives in
benchmarks/test_e15_forensics.py; these tests pin the classification
rules and the exactness machinery at the unit level."""

import json
from fractions import Fraction

import pytest

from repro.obs import history, schemas
from repro.obs.attrib import CycleAttributor, _exact
from repro.obs.diff import (bench_direction, diff_benches,
                            diff_documents, diff_reports, format_diff,
                            main as diff_main)
from repro.pipeline import CompilerOptions, compile_c
from repro.titan.static import StaticCostEstimator

DAXPY = """
double a[256], b[256];
double alpha;
void daxpy() {
    int i;
    for (i = 0; i < 256; i++)
        a[i] = a[i] + alpha * b[i];
}
"""

O0 = CompilerOptions(inline=False, scalar_opt=False, vectorize=False,
                     reg_pipeline=False, strength_reduction=False)


def _attribute(source, options=None):
    attributor = CycleAttributor(source="test")
    compile_c(source, options or CompilerOptions(),
              hooks=[attributor])
    return attributor


class TestExactArithmetic:
    def test_exact_keeps_ints_and_fractions(self):
        assert _exact(11) == 11 and isinstance(_exact(11), int)
        assert _exact(2.0) == 2 and isinstance(_exact(2.0), int)
        assert _exact(0.9) == Fraction(0.9)
        assert isinstance(_exact(0.9), Fraction)


class TestAttribution:
    def test_deltas_telescope_exactly(self):
        attributor = _attribute(DAXPY)
        assert attributor.steps, "no pass events recorded"
        assert attributor.sum_of_deltas == attributor.total_delta
        assert attributor.steps[0].pass_name == "front-end"
        assert attributor.steps[0].delta == 0

    def test_exact_across_option_presets(self):
        for options in (O0, CompilerOptions(vectorize=False),
                        CompilerOptions()):
            attributor = _attribute(DAXPY, options)
            assert attributor.sum_of_deltas == attributor.total_delta
            doc = attributor.to_dict()
            assert doc["totals"]["exact"] is True

    def test_attribution_is_deterministic(self):
        first = _attribute(DAXPY).to_dict()
        second = _attribute(DAXPY).to_dict()
        assert first == second

    def test_vectorize_pass_pays_for_itself(self):
        # Vectorizing daxpy must show up as a negative waterfall move
        # attributed to the vectorize pass.  (O0-vs-final totals are
        # not directly comparable here: the front-end's while-loop
        # snapshot is charged assumed trips, while-to-do recovers the
        # real 256 — the waterfall attributes that shift to the passes
        # that caused it.)
        attributor = _attribute(DAXPY)
        (vectorize,) = [entry for entry in attributor.waterfall()
                        if entry["pass"] == "vectorize"]
        assert vectorize["delta"] < 0
        pre_vectorize = vectorize["cycles_after"] - vectorize["delta"]
        assert attributor.final_cycles <= pre_vectorize

    def test_document_validates_and_breaks_down(self):
        doc = _attribute(DAXPY).to_dict()
        assert schemas.validate_document(doc) == schemas.ATTRIB
        assert doc["functions"]["daxpy"]["delta"] == pytest.approx(
            doc["totals"]["delta"])
        assert doc["loops"], "no per-loop breakdown in final estimate"

    def test_estimator_charges_assumed_trips(self):
        # Unknown trip counts use the deterministic convention, so two
        # estimates of the same snapshot agree bit-for-bit.
        estimator = StaticCostEstimator()
        result = compile_c(DAXPY, O0)
        one = estimator.estimate_program(result.program)
        two = estimator.estimate_program(result.program)
        assert one.total == two.total
        assert one.total > 0


def _bench(name, cycles, extra=None):
    variants = {"full": dict({"cycles": cycles}, **(extra or {}))}
    return {"schema": schemas.BENCH, "name": name,
            "variants": variants}


class TestBenchDiff:
    def test_direction_rules_match_regress(self):
        assert bench_direction("cycles") == "lower"
        assert bench_direction("seconds") == "lower"
        assert bench_direction("attrib_cycles_daxpy") == "lower"
        assert bench_direction("mflops") == "higher"
        assert bench_direction("speedup") == "higher"
        assert bench_direction("vectorized_loops") == "higher"
        assert bench_direction("host_compile_seconds") \
            == "informational"
        assert bench_direction("host_engine_speedup_steps") \
            == "higher"

    def test_cycles_up_is_regression(self):
        doc = diff_benches(_bench("b", 100.0), _bench("b", 200.0))
        assert doc["summary"]["regressions"] == 1
        assert doc["summary"]["worst_regression"] == "full.cycles"
        assert doc["classified"]["regressions"][0]["relative"] \
            == pytest.approx(1.0)

    def test_cycles_down_is_improvement(self):
        doc = diff_benches(_bench("b", 100.0), _bench("b", 50.0))
        assert doc["summary"]["regressions"] == 0
        assert doc["summary"]["improvements"] == 1
        assert doc["summary"]["worst_regression"] is None

    def test_worst_regression_is_largest_relative(self):
        base = _bench("b", 100.0, {"mflops": 10.0})
        other = _bench("b", 110.0, {"mflops": 1.0})  # -90% beats +10%
        doc = diff_benches(base, other)
        assert doc["summary"]["worst_regression"] == "full.mflops"

    def test_one_sided_metric_is_neutral(self):
        doc = diff_benches(_bench("b", 100.0),
                           _bench("b", 100.0, {"mflops": 5.0}))
        assert doc["summary"]["regressions"] == 0
        (entry,) = [e for e in doc["classified"]["neutral"]
                    if e["metric"] == "full.mflops"]
        assert entry["note"] == "only on one side"

    def test_document_validates_and_formats(self):
        doc = diff_benches(_bench("b", 100.0), _bench("b", 200.0))
        assert schemas.validate_document(doc) == schemas.REPORTDIFF
        text = format_diff(doc)
        assert "full.cycles" in text and "worst regression" in text


class TestReportDiff:
    @pytest.fixture(scope="class")
    def reports(self, tmp_path_factory):
        from repro.cli import main as cli_main
        directory = tmp_path_factory.mktemp("reports")
        src = directory / "daxpy.c"
        src.write_text(DAXPY)
        paths = {}
        for name, flags in (("o0", ["--no-inline", "--no-scalar-opt",
                                    "--no-vectorize"]),
                            ("full", [])):
            out = directory / f"{name}.json"
            # --run gives both reports measured cycles, so the diff
            # compares like with like.
            assert cli_main([str(src), "--run", "daxpy",
                             "--report-json", str(out)] + flags) == 0
            paths[name] = out
        return paths

    def test_vectorization_is_an_improvement(self, reports):
        base = json.loads(reports["o0"].read_text())
        other = json.loads(reports["full"].read_text())
        doc = diff_reports(base, other)
        assert schemas.validate_document(doc) == schemas.REPORTDIFF
        improved = {e["metric"]: e
                    for e in doc["classified"]["improvements"]}
        assert improved["cycles"]["delta"] < 0
        assert improved["cycles"]["note"] == "measured"
        assert improved["vectorized_loops"]["other"] > \
            improved["vectorized_loops"]["base"]
        # And the reverse direction regresses.
        reverse = diff_reports(other, base)
        regressed = {e["metric"]
                     for e in reverse["classified"]["regressions"]}
        assert {"cycles", "vectorized_loops"} <= regressed

    def test_dispatch_rejects_mixed_schemas(self, reports):
        report = json.loads(reports["o0"].read_text())
        with pytest.raises(schemas.SchemaError, match="cannot diff"):
            diff_documents(report, _bench("b", 1.0))

    def test_cli_gate_exit_codes(self, reports, capsys):
        o0, full = str(reports["o0"]), str(reports["full"])
        assert diff_main([o0, full, "--gate"]) == 0
        assert diff_main([full, o0, "--gate"]) == 1
        out = capsys.readouterr().out
        assert "cycles" in out


def _points(values):
    return list(enumerate(values))


class TestHistory:
    def test_short_series_has_no_outliers(self):
        assert history.outliers(_points([1.0, 100.0])) == []

    def test_mad_outlier_detected(self):
        points = _points([10.0, 11.0, 10.5, 9.5, 10.0, 50.0])
        (found,) = history.outliers(points)
        assert found["run_index"] == 5 and found["value"] == 50.0

    def test_flat_series_with_spike_uses_mean_ad_fallback(self):
        # MAD = 0 here; the mean-AD fallback must still flag the spike.
        points = _points([100.0] * 6 + [500.0])
        (found,) = history.outliers(points)
        assert found["value"] == 500.0

    def test_constant_series_is_clean(self):
        assert history.outliers(_points([7.0] * 8)) == []

    def test_changepoint_level_shift(self):
        points = _points([10.0, 10.2, 9.8, 20.0, 20.1, 19.9])
        shift = history.changepoint(points)
        assert shift is not None
        assert shift["run_index"] == 3
        assert shift["relative_shift"] > 0.25

    def test_no_changepoint_within_noise(self):
        points = _points([10.0, 10.2, 9.8, 10.1, 9.9, 10.0])
        assert history.changepoint(points) is None

    def test_series_walks_history_then_current(self):
        doc = {"schema": schemas.BENCH, "name": "b", "run_index": 2,
               "variants": {"full": {"cycles": 30.0}},
               "history": [
                   {"run_index": 0,
                    "variants": {"full": {"cycles": 10.0}}},
                   {"run_index": 1,
                    "variants": {"full": {"cycles": 20.0}}}]}
        series = history.series_from_doc(doc)
        assert series[("full", "cycles")] == \
            [(0, 10.0), (1, 20.0), (2, 30.0)]

    def test_unstamped_entries_get_positional_indices(self):
        doc = {"schema": schemas.BENCH, "name": "b",
               "variants": {"full": {"cycles": 3.0}},
               "history": [{"variants": {"full": {"cycles": 1.0}}},
                           {"variants": {"full": {"cycles": 2.0}}}]}
        series = history.series_from_doc(doc)
        assert series[("full", "cycles")] == \
            [(0, 1.0), (1, 2.0), (2, 3.0)]

    def test_analyze_dir_and_cli(self, tmp_path, capsys):
        doc = {"schema": schemas.BENCH, "name": "spiky",
               "run_index": 6,
               "variants": {"full": {"cycles": 500.0}},
               "history": [{"run_index": i,
                            "variants": {"full": {"cycles": 100.0}}}
                           for i in range(6)]}
        (tmp_path / "BENCH_spiky.json").write_text(json.dumps(doc))
        (tmp_path / "BENCH_bad.json").write_text("{nope")
        analysis = history.analyze_dir(str(tmp_path))
        # The spike is both a point outlier and (with a right segment
        # pulled upward) a mean-shift candidate; the outlier is the
        # must-have.
        (anomaly,) = [a for a in analysis["anomalies"]
                      if a["kind"] == "outlier"]
        assert anomaly["bench"] == "spiky"
        assert history.main([str(tmp_path)]) == 0
        assert "outlier" in capsys.readouterr().out
        assert history.main([str(tmp_path), "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["anomalies"]
