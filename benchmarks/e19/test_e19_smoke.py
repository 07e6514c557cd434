"""E19 smoke: the benchmark runs, checks its answers, prints what
``BENCHMARK.json`` promises, and counts the same things twice.

Collected by CI's ``pytest benchmarks`` step, not by the tier-1 suite.
Timings from ``--quick`` runs are not asserted on: they are too short
to mean anything.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench  # noqa: E402
import corpus  # noqa: E402


def quick_run(path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "bench.py"), "--quick",
         "--seed", "7", "--out", str(path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    return bench.load_sets(str(path))[0]


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("e19")
    return quick_run(out / "a.json"), quick_run(out / "b.json")


def test_every_promised_metric_is_printed(two_runs):
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == \
        list(bench.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(bench.END_TO_END)
    for name in bench.WORKLOAD_NAMES:
        entry = two_runs[0][name]
        assert entry["failed"] == 0 and entry["attempted"] > 0
        for section in ("end_to_end", "per_layer"):
            assert {m["name"]: m["unit"] for m in spec[section]} == \
                {metric: cell["unit"]
                 for metric, cell in entry[section].items()}
        for cell in entry["end_to_end"].values():
            assert cell["value"] > 0


def test_counts_and_simulated_cycles_repeat_exactly(two_runs):
    first, second = two_runs
    for name in bench.WORKLOAD_NAMES:
        assert first[name]["samples_traced"] == \
            second[name]["samples_traced"]
        assert first[name]["end_to_end"]["sim_cycles_geomean"] == \
            second[name]["end_to_end"]["sim_cycles_geomean"]
        exact = [metric for metric, cell in
                 first[name]["per_layer"].items()
                 if cell["unit"] in bench.EXACT_UNITS]
        assert len(exact) >= 10
        for metric in exact:
            assert first[name]["per_layer"][metric] == \
                second[name]["per_layer"][metric], (name, metric)


def test_layers_separate_even_on_tiny_inputs(two_runs):
    layers = {name: two_runs[0][name]["per_layer"]
              for name in bench.WORKLOAD_NAMES}
    for name in ("compile_cold", "edit_replay"):
        assert layers[name]["interp.share"]["value"] == 0
    assert layers["edit_replay"]["opt.share"]["value"] == 0
    assert layers["compile_cold"]["frontend.parses_per_request"][
        "value"] == 2.0
    for name in bench.WORKLOAD_NAMES:
        assert layers[name]["trace.coverage_share"]["value"] >= 0.9


def test_changed_corpus_is_refused(tmp_path, monkeypatch):
    copy = tmp_path / "corpus"
    shutil.copytree(corpus.CORPUS_DIR, copy)
    with open(copy / "kernels" / "daxpy.c", "a") as handle:
        handle.write("/* edited */\n")
    monkeypatch.setattr(corpus, "CORPUS_DIR", str(copy))
    with pytest.raises(corpus.CorpusError, match="daxpy"):
        corpus.load_corpus()


def _sets(values):
    return [{"compile_cold": {"failed": 0, "end_to_end": {
        "req_per_s": {"value": v, "unit": "1/s"}}}} for v in values]


def test_compare_verdicts(capsys):
    assert bench.compare(_sets([100.0]), _sets([95.0]), False)
    assert not bench.compare(_sets([100.0]), _sets([70.0]), False)
    assert "regressed" in capsys.readouterr().out
    # A's own runs differ by more than the bound: no verdict.
    assert not bench.compare(_sets([100.0, 140.0]), _sets([110.0]),
                             False)
    assert "unresolved" in capsys.readouterr().out
    # ... unless every B run beats every A run.
    assert bench.compare(_sets([100.0, 140.0]), _sets([150.0]), False)
