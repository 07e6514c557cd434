"""Tests for the differential fuzzing subsystem (repro.fuzz).

Three layers:

* corpus replay — every ``tests/fuzz_corpus/*.c`` file carries an
  ``// expect: run`` or ``// expect: reject`` first line and must
  differentially match it at every option point;
* fixed-seed smoke batch — a small deterministic slice of the space
  the CI job covers at scale;
* unit tests for the generator, harness classification, the reducer,
  and the CLI.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.fuzz import (CLEAN_REJECTIONS, GeneratorOptions,
                        classify_exception, fuzz, fuzz_parallel,
                        generate_program, option_points,
                        reduce_source, resolve_engines, run_source,
                        seed_chunks)
from repro.frontend.lexer import LexError
from repro.frontend.parser import ParseError
from repro.obs.metrics import MetricsRegistry

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "fuzz_corpus")
SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def corpus_files():
    return sorted(name for name in os.listdir(CORPUS_DIR)
                  if name.endswith(".c"))


def read_corpus(name):
    with open(os.path.join(CORPUS_DIR, name)) as handle:
        source = handle.read()
    first = source.splitlines()[0]
    assert first.startswith("// expect: "), \
        f"{name} missing '// expect: run|reject' header"
    return source, first.split("// expect: ", 1)[1].strip()


class TestCorpusReplay:
    @pytest.mark.parametrize("name", corpus_files())
    def test_corpus_file(self, name):
        # check_passes: each committed reproducer must not only match
        # end-to-end but replay clean through the per-pass semantic
        # checker — no pass is allowed to even transiently miscompile
        # a program that once exposed a bug.
        source, expectation = read_corpus(name)
        result = run_source(source, name=name, points=option_points(),
                            check_passes=True)
        if expectation == "run":
            assert result.status == "ok", \
                f"{name}: {result.signature()}"
            assert all(v.culprit is None for v in result.variants), \
                f"{name}: a pass check flagged a culprit"
        else:
            assert expectation == "reject"
            assert result.status == "reject", \
                f"{name}: expected a clean rejection, got " \
                f"{result.signature()}"

    def test_corpus_is_not_empty(self):
        # The three frontend bugfix reproducers plus the liveness
        # miscompile must stay committed.
        names = corpus_files()
        for required in ("lexer_hex_escape_empty.c",
                         "lexer_hex_escape_range.c",
                         "lexer_octal_escape_range.c",
                         "global_string_init.c",
                         "liveness_call_kill.c"):
            assert required in names


class TestSmokeBatch:
    def test_fixed_seed_batch_is_clean(self):
        report = fuzz(seed=100, count=12)
        assert report.count == 12
        assert report.divergences == 0, \
            [f.signature() for f in report.failures]
        assert report.crashes == 0, \
            [f.signature() for f in report.failures]
        # Generated programs are valid by construction.
        assert report.rejected == 0
        assert report.clean


class TestGenerator:
    def test_deterministic(self):
        assert generate_program(42).source == generate_program(42).source

    def test_seeds_differ(self):
        assert generate_program(1).source != generate_program(2).source

    def test_source_shape(self):
        program = generate_program(5)
        assert program.seed == 5
        assert "int main(void)" in program.source
        assert "return chk;" in program.source

    def test_options_bound_blocks(self):
        options = GeneratorOptions(min_blocks=1, max_blocks=1)
        program = generate_program(5, options)
        assert "int main(void)" in program.source


class TestClassification:
    def test_clean_rejections_classified_as_reject(self):
        assert classify_exception(LexError("x", None)) == "reject"
        assert classify_exception(ParseError("x", None)) == "reject"

    def test_other_exceptions_are_crashes(self):
        assert classify_exception(ValueError("boom")) == "crash"
        assert classify_exception(KeyError("boom")) == "crash"

    def test_clean_rejections_cover_frontend_diagnostics(self):
        names = {cls.__name__ for cls in CLEAN_REJECTIONS}
        assert {"LexError", "ParseError", "LoweringError"} <= names


class TestRunSource:
    def test_rejection_is_whole_program(self):
        result = run_source('char *s = "\\x";\nint main(void) '
                            '{ return 0; }\n')
        assert result.status == "reject"
        assert not result.failed

    def test_ok_program_has_variant_values(self):
        result = run_source("int main(void) { return 41 + 1; }\n")
        assert result.status == "ok"
        assert result.reference.value == 42
        assert all(v.value == 42 for v in result.variants)

    def test_resolve_engines(self):
        assert resolve_engines("all") == ("compiled", "compiled+cost")
        assert resolve_engines("compiled") == ("compiled",)
        assert resolve_engines("tree") == ("tree",)

    def test_all_engines_three_way(self):
        # engine="all" runs both halves of the fast engine over each
        # variant — generated code, costed generated code under the
        # Titan model — and accounts wall time to each and to the
        # tree oracle the reference runs on.
        result = run_source("int main(void) { int i; int s; s = 0; "
                            "for (i = 0; i < 9; i++) s = s + i; "
                            "return s; }\n", engine="all")
        assert result.status == "ok"
        assert all(v.value == 36 for v in result.variants)
        assert set(result.engine_seconds) == \
            {"tree", "compiled", "compiled+cost"}
        assert all(s > 0 for s in result.engine_seconds.values())


class TestReducer:
    def test_reduces_to_failing_core(self):
        source = "\n".join(f"line{i}" for i in range(16)) + "\nNEEDLE\n"
        reduced = reduce_source(source,
                                lambda text: "NEEDLE" in text)
        assert reduced.strip() == "NEEDLE"

    def test_keeps_source_when_nothing_removable(self):
        source = "a\nb\n"
        reduced = reduce_source(source,
                                lambda text: "a" in text and "b" in text)
        assert "a" in reduced and "b" in reduced


class TestCLI:
    def _run(self, *argv, cwd=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(SRC_DIR)
        return subprocess.run(
            [sys.executable, "-m", "repro.fuzz", *argv],
            capture_output=True, text=True, env=env, cwd=cwd)

    def test_small_batch_exits_zero(self, tmp_path):
        proc = self._run("--seed", "3", "--count", "2",
                         "--out", str(tmp_path / "out"), "--quiet")
        assert proc.returncode == 0, proc.stderr
        summary = json.loads((tmp_path / "out" / "summary.json")
                             .read_text())
        assert summary["schema"] == "titancc-fuzz/1"
        assert summary["count"] == 2
        assert summary["divergences"] == 0
        assert summary["crashes"] == 0
        # The default batch runs both halves of the fast engine
        # against the tree reference, and the summary carries the
        # aggregate wall time of each.
        assert summary["engine"] == "all"
        assert set(summary["engine_timings"]) == \
            {"tree", "compiled", "compiled+cost"}
        assert all(s > 0 for s in summary["engine_timings"].values())

    def test_replay_corpus_file(self):
        path = os.path.join(CORPUS_DIR, "global_string_init.c")
        proc = self._run("--replay", path)
        assert proc.returncode == 0, proc.stderr
        assert "ok" in proc.stdout

    def test_jobs_batch_records_worker_timings(self, tmp_path):
        proc = self._run("--seed", "3", "--count", "4", "--jobs", "2",
                         "--out", str(tmp_path / "out"), "--quiet")
        assert proc.returncode == 0, proc.stderr
        summary = json.loads((tmp_path / "out" / "summary.json")
                             .read_text())
        assert summary["count"] == 4
        assert summary["jobs"] == 2
        workers = summary["workers"]
        assert [w["seed"] for w in workers] == [3, 5]
        assert [w["count"] for w in workers] == [2, 2]
        assert all(w["seconds"] > 0 for w in workers)

    def test_jobs_summary_matches_sequential_byte_for_byte(
            self, tmp_path):
        # Cross-process determinism, end to end: a --jobs 2 run's
        # summary.json equals the sequential run's except for the
        # wall-clock worker timings and the jobs count itself — and
        # the merged metrics block is byte-identical.
        for jobs, name in (("1", "seq"), ("2", "par")):
            proc = self._run("--seed", "7", "--count", "4",
                             "--jobs", jobs, "--quiet",
                             "--out", str(tmp_path / name))
            assert proc.returncode == 0, proc.stderr
        seq = json.loads((tmp_path / "seq" / "summary.json")
                         .read_text())
        par = json.loads((tmp_path / "par" / "summary.json")
                         .read_text())
        assert json.dumps(par["metrics"], sort_keys=True) == \
            json.dumps(seq["metrics"], sort_keys=True)
        for doc in (seq, par):
            doc.pop("jobs")
            doc.pop("workers", None)
            doc.pop("engine_timings")  # wall clock, like workers
        assert json.dumps(par, sort_keys=True) == \
            json.dumps(seq, sort_keys=True)

    def test_events_log_records_workers_and_metrics(self, tmp_path):
        proc = self._run("--seed", "3", "--count", "4", "--jobs", "2",
                         "--out", str(tmp_path / "out"), "--quiet")
        assert proc.returncode == 0, proc.stderr
        lines = [json.loads(line) for line in
                 (tmp_path / "out" / "events.jsonl")
                 .read_text().splitlines()]
        assert all(line["schema"] == "titancc-events/1"
                   for line in lines)
        by_type = {}
        for line in lines:
            by_type.setdefault(line["type"], []).append(line)
        assert [w["seed"] for w in by_type["worker"]] == [3, 5]
        assert len(by_type["span"]) == 1  # the fuzz-run span
        assert by_type["span"][0]["name"] == "fuzz-run"
        assert len(by_type["metrics"]) == 1

    def test_log_json_streams_structured_progress(self, tmp_path):
        proc = self._run("--seed", "3", "--count", "2", "--log-json",
                         "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        records = [json.loads(line) for line in
                   proc.stderr.splitlines() if line.strip()]
        assert records, proc.stderr
        assert all(r["schema"] == "titancc-events/1"
                   and r["type"] == "log" for r in records)
        assert any(r["message"] == "progress" for r in records)


class TestParallelFuzz:
    def test_seed_chunks_partition(self):
        assert seed_chunks(0, 10, 4) == [(0, 3), (3, 3), (6, 2),
                                         (8, 2)]
        assert seed_chunks(5, 3, 8) == [(5, 1), (6, 1), (7, 1)]
        assert seed_chunks(9, 7, 1) == [(9, 7)]
        # Every seed covered exactly once, in order.
        chunks = seed_chunks(100, 23, 5)
        seeds = [s for start, count in chunks
                 for s in range(start, start + count)]
        assert seeds == list(range(100, 123))

    def test_parallel_merge_matches_sequential(self):
        seq_registry = MetricsRegistry()
        sequential = fuzz(11, 5, registry=seq_registry).to_dict()
        merged, timings, metrics = fuzz_parallel(11, 5, 2)
        assert merged.to_dict() == sequential
        assert [t["seed"] for t in timings] == [11, 14]
        assert sum(t["count"] for t in timings) == 5
        # Cross-process metrics determinism: the parent's merged
        # registry is exactly the sequential run's, byte for byte.
        assert metrics.to_dict() == seq_registry.to_dict()
        assert json.dumps(metrics.to_dict(), sort_keys=True) == \
            json.dumps(seq_registry.to_dict(), sort_keys=True)

    def test_single_job_runs_inline(self):
        merged, timings, metrics = fuzz_parallel(11, 2, 1)
        assert merged.to_dict() == fuzz(11, 2).to_dict()
        assert len(timings) == 1 and timings[0]["count"] == 2
        assert metrics.sum_values("titancc_fuzz_programs_total") == 2

    def test_merged_histograms_are_worker_sums(self):
        # Each worker observes its chunk's source sizes; the merged
        # histogram's bucket counts are the elementwise sum.
        _, _, merged = fuzz_parallel(11, 4, 2)
        workers = [MetricsRegistry(), MetricsRegistry()]
        fuzz(11, 2, registry=workers[0])
        fuzz(13, 2, registry=workers[1])
        resum = MetricsRegistry()
        for worker in workers:
            resum.merge(worker.to_dict())
        assert merged.to_dict() == resum.to_dict()
