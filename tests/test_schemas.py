"""Tests for the artifact-schema registry and atomic JSON writing —
and the end-to-end guarantee that every JSON artifact the toolchain
emits carries a registered, well-formed schema tag."""

import glob
import json
import os

import pytest

from repro.cli import main
from repro.obs import schemas
from repro.obs.schemas import (REGISTERED, SchemaError,
                               atomic_write_text, validate_document,
                               validate_tag, write_json_artifact)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SOURCE = """
double a[64], b[64];
int n;
double alpha;
void daxpy() {
    int i;
    for (i = 0; i < n; i++)
        a[i] = a[i] + alpha * b[i];
}
"""


def minimal_doc(tag):
    """Skeleton document with every required key for a tag."""
    _, required = REGISTERED[tag]
    doc = {key: None for key in required}
    doc["schema"] = tag
    return doc


class TestRegistry:
    def test_every_registered_tag_validates(self):
        for tag in REGISTERED:
            assert validate_document(minimal_doc(tag)) == tag

    def test_tags_are_versioned_titancc_names(self):
        for tag in REGISTERED:
            kind, _, version = tag.partition("/")
            assert kind.startswith("titancc-")
            assert version.isdigit()

    def test_unregistered_tag_rejected(self):
        with pytest.raises(SchemaError, match="unregistered"):
            validate_tag("titancc-nope/1")
        with pytest.raises(SchemaError):
            validate_document({"schema": "titancc-report/1"})

    def test_missing_keys_named_in_error(self):
        doc = minimal_doc(schemas.FUZZ)
        del doc["divergences"], doc["crashes"]
        with pytest.raises(SchemaError, match="divergences, crashes"):
            validate_document(doc)

    def test_non_dict_document_rejected(self):
        with pytest.raises(SchemaError, match="list"):
            validate_document([1, 2])

    def test_every_emitted_kind_is_registered(self):
        """Completeness: every artifact kind the codebase writes has a
        registry entry, and each registered kind's skeleton round-trips
        validate_document.  New producers must register here first."""
        emitted = {schemas.REPORT, schemas.BENCH, schemas.FUZZ,
                   schemas.BISECT, schemas.EVENTS, schemas.TRACE,
                   schemas.DEPGRAPH, schemas.ATTRIB,
                   schemas.REPORTDIFF, schemas.SERVICE}
        assert emitted == set(REGISTERED)
        for tag in emitted:
            assert validate_document(minimal_doc(tag)) == tag


class TestAtomicWrites:
    def test_write_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "out.txt"
        atomic_write_text(str(path), "payload")
        assert path.read_text() == "payload"

    def test_replace_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_text(str(path), "one")
        atomic_write_text(str(path), "two")
        assert path.read_text() == "two"
        assert os.listdir(tmp_path) == ["doc.json"]

    def test_dash_writes_to_stdout(self, capsys, tmp_path):
        atomic_write_text("-", "to the console\n")
        assert capsys.readouterr().out == "to the console\n"
        assert not list(tmp_path.iterdir())

    def test_json_artifact_validates_before_writing(self, tmp_path):
        path = tmp_path / "bad.json"
        with pytest.raises(SchemaError):
            write_json_artifact(str(path), {"schema": "nope"})
        assert not path.exists()
        assert os.listdir(tmp_path) == []  # no orphaned temp file

    def test_json_artifact_round_trips(self, tmp_path):
        doc = minimal_doc(schemas.BENCH)
        doc["name"] = "e0"
        doc["variants"] = {"full": {"cycles": 10}}
        path = tmp_path / "BENCH_e0.json"
        write_json_artifact(str(path), doc, sort_keys=True)
        text = path.read_text()
        assert text.endswith("\n")
        assert validate_document(json.loads(text)) == schemas.BENCH


@pytest.fixture
def prog_file(tmp_path):
    path = tmp_path / "daxpy.c"
    path.write_text(SOURCE)
    return str(path)


class TestEmittedArtifacts:
    """Every artifact the CLI writes validates against the registry."""

    def test_report_v4_round_trips(self, prog_file, tmp_path):
        out = tmp_path / "report.json"
        assert main([prog_file, "--run", "daxpy",
                     "--report-json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert validate_document(doc) == schemas.REPORT
        assert doc["schema"] == "titancc-report/4"
        # /4 states each fact once: no derived metrics section, and
        # nothing beyond the registered keys.
        assert tuple(doc) == schemas.REGISTERED[schemas.REPORT][1]

    def test_trace_depgraph_and_events_validate(self, prog_file,
                                                tmp_path):
        trace = tmp_path / "trace.json"
        deps = tmp_path / "deps"
        events = tmp_path / "events.jsonl"
        assert main([prog_file, "--trace-json", str(trace),
                     "--dump-deps", str(deps),
                     "--events-jsonl", str(events)]) == 0
        assert validate_document(
            json.loads(trace.read_text())) == schemas.TRACE
        dep_files = glob.glob(str(deps / "*.json"))
        assert dep_files
        for path in dep_files:
            with open(path) as handle:
                assert validate_document(
                    json.load(handle)) == schemas.DEPGRAPH
        lines = [json.loads(line)
                 for line in events.read_text().splitlines()]
        assert lines
        for line in lines:
            assert validate_document(line) == schemas.EVENTS
        assert {line["type"] for line in lines} >= \
            {"span", "metrics"}

    def test_metrics_prom_exposition(self, prog_file, tmp_path):
        prom = tmp_path / "metrics.prom"
        assert main([prog_file, "--run", "daxpy",
                     "--metrics-prom", str(prom)]) == 0
        text = prom.read_text()
        assert "# TYPE titancc_pass_events_total counter" in text
        assert "titancc_loops_total" in text

    @pytest.mark.parametrize("example", ["daxpy", "backsolve"])
    def test_metrics_prom_states_the_report_counts(self, example,
                                                   tmp_path):
        """The report has no metrics section; ``--metrics-prom`` still
        carries the pass-counter, loop and miss-reason families, with
        the report's ``counters`` and ``loops`` values (daxpy.c
        vectorizes every loop, backsolve.c leaves some serial)."""
        prom = tmp_path / "metrics.prom"
        report = tmp_path / "report.json"
        source = os.path.join(ROOT, "examples", f"{example}.c")
        assert main([source, "--run", "main", "--metrics-prom", str(prom),
                     "--report-json", str(report)]) == 0
        doc = json.loads(report.read_text())
        families = {"titancc_pass_events_total": {},
                    "titancc_loops_total": {},
                    "titancc_loop_miss_reasons_total": {}}
        for line in prom.read_text().splitlines():
            name, _, rest = line.partition("{")
            if name in families:
                labels, _, value = rest.rpartition("} ")
                families[name][labels] = float(value)
        expected = {name: {} for name in families}
        for rec in doc["counters"]:
            key = (f'counter="{rec["counter"]}",'
                   f'function="{rec["function"]}",pass="{rec["pass"]}"')
            expected["titancc_pass_events_total"][key] = rec["value"]
        loops = expected["titancc_loops_total"]
        reasons = expected["titancc_loop_miss_reasons_total"]
        for row in doc["loops"]:
            key = f'function="{row["function"]}",status="{row["status"]}"'
            loops[key] = loops.get(key, 0) + 1
            if row["status"] == "serial" and row["reason"]:
                key = f'reason="{row["reason"]}"'
                reasons[key] = reasons.get(key, 0) + 1
        assert expected["titancc_pass_events_total"] and loops
        assert bool(reasons) == (example == "backsolve")
        assert families == expected

    def test_report_to_stdout_with_dash(self, prog_file, capsys):
        assert main([prog_file, "--report-json", "-"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert validate_document(doc) == schemas.REPORT
        # The "wrote report" notice is suppressed for stdout.
        assert "report" not in captured.err

    def test_trace_to_stdout_with_dash(self, prog_file, capsys):
        assert main([prog_file, "--trace-json", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert validate_document(doc) == schemas.TRACE

    def test_attrib_json_round_trips(self, prog_file, tmp_path):
        out = tmp_path / "attrib.json"
        assert main([prog_file, "--attrib-json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert validate_document(doc) == schemas.ATTRIB
        assert doc["totals"]["exact"] is True
        assert doc["steps"][0]["pass"] == "front-end"

    def test_attrib_to_stdout_with_dash(self, prog_file, capsys):
        assert main([prog_file, "--attrib-json", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert validate_document(doc) == schemas.ATTRIB

    def test_reportdiff_round_trips(self, prog_file, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main([prog_file, "--report-json", str(a)]) == 0
        assert main([prog_file, "--no-vectorize",
                     "--report-json", str(b)]) == 0
        from repro.obs.diff import diff_reports
        doc = diff_reports(json.loads(a.read_text()),
                           json.loads(b.read_text()))
        assert validate_document(doc) == schemas.REPORTDIFF
        out = tmp_path / "diff.json"
        write_json_artifact(str(out), doc)
        assert validate_document(
            json.loads(out.read_text())) == schemas.REPORTDIFF
