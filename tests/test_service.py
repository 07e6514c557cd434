"""Tests for the compilation service: protocol validation, the
in-process client API, the two cache levels' observable metadata and
counters, §7 database catalogs, error classification, and the JSONL
front doors (``python -m repro.service`` and ``titancc --serve``).

The byte-identity and concurrency batteries live in
``tests/test_service_stress.py``; the cache property tests in
``tests/test_service_cache.py``.
"""

import json
import subprocess
import sys

import pytest

from repro.pipeline import CompilerOptions
from repro.service import (CompileRequest, CompileService, ServiceError,
                           content_hash, execute_request)
from repro.service.protocol import options_from_dict
from repro.service.worker import request_fingerprint
from repro.workloads import blas

DAXPY = """
float a[64], b[64], c[64];
void step(void)
{
    int i;
    for (i = 0; i < 64; i++)
        a[i] = b[i] + 2.5f * c[i];
}
int main(void)
{
    int i;
    for (i = 0; i < 64; i++) { b[i] = i; c[i] = 1.0f; }
    step();
    return 0;
}
"""


@pytest.fixture
def service():
    with CompileService(workers=0) as svc:
        yield svc


class TestProtocolValidation:
    def test_unknown_request_field_rejected(self):
        with pytest.raises(ServiceError, match="sauce"):
            CompileRequest.from_dict({"source": "", "sauce": 1})

    def test_source_must_be_string(self):
        with pytest.raises(ServiceError, match="source"):
            CompileRequest.from_dict({"source": 42})

    def test_unknown_engine_rejected(self):
        with pytest.raises(ServiceError, match="warp"):
            CompileRequest.from_dict({"source": "", "engine": "warp"})

    def test_unknown_option_rejected(self):
        with pytest.raises(ServiceError, match="vectorise"):
            options_from_dict({"vectorise": True})
        # The machine's maximum vector length is the vector length.
        with pytest.raises(ServiceError, match="max_vector_length"):
            options_from_dict({"max_vector_length": 64})

    def test_non_object_options_rejected(self):
        with pytest.raises(ServiceError, match="must be an object"):
            CompileRequest.from_dict(
                {"source": "", "options": ["--fast"]})


    def test_options_round_trip(self):
        request = CompileRequest.from_dict(
            {"source": "", "options": {"vectorize": False,
                                       "processors": 4}})
        assert request.options == CompilerOptions(vectorize=False,
                                                  processors=4)

    def test_invalid_request_becomes_error_response(self, service):
        response = service.submit({"source": 9, "id": "r1"})
        assert response["status"] == "error"
        assert response["id"] == "r1"
        assert response["error"]["phase"] == "request"
        assert response["error"]["kind"] == "invalid"


class TestClientAPI:
    def test_ok_response_shape(self, service):
        response = service.submit({"id": 1, "source": DAXPY,
                                   "filename": "d.c", "options": {}})
        assert response["schema"] == "titancc-service/1"
        assert response["status"] == "ok"
        assert response["id"] == 1
        payload = response["payload"]
        assert payload["report"]["schema"].startswith("titancc-report/")
        assert "/* vector */" in payload["listing"]
        assert payload["il_sha256"]
        assert response["cache"]["source_sha256"] == \
            content_hash(DAXPY)

    def test_run_section(self, service):
        response = service.compile_source(DAXPY, filename="d.c",
                                          run="main")
        run = response["payload"]["run"]
        assert run["entry"] == "main"
        assert run["engine"] == "compiled"
        assert run["cycles"] > 0

    def test_bytecode_engine_refused(self, service):
        # The removed engine value is refused like any unknown engine.
        response = service.submit({"source": DAXPY, "filename": "d.c",
                                   "engine": "bytecode"})
        assert response["status"] == "error"
        assert response["error"]["phase"] == "request"
        assert response["error"]["kind"] == "invalid"

    def test_default_artifact_section(self, service):
        response = service.compile_source(DAXPY, filename="d.c")
        artifact = response["payload"]["artifact"]
        assert artifact["engine"] == "compiled"
        step = artifact["functions"]["step"]
        assert sorted(step) == ["params", "statements", "tier"]
        assert step["tier"] == "closure"

    def test_reject_classified(self, service):
        response = service.submit({"source": "int main( {", "id": 2})
        assert response["status"] == "error"
        assert response["error"]["phase"] == "frontend"
        assert response["error"]["kind"] == "reject"

    def test_raw_newline_in_a_string_is_a_frontend_reject(self, service):
        # It used to compile, run and return 10: the newline was the
        # string's third character.
        response = service.submit({
            "filename": "nl.c", "run": "main",
            "source": 'int main(void){ char *s = "ab\ncd"; '
                      'return s[2]; }\n'})
        assert response["status"] == "error"
        error = response["error"]
        assert (error["phase"], error["kind"], error["type"]) == \
            ("frontend", "reject", "LexError")
        assert error["message"] == "nl.c:1:27: unterminated string literal"

    def test_function_pointer_call_is_a_frontend_reject(self, service):
        # It used to compile and fail at run time ("call to unknown
        # function 'f'"): phase "run", no source position.
        response = service.submit({
            "filename": "fp.c", "run": "main",
            "source": "int g(int x) { return x + 1; }\n"
                      "int main(void) { int (*f)(int); f = g;\n"
                      "  return f(41); }\n"})
        assert response["status"] == "error"
        error = response["error"]
        assert (error["phase"], error["kind"], error["type"]) == \
            ("frontend", "reject", "LoweringError")
        assert "fp.c:3:" in error["message"]

    def test_crash_classified(self, service):
        deep = "int main(void){ return %s1%s; }" \
            % ("(" * 4000, ")" * 4000)
        response = service.submit({"source": deep})
        assert response["status"] == "error"
        assert response["error"]["kind"] == "crash"

    @pytest.mark.parametrize("depth", [63, 100])
    @pytest.mark.parametrize("shape", ["(", "(x + "],
                             ids=["parentheses", "additions"])
    def test_nesting_floor(self, service, shape, depth):
        # C99 5.2.4.1: 63 levels of parentheses.  Both shapes used to
        # come back as a RecursionError crash from 54 levels on.
        source = "int main(void) { int x = 3; return %sx%s; }" \
            % (shape * depth, ")" * depth)
        response = service.submit({"source": source, "filename": "n.c",
                                   "run": "main"})
        assert response["status"] == "ok", response.get("error")
        result = 3 if shape == "(" else 3 * (depth + 1)
        assert response["payload"]["run"]["result"] == result

    def test_errors_are_not_cached(self, service):
        bad = {"source": "int main( {"}
        service.submit(bad)
        service.submit(bad)
        assert service.artifacts.stats()["entries"] == 0
        # The catalog cache still memoizes the (failing) source hash
        # lookup attempt? No: failed builds never enter the cache, so
        # the second submit re-parses.
        assert service.catalogs.stats()["entries"] == 0


class TestCacheMetadata:
    def test_cold_then_warm(self, service):
        request = {"source": DAXPY, "filename": "d.c"}
        cold = service.submit(request)
        warm = service.submit(request)
        assert cold["cache"]["catalog"] == "miss"
        assert cold["cache"]["artifact"] == "miss"
        assert warm["cache"]["catalog"] == "hit"
        assert warm["cache"]["artifact"] == "hit"
        assert cold["payload"] == warm["payload"]
        assert service.catalogs.builds == 1

    def test_option_change_misses_artifact_not_catalog(self, service):
        service.submit({"source": DAXPY, "filename": "d.c"})
        other = service.submit({"source": DAXPY, "filename": "d.c",
                                "options": {"vectorize": False}})
        assert other["cache"]["catalog"] == "hit"
        assert other["cache"]["artifact"] == "miss"
        assert "/* vector */" not in other["payload"]["listing"]

    def test_whitespace_variant_shares_artifact(self, service):
        base = service.submit({"source": DAXPY, "filename": "d.c"})
        variant_src = DAXPY.replace("int main", "int   main")
        variant = service.submit({"source": variant_src,
                                  "filename": "d.c"})
        # Different content bytes: level A misses (documented rule) —
        # but same front-end IL and lines, so level B hits and the
        # payload is shared verbatim.
        assert variant["cache"]["catalog"] == "miss"
        assert variant["cache"]["artifact"] == "hit"
        assert variant["payload"] == base["payload"]
        # Provenance stays per-request in the envelope.
        assert variant["cache"]["source_sha256"] == \
            content_hash(variant_src)
        assert base["cache"]["source_sha256"] == content_hash(DAXPY)

    def test_line_shift_variant_misses_artifact(self, service):
        service.submit({"source": DAXPY, "filename": "d.c"})
        shifted = service.submit({"source": "/* note */\n" + DAXPY,
                                  "filename": "d.c"})
        # Reports embed source line numbers, so the IL hash includes
        # line annotations: a comment that shifts every line must not
        # share the artifact.
        assert shifted["cache"]["artifact"] == "miss"
        assert shifted["payload"] == execute_request(
            {"source": "/* note */\n" + DAXPY,
             "filename": "d.c"})["payload"]

    def test_coalescing_within_a_batch(self, service):
        request = {"source": DAXPY, "filename": "d.c"}
        responses = service.compile_batch([dict(request, id=1),
                                           dict(request, id=2),
                                           dict(request, id=3)])
        assert [r["id"] for r in responses] == [1, 2, 3]
        assert responses[0]["cache"]["artifact"] == "miss"
        assert responses[1]["cache"]["artifact"] == "coalesced"
        assert responses[2]["cache"]["artifact"] == "coalesced"
        assert responses[0]["payload"] == responses[1]["payload"]
        # One compile dispatched, not three.
        counters = {(c["name"],): c["value"]
                    for c in service.metrics_snapshot()["counters"]
                    if c["name"] == "titancc_service_dispatches_total"
                    and not c["labels"]}
        assert counters[("titancc_service_dispatches_total",)] == 1

    def test_fingerprint_covers_request_shape(self):
        request = CompileRequest(source=DAXPY, filename="d.c")
        base = request_fingerprint(request, [])
        for changed in (
                CompileRequest(source=DAXPY, filename="e.c"),
                CompileRequest(source=DAXPY, filename="d.c",
                               run="main"),
                CompileRequest(source=DAXPY, filename="d.c",
                               engine="tree"),
                CompileRequest(source=DAXPY, filename="d.c",
                               max_steps=10),
                CompileRequest(source=DAXPY, filename="d.c",
                               options=CompilerOptions(inline=False))):
            assert request_fingerprint(changed, []) != base
        assert request_fingerprint(request, ["sha"]) != base


class TestDatabaseCatalogs:
    def test_db_sources_inline_and_share_catalogs(self, service):
        client = blas.library_client(n=32)
        request = {"source": client, "filename": "client.c",
                   "db_sources": [blas.MATH_LIBRARY_C]}
        first = service.submit(request)
        assert first["status"] == "ok"
        assert "/* vector */" in first["payload"]["listing"]
        assert first["payload"]["catalog"]["db_sources"] == \
            [content_hash(blas.MATH_LIBRARY_C)]
        builds = service.catalogs.builds  # client + library
        assert builds == 2
        second = service.submit(request)
        assert second["cache"]["artifact"] == "hit"
        assert service.catalogs.builds == builds  # nothing rebuilt
        assert first["payload"] == second["payload"]

    def test_bad_db_source_is_catalog_phase_error(self, service):
        response = service.submit({"source": DAXPY,
                                   "db_sources": ["int broken("]})
        assert response["status"] == "error"
        assert response["error"]["phase"] == "catalog"
        assert response["error"]["kind"] == "reject"


class TestParseOnce:
    """A cold miss hands the catalog build's parse to the compile."""

    @pytest.fixture
    def parses(self, monkeypatch):
        """One entry per token stream the parser is run on."""
        from repro.frontend.parser import Parser
        calls = []
        real = Parser.parse_translation_unit

        def counted(parser):
            calls.append(len(parser.tokens))
            return real(parser)

        monkeypatch.setattr(Parser, "parse_translation_unit", counted)
        return calls

    def test_one_parse_per_cold_miss(self, service, parses):
        cold = service.submit({"source": DAXPY, "run": "main"})
        assert (cold["cache"]["catalog"], cold["cache"]["artifact"]) \
            == ("miss", "miss")
        assert len(parses) == 1
        assert service.stages.stats()["misses"] == 1
        # Catalog hit + artifact miss at another back-end option: the
        # compile resumes from the mid-end snapshot and parses nothing.
        service.submit({"source": DAXPY, "run": "main",
                        "options": {"vector_length": 16}})
        assert len(parses) == 1
        assert service.stages.stats()["hits"] == 1
        # A mid-end option is a stage miss: the worker half parses.
        service.submit({"source": DAXPY, "run": "main",
                        "options": {"inline": False}})
        assert len(parses) == 2
        assert service.stages.stats()["misses"] == 2
        # New bytes, known tokens: the comment edit stops at the lexer.
        edited = service.submit(
            {"source": DAXPY.replace("int main", "int /* edit */ main"),
             "run": "main"})
        assert (edited["cache"]["catalog"],
                edited["cache"]["artifact"]) == ("miss", "hit")
        assert len(parses) == 2
        assert edited["payload"] == cold["payload"]
        assert service.cache_stats()["tokens"]["hits"] == 1
        # New tokens, same IL: parsed, and the hand-off is just dropped.
        spelled = service.submit(
            {"source": DAXPY.replace("int main(void)", "int main()"),
             "run": "main"})
        assert (spelled["cache"]["catalog"],
                spelled["cache"]["artifact"]) == ("miss", "hit")
        assert len(parses) == 3
        assert spelled["payload"] == cold["payload"]

    def test_handed_parse_gives_the_direct_path_payload(self, service):
        """db_sources are parsed between the hand-off and its use, so
        the compile must resume the sid counter, not inherit it."""
        request = {"source": blas.library_client(n=32),
                   "filename": "client.c",
                   "db_sources": [blas.MATH_LIBRARY_C]}
        direct = execute_request(request)
        served = service.submit(request)
        assert direct["status"] == served["status"] == "ok"
        assert served["payload"] == direct["payload"]

    def test_catalog_cache_retains_no_programs(self, service):
        import dataclasses
        from repro.service.cache import CatalogEntry
        service.submit({"source": DAXPY})
        (entry,) = [service.catalogs.lru.get(key, record=False)
                    for key in service.catalogs.lru.keys()]
        assert [f.name for f in dataclasses.fields(entry)] == \
            ["source_sha256", "il_sha256", "blob", "names"]
        rebuilt = CatalogEntry(source_sha256=entry.source_sha256,
                               il_sha256=entry.il_sha256,
                               blob=entry.blob, names=entry.names)
        assert rebuilt == entry

    def test_pooled_service_parses_in_the_worker(self, parses):
        with CompileService(workers=2) as pooled:
            response = pooled.submit({"source": DAXPY})
        assert response["status"] == "ok"
        # Single task: runs inline even with a pool configured, and
        # takes the worker path (its own parse) all the same.
        assert len(parses) == 2


class TestServiceMain:
    def _run(self, tmp_path, lines, *extra):
        requests = tmp_path / "requests.jsonl"
        out = tmp_path / "responses.jsonl"
        requests.write_text("".join(line + "\n" for line in lines))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.service",
             "--requests", str(requests), "--out", str(out),
             "--quiet", *extra],
            capture_output=True, text=True, cwd="src")
        assert proc.returncode == 0, proc.stderr
        return [json.loads(line)
                for line in out.read_text().splitlines()]

    def test_jsonl_round_trip(self, tmp_path):
        lines = [
            json.dumps({"id": "a", "source": DAXPY,
                        "filename": "d.c"}),
            "{this is not json",
            json.dumps({"id": "b", "source": DAXPY,
                        "filename": "d.c"}),
        ]
        responses = self._run(tmp_path, lines, "--workers", "2")
        assert [r["status"] for r in responses] == \
            ["ok", "error", "ok"]
        assert responses[1]["error"]["kind"] == "invalid"
        # Responses stay in request order; the duplicate hits or
        # coalesces and shares bytes.
        assert responses[0]["payload"] == responses[2]["payload"]

    def test_metrics_export(self, tmp_path):
        lines = [json.dumps({"source": DAXPY, "filename": "d.c"})] * 2
        prom = tmp_path / "metrics.prom"
        events = tmp_path / "events.jsonl"
        self._run(tmp_path, lines, "--metrics-prom", str(prom),
                  "--events-jsonl", str(events))
        text = prom.read_text()
        assert "titancc_service_requests_total" in text
        assert "titancc_service_cache_events_total" in text
        kinds = [json.loads(line)["type"]
                 for line in events.read_text().splitlines()]
        assert "service_worker" in kinds
        assert "metrics" in kinds


class TestServeFlag:
    def test_titancc_serve_delegates(self, tmp_path):
        from repro.cli import main
        requests = tmp_path / "r.jsonl"
        out = tmp_path / "o.jsonl"
        requests.write_text(json.dumps(
            {"source": DAXPY, "filename": "d.c"}) + "\n")
        assert main(["--serve", "--requests", str(requests),
                     "--out", str(out), "--quiet"]) == 0
        response = json.loads(out.read_text())
        assert response["status"] == "ok"
        assert response["schema"] == "titancc-service/1"

    def test_source_still_required_without_serve(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main([])
        assert "source is required" in capsys.readouterr().err
