"""Level A's second index: the token fingerprint is sound, and serving
through it cannot be told from parsing.

*Soundness* — over corpus programs under random edits, two sources
with one fingerprint parse to one IL hash and one catalog blob,
whatever their filenames; edits a parse cannot see (white space and
comments that move no token to another line) keep the fingerprint, and
any edit that moves a token to another line or changes a token changes
it.

*Transparency* — a response served through a token hit equals, envelope
included, the response the same service state gives with the index
emptied (so the same bytes are parsed), at ``workers=0`` and
``workers=2``, with the deterministic metrics equal across the two.
"""

import glob
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend.lexer import PRAGMA, LexError, tokenize
from repro.service import CompileService, execute_request
from repro.service.cache import (lex_source, parse_source,
                                 token_fingerprint)
from tests.test_service_stress import comparable, corpus_requests

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


PROGRAMS = [_read(path) for path in sorted(glob.glob(os.path.join(
    ROOT, "benchmarks", "e19", "corpus", "generated", "*.c")))[:6]]
PROGRAMS += [request["source"] for request in corpus_requests()
             if request.get("run")][:4]


def fingerprint(source, filename="p.c"):
    return token_fingerprint(lex_source(source, filename))


def boundaries(source):
    """Offsets a token starts at — where white space or a comment can
    go without changing a token.  Pragmas are left alone: theirs is the
    one token whose text runs to the end of its line."""
    starts = [0]
    for line in source.split("\n"):
        starts.append(starts[-1] + len(line) + 1)
    return [starts[t.coord.line - 1] + t.coord.column - 1
            for t in tokenize(source)[:-1] if t.kind != PRAGMA]


def splice(source, picks, pads):
    """``pads[i]`` in front of the token ``picks[i]`` selects."""
    offsets = boundaries(source)
    chosen = sorted(zip((offsets[int(p * len(offsets))] for p in picks),
                        pads), reverse=True)
    for at, pad in chosen:
        source = source[:at] + pad + source[at:]
    return source


#: Edits no parse can see.
INERT = [" ", "\t", "   ", "/* note */", "/**/ ", " /* a * b / c */ ",
         "/* \" ' */", "\r", "\f"]
#: Edits that put at least one token on another line.
SHIFTING = ["\n", "// note\n", "/* one\ntwo */", " \n "]

picks = st.lists(st.floats(min_value=0, max_value=1, exclude_max=True),
                 min_size=1, max_size=5)


def pads_from(choices):
    return st.lists(st.sampled_from(choices), min_size=5, max_size=5)


class TestFingerprintSoundness:
    @given(program=st.sampled_from(PROGRAMS), where=picks,
           pads=pads_from(INERT))
    @settings(max_examples=60, deadline=None)
    def test_inert_edits_keep_it_and_the_parse(self, program, where,
                                               pads):
        edited = splice(program, where, pads)
        assert fingerprint(edited, "other.c") == fingerprint(program)
        ours, theirs = parse_source(edited, "other.c"), \
            parse_source(program, "p.c")
        assert ours.il_sha256 == theirs.il_sha256
        assert ours.catalog(edited).blob == theirs.catalog(program).blob

    @given(program=st.sampled_from(PROGRAMS), where=picks,
           pads=pads_from(INERT + SHIFTING), where2=picks,
           pads2=pads_from(INERT + SHIFTING))
    @settings(max_examples=60, deadline=None)
    def test_equal_fingerprints_mean_equal_parses(self, program, where,
                                                  pads, where2, pads2):
        one = splice(program, where, pads)
        two = splice(program, where2, pads2)
        if fingerprint(one) != fingerprint(two):
            return
        first, second = parse_source(one, "a.c"), parse_source(two, "b.c")
        assert first.il_sha256 == second.il_sha256
        assert first.catalog(one).blob == second.catalog(two).blob

    @given(program=st.sampled_from(PROGRAMS), where=picks,
           pads=pads_from(INERT + SHIFTING),
           shift_at=st.floats(min_value=0, max_value=1, exclude_max=True),
           shift=st.sampled_from(SHIFTING))
    @settings(max_examples=60, deadline=None)
    def test_a_line_shift_changes_it(self, program, where, pads,
                                     shift_at, shift):
        base = splice(program, where, pads)
        assert fingerprint(splice(base, [shift_at], [shift])) \
            != fingerprint(base)

    @given(program=st.sampled_from(PROGRAMS),
           at=st.floats(min_value=0, max_value=1, exclude_max=True),
           token=st.sampled_from(["x", "0", "1.0", "1.0f", "1u", ";",
                                  "+", "'a'", '"a"', "int"]))
    @settings(max_examples=60, deadline=None)
    def test_a_token_more_or_less_changes_it(self, program, at, token):
        # Padded on both sides, so the token neither joins the one before
        # it (``a[0]`` + ``x`` would lex as the hex constant ``0x``) nor
        # lets the neighbours of a deleted one run together.
        offsets = boundaries(program)
        start = offsets[int(at * len(offsets))]
        assert fingerprint(program[:start] + " " + token + " "
                           + program[start:]) != fingerprint(program)
        ends = [o for o in offsets if o > start] + [len(program)]
        assert fingerprint(program[:start] + " " + program[ends[0]:]) \
            != fingerprint(program)

    def test_fields_cannot_run_into_each_other(self):
        # String literals decode to anything, separators included: the
        # encoding has to be injective, not merely delimited.
        pairs = [('"a" "b"', '"a\\" \\"b"'), ('"a", "b"', '"a\\", \\"b"'),
                 ('"\\0" "x"', '"\\0\\" \\"x"'), ("'a' 'b'", '"\'a\' \'b\'"'),
                 ("1 2", "12"), ("1.0f", "1.0 f"), ('"1"', "1"),
                 ("x", '"x"'), ("0x10", "16"), ("1u", "1"), ("1.0", "1")]
        for one, two in pairs:
            assert token_fingerprint(tokenize(one)) \
                != token_fingerprint(tokenize(two)), (one, two)

    def test_columns_and_filename_are_left_out(self):
        assert token_fingerprint(tokenize("int   x ;", "a.c")) \
            == token_fingerprint(tokenize("int x;", "b.c"))
        assert token_fingerprint(tokenize("int\nx;")) \
            != token_fingerprint(tokenize("int x;"))


def comment_edit(request, note):
    """The request with a comment in front of a token in mid-file, or
    behind the ``// expect:`` header of a program that does not lex."""
    source, pad = request["source"], f"/* edit {note} */ "
    try:
        return dict(request, source=splice(source, [0.5], [pad]))
    except LexError:
        return dict(request, source=source.replace("\n", pad + "\n", 1))


def token_events(service):
    stats = service.cache_stats()["tokens"]
    return stats["hits"], stats["misses"]


class TestServiceTransparency:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_token_hits_answer_as_a_parse_would(self, workers):
        requests = corpus_requests()
        edited = [comment_edit(r, 1) for r in requests]
        with CompileService(workers=workers) as service:
            cold = service.compile_batch(requests)
            served = service.compile_batch(edited)
            hits, _ = token_events(service)
            builds = service.catalogs.builds
        with CompileService(workers=workers) as parsing:
            parsing.compile_batch(requests)
            parsing.catalogs.tokens.clear()
            parsed = parsing.compile_batch(edited)
            assert token_events(parsing)[0] == 0
        ok = [r for r in cold if r["status"] == "ok"]
        assert hits == len(ok) > 0
        assert builds == len(ok)
        for request, ours, theirs in zip(edited, served, parsed):
            assert ours == theirs, request["id"]
            assert comparable(ours) == comparable(
                execute_request(request)), request["id"]
            if ours["status"] == "ok":
                assert (ours["cache"]["catalog"],
                        ours["cache"]["artifact"]) == ("miss", "hit")

    def test_deterministic_metrics_across_worker_counts(self):
        requests = corpus_requests()
        batches = [requests, [comment_edit(r, 1) for r in requests],
                   [comment_edit(r, 2) for r in requests]]
        snapshots, stats = [], []
        for workers in (0, 2):
            with CompileService(workers=workers) as service:
                for batch in batches:
                    service.compile_batch(batch)
                snapshots.append(service.deterministic_metrics())
                stats.append(service.cache_stats())
        assert snapshots[0] == snapshots[1]
        assert stats[0] == stats[1]
        events = {(c["labels"]["level"], c["labels"]["event"]): c["value"]
                  for c in snapshots[0]["counters"]
                  if c["name"] == "titancc_service_cache_events_total"}
        assert events[("tokens", "hit")] == stats[0]["tokens"]["hits"] > 0

    def test_two_new_variants_in_one_batch_share_one_compile(self):
        request = next(r for r in corpus_requests() if r.get("run"))
        batch = [dict(comment_edit(request, n), id=n) for n in (1, 2)]
        with CompileService(workers=0) as service:
            first, second = service.compile_batch(batch)
            counters = {c["name"]: c["value"]
                        for c in service.metrics_snapshot()["counters"]
                        if not c["labels"]}
            assert service.catalogs.builds == 1
            assert token_events(service) == (1, 1)
        assert first["cache"]["artifact"] == "miss"
        assert second["cache"]["artifact"] == "coalesced"
        assert second["cache"]["catalog"] == "miss"
        assert first["payload"] == second["payload"]
        assert counters["titancc_service_dispatches_total"] == 1

    def test_a_token_hit_under_another_filename_compiles_for_it(self):
        request = next(r for r in corpus_requests() if r.get("run"))
        renamed = dict(comment_edit(request, 1), filename="renamed.c")
        with CompileService(workers=0) as service:
            service.submit(request)
            served = service.submit(renamed)
            assert token_events(service) == (1, 1)
        assert (served["cache"]["catalog"],
                served["cache"]["artifact"]) == ("miss", "miss")
        assert served["payload"]["filename"] == "renamed.c"
        assert comparable(served) == comparable(execute_request(renamed))

    def test_a_failed_parse_is_never_served_from_tokens(self):
        # Columns reach diagnostics, so a rejected source must be
        # diagnosed from its own bytes every time.
        with CompileService(workers=0) as service:
            for source in ("int main( {", "int   main( {",
                           "int main(void) { return undeclared; }",
                           "int main(void) {  return undeclared; }"):
                served = service.submit({"source": source})
                assert served["status"] == "error"
                assert comparable(served) == comparable(
                    execute_request({"source": source}))
            assert service.cache_stats()["tokens"]["entries"] == 0

    def test_the_index_shares_the_catalog_bound(self):
        requests = [r for r in corpus_requests() if r.get("run")][:3]
        with CompileService(workers=0,
                            max_catalog_entries=2) as service:
            for request in requests:
                service.submit(request)
            stats = service.cache_stats()["tokens"]
            assert (stats["entries"], stats["evictions"]) == (2, 1)
            # The evicted program is parsed again, the kept one is not.
            service.submit(comment_edit(requests[0], 1))
            service.submit(comment_edit(requests[2], 1))
            assert service.catalogs.builds == 4
            assert service.cache_stats()["tokens"]["hits"] == 1

    def test_entries_of_one_token_stream_share_one_blob(self):
        request = next(r for r in corpus_requests() if r.get("run"))
        with CompileService(workers=0) as service:
            service.submit(request)
            service.submit(comment_edit(request, 1))
            entries = [service.catalogs.lru.get(key, record=False)
                       for key in service.catalogs.lru.keys()]
        assert len(entries) == 2
        assert entries[0].blob is entries[1].blob
        assert entries[0].source_sha256 != entries[1].source_sha256
