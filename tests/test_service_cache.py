"""Property tests (hypothesis) for the service's content-addressed
caches.

The keying contract is **content bytes, deliberately** (documented in
``repro.service.cache``): whitespace- or comment-differing sources
hash differently and miss the level-A catalog cache, byte-identical
sources always hit, and LRU eviction under a small ``max_entries`` is
a deterministic pure function of the get/put sequence — checked here
against an independent model.
"""

import dataclasses
import json
from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.pipeline import CompilerOptions
from repro.service import (CatalogCache, LRUCache, content_hash,
                           options_fingerprint)
from repro.service.cache import build_catalog

SOURCE = "int add(int a, int b)\n{\n    return a + b;\n}\n"

#: Decorations that change the bytes but never the parse: extra
#: whitespace and comments spliced at token boundaries.
decorations = st.lists(
    st.sampled_from(["  ", "\t", "\n", "/* pad */", "// pad\n"]),
    min_size=0, max_size=4)


def decorate(source, pads):
    """Splice each pad after the first ``{`` — always a legal token
    boundary in :data:`SOURCE`."""
    brace = source.index("{") + 1
    return source[:brace] + "\n" + "".join(pads) + source[brace:]


class TestContentKeying:
    @given(pads=decorations)
    @settings(max_examples=25, deadline=None)
    def test_byte_variants_miss_byte_identicals_hit(self, pads):
        variant = decorate(SOURCE, pads)
        cache = CatalogCache()
        first = cache.get_or_build(
            content_hash(SOURCE), lambda: build_catalog(SOURCE))
        second = cache.get_or_build(
            content_hash(variant), lambda: build_catalog(variant))
        if variant == SOURCE:
            assert cache.builds == 1
            assert second is first
        else:
            # Different bytes always miss level A — the documented
            # content-byte keying — even though the variants parse to
            # IL on identical lines... unless a pad added lines.
            assert cache.builds == 2
            assert second is not first

    @given(repeats=st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_byte_identical_always_hits(self, repeats):
        cache = CatalogCache()
        key = content_hash(SOURCE)
        entries = [cache.get_or_build(
            key, lambda: build_catalog(SOURCE)) for _ in range(repeats)]
        assert cache.builds == 1
        assert all(entry is entries[0] for entry in entries)
        assert cache.lru.hits == repeats - 1

    @given(pads=decorations)
    @settings(max_examples=25, deadline=None)
    def test_hash_is_over_exact_bytes(self, pads):
        variant = decorate(SOURCE, pads)
        same = variant == SOURCE
        assert (content_hash(variant) == content_hash(SOURCE)) == same
        # str and its UTF-8 bytes are the same key.
        assert content_hash(variant) == \
            content_hash(variant.encode("utf-8"))


#: Random cache workloads over a tiny key space so evictions and
#: re-insertions actually happen.
ops = st.lists(
    st.tuples(st.sampled_from(["get", "put"]),
              st.integers(min_value=0, max_value=7)),
    min_size=0, max_size=60)


class ModelLRU:
    """Independent reference model: an OrderedDict where get
    refreshes recency and put evicts the least recently used."""

    def __init__(self, max_entries):
        self.max_entries = max_entries
        self.data = OrderedDict()
        self.evicted = []

    def get(self, key):
        if key in self.data:
            self.data.move_to_end(key)
            return self.data[key]
        return None

    def put(self, key, value):
        if key in self.data:
            self.data.move_to_end(key)
        self.data[key] = value
        while len(self.data) > self.max_entries:
            old, _ = self.data.popitem(last=False)
            self.evicted.append(old)


def run_workload(cache, workload):
    trace = []
    for op, key in workload:
        if op == "get":
            trace.append(("get", key, cache.get(key)))
        else:
            cache.put(key, f"value-{key}")
            trace.append(("put", key))
    return trace


class TestLRUDeterminism:
    @given(workload=ops,
           max_entries=st.integers(min_value=1, max_value=4))
    @settings(max_examples=100, deadline=None)
    def test_matches_independent_model(self, workload, max_entries):
        cache = LRUCache(max_entries=max_entries)
        model = ModelLRU(max_entries)
        for op, key in workload:
            if op == "get":
                assert cache.get(key) == model.get(key)
            else:
                cache.put(key, f"value-{key}")
                model.put(key, f"value-{key}")
            assert cache.keys() == list(model.data)
        assert cache.evictions == len(model.evicted)
        assert len(cache) == len(model.data)

    @given(workload=ops,
           max_entries=st.integers(min_value=1, max_value=4))
    @settings(max_examples=50, deadline=None)
    def test_replay_is_identical(self, workload, max_entries):
        # Determinism: the same op sequence on two fresh caches yields
        # identical traces, stats, and final contents — the property
        # that makes a replayed request stream evict the same keys.
        a = LRUCache(max_entries=max_entries)
        b = LRUCache(max_entries=max_entries)
        assert run_workload(a, workload) == run_workload(b, workload)
        assert a.stats() == b.stats()
        assert a.keys() == b.keys()

    @given(max_entries=st.integers(min_value=1, max_value=5),
           inserts=st.integers(min_value=0, max_value=12))
    @settings(max_examples=50, deadline=None)
    def test_eviction_is_oldest_first(self, max_entries, inserts):
        cache = LRUCache(max_entries=max_entries)
        for key in range(inserts):
            cache.put(key, key)
        expected = list(range(max(0, inserts - max_entries), inserts))
        assert cache.keys() == expected
        assert cache.evictions == max(0, inserts - max_entries)

    def test_counters_and_peek(self):
        cache = LRUCache(max_entries=2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        # record=False peeks without touching counters or recency.
        assert cache.get("a", record=False) == 1
        assert cache.stats() == {"entries": 1, "hits": 1,
                                 "misses": 1, "evictions": 0}


def asdict_fingerprint(options, extra=None):
    """``options_fingerprint`` as it was, over ``dataclasses.asdict``."""
    payload = {"options": dataclasses.asdict(options)}
    if extra:
        payload["extra"] = extra
    return content_hash(json.dumps(payload, sort_keys=True,
                                   separators=(",", ":")))


#: A value of each field's kind: what ``options_from_dict`` admits.
_FIELD_VALUES = {"bool": st.booleans(),
                 "int": st.integers(min_value=-2**40, max_value=2**40)}


class TestOptionsFingerprint:
    def test_every_field_is_a_json_scalar(self):
        # The fingerprint reads fields shallowly; a field holding a
        # list, dict or dataclass would need asdict's deep copy back.
        for field in dataclasses.fields(CompilerOptions):
            assert field.type in _FIELD_VALUES, field
            assert field.default_factory is dataclasses.MISSING, field
            assert type(field.default).__name__ == field.type, field

    @given(data=st.data(),
           extra=st.one_of(st.none(), st.dictionaries(
               st.text(max_size=4), st.integers(), max_size=3)))
    @settings(max_examples=100, deadline=None)
    def test_the_digest_is_asdicts(self, data, extra):
        options = CompilerOptions(**{
            field.name: data.draw(_FIELD_VALUES[field.type])
            for field in dataclasses.fields(CompilerOptions)})
        assert options_fingerprint(options, extra) == \
            asdict_fingerprint(options, extra)
