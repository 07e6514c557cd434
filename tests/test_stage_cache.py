"""The mid-end stage: a compile resumed from a snapshot taken after the
scalar rounds answers exactly as a full compile does.

*Transparency* — one in-process service, answering each program at
several option points, gives the bytes the direct path
(``execute_request``, a full compile every time) gives: over the fuzz
corpus, E19's generated programs and its twelve kernels, with flips of
``parallelize``, the section 6 passes, ``if_convert``, an odd vector
length and a mid-end option.

*Partition* — no :data:`BACK_END_OPTIONS` field reaches the mid end:
flipping any one leaves the snapshot's IL, remarks, statistics, spans,
symbol table and next sid as they were.  A scalar pass that starts
reading one of them fails here.

*Isolation and bound* — resuming never changes the snapshot it starts
from, and the stage keeps :data:`MID_END_ENTRIES` snapshots, least
recently used out first.

*Off switches* — hooks and worker processes never resume.

*Work* — a stage hit parses, inlines and runs a scalar round zero
times; its Python calls are a count, identical across hash seeds.
"""

import dataclasses
import gc
import glob
import json
import os
import pickle
import subprocess
import sys
from collections import Counter

import pytest

from repro.frontend.parser import Parser
from repro.il import nodes as N
from repro.il.printer import format_program
from repro.inline import inliner
from repro.pipeline import (BACK_END_OPTIONS, CompilerOptions,
                            PipelineHook, TitanCompiler)
from repro.service import CompileService, execute_request
from repro.service.cache import parse_source
from repro.service.server import MID_END_ENTRIES
from tests.test_service_stress import comparable, corpus_requests

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
E19 = os.path.join(ROOT, "benchmarks", "e19", "corpus")
GENERATED = sorted(glob.glob(os.path.join(E19, "generated", "*.c")))
KERNELS = sorted(glob.glob(os.path.join(E19, "kernels", "*.c")))

#: The first point fills the stage; the others differ from it in
#: back-end options only, but for the last, a mid-end flip.
POINTS = [{},
          {"parallelize": False},
          {"reg_pipeline": False, "strength_reduction": False},
          {"if_convert": False},
          {"vector_length": 33, "processors": 4},
          {"inline": False}]


def _read(path, n=256):
    with open(path, encoding="utf-8") as handle:
        return handle.read().replace("{n}", str(n)).replace("{s}", "1")


def kernel_request(path, n=256, **fields):
    return {"id": os.path.basename(path), "source": _read(path, n),
            "filename": os.path.basename(path), "run": "main", **fields}


def programs():
    """Requests for every program, without options."""
    requests = [dict(r, options={}) for r in corpus_requests()]
    requests += [{"id": os.path.basename(path), "source": _read(path),
                  "filename": os.path.basename(path)}
                 for path in GENERATED]
    requests += [kernel_request(path) for path in KERNELS]
    return requests


class TestTransparency:
    def test_served_bytes_are_the_direct_paths(self):
        requests = programs()
        assert len(requests) == 14 + 48 + 12
        with CompileService(workers=0) as service:
            for request in requests:
                for point in POINTS:
                    asked = dict(request, options=point)
                    served = service.submit(asked)
                    direct = execute_request(asked)
                    assert pickle.dumps(comparable(served)) == \
                        pickle.dumps(comparable(direct)), \
                        (request["id"], point)
            stats = service.stages.stats()
        # Three corpus programs fail in the lexer; every other one
        # resumes at the four back-end points and misses at the others.
        compiled = len(requests) - 3
        assert stats["hits"] == 4 * compiled
        assert stats["misses"] == 2 * compiled


def mid_end(source, options=None, filename="k.c"):
    """The snapshot a compile of ``source`` takes, without running its
    back end."""
    class Taken(Exception):
        pass

    def stop(snapshot):
        raise Taken(snapshot)

    program = parse_source(source, filename).program
    try:
        TitanCompiler(options).compile_program(
            program, filename=filename, on_mid_end=stop)
    except Taken as taken:
        return taken.args[0]
    raise AssertionError("no snapshot taken")


def state(snapshot):
    """Everything of a snapshot a back end reads."""
    symtab = snapshot.program.symtab
    return (format_program(snapshot.program, show_lines=True),
            [(r.pass_name, r.kind, r.function, r.message, r.sid, r.line,
              r.filename, repr(r.args)) for r in snapshot.remarks],
            pickle.loads(snapshot.stats),
            snapshot.spans,
            snapshot.next_sid,
            (symtab._next_uid, symtab._next_temp, sorted(symtab.symbols)),
            dict(snapshot.analysis_solves),
            dict(snapshot.pass_iterations),
            [(s.stage, s.text) for s in snapshot.stages])


def flipped(name):
    """A value for option ``name`` other than its default."""
    value = getattr(CompilerOptions(), name)
    return not value if isinstance(value, bool) else value + 1


PARTITION_SOURCES = ([_read(path) for path in KERNELS]
                     + [_read(path) for path in sorted(glob.glob(
                         os.path.join(ROOT, "examples", "*.c")))]
                     + [r["source"] for r in corpus_requests()
                        if r.get("run")])


class TestPartition:
    def test_back_end_options_are_options(self):
        names = {f.name for f in dataclasses.fields(CompilerOptions)}
        assert BACK_END_OPTIONS < names

    @pytest.mark.parametrize("index", range(len(PARTITION_SOURCES)))
    def test_no_back_end_option_reaches_the_mid_end(self, index):
        source = PARTITION_SOURCES[index]
        expected = state(mid_end(source))
        for name in sorted(BACK_END_OPTIONS):
            options = dataclasses.replace(CompilerOptions(),
                                          **{name: flipped(name)})
            assert state(mid_end(source, options)) == expected, name

    def test_the_guard_sees_a_mid_end_option(self):
        source = _read(os.path.join(E19, "kernels", "daxpy.c"))
        for name in ("inline", "scalar_opt", "split_termination"):
            options = dataclasses.replace(CompilerOptions(),
                                          **{name: flipped(name)})
            assert state(mid_end(source, options)) != \
                state(mid_end(source)), name


class TestIsolation:
    # Vector loops, a guarded one, and recurrences the section 6 passes
    # rewrite statement by statement.
    @pytest.mark.parametrize("kernel", ["smooth", "guarded_diff",
                                        "prefix", "backsolve"])
    def test_resumes_leave_the_snapshot_as_it_was(self, kernel):
        request = kernel_request(os.path.join(E19, "kernels",
                                              f"{kernel}.c"))
        with CompileService(workers=0) as service:
            service.submit(request)
            (key,) = service.stages.keys()
            snapshot = service.stages.get(key, record=False)
            before = state(snapshot)
            symbols = dict(snapshot.program.symtab.symbols)
            for length in (16, 64):
                answer = service.submit(
                    dict(request, options={"vector_length": length}))
                assert answer["status"] == "ok"
            assert service.stages.stats()["hits"] == 2
            assert state(snapshot) == before
            assert snapshot.program.symtab.symbols == symbols
            assert all(snapshot.program.symtab.symbols[uid] is sym
                       for uid, sym in symbols.items())

    def test_a_copy_shares_expressions_and_symbols_only(self):
        program = mid_end(_read(os.path.join(E19, "kernels",
                                             "guarded_diff.c"))).program
        copy = N.copy_program(program)
        assert format_program(copy, show_lines=True) == \
            format_program(program, show_lines=True)
        for name, fn in program.functions.items():
            other = copy.functions[name]
            assert other is not fn and other.body is not fn.body
            assert other.local_syms == fn.local_syms
            assert other.local_syms is not fn.local_syms
            for old, new in zip(fn.all_statements(),
                                other.all_statements()):
                assert new is not old and new.sid == old.sid
                assert all(a is b for a, b in zip(N.stmt_exprs(old),
                                                  N.stmt_exprs(new)))
                assert all(a is not b for a, b in
                           zip(old.substatements(), new.substatements()))
        assert copy.symtab is not program.symtab
        assert copy.symtab.symbols == program.symtab.symbols
        assert copy.symtab.symbols is not program.symtab.symbols


class TestBound:
    def test_a_ninth_source_evicts_the_first(self):
        path = os.path.join(E19, "kernels", "vadd.c")
        requests = [kernel_request(path, n=64 + n) for n in range(9)]
        with CompileService(workers=0) as service:
            for request in requests:
                service.submit(request)
            stats = service.stages.stats()
            assert (stats["entries"], stats["evictions"]) == \
                (MID_END_ENTRIES, 1)
            again = dict(requests[0], options={"vector_length": 64})
            served = service.submit(again)
            assert served["cache"]["catalog"] == "hit"
            assert service.stages.stats()["misses"] == 10
        assert pickle.dumps(comparable(served)) == \
            pickle.dumps(comparable(execute_request(again)))


class Recorder(PipelineHook):
    def __init__(self):
        self.passes = []

    def after_pass(self, name, program, function="", round_no=0):
        self.passes.append((name, function, round_no))


class TestOffSwitches:
    def test_hooks_see_every_pass_and_take_no_snapshot(self):
        source = _read(os.path.join(E19, "kernels", "daxpy.c"))
        plain, hooked = Recorder(), Recorder()
        TitanCompiler(hooks=[plain]).compile_program(
            parse_source(source, "k.c").program, filename="k.c")
        taken = []
        compiler = TitanCompiler(hooks=[hooked])
        compiler.compile_program(parse_source(source, "k.c").program,
                                 filename="k.c", on_mid_end=taken.append)
        assert taken == []
        assert hooked.passes == plain.passes
        assert ("constprop", "main", 2) in hooked.passes
        with pytest.raises(ValueError):
            compiler.resume(mid_end(source))

    def test_workers_never_resume(self):
        path = os.path.join(E19, "kernels", "sscal.c")
        requests = [kernel_request(path, id=str(length),
                                   options={"vector_length": length})
                    for length in (32, 64, 128)]
        answers = {}
        for workers in (0, 2):
            with CompileService(workers=workers) as service:
                answers[workers] = [
                    comparable(service.compile_batch([r])[0])
                    for r in requests]
                answers[workers, "stage"] = service.stages.stats()
        assert answers[0] == answers[2]
        assert answers[0, "stage"]["hits"] == 2
        assert answers[2, "stage"] == {"entries": 0, "hits": 0,
                                       "misses": 0, "evictions": 0}


# -- work, counted -----------------------------------------------------

#: Code objects whose calls a stage hit must not make.
SKIPPED = {Parser.parse_translation_unit.__code__: "parses",
           inliner.inline_program.__code__: "inlines",
           TitanCompiler._scalar_round.__code__: "scalar_rounds"}

#: Python calls per stage-hit compile of a kernel, as measured
#: (CPython 3.11), + 10 %.  The same requests compiled in full make
#: 32,322: three times as many.
PYTHON_CALLS_PER_HIT = 10852.92 * 1.1


def counted(work):
    """``work()``'s result, its Python calls, and its calls to each
    :data:`SKIPPED` function."""
    counts = dict.fromkeys(SKIPPED.values(), 0)
    counts["python"] = 0

    def profile(frame, event, arg):
        if event == "call":
            counts["python"] += 1
            skipped = SKIPPED.get(frame.f_code)
            if skipped:
                counts[skipped] += 1

    gc.collect()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = work()
    finally:
        sys.setprofile(previous)
        gc.enable()
    return result, counts


def stage_work():
    """Per kernel, a triple at vector lengths 32, 64 and 128 (compile
    only): the work of the whole triple, and of its two stage hits."""
    triples, hits = Counter(), Counter()
    with CompileService(workers=0) as service:
        service.submit(kernel_request(KERNELS[0], n=8, run=None))
        for path in KERNELS:
            first, *others = [
                kernel_request(path, run=None,
                               options={"vector_length": length})
                for length in (32, 64, 128)]
            _, cold = counted(lambda: service.submit(first))
            answers, warm = counted(
                lambda: [service.submit(r) for r in others])
            assert all(a["status"] == "ok" for a in answers)
            triples.update(cold)
            triples.update(warm)
            hits.update(warm)
        stats = service.stages.stats()
    hit_count = 2 * len(KERNELS)
    assert stats["hits"] == hit_count
    return {"per_triple": {name: triples[name] / len(KERNELS)
                           for name in SKIPPED.values()},
            "per_hit": {name: value / hit_count
                        for name, value in sorted(hits.items())}}


@pytest.fixture(scope="module")
def work():
    return stage_work()


class TestWork:
    def test_a_triple_parses_once_and_runs_two_scalar_rounds(self, work):
        assert work["per_triple"] == {"parses": 1, "inlines": 1,
                                      "scalar_rounds": 2}

    def test_a_stage_hit_skips_the_front_and_mid_end(self, work):
        hit = work["per_hit"]
        assert (hit["parses"], hit["inlines"], hit["scalar_rounds"]) \
            == (0, 0, 0)
        assert hit["python"] <= PYTHON_CALLS_PER_HIT, hit

    def test_the_counts_repeat_across_hash_seeds(self, work):
        runs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(
                           [os.path.join(ROOT, "src"), ROOT]))
            out = subprocess.run(
                [sys.executable, "-c",
                 "import json; from tests.test_stage_cache import "
                 "stage_work; print(json.dumps(stage_work()))"],
                cwd=ROOT, env=env, capture_output=True, text=True,
                check=True).stdout
            runs.append(json.loads(out))
        assert runs[0] == runs[1] == work
