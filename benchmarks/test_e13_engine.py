"""E13 — the fast engine vs the tree-walking oracle.

Not a paper claim: this experiment gates the repo's own execution
substrate.  The paper's compiler emitted native Titan code; our
substitute interprets IL, so the interpreter's dispatch overhead is
pure substrate tax.  The fast engine removes most of it — E13
measures by how much, on the three heaviest benchmark workloads, and
proves the fast engine is *bit-identical* to the oracle on each.

Both ways a benchmark runs the fast engine are measured.
Uninstrumented it runs one generated Python function per IL function:
that ratio is gated.  Under the Titan simulator's cost model it runs
the same generated code with the model's scalar accounting inline:
that rate is the one every simulated run pays, and it is gated at 2x
what the since-deleted event-emitting closures managed before
accounting moved into generated code (ROADMAP item 4's gate; profiler
runs are the tree oracle's now).

Speedup is measured in interpreter steps/sec (the engines execute the
same dynamic step sequence, so steps/sec ratios equal wall-clock
ratios with the measurement noise of two short runs divided out).
Each engine gets one warm-up run — lowering a function is a one-time
cost — then the best of several timed batches, the engines taking
turns.
"""

import time

from harness import O0, Row, print_table, record_bench
from repro.interp import make_interpreter
from repro.pipeline import compile_c
from repro.titan.config import TitanConfig
from repro.titan.simulator import TitanSimulator
from repro.workloads.blas import caller_program
from repro.workloads.graphics import identity_matrix, transform_points
from repro.workloads.stencils import backsolve

REPS = 5
MIN_BATCH_SECONDS = 0.05

#: ``host_instrumented_compiled_steps_per_sec`` as last recorded with
#: the simulator on closures (PR 13's committed baseline): the floor
#: the costed generated code is gated against, at 2x.
CLOSURE_STEPS_PER_SEC = {"backsolve": 121_250.0, "daxpy": 700_175.0}
INSTRUMENTED_GATE = 2.0

#: ``_vector_rate`` of daxpy under the cost model at the commit before
#: vector statements ran as whole-vector operations, when each lane
#: was a trip through a Python comprehension — ``(fast engine, tree
#: oracle)`` vector elements per host second by vector length, one
#: session (four interleaved measurements each; the medians).  The
#: bulk lowering is gated at 3x the fast engine's rate there.  This
#: host's speed drifts by +-25 % between sessions and the gate has
#: less headroom than that, so the floor is carried to the session at
#: hand by the oracle's rate in it: the oracle still runs one lane at
#: a time, exactly as it did then.
PER_LANE_ELEMENTS_PER_SEC = {32: (4_782_000.0, 966_000.0),
                             2048: (7_168_000.0, 1_320_000.0)}
#: The same at that commit for :func:`int_lanes_program` — integer
#: lanes: an ``iota & mask`` fill and a ``reduce+`` strip loop (bests
#: of four interleaved measurements).  The commit before integer
#: wraps were deferred or proved away read 2.2x and 3.1x this floor.
INT_PER_LANE_ELEMENTS_PER_SEC = {32: (4_015_000.0, 774_000.0),
                                 2048: (5_943_000.0, 1_034_000.0)}
VECTOR_GATE = 3.0

BACKSOLVE_N = 512
DAXPY_N = 2048
POINTS_N = 256
VECTOR_DAXPY_N = 16384


def _workloads():
    """(name, source, entry, args, globals-setup, output array) for
    the three heaviest workloads, compiled at O0 so the measurement is
    dispatch-bound scalar execution — the case the engine targets."""

    def backsolve_setup(interp):
        interp.set_global_array("x", [1.0] * BACKSOLVE_N)
        interp.set_global_array(
            "y", [i + 2.0 for i in range(BACKSOLVE_N)])
        interp.set_global_array("z", [0.5] * BACKSOLVE_N)
        interp.set_global_scalar("n", BACKSOLVE_N)

    def daxpy_setup(interp):
        interp.set_global_array("b", [1.0] * DAXPY_N)
        interp.set_global_array("c", [2.0] * DAXPY_N)

    def points_setup(interp):
        interp.set_global_array("mat", identity_matrix())
        for name in ("px", "py", "pz", "pw"):
            interp.set_global_array(
                name, [float(i % 7) for i in range(POINTS_N)])

    return [
        ("backsolve", backsolve(BACKSOLVE_N), "backsolve", (),
         backsolve_setup, ("x", BACKSOLVE_N)),
        ("daxpy", caller_program(n=DAXPY_N), "bench", (),
         daxpy_setup, ("b", DAXPY_N)),
        ("transform", transform_points(POINTS_N), "transform",
         (POINTS_N,), points_setup, ("ox", POINTS_N)),
    ]


def _start_engine(program, engine, entry, args, setup, out_array,
                  instrumented=False):
    """Build one engine, warm it up, and take everything needed for
    the bit-identity check (result, stdout, step counts, output).
    ``instrumented`` runs it under the Titan simulator's cost hook."""
    if instrumented:
        interp = TitanSimulator(program, TitanConfig(),
                                use_scheduler=False,
                                max_steps=500_000_000,
                                engine=engine).interpreter
    else:
        interp = make_interpreter(program, engine=engine,
                                  max_steps=500_000_000)
    setup(interp)
    result = interp.run(entry, *args)  # warm-up: one-time lowering
    warm_steps = interp.steps
    name, count = out_array
    output = interp.global_array(name, count)
    # A fast-engine run is a few milliseconds: time batches of runs
    # long enough for the clock, sized from one calibration run.
    start = time.perf_counter()
    interp.run(entry, *args)
    once = time.perf_counter() - start
    return {
        "interp": interp, "entry": entry, "args": args,
        "batch": max(1, int(MIN_BATCH_SECONDS / once)) if once else 1,
        "steps_per_sec": 0.0,
        "result": result,
        "stdout": interp.stdout,
        "warm_steps": warm_steps,
        "run_steps": interp.steps - warm_steps,
        "output": output,
    }


def _time_batch(run):
    """Time one more batch of runs; keep the engine's best rate."""
    interp, entry, args = run["interp"], run["entry"], run["args"]
    before = interp.steps
    start = time.perf_counter()
    for _ in range(run["batch"]):
        interp.run(entry, *args)
    elapsed = time.perf_counter() - start
    if elapsed > 0:
        run["steps_per_sec"] = max(run["steps_per_sec"],
                                   (interp.steps - before) / elapsed)


def test_e13_engine_speedup():
    # backsolve/daxpy are the gated >=20x targets; transform's big
    # straight-line expressions leave less dispatch to remove.
    thresholds = {"backsolve": 20.0, "daxpy": 20.0, "transform": 7.0}
    rows = []
    for name, source, entry, args, setup, out in _workloads():
        program = compile_c(source, O0).program
        runs = {(engine, instrumented): _start_engine(
                    program, engine, entry, args, setup, out,
                    instrumented)
                for instrumented in (False, True)
                for engine in ("compiled", "tree")}
        # Interleaved, so every engine's best comes from the same
        # stretch of host time and the ratios divide host noise out.
        for _ in range(REPS):
            for run in runs.values():
                _time_batch(run)

        # Bit-identical observables: return value, stdout, dynamic
        # step counts (warm-up and steady-state), and every element of
        # the workload's output array — on both halves.
        tree = runs["tree", False]
        for key in ("result", "stdout", "warm_steps", "run_steps",
                    "output"):
            for which, run in runs.items():
                assert run[key] == tree[key], \
                    f"{name}: {which} disagrees with tree on {key}"

        speedup = (runs["compiled", False]["steps_per_sec"]
                   / tree["steps_per_sec"])
        hooked = runs["compiled", True]["steps_per_sec"]
        hooked_tree = runs["tree", True]["steps_per_sec"]
        record_bench("e13_engine", name, metrics={
            "host_tree_steps_per_sec": tree["steps_per_sec"],
            "host_compiled_steps_per_sec":
                runs["compiled", False]["steps_per_sec"],
            "host_engine_speedup_steps": speedup,
            "host_instrumented_tree_steps_per_sec": hooked_tree,
            "host_instrumented_compiled_steps_per_sec": hooked,
            "host_instrumented_x_tree": hooked / hooked_tree,
        })
        rows.append(Row(
            f"{name} engine speedup",
            f">={thresholds[name]:.0f}x", f"{speedup:.1f}x",
            speedup >= thresholds[name]))
        floor = CLOSURE_STEPS_PER_SEC.get(name)
        if floor is None:
            rows.append(Row(
                f"{name} under the cost model", "trend",
                f"{hooked / hooked_tree:.1f}x tree", True))
        else:
            rows.append(Row(
                f"{name} under the cost model",
                f">={INSTRUMENTED_GATE:.0f}x closures",
                f"{hooked / floor:.1f}x",
                hooked >= INSTRUMENTED_GATE * floor))
    print_table("E13: fast engine vs tree-walker", rows)
    assert all(r.ok for r in rows)


def test_e13_cycle_stream_identical():
    # Under the Titan model both engines must report the same cycle
    # totals, per-class breakdown and counters exactly — whether the
    # fast engine accounts inline (plain simulation) or runs the
    # oracle it inherits (a profiler attached) — and profiler
    # attribution must still sum to the total.
    source = backsolve(BACKSOLVE_N)
    program = compile_c(source, O0).program
    reports = {}
    for engine in ("compiled", "tree"):
        for profile in (False, True):
            sim = TitanSimulator(program, TitanConfig(),
                                 use_scheduler=False, profile=profile,
                                 engine=engine)
            sim.set_global_array("x", [1.0] * BACKSOLVE_N)
            sim.set_global_array(
                "y", [i + 2.0 for i in range(BACKSOLVE_N)])
            sim.set_global_array("z", [0.5] * BACKSOLVE_N)
            sim.set_global_scalar("n", BACKSOLVE_N)
            reports[engine, profile] = sim.run("backsolve")
    oracle = reports["tree", True]
    for fast in reports.values():
        assert fast.cycles == oracle.cycles
        assert fast.counters == oracle.counters
        assert fast.breakdown == oracle.breakdown
    fast = reports["compiled", True]
    # Profiler sum-to-total invariant holds on the compiled path too.
    profile = fast.profile
    total = profile.toplevel_cycles + sum(l.cycles
                                          for l in profile.loops)
    assert total == fast.cycles == oracle.cycles


def int_lanes_program(n):
    """All-``int`` vector code, the shape every kernel's set-up loops
    and the fuzzer's programs have."""
    return (f"int a[{n}];\n"
            "int bench(void)\n{\n    int i, s;\n"
            f"    for (i = 0; i < {n}; i++)\n"
            "        a[i] = (i + 3) & 7;\n"
            "    s = 0;\n"
            f"    for (i = 0; i < {n}; i++)\n"
            "        s = s + a[i];\n"
            "    return s;\n}\n")


def _daxpy_arrays(sim):
    sim.set_global_array("b", [1.0] * VECTOR_DAXPY_N)
    sim.set_global_array("c", [2.0] * VECTOR_DAXPY_N)


def _vector_rate(program, vector_length, engine, setup):
    """Vector elements per host second of ``bench`` under the cost
    model (one element = one lane of one vector instruction, as the
    model counts them), best of ``REPS`` batches, plus the last
    report."""
    sim = TitanSimulator(
        program, TitanConfig(max_vector_length=vector_length),
        engine=engine, max_steps=500_000_000)
    setup(sim)
    report = sim.run("bench")  # warm-up: one-time lowering
    start = time.perf_counter()
    sim.run("bench")
    once = time.perf_counter() - start
    batch = max(1, int(MIN_BATCH_SECONDS / once)) if once else 1
    best = 0.0
    for _ in range(REPS):
        start = time.perf_counter()
        for _ in range(batch):
            report = sim.run("bench")
        elapsed = time.perf_counter() - start
        best = max(best, batch * report.counters.vector_elements
                   / elapsed)
    return best, report


def test_e13_vector_lane_rate():
    # A vector statement costs the host per instruction, not per lane:
    # daxpy's strips and all-int strips, costed, at a short and a long
    # vector length.
    from repro.pipeline import CompilerOptions
    rows = []
    for name, source, setup, floors in (
            ("daxpy", caller_program(n=VECTOR_DAXPY_N), _daxpy_arrays,
             PER_LANE_ELEMENTS_PER_SEC),
            ("intlanes", int_lanes_program(VECTOR_DAXPY_N),
             lambda sim: None, INT_PER_LANE_ELEMENTS_PER_SEC)):
        for vector_length, (per_lane, oracle_then) in floors.items():
            program = compile_c(
                source,
                CompilerOptions(vector_length=vector_length)).program
            rate = oracle_now = 0.0
            for _ in range(2):  # taking turns: both see the same host
                best, fast = _vector_rate(program, vector_length,
                                          "compiled", setup)
                rate = max(rate, best)
                best, oracle = _vector_rate(program, vector_length,
                                            "tree", setup)
                oracle_now = max(oracle_now, best)
            assert fast.counters.vector_elements > 0
            assert fast.result == oracle.result
            assert fast.cycles == oracle.cycles
            assert fast.counters == oracle.counters
            assert fast.breakdown == oracle.breakdown
            floor = per_lane * oracle_now / oracle_then
            record_bench(
                "e13_engine", f"{name}_vl{vector_length}", metrics={
                    "host_vector_elements_per_sec": rate,
                    "host_vector_oracle_elements_per_sec": oracle_now,
                    "host_vector_x_per_lane": rate / floor,
                })
            rows.append(Row(
                f"{name} vector lanes at VL {vector_length}",
                f">={VECTOR_GATE:.0f}x per-lane",
                f"{rate / floor:.1f}x", rate >= VECTOR_GATE * floor))
    print_table("E13: vector lanes under the cost model", rows)
    assert all(r.ok for r in rows)
