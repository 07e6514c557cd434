"""The static Titan walk (``repro.titan.static``) prices vector code
with the function simulated runs are charged with, so on a program
whose vector loops have constant trips and run once, what the walk
says ``main``'s vector statements cost is what a run of ``main``
measures: ``vector_compute + vector_memory`` and ``vector_startup`` of
the :class:`CycleBreakdown`, exactly.  The compilation report's
``titan.static`` entries are the same prices.  On straight-line
``main``s of strip loops — fused ones too — the walk's whole price is
the run's, and the vectorizer forks a reduction exactly when the walk
prices the fork below the serial loop, and any strip loop only then."""

import dataclasses
import os
from types import SimpleNamespace

import pytest

from repro.frontend.ctypes_ import FLOAT
from repro.il import nodes as N
from repro.interp import make_interpreter
from repro.obs.report import titan_section
from repro.opt.fold import static_trip_count
from repro.pipeline import CompilerOptions, compile_c, titan_config
from repro.titan.config import TitanConfig
from repro.titan.cost_model import TitanCostModel
from repro.titan.simulator import TitanSimulator
from repro.titan.static import StaticCostEstimator
from tests import vector_cases as vc

E19_KERNELS_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                               "benchmarks", "e19", "corpus", "kernels")
KERNELS = sorted(name[:-2] for name in os.listdir(E19_KERNELS_DIR)
                 if name.endswith(".c"))


def static_vector(program, config, schedules=None):
    """``(vector cycles, startup cycles)`` the walk prices ``main``'s
    vector statements at; every element count must be constant."""
    records = []
    StaticCostEstimator(config, schedules=schedules).function_cycles(
        "main", program.functions["main"], records)
    costs = []
    for record in records:
        if record.vectors:
            assert record.elements is not None, record
            costs.extend(record.vectors)
    return (sum(cost.compute + cost.memory for cost in costs),
            sum(cost.startup for cost in costs))


def measured_vector(breakdown):
    return (breakdown.vector_compute + breakdown.vector_memory,
            breakdown.vector_startup)


def run_costed(program, config, schedules=None, **engine_args):
    model = TitanCostModel(config, schedules)
    make_interpreter(program, engine="compiled", cost_hook=model,
                     **engine_args).run("main")
    return model.breakdown


def walk_prices(config, loop):
    """The walk's price of strip loop ``loop`` run serially and
    forked."""
    walk = StaticCostEstimator(config)
    return tuple(walk.stmt_cycles("", dataclasses.replace(
        loop, parallel=flag), 1, None) for flag in (False, True))


#: Reduction strip loops the walk prices forked below serial that stay
#: serial, because a fork would be illegal: at n = 40, VL 32 and 33,
#: guarded_diff fuses its init loop, its masked stencil — which loads
#: gin[i-1], stored by the strip before — and its sum into one strip
#: loop.  ``(kernel, n, VL, CPUs)`` -> the walk's serial price.
SERIAL_THOUGH_A_FORK_PAYS = {("guarded_diff", 40, 32, 2): 1000,
                             ("guarded_diff", 40, 32, 4): 1000,
                             ("guarded_diff", 40, 33, 2): 999,
                             ("guarded_diff", 40, 33, 4): 999}


def assert_forks_when_the_walk_says(program, config, label):
    """Every reduction strip loop is ``do parallel`` exactly when its
    trip is constant and the walk prices it forked below serial —
    but at the points of :data:`SERIAL_THOUGH_A_FORK_PAYS`, where it
    is serial at the price named; a strip loop of constant trip forks
    only then (a carried edge may keep a vector loop serial even where
    a fork would pay).  Whether such a named loop was met."""
    met = False
    for fn in program.functions.values():
        for loop in fn.all_statements():
            if not (isinstance(loop, N.DoLoop) and loop.vector):
                continue
            serial, forked = walk_prices(config, loop)
            known = static_trip_count(loop) is not None
            pays = known and forked < serial
            if not any(isinstance(s, N.VectorReduce) for s in loop.body):
                if known and loop.parallel:
                    assert pays, (label, fn.name, serial, forked)
            elif label in SERIAL_THOUGH_A_FORK_PAYS:
                assert pays and not loop.parallel, (label, fn.name)
                assert serial == SERIAL_THOUGH_A_FORK_PAYS[label], (
                    label, serial)
                met = True
            else:
                assert loop.parallel == pays, (label, fn.name, serial,
                                               forked)
    return met


@pytest.mark.parametrize("kernel", KERNELS)
def test_e19_kernel_static_equals_measured(kernel):
    with open(os.path.join(E19_KERNELS_DIR, kernel + ".c")) as handle:
        template = handle.read()
    met = set()
    for n in (40, 100, 1000):
        source = template.replace("{n}", str(n)).replace("{s}", "1")
        for width in (32, 33, 2048):
            for processors in (1, 2, 4):
                # The processor count decides which reductions fork:
                # compile for the machine the run is charged on.
                options = CompilerOptions(vector_length=width,
                                          processors=processors)
                config = titan_config(options)
                result = compile_c(source, options)
                label = (kernel, n, width, processors)
                if assert_forks_when_the_walk_says(result.program,
                                                   config, label):
                    met.add(label)
                breakdown = run_costed(result.program, config,
                                       result.schedules)
                assert static_vector(result.program, config,
                                     result.schedules) \
                    == measured_vector(breakdown), label
    assert met == {label for label in SERIAL_THOUGH_A_FORK_PAYS
                   if label[0] == kernel}


MIX = """float u[{n}], v[{n}], w[{n}];

float mix(int n)
{
    int i;
    float s;
    s = 0.0f;
    for (i = 0; i < n; i++) {
        w[i] = u[i] * v[i];
        s = s + w[i];
    }
    return s;
}

int main(void)
{
    int i;
    for (i = 0; i < {n}; i++) {
        u[i] = (i + {s}) & 7;
        v[i] = (i + 1) & 3;
    }
    return (int) mix({n});
}
"""


def kernel_source(name: str) -> str:
    if name == "mix":
        return MIX
    with open(os.path.join(E19_KERNELS_DIR, name + ".c")) as handle:
        return handle.read()


@pytest.mark.parametrize("kernel", ["sdot", "mix", "daxpy", "vadd",
                                    "sscal"])
def test_walk_of_forked_reductions_equals_measured(kernel):
    """sdot, the mix loop (a store and a sum distributed from one loop,
    fused back into one strip loop), daxpy (init, compute and sum
    loops fused into one, its re-reads held in vector registers), vadd
    and sscal: ``main`` is straight-line code and strip loops, so the
    walk's price is the run's — the same prices, only added in another
    order: exactly equal without a fork, to the last few bits where a
    share divides."""
    template = kernel_source(kernel)
    forks = 0
    for n in (100, 4096):
        source = template.replace("{n}", str(n)).replace("{s}", "0")
        for width in (32, 33, 2048):
            for processors in (1, 2, 4):
                options = CompilerOptions(vector_length=width,
                                          processors=processors)
                config = titan_config(options)
                result = compile_c(source, options)
                label = (kernel, n, width, processors)
                assert_forks_when_the_walk_says(result.program, config,
                                                label)
                forks += sum(isinstance(s, N.DoLoop) and s.combines()
                             for s in result.program.functions[
                                 "main"].all_statements())
                walk = StaticCostEstimator(
                    config, schedules=result.schedules).function_cycles(
                        "main", result.program.functions["main"])
                for engine in ("tree", "compiled"):
                    with TitanSimulator(result.program, config,
                                        schedules=result.schedules,
                                        engine=engine) as simulator:
                        measured = simulator.run("main").cycles
                    if processors == 1:
                        assert walk == measured, (label, engine)
                    else:
                        assert walk == pytest.approx(measured, rel=1e-12,
                                                     abs=0), (label, engine)
    # At 4,096 elements the sum forks at 2 and 4 CPUs, every length.
    assert forks >= 6


def test_walk_prices_global_scalars_as_runs_do():
    """clamp reads its bounds ``lo`` and ``hi``, globals, once per strip
    of each masked store, and ``main`` writes them: runs charge a load
    per read and a store per write, and so does the walk.  On E19's
    probe grid (n = 4,096: every strip full, so some lane of each mask
    is set) walk == run — 5,638 cycles apart at VL 32, 1 CPU, when the
    walk read globals for free.  At n = 100 and VL 32 the last strip
    holds elements 96..99, whose values 0..3 never exceed ``hi``: no
    lane evaluates the masked value, so the run does not load ``hi``
    there, which the walk — pricing what some lane may reach — counts:
    one load apart."""
    template = kernel_source("clamp")
    for n, width, processors, gap in ((4096, 32, 1, 0), (4096, 64, 2, 0),
                                      (4096, 128, 4, 0), (100, 32, 1, 11)):
        source = template.replace("{n}", str(n)).replace("{s}", "0")
        options = CompilerOptions(vector_length=width,
                                  processors=processors)
        config = titan_config(options)
        result = compile_c(source, options)
        walk = StaticCostEstimator(
            config, schedules=result.schedules).function_cycles(
                "main", result.program.functions["main"])
        for engine in ("tree", "compiled"):
            with TitanSimulator(result.program, config,
                                schedules=result.schedules,
                                engine=engine) as simulator:
                measured = simulator.run("main").cycles
            assert walk - measured == gap, (n, width, processors, engine)
    assert gap == config.load_latency


def test_forked_reductions_meet_their_cycle_targets():
    """At n = 4,096, VL 32, 4 CPUs: sdot at most 14,500 cycles (18,804
    serial), the mix loop at most 21,500 (42,100 with every strip
    loop serial)."""
    options = CompilerOptions(vector_length=32, processors=4)
    for kernel, bound in (("sdot", 14_500), ("mix", 21_500)):
        source = kernel_source(kernel).replace("{n}", "4096") \
            .replace("{s}", "0")
        result = compile_c(source, options)
        with TitanSimulator(result.program, titan_config(options),
                            schedules=result.schedules) as simulator:
            assert simulator.run("main").cycles <= bound, kernel


def report_entries(program, config):
    result = SimpleNamespace(program=program, schedules={})
    return titan_section(result, config)["static"]["loops"]


def test_reduction_longer_than_the_maximum_vector_length():
    # 4,096 elements at MVL 2,048: two hardware instructions, each
    # paying its startup, and one tree tail for the whole statement.
    vp = vc.VectorProgram(vc.STRIP_ELEMS)
    program = vp.program([vp.reduce("rf", "+", vp.section("fa"), 4096)],
                         registers={"rf": 0.0})
    config = TitanConfig(max_vector_length=2048)
    breakdown = run_costed(program, config, memory_size=vp.memory)
    assert measured_vector(breakdown) == (4133.0, 24.0)
    assert static_vector(program, config) == (4133.0, 24.0)
    (entry,) = report_entries(program, config)
    assert (entry["cycles"], entry["chunks"]) == (4133.0, 2)


def test_statements_of_no_element():
    # Runs skip a statement whose length is zero or negative, so the
    # walk prices it at nothing too.
    vp = vc.VectorProgram()
    program = vp.program([
        vp.assign(vp.section("fa"), vc.const(9.0, FLOAT), 0),
        vp.assign(vp.section("fa", 4), vc.const(9.0, FLOAT), -3),
        vp.reduce("rf", "+", vp.section("fb"), 0),
        vp.reduce("rf", "max", vp.section("fb"), -1)],
        registers={"rf": 0.0})
    config = TitanConfig()
    breakdown = run_costed(program, config, memory_size=vp.memory)
    assert measured_vector(breakdown) == (0.0, 0.0)
    assert static_vector(program, config) == (0.0, 0.0)
    assert [(entry["cycles"], entry["chunks"]) for entry in
            report_entries(program, config)] == [(0.0, 0)] * 4
