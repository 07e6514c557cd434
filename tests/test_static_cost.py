"""The static Titan walk (``repro.titan.static``) prices vector code
with the function simulated runs are charged with, so on a program
whose vector loops have constant trips and run once, what the walk
says ``main``'s vector statements cost is what a run of ``main``
measures: ``vector_compute + vector_memory`` and ``vector_startup`` of
the :class:`CycleBreakdown`, exactly.  The compilation report's
``titan.static`` entries are the same prices."""

import os
from types import SimpleNamespace

import pytest

from repro.frontend.ctypes_ import FLOAT
from repro.interp import make_interpreter
from repro.obs.report import titan_section
from repro.pipeline import CompilerOptions, compile_c
from repro.titan.config import TitanConfig
from repro.titan.cost_model import TitanCostModel
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


@pytest.mark.parametrize("kernel", KERNELS)
def test_e19_kernel_static_equals_measured(kernel):
    with open(os.path.join(E19_KERNELS_DIR, kernel + ".c")) as handle:
        template = handle.read()
    for n in (40, 100, 1000):
        source = template.replace("{n}", str(n)).replace("{s}", "1")
        for width in (32, 33, 2048):
            # The processor count reaches only the TitanConfig: one
            # compile serves the three runs.
            result = compile_c(source,
                               CompilerOptions(vector_length=width))
            for processors in (1, 2, 4):
                config = TitanConfig(processors=processors,
                                     max_vector_length=width)
                breakdown = run_costed(result.program, config,
                                       result.schedules)
                assert static_vector(result.program, config,
                                     result.schedules) \
                    == measured_vector(breakdown), \
                    (kernel, n, width, processors)


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
