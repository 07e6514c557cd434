"""Titan machine model parameters (section 2).

The real Titan: up to four processors on a shared-memory bus, each with
a RISC integer unit, a deeply pipelined floating-point unit that also
executes all vector instructions, and an 8,192-word vector register
file addressable at any base/length/stride (so usable as four vectors
of 2048, or 8k scalars; strip loops keep sections they re-read there,
:func:`repro.titan.vector_ops.held_loads`).

We do not have the hardware; these constants define a cycle-approximate
cost model whose *shape* matches the paper's published numbers:

* scalar code pays full operation latencies (no overlap);
* loops scheduled with dependence information pay the *throughput*
  bound — max over functional-unit occupancy and the recurrence bound
  (section 6's "completely overlap the integer and floating point
  instructions ... and the stores with the computation");
* vector instructions pay a startup plus one element per cycle (unit
  stride), which is why "in practice vector instructions are necessary
  to keep the pipeline full";
* parallel loops pay a fork/join startup and divide by the processors.

Calibration targets: the section 6 backsolve loop runs at ~0.5 MFLOPS
scalar and ~1.9 MFLOPS optimized; the section 9 daxpy runs ~12× faster
vector+parallel on two processors than scalar.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class TitanConfig:
    processors: int = 2
    clock_mhz: float = 16.0

    # Scalar operation latencies (cycles), paid in unscheduled code.
    fp_latency: int = 8
    int_latency: int = 1
    load_latency: int = 11
    store_latency: int = 3
    branch_cycles: int = 2
    call_overhead: int = 30

    # Throughput (issue) costs, paid in dependence-scheduled loops.
    fp_issue: int = 1
    int_issue: int = 1
    mem_issue: int = 2  # one access per 2 cycles per processor

    # Vector unit.
    vector_startup: int = 12  # pipeline fill per vector instruction
    vector_element_cycles: float = 1.0  # unit-stride, per element
    vector_stride_penalty: float = 2.0  # non-unit stride multiplier
    max_vector_length: int = 2048
    vector_register_words: int = 8192

    # Multiprocessing.
    parallel_startup: int = 200  # fork/join cost per parallel loop
    parallel_efficiency: float = 0.90  # bus contention etc.

    @property
    def cycle_time_us(self) -> float:
        return 1.0 / self.clock_mhz

    def seconds(self, cycles: float) -> float:
        return cycles / (self.clock_mhz * 1e6)
