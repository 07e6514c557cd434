"""Execution engines for the IL.

Two engines share one observable semantics:

* :class:`~repro.interp.interpreter.Interpreter` — the tree-walking
  semantic oracle (``engine="tree"``);
* :class:`~repro.interp.bytecode.CompiledInterpreter` — the fast
  engine (``engine="compiled"``): generated Python code when no cost
  hook is installed or the hook (the Titan cost model) offers its
  scalar cost table for inline accounting; under any other hook, and
  for the few constructs the generator refuses, the tree oracle it
  inherits, one function at a time.

Use :func:`~repro.interp.interpreter.make_interpreter` to pick one by
name.
"""

from .bytecode import CompiledInterpreter
from .interpreter import (ENGINES, Device, Interpreter, InterpreterError,
                          StepLimitExceeded, make_interpreter, run_c)
from .memory import Memory, MemoryError_

__all__ = [
    "CompiledInterpreter",
    "Device",
    "ENGINES",
    "Interpreter",
    "InterpreterError",
    "Memory",
    "MemoryError_",
    "StepLimitExceeded",
    "make_interpreter",
    "run_c",
]
