"""Cycle-accurate simulation of elaborated designs.

Typical usage::

    from repro.hdl import parse, elaborate
    from repro.sim import Simulator

    design = elaborate(parse(text), top="counter")
    sim = Simulator(design)
    sim["enable"] = 1
    sim.step(10)
    assert sim["count"] == 10
"""

from .simulator import (
    CombinationalLoopError,
    DisplayEvent,
    Simulator,
    SimulatorError,
    verilog_format,
)
from .testbench import Testbench
from .values import EvaluationError, Evaluator, SymbolTable, mask

__all__ = [
    "Simulator",
    "SimulatorError",
    "CombinationalLoopError",
    "DisplayEvent",
    "verilog_format",
    "Testbench",
    "Evaluator",
    "SymbolTable",
    "EvaluationError",
    "mask",
]
