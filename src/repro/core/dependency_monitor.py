"""Dependency Monitor: provenance tracking for a variable (§4.3).

Given a variable ``v`` and a window of ``k`` cycles, the monitor statically
finds every register that may propagate to ``v`` within ``k`` cycles
(data and/or control dependencies, traced through blackbox IPs via their
models), then instruments the design to log each update to each register
in the chain. Backtracing an incorrect output then becomes reading the
unified log instead of re-synthesizing with hand-picked probes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hdl import ast_nodes as ast
from ..analysis.assignments import analyze_module
from ..analysis.depgraph import dependency_chain
from .. import obs
from .instrument import Instrumenter, record_pass_metrics
from .signalcat import Mode, SignalCat

_LABEL_PREFIX = "dep:"


@dataclass
class UpdateEvent:
    """One observed update to a dependency-chain register."""

    cycle: int
    register: str
    value: int


class DependencyMonitor:
    """Tracks the dependency chain of one variable.

    Parameters
    ----------
    design:
        Elaborated design (or flat module).
    target:
        The variable whose provenance is being traced.
    depth:
        How many cycles back the dependency chain extends (the paper's
        ``k``).
    include_control:
        Analyze control dependencies as well as data dependencies
        (default True, configurable per §4.3).

    Blackbox IPs are traced through their
    :class:`~repro.analysis.ip_models.IPAnalysisModel`; register a model
    for a new IP in :data:`~repro.analysis.ip_models.DEFAULT_IP_MODELS`.
    """

    def __init__(self, design, target, depth, include_control=True):
        with obs.span("pass:dependency_monitor"):
            self.instrumenter = Instrumenter(design, prefix="dep_")
            self.module = self.instrumenter.module
            self.target = target
            self.depth = depth
            self.chain = dependency_chain(
                self.instrumenter.original,
                target,
                depth,
                include_control=include_control,
            )
            self._instrument()
        record_pass_metrics("dependency_monitor", self.instrumenter)

    @property
    def tracked_registers(self):
        """Chain registers that receive update logging."""
        return self._tracked

    def _instrument(self):
        ins = self.instrumenter
        view = analyze_module(ins.original)
        self._tracked = []
        for name in self.chain.registers:
            records = view.assignments_to(name)
            if not records or not any(r.sequential for r in records):
                continue  # inputs and wires change only via their drivers
            decl = ins.original.find_declaration(name)
            if decl is not None and decl.array is not None:
                # Whole memories are too wide to shadow-compare; their
                # per-element updates are visible through the registers
                # that feed them, which are also in the chain.
                continue
            self._tracked.append(name)
            width = decl.bit_width if decl else 1
            current = ast.Identifier(name=name)
            prev = ins.add_reg(ins.fresh("prev_" + name), width=width)
            display = ast.Display(
                format="DependencyMonitor: %s = %%h" % name,
                args=[current],
                label=_LABEL_PREFIX + name,
            )
            clock = next((r.clock for r in records if r.clock), None)
            ins.add_clocked_block(
                [
                    ast.If(
                        cond=ast.BinaryOp(op="!=", left=prev, right=current),
                        then_stmt=ast.Block(statements=[display]),
                    ),
                    ast.NonblockingAssign(lhs=prev, rhs=current),
                ],
                clock=clock,
            )

    # -- runtime -------------------------------------------------------------------

    def simulator(self, mode=Mode.SIMULATION, **kwargs):
        """SignalCat-wrapped simulator for the instrumented design."""
        self._signalcat = SignalCat(self.module, mode=mode, **kwargs)
        return self._signalcat.simulator()

    def trace(self, sim, register=None):
        """All observed updates, optionally filtered to one register."""
        signalcat = getattr(self, "_signalcat", None)
        if signalcat is not None:
            triples = [
                (e.cycle, e.label, e.values)
                for e in signalcat.reconstruct(sim)
            ]
        else:
            triples = [(e.cycle, e.label, e.values) for e in sim.display_events]
        events = []
        for cycle, label, values in triples:
            if not label.startswith(_LABEL_PREFIX):
                continue
            name = label[len(_LABEL_PREFIX):]
            if register is not None and name != register:
                continue
            events.append(UpdateEvent(cycle=cycle, register=name, value=values[0]))
        return events

    def report(self):
        """Static chain summary: register -> cycles back it can influence."""
        return dict(self.chain.distances)

    def generated_line_count(self):
        """Lines of generated Verilog (§6.3 metric)."""
        return self.instrumenter.generated_line_count()
