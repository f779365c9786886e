"""Clock-domain inference per signal (the CDC checkers' static half).

Every signal of an elaborated design is assigned a *set* of clock
domains:

* a register's domain is the clock of the edge-triggered block(s) that
  assign it — registers re-time data into their own domain, which is
  exactly why a 2-FF synchronizer works;
* a blackbox IP output lives in the domain of the clock port its
  :class:`~repro.analysis.ip_models.IPAnalysisModel.port_clocks` entry
  names (a ``dcfifo``'s ``q`` is read-side, its ``wrfull`` write-side);
* a combinational signal carries the union of its sources' domains,
  computed as a monotone fixpoint (:mod:`repro.flow.solver`) so
  feedback through combinational nets converges;
* input ports (and anything undriven) have no domain — external signals
  are not flagged, only crossings between two *inferred* domains are.

Clock signals themselves are excluded: a clock fanning out to many
blocks is distribution, not a crossing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.assignments import analyze_module
from .graph import build_signal_graph
from .solver import solve


@dataclass
class DomainInference:
    """Result of clock-domain inference over one module."""

    #: ``{signal: frozenset of clock names}`` (empty set = no domain).
    domains: dict = field(default_factory=dict)
    #: All clock signals observed (edge-triggered or IP clock ports).
    clocks: list = field(default_factory=list)
    #: Fixpoint telemetry (the flow fuzz oracle asserts convergence).
    iterations: int = 0
    converged: bool = True

    def of(self, name):
        """Domains of *name* (empty frozenset when unknown/external)."""
        return self.domains.get(name, frozenset())

    def is_multi_clock(self):
        return len(self.clocks) > 1


def infer_domains(module, view=None, graph=None):
    """Infer the clock-domain set of every signal in *module*."""
    view = view or analyze_module(module)
    graph = graph or build_signal_graph(module, view=view)
    clocks = set()
    seeds = {}
    comb_deps = {}
    for edge in graph.edges:
        if edge.sequential:
            if edge.clock:
                clocks.add(edge.clock)
                seeds.setdefault(edge.dst, set()).add(edge.clock)
        else:
            comb_deps.setdefault(edge.dst, set()).add(edge.src)
    # A sequentially-assigned signal is pinned to its own domain even if
    # it also has combinational drivers (a multi-driven defect reported
    # separately); drop it from the combinational transfer set.
    for name in seeds:
        comb_deps.pop(name, None)
    nodes = set(seeds) | set(comb_deps)
    for sources in comb_deps.values():
        nodes.update(sources)
    nodes -= clocks

    def transfer(node, values):
        if node in seeds:
            return frozenset(seeds[node])
        fact = set()
        for src in sorted(comb_deps.get(node, ())):
            fact.update(values.get(src, ()))
        return frozenset(fact)

    result = solve(nodes, comb_deps, transfer)
    domains = {
        name: result.values[name]
        for name in sorted(result.values)
        if result.values[name]
    }
    return DomainInference(
        domains=domains,
        clocks=sorted(clocks),
        iterations=result.iterations,
        converged=result.converged,
    )
