"""Register dependency graphs (Dependency Monitor's static half, §4.3).

A view of :func:`repro.flow.build_signal_graph` as ``{dst: [(src,
cycles)]}`` (:meth:`~repro.flow.SignalGraph.incoming`): each entry means
"an assignment to *dst* reads *src*", and ``cycles`` is the edge's
latency — 1 for sequential (clocked) assignments, 0 for combinational
ones, the model's latency through a blackbox IP. "Registers that may
propagate to v within the previous k cycles" is then the shortest-path
query :func:`repro.flow.solver.min_latencies` bounded by k, the same
relaxation the L0402 valid/data skew check runs unbounded. Data and
index reads are always edges; path-constraint (control) reads only when
asked for.

Blackbox IPs contribute edges through developer-provided
:class:`~repro.analysis.ip_models.IPAnalysisModel` (§4.3: "To track
dependencies through a blackbox IP, Dependency Monitor requires the
developer to provide a model"), resolved by
:func:`repro.flow.graph.resolve_blackboxes`; an instance with no model
is rejected with ``KeyError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..flow.graph import build_signal_graph
from ..flow.solver import min_latencies


@dataclass
class DependencyChain:
    """Result of a backward dependency query for one variable."""

    target: str
    depth: int
    #: signal name -> minimum number of cycles back it can influence target
    distances: dict = field(default_factory=dict)

    @property
    def registers(self):
        """All signals in the chain, nearest first."""
        return sorted(self.distances, key=lambda name: (self.distances[name], name))


def build_dependency_graph(module, include_control=True):
    """``{dst: [(src, cycles)]}`` for an elaborated flat module."""
    graph = build_signal_graph(module)
    for box in graph.blackboxes:
        if box.model is None:
            raise KeyError(
                "no IP analysis model for blackbox %r; register one in "
                "DEFAULT_IP_MODELS (repro.analysis.ip_models)"
                % box.instance.module_name
            )
    return graph.incoming(include_control=include_control)


def dependency_chain(module, target, depth, include_control=True):
    """Registers that may propagate to *target* within *depth* cycles.

    Implements Dependency Monitor's static analysis: a backward
    shortest-path sweep where each hop costs its edge's latency
    (clocked hops one cycle, combinational hops zero). Returns a
    :class:`DependencyChain`.
    """
    incoming = build_dependency_graph(module, include_control=include_control)
    if module.find_declaration(target) is None:
        raise KeyError("unknown signal %r" % target)
    return DependencyChain(
        target=target,
        depth=depth,
        distances=min_latencies(incoming, target, bound=depth),
    )
