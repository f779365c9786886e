"""Register dependency graphs (Dependency Monitor's static half, §4.3).

A view of :func:`repro.flow.build_signal_graph` as ``{dst: [(src,
cycles)]}``: each entry means "an assignment to *dst* reads *src*", and
``cycles`` is the edge's latency — 1 for sequential (clocked)
assignments, 0 for combinational ones, the model's latency through a
blackbox IP. "Registers that may propagate to v within the previous k
cycles" is then a shortest-path query. Data and index reads are always
edges; path-constraint (control) reads only when asked for.

Blackbox IPs contribute edges through developer-provided
:class:`~repro.analysis.ip_models.IPAnalysisModel` (§4.3: "To track
dependencies through a blackbox IP, Dependency Monitor requires the
developer to provide a model").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..flow.graph import build_signal_graph
from ..hdl import ast_nodes as ast


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


def build_dependency_graph(module, include_control=True, ip_models=None):
    """``{dst: [(src, cycles)]}`` for an elaborated flat module."""
    graph = build_signal_graph(module, ip_models=ip_models)
    if graph.unmodeled:
        blackbox = next(
            item.module_name for item in module.items
            if isinstance(item, ast.Instance)
            and item.instance_name in graph.unmodeled
        )
        raise KeyError(
            "no IP analysis model for blackbox %r; provide one via "
            "ip_models (see repro.analysis.ip_models)" % blackbox
        )
    incoming = {}
    for edge in graph.edges:
        if edge.kind == "control" and not include_control:
            continue
        incoming.setdefault(edge.dst, []).append((edge.src, edge.latency))
    return incoming


def dependency_chain(module, target, depth, include_control=True, ip_models=None):
    """Registers that may propagate to *target* within *depth* cycles.

    Implements Dependency Monitor's static analysis: a backward
    shortest-path sweep where each hop costs its edge's latency
    (clocked hops one cycle, combinational hops zero). Returns a
    :class:`DependencyChain`.
    """
    incoming = build_dependency_graph(
        module, include_control=include_control, ip_models=ip_models
    )
    if module.find_declaration(target) is None:
        raise KeyError("unknown signal %r" % target)
    distances = {target: 0}
    frontier = [target]
    while frontier:
        next_frontier = []
        for node in frontier:
            base = distances[node]
            for src, cost in incoming.get(node, ()):
                total = base + cost
                if total > depth:
                    continue
                if src not in distances or total < distances[src]:
                    distances[src] = total
                    next_frontier.append(src)
        frontier = next_frontier
    return DependencyChain(target=target, depth=depth, distances=distances)
