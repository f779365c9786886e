"""The design-level signal graph the flow checkers walk.

Nodes are the signals of an *elaborated* module — elaboration has
already flattened the hierarchy, so cross-module dataflow shows up here
as dotted names (``fifo.wr_ptr``) connected through the continuous
assigns that elaboration synthesizes for port connections.

:func:`resolve_blackboxes` is the one place a blackbox instance meets
its :class:`~repro.analysis.ip_models.IPAnalysisModel` (custom models
are registered in :data:`~repro.analysis.ip_models.DEFAULT_IP_MODELS`)
and its port connections; the payload slice and the propagation table
read it too. The graph records an instance with no model in
``unmodeled`` instead of aborting, because the checkers must degrade
gracefully on designs the analyses cannot fully see (the same
philosophy as ``repro check``'s per-module recovery).

Each edge is labeled with how the value flows:

* ``kind`` — ``data`` (feeds the assigned value), ``control`` (only
  steers the path constraint), or ``index`` (only selects a location);
* ``sequential`` / ``clock`` / ``blocking`` — the driving assignment's
  timing;
* ``latency`` — cycles the value takes to cross the edge: 0 for a
  combinational assignment, 1 for a clocked one, the model's
  :attr:`~repro.analysis.ip_models.IPFlow.latency` through a blackbox
  (``altsyncram`` data→q takes 2);
* ``via_ip`` — instance name when the edge goes through a blackbox.

The Dependency Monitor's k-cycle query and the L0402 skew check both
relax :meth:`SignalGraph.incoming` with
:func:`repro.flow.solver.min_latencies`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..hdl import ast_nodes as ast
from ..analysis.assignments import analyze_module, expression_identifiers
from ..analysis.ip_models import DEFAULT_IP_MODELS, IPAnalysisModel


@dataclass
class Blackbox:
    """One instance of a flat module, as the static analyses see it."""

    instance: ast.Instance
    #: None when no model is registered for the instance's module.
    model: Optional[IPAnalysisModel]
    #: ``{port: connected expression}``; unconnected ports are omitted.
    connections: dict

    def flows(self):
        """``(flow, src_expr, dst_expr)`` per model flow, both ports connected."""
        for flow in self.model.flows:
            src_expr = self.connections.get(flow.src_port)
            dst_expr = self.connections.get(flow.dst_port)
            if src_expr is not None and dst_expr is not None:
                yield flow, src_expr, dst_expr


def resolve_blackboxes(module):
    """Yield a :class:`Blackbox` per instance of *module*, in item order."""
    for item in module.items:
        if isinstance(item, ast.Instance):
            yield Blackbox(
                instance=item,
                model=DEFAULT_IP_MODELS.get(item.module_name),
                connections={
                    conn.port: conn.expr
                    for conn in item.ports
                    if conn.expr is not None
                },
            )


@dataclass
class FlowEdge:
    """One labeled signal-to-signal edge."""

    src: str
    dst: str
    kind: str
    sequential: bool
    clock: str = None
    blocking: bool = False
    lineno: int = 0
    via_ip: str = None
    latency: int = 0


@dataclass
class SignalGraph:
    """All flow edges of one elaborated module, with query helpers."""

    module: ast.Module
    view: object = None
    edges: list = field(default_factory=list)
    #: Every instance, resolved by :func:`resolve_blackboxes`.
    blackboxes: list = field(default_factory=list)

    @property
    def unmodeled(self):
        """Sorted names of instances without a model (analysis blind spots)."""
        return sorted(
            box.instance.instance_name
            for box in self.blackboxes
            if box.model is None
        )

    def into(self, name):
        return [e for e in self.edges if e.dst == name]

    def out_of(self, name):
        return [e for e in self.edges if e.src == name]

    def combinational_adjacency(self):
        """``{src: sorted set(dst)}`` over combinational edges only.

        Control and index edges are included: an oscillation can ride a
        path constraint (``if (!x) x = 1; else x = 0;``) just as well as
        a data position.
        """
        adjacency = {}
        for edge in self.edges:
            if edge.sequential or edge.via_ip:
                continue
            adjacency.setdefault(edge.src, set()).add(edge.dst)
        return {src: sorted(dsts) for src, dsts in sorted(adjacency.items())}

    def incoming(self, include_control=True):
        """``{dst: [(src, latency)]}`` over every edge, in edge order.

        Control edges are left out unless *include_control*.
        """
        incoming = {}
        for edge in self.edges:
            if edge.kind == "control" and not include_control:
                continue
            incoming.setdefault(edge.dst, []).append((edge.src, edge.latency))
        return incoming

    def signals(self):
        names = set()
        for edge in self.edges:
            names.add(edge.src)
            names.add(edge.dst)
        return sorted(names)


def build_signal_graph(module, view=None):
    """Build the :class:`SignalGraph` for an elaborated flat *module*."""
    view = view or analyze_module(module)
    graph = SignalGraph(module=module, view=view)
    for record in view.assignments:
        rhs_names = set(expression_identifiers(record.rhs))
        index_names = set(record.index_sources) - rhs_names
        control_names = set(record.control_sources) - rhs_names - index_names
        for kind, names in (
            ("data", rhs_names),
            ("index", index_names),
            ("control", control_names),
        ):
            for name in sorted(names):
                graph.edges.append(
                    FlowEdge(
                        src=name,
                        dst=record.target,
                        kind=kind,
                        sequential=record.sequential,
                        clock=record.clock,
                        blocking=record.blocking,
                        lineno=record.lineno,
                        latency=1 if record.sequential else 0,
                    )
                )
    graph.blackboxes = list(resolve_blackboxes(module))
    for box in graph.blackboxes:
        if box.model is not None:
            _add_ip_edges(graph, box)
    return graph


def _add_ip_edges(graph, box):
    port_clocks = box.model.port_clocks or {}
    for flow, src_expr, dst_expr in box.flows():
        clock_port = port_clocks.get(flow.dst_port)
        clock_expr = box.connections.get(clock_port) if clock_port else None
        clock = (
            clock_expr.name if isinstance(clock_expr, ast.Identifier) else None
        )
        for src in sorted(set(expression_identifiers(src_expr))):
            for dst in ast.lvalue_base_names(dst_expr):
                graph.edges.append(
                    FlowEdge(
                        src=src,
                        dst=dst,
                        # IP flows are registered (latency >= 1).
                        kind="data",
                        sequential=flow.latency > 0,
                        clock=clock,
                        lineno=box.instance.lineno,
                        via_ip=box.instance.instance_name,
                        latency=flow.latency,
                    )
                )
