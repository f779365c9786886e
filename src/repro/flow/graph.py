"""The design-level signal graph the flow checkers walk.

Nodes are the signals of an *elaborated* module — elaboration has
already flattened the hierarchy, so cross-module dataflow shows up here
as dotted names (``fifo.wr_ptr``) connected through the continuous
assigns that elaboration synthesizes for port connections. Blackbox IP
instances contribute edges through their
:class:`~repro.analysis.ip_models.IPAnalysisModel` flows; instances with
no model are recorded in ``unmodeled`` instead of aborting, because the
checkers must degrade gracefully on designs the analyses cannot fully
see (the same philosophy as ``repro check``'s per-module recovery).

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hdl import ast_nodes as ast
from ..analysis.assignments import analyze_module
from ..analysis.ip_models import DEFAULT_IP_MODELS
from .defuse import _index_sources


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
    #: Blackbox instances without an IPAnalysisModel (analysis blind spots).
    unmodeled: list = field(default_factory=list)

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

    def signals(self):
        names = set()
        for edge in self.edges:
            names.add(edge.src)
            names.add(edge.dst)
        return sorted(names)


def build_signal_graph(module, view=None, ip_models=None):
    """Build the :class:`SignalGraph` for an elaborated flat *module*."""
    view = view or analyze_module(module)
    graph = SignalGraph(module=module, view=view)
    for record in view.assignments:
        rhs_names = {
            node.name
            for node in record.rhs.walk()
            if isinstance(node, ast.Identifier)
        }
        index_names = set(_index_sources(record)) - rhs_names
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
    _add_ip_edges(graph, module, ip_models)
    return graph


def _add_ip_edges(graph, module, ip_models):
    models = dict(DEFAULT_IP_MODELS)
    if ip_models:
        models.update(ip_models)
    for item in module.items:
        if not isinstance(item, ast.Instance):
            continue
        model = models.get(item.module_name)
        if model is None:
            graph.unmodeled.append(item.instance_name)
            continue
        connections = {
            conn.port: conn.expr for conn in item.ports if conn.expr is not None
        }
        for flow in model.flows:
            src_expr = connections.get(flow.src_port)
            dst_expr = connections.get(flow.dst_port)
            if src_expr is None or dst_expr is None:
                continue
            dst_names = ast.lvalue_base_names(dst_expr)
            src_names = sorted(
                {
                    node.name
                    for node in src_expr.walk()
                    if isinstance(node, ast.Identifier)
                }
            )
            clock_port = (model.port_clocks or {}).get(flow.dst_port)
            clock_expr = connections.get(clock_port) if clock_port else None
            clock = (
                clock_expr.name
                if isinstance(clock_expr, ast.Identifier)
                else None
            )
            for src in src_names:
                for dst in dst_names:
                    graph.edges.append(
                        FlowEdge(
                            src=src,
                            dst=dst,
                            # IP flows are registered (latency >= 1).
                            kind="data",
                            sequential=flow.latency > 0,
                            clock=clock,
                            lineno=item.lineno,
                            via_ip=item.instance_name,
                            latency=flow.latency,
                        )
                    )
    graph.unmodeled.sort()
