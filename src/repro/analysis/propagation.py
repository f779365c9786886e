"""Data-propagation relations (LossCheck's static half, §4.5.1).

A propagation relation ``X ~~σ~> Y`` means the value stored in register X
propagates to register Y on cycles where σ holds. Relations are extracted
from sequential assignments; combinational signals (wires, ``always @(*)``
outputs) are *collapsed* — a register feeding a wire feeding a register
yields one register-to-register relation whose condition is the
conjunction along the chain. Input ports act as pseudo-registers (they
hold externally-driven values), which is how a LossCheck Source that is a
module input participates.

The collapsing is :func:`repro.flow.defuse.register_walk`. Blackbox IPs
contribute relations and loss rules through their
:class:`~repro.analysis.ip_models.IPAnalysisModel`, as resolved by
:func:`repro.flow.graph.resolve_blackboxes`; an unmodeled instance
raises ``KeyError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..flow.defuse import register_walk
from ..flow.graph import resolve_blackboxes
from ..flow.solver import between
from ..hdl import ast_nodes as ast
from ..hdl.parser import parse_expression
from ..hdl.codegen import generate_expression
from .assignments import analyze_module, expression_identifiers


@dataclass
class PropagationRelation:
    """``src`` propagates to ``dst`` when ``condition`` holds (None=always)."""

    src: str
    dst: str
    condition: Optional[ast.Expression]
    lineno: int = 0
    #: Instance name when the relation crosses a blackbox IP.
    via_ip: Optional[str] = None
    #: True for `dst <= src` identity holds (excluded from overwrites).
    identity_hold: bool = False


@dataclass
class IPLossPoint:
    """An in-IP loss condition relevant to the analyzed path."""

    instance: str
    port: str
    condition: ast.Expression
    description: str
    #: Register(s) feeding the lossy port.
    sources: list = field(default_factory=list)


@dataclass
class PropagationTable:
    """All relations of a module plus classification helpers (§4.5.1)."""

    module: ast.Module
    relations: list = field(default_factory=list)
    ip_loss_points: list = field(default_factory=list)

    def into(self, name):
        """Relations whose destination is *name*."""
        return [r for r in self.relations if r.dst == name]

    def out_of(self, name):
        """Relations whose source is *name*."""
        return [r for r in self.relations if r.src == name]

    def path_registers(self, source, sink):
        """Registers on any propagation path from *source* to *sink*.

        Returns the set of names reachable from source and co-reachable
        to sink (inclusive of both endpoints).
        """
        edges = {}
        for relation in self.relations:
            edges.setdefault(relation.src, set()).add(relation.dst)
        return between(edges, source, sink)


def instantiate_condition(template, connections):
    """Substitute ``{port}`` placeholders with connected expression text."""
    if not template:
        return None
    text = template
    for port, expr in connections.items():
        text = text.replace("{%s}" % port, "(%s)" % generate_expression(expr))
    if "{" in text:
        raise KeyError("unbound port placeholder in condition %r" % template)
    return parse_expression(text)


def build_propagation_table(module):
    """Extract every register-to-register propagation relation of *module*."""
    view = analyze_module(module)
    expand = register_walk(view, lambda record: record.data_sources)
    table = PropagationTable(module=module)
    for record in view.assignments:
        if not record.sequential:
            continue
        identity = (
            isinstance(record.rhs, ast.Identifier)
            and record.rhs.name == record.target
        )
        for src in record.data_sources:
            for reg, condition in expand(src, record.condition):
                table.relations.append(
                    PropagationRelation(
                        src=reg,
                        dst=record.target,
                        condition=condition,
                        lineno=record.lineno,
                        identity_hold=identity and reg == record.target,
                    )
                )
    for box in resolve_blackboxes(module):
        if box.model is None:
            raise KeyError(
                "no IP analysis model for blackbox %r"
                % box.instance.module_name
            )
        _add_ip_relations(table, box, expand)
    return table


def _add_ip_relations(table, box, expand):
    for flow, src_expr, dst_expr in box.flows():
        condition = instantiate_condition(flow.condition, box.connections)
        dst_names = ast.lvalue_base_names(dst_expr)
        for src in expression_identifiers(src_expr):
            for reg, chained in expand(src, condition):
                for dst in dst_names:
                    table.relations.append(
                        PropagationRelation(
                            src=reg,
                            dst=dst,
                            condition=chained,
                            lineno=box.instance.lineno,
                            via_ip=box.instance.instance_name,
                        )
                    )
    for rule in box.model.loss_rules:
        port_expr = box.connections.get(rule.port)
        if port_expr is None:
            continue
        table.ip_loss_points.append(
            IPLossPoint(
                instance=box.instance.instance_name,
                port=rule.port,
                condition=instantiate_condition(
                    rule.condition, box.connections
                ),
                description=rule.description,
                sources=[
                    reg
                    for src in expression_identifiers(port_expr)
                    for reg, _ in expand(src)
                ],
            )
        )
