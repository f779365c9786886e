"""Data-propagation relations (LossCheck's static half, §4.5.1).

A propagation relation ``X ~~σ~> Y`` means the value stored in register X
propagates to register Y on cycles where σ holds. Relations are extracted
from sequential assignments; combinational signals (wires, ``always @(*)``
outputs) are *collapsed* — a register feeding a wire feeding a register
yields one register-to-register relation whose condition is the
conjunction along the chain. Input ports act as pseudo-registers (they
hold externally-driven values), which is how a LossCheck Source that is a
module input participates.

Blackbox IPs contribute relations and loss rules through their
:class:`~repro.analysis.ip_models.IPAnalysisModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..flow.solver import between
from ..hdl import ast_nodes as ast
from ..hdl.parser import parse_expression
from ..hdl.codegen import generate_expression
from .assignments import analyze_module, condition_and, expression_identifiers
from .ip_models import DEFAULT_IP_MODELS


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


def _comb_definitions(view):
    """target -> list of (record) for combinationally-assigned signals."""
    defs = {}
    for record in view.assignments:
        if not record.sequential:
            defs.setdefault(record.target, []).append(record)
    return defs


def _expand_sources(name, condition, comb_defs, visiting):
    """Trace *name* back through combinational definitions to registers.

    Yields (register_name, condition) pairs; conditions accumulate along
    the chain.
    """
    if name not in comb_defs or name in visiting:
        yield name, condition
        return
    visiting = visiting | {name}
    for record in comb_defs[name]:
        chained = condition_and(condition, record.condition)
        for src in record.data_sources:
            yield from _expand_sources(src, chained, comb_defs, visiting)


def build_propagation_table(module, ip_models=None):
    """Extract every register-to-register propagation relation of *module*."""
    view = analyze_module(module)
    comb_defs = _comb_definitions(view)
    table = PropagationTable(module=module)
    for record in view.assignments:
        if not record.sequential:
            continue
        identity = (
            isinstance(record.rhs, ast.Identifier)
            and record.rhs.name == record.target
        )
        for src in record.data_sources:
            for reg, condition in _expand_sources(
                src, record.condition, comb_defs, frozenset()
            ):
                table.relations.append(
                    PropagationRelation(
                        src=reg,
                        dst=record.target,
                        condition=condition,
                        lineno=record.lineno,
                        identity_hold=identity and reg == record.target,
                    )
                )
    _add_ip_relations(table, module, comb_defs, ip_models)
    return table


def _add_ip_relations(table, module, comb_defs, ip_models):
    models = dict(DEFAULT_IP_MODELS)
    if ip_models:
        models.update(ip_models)
    for item in module.items:
        if not isinstance(item, ast.Instance):
            continue
        model = models.get(item.module_name)
        if model is None:
            raise KeyError(
                "no IP analysis model for blackbox %r" % item.module_name
            )
        connections = {
            conn.port: conn.expr for conn in item.ports if conn.expr is not None
        }
        for flow in model.flows:
            src_expr = connections.get(flow.src_port)
            dst_expr = connections.get(flow.dst_port)
            if src_expr is None or dst_expr is None:
                continue
            condition = instantiate_condition(flow.condition, connections)
            dst_names = ast.lvalue_base_names(dst_expr)
            for src in expression_identifiers(src_expr):
                for reg, chained in _expand_sources(
                    src, condition, comb_defs, frozenset()
                ):
                    for dst in dst_names:
                        table.relations.append(
                            PropagationRelation(
                                src=reg,
                                dst=dst,
                                condition=chained,
                                lineno=item.lineno,
                                via_ip=item.instance_name,
                            )
                        )
        for rule in model.loss_rules:
            port_expr = connections.get(rule.port)
            if port_expr is None:
                continue
            condition = instantiate_condition(rule.condition, connections)
            sources = []
            for src in expression_identifiers(port_expr):
                for reg, _ in _expand_sources(src, None, comb_defs, frozenset()):
                    sources.append(reg)
            table.ip_loss_points.append(
                IPLossPoint(
                    instance=item.instance_name,
                    port=rule.port,
                    condition=condition,
                    description=rule.description,
                    sources=sources,
                )
            )
