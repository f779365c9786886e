"""Def-use chains, reaching definitions, and bit-aware payload slicing.

Built on :func:`repro.analysis.assignments.analyze_module`: every
assignment is a *definition* of its target, and every identifier an
assignment reads is a *use* — classified by position:

* ``data`` — the identifier feeds the assigned value;
* ``control`` — it only appears in the path constraint;
* ``index`` — it only selects where (array index / part-select base).

The *payload* refinement is the bit-aware half: an identifier is a
payload source only when the value's bits can actually flow into the
target — through arithmetic/bitwise/shift operators, concatenation,
selects, and ternary arms. Positions that collapse the value to one bit
(comparisons, logical operators, reductions) or merely steer it
(conditions, indices) are excluded. LossCheck's ``prune=True`` mode uses
this to restrict shadow instrumentation to registers that can carry the
Source payload toward the Sink.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hdl import ast_nodes as ast
from ..analysis.assignments import analyze_module
from ..analysis.ip_models import DEFAULT_IP_MODELS
from .solver import between

#: Binary operators whose result still carries operand payload bits.
_PAYLOAD_BINOPS = frozenset(
    ["+", "-", "*", "/", "%", "&", "|", "^", "~^", "^~", "<<", ">>",
     "<<<", ">>>"]
)
#: Binary operators that collapse operands to a 1-bit verdict.
_VERDICT_BINOPS = frozenset(
    ["==", "!=", "===", "!==", "<", ">", "<=", ">=", "&&", "||"]
)
#: Unary operators preserving payload (vs 1-bit reductions / logical not).
_PAYLOAD_UNOPS = frozenset(["~", "-", "+"])


def payload_identifiers(expr):
    """Identifiers of *expr* in payload (value-carrying) positions."""
    names = []

    def visit(node, carrying):
        if isinstance(node, ast.Identifier):
            if carrying:
                names.append(node.name)
            return
        if isinstance(node, ast.BinaryOp):
            inner = carrying and node.op in _PAYLOAD_BINOPS
            if node.op in _VERDICT_BINOPS:
                inner = False
            visit(node.left, inner)
            visit(node.right, inner)
            return
        if isinstance(node, ast.UnaryOp):
            visit(node.operand, carrying and node.op in _PAYLOAD_UNOPS)
            return
        if isinstance(node, ast.Ternary):
            visit(node.cond, False)
            visit(node.iftrue, carrying)
            visit(node.iffalse, carrying)
            return
        if isinstance(node, ast.Index):
            visit(node.var, carrying)
            visit(node.index, False)
            return
        if isinstance(node, ast.PartSelect):
            visit(node.var, carrying)
            return
        if isinstance(node, ast.IndexedPartSelect):
            visit(node.var, carrying)
            visit(node.base, False)
            return
        if isinstance(node, (ast.Concat, ast.Repeat)):
            for child in node.children():
                visit(child, carrying)
            return
        for child in node.children():
            visit(child, carrying)

    visit(expr, True)
    return names


@dataclass
class Use:
    """One read of a signal, with the position it is read in."""

    record: object
    kind: str  # "data" | "control" | "index"


@dataclass
class DefUseChains:
    """Per-module def-use chains over the elaborated flat module."""

    module: ast.Module
    view: object = None
    defs: dict = field(default_factory=dict)
    uses: dict = field(default_factory=dict)

    def defs_of(self, name):
        """Assignment records defining *name* (possibly empty)."""
        return self.defs.get(name, [])

    def uses_of(self, name):
        """:class:`Use` records reading *name* (possibly empty)."""
        return self.uses.get(name, [])

    def signals(self):
        """All defined or used signal names, sorted."""
        return sorted(set(self.defs) | set(self.uses))


def _index_sources(record):
    names = []
    node = record.lhs
    while isinstance(node, (ast.Index, ast.IndexedPartSelect)):
        index = node.index if isinstance(node, ast.Index) else node.base
        for ident in index.walk():
            if isinstance(ident, ast.Identifier):
                names.append(ident.name)
        node = node.var
    return names


def build_def_use(module, view=None):
    """Build :class:`DefUseChains` for an elaborated flat *module*."""
    view = view or analyze_module(module)
    chains = DefUseChains(module=module, view=view)
    for record in view.assignments:
        chains.defs.setdefault(record.target, []).append(record)
        index_names = set(_index_sources(record))
        rhs_names = set()
        for node in record.rhs.walk():
            if isinstance(node, ast.Identifier):
                rhs_names.add(node.name)
        for name in sorted(rhs_names):
            chains.uses.setdefault(name, []).append(
                Use(record=record, kind="data")
            )
        for name in sorted(index_names - rhs_names):
            chains.uses.setdefault(name, []).append(
                Use(record=record, kind="index")
            )
        for name in sorted(set(record.control_sources) - rhs_names):
            chains.uses.setdefault(name, []).append(
                Use(record=record, kind="control")
            )
    return chains


def reaching_definitions(module, view=None):
    """``{signal: sorted def labels that can reach its value}``.

    A definition label is ``"target:lineno"``. Because any always block
    can fire on any cycle, reachability is the transitive closure over
    data edges (a register's value can carry any upstream definition
    after enough cycles) — computed as a fixpoint so cyclic designs
    (counters, FSMs) converge rather than recurse.
    """
    from .solver import solve

    view = view or analyze_module(module)
    defs = {}
    deps = {}
    for record in view.assignments:
        defs.setdefault(record.target, set()).add(
            "%s:%d" % (record.target, record.lineno)
        )
        deps.setdefault(record.target, set()).update(record.data_sources)
    nodes = set(deps)
    for sources in deps.values():
        nodes.update(sources)

    def transfer(node, values):
        fact = set(defs.get(node, ()))
        for src in deps.get(node, ()):
            fact.update(values.get(src, ()))
        return frozenset(fact)

    result = solve(nodes, deps, transfer)
    return {name: sorted(result.values[name]) for name in sorted(nodes)}


def payload_register_graph(module, view=None, ip_models=None):
    """Register-to-register *payload* edges ``{src: set(dst)}``.

    The sequential skeleton of the design restricted to value-carrying
    positions: a register (or input port) ``src`` has an edge to register
    ``dst`` when ``src``'s bits can end up stored in ``dst`` — traced
    through combinational definitions with :func:`payload_identifiers`
    at every hop, plus payload-carrying blackbox IP flows.
    """
    view = view or analyze_module(module)
    comb_defs = {}
    for record in view.assignments:
        if not record.sequential:
            comb_defs.setdefault(record.target, []).append(record)

    def expand(name, visiting):
        if name not in comb_defs or name in visiting:
            return {name}
        expanded = set()
        for record in comb_defs[name]:
            for src in payload_identifiers(record.rhs):
                expanded |= expand(src, visiting | {name})
        return expanded

    edges = {}
    for record in view.assignments:
        if not record.sequential:
            continue
        for src in payload_identifiers(record.rhs):
            for reg in expand(src, frozenset()):
                edges.setdefault(reg, set()).add(record.target)
    models = dict(DEFAULT_IP_MODELS)
    if ip_models:
        models.update(ip_models)
    for item in module.items:
        if not isinstance(item, ast.Instance):
            continue
        model = models.get(item.module_name)
        if model is None:
            continue
        connections = {
            conn.port: conn.expr for conn in item.ports if conn.expr is not None
        }
        for flow in model.flows:
            if not getattr(flow, "payload", True):
                continue
            src_expr = connections.get(flow.src_port)
            dst_expr = connections.get(flow.dst_port)
            if src_expr is None or dst_expr is None:
                continue
            for src in payload_identifiers(src_expr):
                for reg in expand(src, frozenset()):
                    for dst in ast.lvalue_base_names(dst_expr):
                        edges.setdefault(reg, set()).add(dst)
    return edges


def payload_slice(module, source, sink, view=None, ip_models=None):
    """Registers on a payload-carrying Source→Sink slice (sorted).

    Forward payload reachability from *source* intersected with backward
    reachability to *sink* — the set LossCheck's ``prune=True`` mode
    restricts monitoring to. Empty when no payload path exists.
    """
    edges = payload_register_graph(module, view=view, ip_models=ip_models)
    return sorted(between(edges, source, sink))
