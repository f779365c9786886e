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

:func:`register_walk` is the one combinational-collapsing walk, shared
by the payload graph and LossCheck's propagation table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hdl import ast_nodes as ast
from ..analysis.assignments import analyze_module, condition_and
from .graph import resolve_blackboxes
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


def build_def_use(module, view=None):
    """Build :class:`DefUseChains` for an elaborated flat *module*."""
    view = view or analyze_module(module)
    chains = DefUseChains(module=module, view=view)
    for record in view.assignments:
        chains.defs.setdefault(record.target, []).append(record)
        index_names = set(record.index_sources)
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


def register_walk(view, identifiers):
    """The combinational-collapsing walk over *view*'s assignments.

    Returns ``expand(name, condition=None)``, which traces *name* back
    through combinational definitions and yields one ``(register,
    condition)`` pair per path: *register* is a sequentially-assigned
    signal or input port, *condition* the conjunction of *condition* and
    the path constraints along the chain (None == always).
    ``identifiers(record)`` picks the identifiers of each combinational
    definition to follow. Pairs come in definition and identifier
    order, duplicates kept; a combinational cycle stops at the repeated
    signal.
    """
    comb_defs = {}
    for record in view.assignments:
        if not record.sequential:
            comb_defs.setdefault(record.target, []).append(record)

    def expand(name, condition=None, visiting=frozenset()):
        if name not in comb_defs or name in visiting:
            yield name, condition
            return
        visiting = visiting | {name}
        for record in comb_defs[name]:
            chained = condition_and(condition, record.condition)
            for src in identifiers(record):
                yield from expand(src, chained, visiting)

    return expand


def payload_register_graph(module, view=None):
    """Register-to-register *payload* edges ``{src: set(dst)}``.

    The sequential skeleton of the design restricted to value-carrying
    positions: a register (or input port) ``src`` has an edge to register
    ``dst`` when ``src``'s bits can end up stored in ``dst`` — traced
    through combinational definitions with :func:`payload_identifiers`
    at every hop, plus payload-carrying blackbox IP flows. Instances
    without a model are skipped.
    """
    view = view or analyze_module(module)
    expand = register_walk(view, lambda record: payload_identifiers(record.rhs))
    edges = {}

    def add_edges(src_expr, dst_names):
        for src in payload_identifiers(src_expr):
            for reg, _ in expand(src):
                for dst in dst_names:
                    edges.setdefault(reg, set()).add(dst)

    for record in view.assignments:
        if record.sequential:
            add_edges(record.rhs, [record.target])
    for box in resolve_blackboxes(module):
        if box.model is None:
            continue
        for flow, src_expr, dst_expr in box.flows():
            if flow.payload:
                add_edges(src_expr, ast.lvalue_base_names(dst_expr))
    return edges


def payload_slice(module, source, sink, view=None):
    """Registers on a payload-carrying Source→Sink slice (sorted).

    Forward payload reachability from *source* intersected with backward
    reachability to *sink* — the set LossCheck's ``prune=True`` mode
    restricts monitoring to. Empty when no payload path exists.
    """
    edges = payload_register_graph(module, view=view)
    return sorted(between(edges, source, sink))
