"""Parameterized repair templates: rtl-repair-style AST edits.

Each template is a pure enumeration over one module's AST: given the
module and a :class:`SiteContext` (which signals and source lines the
diagnostics implicate), it yields every edit it knows how to make at
those sites. Edits are closures over nodes of that tree, and every
write they make goes through :func:`_set_slot`, which logs the old
value so :func:`_undo` can restore it. A :class:`RepairPlan` parses
the source, resolves the sites, builds the anchor maps and runs the
templates once; a candidate is then one edit applied to that live
tree, rendered with :func:`repro.hdl.generate_source` and undone.
Templates never touch the original text.

The registry follows rtl-repair's catalogue (replace_literals,
invert_condition, assign_const, add_guard, conditional_overwrite,
blocking<->nonblocking swap, widen-synchronizer) plus the extra edits
the paper's Table 1 bug subclasses call for: part-select shifts
(misindexing), part-select pair swaps (endianness), dropped conjuncts
(circular handshakes), and handshake-source replacement
(producer-consumer backpressure).

Anchoring reuses :mod:`repro.fuzz.mutator`'s site model: every edit
carries a :class:`~repro.fuzz.mutator.MutationAnchor` built by the same
``build_anchor_maps``/``anchor_of`` machinery the fuzzer uses, so a
``file.v:42`` or ``signal`` site means the same thing to a fuzz
mutation and to a repair template.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from ..fuzz.mutator import (
    MutationAnchor,
    anchor_of,
    build_anchor_maps,
    node_signals,
)
from ..hdl import ast_nodes as ast
from ..hdl import generate_source, parse


@dataclass(frozen=True)
class RepairSite:
    """One diagnostic-implicated location: a signal and/or a line."""

    signal: str = ""
    line: int = 0
    origin: str = ""
    detail: str = ""
    #: Lower ranks are searched first (0 = strongest localization).
    rank: int = 0

    def to_dict(self):
        return {
            "signal": self.signal,
            "line": self.line,
            "origin": self.origin,
            "detail": self.detail,
            "rank": self.rank,
        }


@dataclass
class SiteContext:
    """Site information resolved to one module's local namespace.

    ``signal_ranks``/``line_ranks`` map each implicated local signal
    name / file line to the best (lowest) rank of the sites naming it.
    An edit whose anchor hits nothing scores :attr:`miss_rank`, which
    orders it after every sited edit but keeps it enumerable — the
    budget, not the site list, is the hard bound on the search.
    """

    signal_ranks: dict = field(default_factory=dict)
    line_ranks: dict = field(default_factory=dict)
    miss_rank: int = 1000

    def rank_of(self, anchor):
        """Best site rank this anchor hits (``miss_rank`` when none)."""
        best = self.miss_rank
        for name in anchor.signals:
            rank = self.signal_ranks.get(name)
            if rank is not None and rank < best:
                best = rank
        for line in anchor.lines:
            rank = self.line_ranks.get(line)
            if rank is not None and rank < best:
                best = rank
        return best


@dataclass
class RepairEdit:
    """One enumerable edit: a description plus an in-place apply.

    ``apply(log)`` edits the tree in place through :func:`_set_slot`,
    so ``_undo(log)`` afterwards restores it exactly.
    """

    description: str
    apply: object
    anchor: MutationAnchor
    #: The most site-relevant signal, for report labelling.
    signal: str = ""


@dataclass
class RepairCandidate:
    """One fully instantiated candidate patch."""

    candidate_id: str
    template: str
    module: str
    description: str
    signal: str
    site_rank: int
    text: str

    def to_dict(self):
        return {
            "candidate": self.candidate_id,
            "template": self.template,
            "module": self.module,
            "description": self.description,
            "signal": self.signal,
            "site_rank": self.site_rank,
        }


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def _always_blocks(module):
    return [item for item in module.items if isinstance(item, ast.Always)]


def _statements(module):
    """Every procedural statement in *module*, pre-order."""
    for always in _always_blocks(module):
        for node in always.body.walk():
            if isinstance(node, ast.Statement):
                yield node


def _assignments(module):
    for stmt in _statements(module):
        if isinstance(stmt, (ast.NonblockingAssign, ast.BlockingAssign)):
            yield stmt


def _sequential_targets(module):
    """Names assigned by nonblocking statements, with their always blocks."""
    targets = {}
    for always in _always_blocks(module):
        for node in always.body.walk():
            if isinstance(node, ast.NonblockingAssign):
                try:
                    for name in ast.lvalue_base_names(node.lhs):
                        targets.setdefault(name, always)
                except TypeError:
                    continue
    return targets


def _clock_names(module):
    """Signals used as edge triggers (never valid repair guards)."""
    names = set()
    for always in _always_blocks(module):
        for item in always.sens:
            if item.signal and item.edge is not ast.Edge.STAR:
                names.add(item.signal)
    return names


def _bit_signals(module):
    """All declared 1-bit scalars (ports + regs/wires), sorted."""
    names = []
    for port in module.ports:
        if port.bit_width == 1:
            names.append(port.name)
    for decl in module.declarations():
        if decl.bit_width == 1 and decl.array is None:
            names.append(decl.name)
    clocks = _clock_names(module)
    return sorted(set(names) - clocks)


def _guard_pool(module):
    """Candidate guard expressions: each 1-bit signal and its negation."""
    guards = []
    for name in _bit_signals(module):
        guards.append((name, lambda n=name: ast.Identifier(n)))
        guards.append(
            ("!" + name,
             lambda n=name: ast.UnaryOp("!", ast.Identifier(n)))
        )
    return guards


def _reset_values(module, target):
    """Constant RHS values assigned to *target* under the reset branch.

    The reset branch is the then-arm of a top-level ``if`` in an edge
    triggered always block — the idiomatic place initial values live.
    """
    values = []
    for always in _always_blocks(module):
        if always.is_combinational:
            continue
        body = always.body
        stmts = body.statements if isinstance(body, ast.Block) else [body]
        for stmt in stmts:
            if not isinstance(stmt, ast.If):
                continue
            for node in stmt.then_stmt.walk():
                if not isinstance(node, ast.NonblockingAssign):
                    continue
                try:
                    names = ast.lvalue_base_names(node.lhs)
                except TypeError:
                    continue
                if target in names and isinstance(node.rhs, ast.Number):
                    values.append(node.rhs)
    return values


def _const_int(expr):
    return expr.value if isinstance(expr, ast.Number) else None


def _iter_expr_slots(module):
    """Yield ``(parent, field, expr)`` for every expression position."""
    from dataclasses import fields as dc_fields

    def visit(node):
        for f in dc_fields(node):
            value = getattr(node, f.name)
            if isinstance(value, ast.Node):
                if isinstance(value, ast.Expression):
                    yield (node, f.name, value)
                yield from visit(value)
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, ast.Node):
                        if isinstance(item, ast.Expression):
                            yield (value, index, item)
                        yield from visit(item)

    for item in module.items:
        yield from visit(item)


def _set_slot(log, parent, slot, value):
    """Write ``parent.slot`` (``parent[slot]`` for a statement list) and
    record the old value on *log*, so :func:`_undo` can put it back."""
    if isinstance(parent, list):
        log.append((parent, slot, parent[slot]))
        parent[slot] = value
    else:
        log.append((parent, slot, getattr(parent, slot)))
        setattr(parent, slot, value)


def _undo(log):
    """Restore every slot *log* recorded, newest write first."""
    while log:
        parent, slot, old = log.pop()
        if isinstance(parent, list):
            parent[slot] = old
        else:
            setattr(parent, slot, old)


def _stmt_slots(module):
    """Every statement position that can be wrapped/replaced:
    ``(parent, slot, stmt)`` where parent is a Block statement list, an
    If (then_stmt/else_stmt), a CaseItem (stmt), or an Always (body).
    """
    slots = []

    def visit_stmt(stmt):
        if isinstance(stmt, ast.Block):
            for index, child in enumerate(stmt.statements):
                slots.append((stmt.statements, index, child))
                visit_stmt(child)
        elif isinstance(stmt, ast.If):
            slots.append((stmt, "then_stmt", stmt.then_stmt))
            visit_stmt(stmt.then_stmt)
            if stmt.else_stmt is not None:
                slots.append((stmt, "else_stmt", stmt.else_stmt))
                visit_stmt(stmt.else_stmt)
        elif isinstance(stmt, ast.Case):
            for item in stmt.items:
                slots.append((item, "stmt", item.stmt))
                visit_stmt(item.stmt)
        elif isinstance(stmt, ast.For):
            visit_stmt(stmt.body)

    for always in _always_blocks(module):
        visit_stmt(always.body)
    return slots


def _lhs_names(stmt):
    try:
        return ast.lvalue_base_names(stmt.lhs)
    except (TypeError, AttributeError):
        return []


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------


def t_replace_literals(module, ctx, maps):
    """Replace integer literals with nearby values; fix SizeCast widths."""
    edits = []
    seen = set()
    for parent, slot, expr in _iter_expr_slots(module):
        if isinstance(expr, ast.SizeCast):
            # Candidate widths: the declared width of any identifier in
            # the cast operand (cast-before-shift truncation, D5-style)
            # and double the current width.
            widths = []
            for name in sorted(node_signals(expr.expr)):
                decl = module.find_declaration(name)
                if decl is not None and decl.width is not None:
                    widths.append(decl.width.bits())
                for port in module.ports:
                    if port.name == name and port.width is not None:
                        widths.append(port.bit_width)
            widths.append(expr.width * 2)
            anchor = anchor_of(maps, expr)
            for width in sorted(set(widths)):
                if width == expr.width:
                    continue
                key = (id(expr), "cast", width)
                if key in seen:
                    continue
                seen.add(key)
                edits.append(RepairEdit(
                    description="size cast %d'(...) -> %d'(...)"
                    % (expr.width, width),
                    apply=(lambda log, e=expr, w=width:
                           _set_slot(log, e, "width", w)),
                    anchor=anchor,
                    signal=_first_signal(anchor, ctx),
                ))
            continue
        if not isinstance(expr, ast.Number):
            continue
        if isinstance(parent, ast.Width):
            continue  # declaration widths belong to widen_synchronizer
        anchor = anchor_of(maps, expr)
        for value in (expr.value - 1, expr.value + 1):
            if value < 0:
                continue
            edits.append(RepairEdit(
                description="literal %s -> %d" % (expr, value),
                apply=(lambda log, e=expr, v=value:
                       _set_slot(log, e, "value", v)),
                anchor=anchor,
                signal=_first_signal(anchor, ctx),
            ))
    return edits


def t_shift_partselect(module, ctx, maps):
    """Shift a constant part select by its own width (misindexing)."""
    edits = []
    for _parent, _slot, expr in _iter_expr_slots(module):
        if not isinstance(expr, ast.PartSelect):
            continue
        msb, lsb = _const_int(expr.msb), _const_int(expr.lsb)
        if msb is None or lsb is None or msb < lsb:
            continue
        width = msb - lsb + 1
        anchor = anchor_of(maps, expr)
        for delta in (-width, width):
            if lsb + delta < 0:
                continue
            edits.append(RepairEdit(
                description="part select [%d:%d] -> [%d:%d]"
                % (msb, lsb, msb + delta, lsb + delta),
                apply=(lambda log, e=expr, d=delta: (
                    _set_slot(log, e.msb, "value", e.msb.value + d),
                    _set_slot(log, e.lsb, "value", e.lsb.value + d),
                )),
                anchor=anchor,
                signal=_first_signal(anchor, ctx),
            ))
    return edits


def t_swap_partselect_pair(module, ctx, maps):
    """Swap the ranges of two part-select writes to the same base.

    The endianness-mismatch shape (D9): ``resp[7:0] <= a`` in one case
    arm and ``resp[15:8] <= b`` in another — swapping which half each
    write fills flips the byte order.
    """
    writes = {}
    for stmt in _assignments(module):
        lhs = stmt.lhs
        if not isinstance(lhs, ast.PartSelect):
            continue
        if not isinstance(lhs.var, ast.Identifier):
            continue
        msb, lsb = _const_int(lhs.msb), _const_int(lhs.lsb)
        if msb is None or lsb is None:
            continue
        writes.setdefault(lhs.var.name, []).append((stmt, msb, lsb))
    edits = []
    for name in sorted(writes):
        entries = writes[name]
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                stmt_a, msb_a, lsb_a = entries[i]
                stmt_b, msb_b, lsb_b = entries[j]
                if (msb_a, lsb_a) == (msb_b, lsb_b):
                    continue
                anchor = MutationAnchor(
                    lines=(anchor_of(maps, stmt_a).lines
                           | anchor_of(maps, stmt_b).lines),
                    signals=(anchor_of(maps, stmt_a).signals
                             | anchor_of(maps, stmt_b).signals),
                )
                edits.append(RepairEdit(
                    description="swap %s[%d:%d] and %s[%d:%d] writes"
                    % (name, msb_a, lsb_a, name, msb_b, lsb_b),
                    apply=(lambda log, a=stmt_a, b=stmt_b:
                           _swap_ranges(log, a.lhs, b.lhs)),
                    anchor=anchor,
                    signal=name,
                ))
    return edits


def _swap_ranges(log, lhs_a, lhs_b):
    msb_a, lsb_a = lhs_a.msb, lhs_a.lsb
    _set_slot(log, lhs_a, "msb", lhs_b.msb)
    _set_slot(log, lhs_a, "lsb", lhs_b.lsb)
    _set_slot(log, lhs_b, "msb", msb_a)
    _set_slot(log, lhs_b, "lsb", lsb_a)


def t_widen_synchronizer(module, ctx, maps):
    """Widen a register or deepen a buffer (truncation / overflow).

    Variants: +1 bit on a scalar width, +1 / x2 entries on a memory
    array (all arrays of the same depth grow together — parallel flag
    arrays must track the data array), and x2 on an integer instance
    parameter (an IP FIFO's LPM_NUMWORDS).
    """
    edits = []
    port_names = set(module.port_map())
    by_depth = {}
    for decl in module.declarations():
        if decl.array is not None:
            depth = decl.array_depth
            by_depth.setdefault(depth, []).append(decl)
    for decl in module.declarations():
        anchor = MutationAnchor(
            lines=frozenset({decl.lineno}),
            signals=frozenset({decl.name}),
        )
        if decl.array is not None:
            depth = decl.array_depth
            group = by_depth[depth]
            for new_depth in (depth + 1, depth * 2):
                edits.append(RepairEdit(
                    description="deepen %s [%d entries] -> [%d entries]"
                    % (
                        "/".join(d.name for d in group),
                        depth, new_depth,
                    ),
                    apply=(lambda log, g=tuple(group), n=new_depth:
                           [_set_span(log, d.array, n) for d in g]),
                    anchor=MutationAnchor(
                        lines=frozenset(d.lineno for d in group),
                        signals=frozenset(d.name for d in group),
                    ),
                    signal=decl.name,
                ))
        elif (
            decl.width is not None
            and decl.kind is not ast.NetKind.INTEGER
            and decl.name not in port_names  # widening a port changes the interface
        ):
            bits = decl.width.bits()
            edits.append(RepairEdit(
                description="widen %s [%d bits] -> [%d bits]"
                % (decl.name, bits, bits + 1),
                apply=(lambda log, d=decl:
                       _set_span(log, d.width, d.width.bits() + 1)),
                anchor=anchor,
                signal=decl.name,
            ))
    for item in module.items:
        if not isinstance(item, ast.Instance):
            continue
        for override in item.params:
            value = _const_int(override.value)
            if value is None or value <= 1:
                continue
            edits.append(RepairEdit(
                description="instance %s: %s %d -> %d"
                % (item.instance_name, override.name, value, value * 2),
                apply=(lambda log, o=override, v=value * 2:
                       _set_slot(log, o.value, "value", v)),
                anchor=MutationAnchor(
                    lines=frozenset({item.lineno}),
                    signals=frozenset({item.instance_name}),
                ),
                signal=item.instance_name,
            ))
    return edits


def _set_span(log, bounds, count):
    """Rewrite a constant ``[msb:lsb]`` range (a width, or an array's
    bounds) to span *count* entries, keeping its order."""
    msb, lsb = bounds.msb, bounds.lsb
    if isinstance(msb, ast.Number) and isinstance(lsb, ast.Number):
        if msb.value >= lsb.value:
            _set_slot(log, msb, "value", lsb.value + count - 1)
        else:
            _set_slot(log, lsb, "value", msb.value + count - 1)


def t_assign_const(module, ctx, maps):
    """Replace an assignment's RHS with the constant 0 or 1."""
    edits = []
    targets = list(_assignments(module))
    targets.extend(
        item for item in module.items
        if isinstance(item, ast.ContinuousAssign)
    )
    for stmt in targets:
        anchor = anchor_of(maps, stmt)
        names = _lhs_names(stmt)
        for value in (0, 1):
            if isinstance(stmt.rhs, ast.Number) and stmt.rhs.value == value:
                continue
            edits.append(RepairEdit(
                description="%s <= const %d"
                % ("/".join(names) or "?", value),
                apply=(lambda log, s=stmt, v=value:
                       _set_slot(log, s, "rhs", ast.Number(v))),
                anchor=anchor,
                signal=names[0] if names else "",
            ))
    return edits


def t_invert_condition(module, ctx, maps):
    """Invert (or un-invert) an if/ternary condition."""
    edits = []
    for _parent, _slot, expr in _iter_expr_slots(module):
        conds = []
        if isinstance(expr, ast.Ternary):
            conds.append(("cond", expr.cond))
        if not conds:
            continue
        for slot, cond in conds:
            edits.append(_invert_edit(expr, slot, cond, ctx, maps))
    for stmt in _statements(module):
        if isinstance(stmt, ast.If):
            edits.append(_invert_edit(stmt, "cond", stmt.cond, ctx, maps))
    return [e for e in edits if e is not None]


def _invert_edit(owner, slot, cond, ctx, maps):
    anchor = anchor_of(maps, cond)
    if isinstance(cond, ast.UnaryOp) and cond.op == "!":
        return RepairEdit(
            description="condition !(%s) -> un-negated"
            % _expr_label(cond.operand),
            apply=(lambda log, o=owner, s=slot, c=cond:
                   _set_slot(log, o, s, c.operand)),
            anchor=anchor,
            signal=_first_signal(anchor, ctx),
        )
    return RepairEdit(
        description="invert condition (%s)" % _expr_label(cond),
        apply=(lambda log, o=owner, s=slot, c=cond:
               _set_slot(log, o, s, ast.UnaryOp("!", c))),
        anchor=anchor,
        signal=_first_signal(anchor, ctx),
    )


def t_drop_conjunct(module, ctx, maps):
    """Drop one term of an ``&&`` condition (circular-handshake breaker)."""
    edits = []
    for stmt in _statements(module):
        if not isinstance(stmt, ast.If):
            continue
        cond = stmt.cond
        if not (isinstance(cond, ast.BinaryOp) and cond.op == "&&"):
            continue
        anchor = anchor_of(maps, cond)
        for keep, dropped in (
            (cond.left, cond.right), (cond.right, cond.left)
        ):
            edits.append(RepairEdit(
                description="drop conjunct (%s) from (%s)"
                % (_expr_label(dropped), _expr_label(cond)),
                apply=(lambda log, s=stmt, k=keep:
                       _set_slot(log, s, "cond", k)),
                anchor=anchor,
                signal=_first_signal(anchor, ctx),
            ))
    return edits


def t_swap_blocking(module, ctx, maps):
    """Swap a blocking assignment for nonblocking (and vice versa)."""
    edits = []
    for parent, slot, stmt in _stmt_slots(module):
        if isinstance(stmt, ast.NonblockingAssign):
            new_cls, label = ast.BlockingAssign, "nonblocking -> blocking"
        elif isinstance(stmt, ast.BlockingAssign):
            new_cls, label = ast.NonblockingAssign, "blocking -> nonblocking"
        else:
            continue
        anchor = anchor_of(maps, stmt)
        names = _lhs_names(stmt)
        edits.append(RepairEdit(
            description="%s on %s" % (label, "/".join(names) or "?"),
            apply=(lambda log, p=parent, sl=slot, s=stmt, c=new_cls:
                   _set_slot(log, p, sl, c(
                       lhs=s.lhs, rhs=s.rhs,
                       lineno=s.lineno, col=s.col,
                   ))),
            anchor=anchor,
            signal=names[0] if names else "",
        ))
    return edits


def t_replace_rhs(module, ctx, maps):
    """Re-source a constant continuous assign from a live 1-bit signal.

    The stuck-backpressure shape (C2, D3): ``assign ready = 1`` never
    throttles the producer; the repair drives it from occupancy state
    (``assign ready = !pending``).
    """
    edits = []
    pool = _guard_pool(module)
    for item in module.items:
        if not isinstance(item, ast.ContinuousAssign):
            continue
        if not isinstance(item.rhs, ast.Number):
            continue
        names = _lhs_names(item)
        anchor = MutationAnchor(
            lines=frozenset({item.lineno}),
            signals=frozenset(names),
        )
        for label, make in pool:
            if label.lstrip("!") in names:
                continue
            edits.append(RepairEdit(
                description="assign %s = %s"
                % ("/".join(names) or "?", label),
                apply=(lambda log, i=item, m=make:
                       _set_slot(log, i, "rhs", m())),
                anchor=anchor,
                signal=names[0] if names else "",
            ))
    return edits


def t_add_guard(module, ctx, maps):
    """Guard a statement or strengthen a condition with a 1-bit signal.

    Three shapes: wrap a statement in ``if (g) ...``, strengthen an
    existing ``if (c)`` to ``if (c && g)``, and strengthen a 1-bit
    assignment's RHS to ``rhs && g`` (control pulses that must also
    respect *g* without holding their old value).
    """
    edits = []
    pool = _guard_pool(module)
    for parent, slot, stmt in _stmt_slots(module):
        anchor = anchor_of(maps, stmt)
        stmt_signals = node_signals(stmt)
        if isinstance(stmt, ast.If):
            for label, make in pool:
                if label.lstrip("!") in stmt_signals and "!" not in label:
                    continue  # `if (c && c)` is a no-op shape
                edits.append(RepairEdit(
                    description="strengthen if (%s) with && %s"
                    % (_expr_label(stmt.cond), label),
                    apply=(lambda log, s=stmt, m=make:
                           _set_slot(log, s, "cond",
                                     ast.BinaryOp("&&", s.cond, m()))),
                    anchor=anchor,
                    signal=_first_signal(anchor, ctx),
                ))
        elif isinstance(
            stmt, (ast.NonblockingAssign, ast.BlockingAssign, ast.Block)
        ):
            if isinstance(stmt, ast.Block) and isinstance(parent, list):
                continue  # whole case arms / if branches only, not nested blocks
            names = _lhs_names(stmt)
            for label, make in pool:
                if label.lstrip("!") in names:
                    continue
                edits.append(RepairEdit(
                    description="guard %s with if (%s)"
                    % ("/".join(names) or "case arm", label),
                    apply=(lambda log, p=parent, sl=slot, s=stmt, m=make:
                           _set_slot(log, p, sl,
                                     ast.If(cond=m(), then_stmt=s))),
                    anchor=anchor,
                    signal=names[0] if names else _first_signal(anchor, ctx),
                ))
            if isinstance(stmt, (ast.NonblockingAssign, ast.BlockingAssign)):
                for label, make in pool:
                    if label.lstrip("!") in names:
                        continue
                    edits.append(RepairEdit(
                        description="strengthen %s rhs with && %s"
                        % ("/".join(names) or "?", label),
                        apply=(lambda log, s=stmt, m=make:
                               _set_slot(log, s, "rhs",
                                         ast.BinaryOp("&&", s.rhs, m()))),
                        anchor=anchor,
                        signal=names[0] if names else "",
                    ))
    return edits


def t_conditional_overwrite(module, ctx, maps):
    """Append ``if (g) R <= V;`` so a guard re-initializes a register.

    The failure-to-update family (D10-D13): a register that should be
    re-seeded on some control event never is. Values come from the
    register's reset-branch constants plus 0 and 1; the overwrite lands
    at the end of the driving always block's non-reset branch, winning
    last-assignment priority.
    """
    edits = []
    pool = _guard_pool(module)
    targets = _sequential_targets(module)
    for name in sorted(targets):
        always = targets[name]
        block = _overwrite_block(always)
        if block is None:
            continue
        values = []
        for number in _reset_values(module, name):
            values.append((str(number), number))
        for value in (0, 1):
            if not any(
                isinstance(v, ast.Number) and v.value == value
                for _, v in values
            ):
                values.append((str(value), ast.Number(value)))
        anchor = MutationAnchor(
            lines=frozenset({always.lineno}),
            signals=frozenset({name}),
        )
        for g_label, g_make in pool:
            if g_label.lstrip("!") == name:
                continue
            for v_label, v_expr in values:
                edits.append(RepairEdit(
                    description="append if (%s) %s <= %s"
                    % (g_label, name, v_label),
                    apply=(lambda log, b=block, g=g_make, n=name, v=v_expr:
                           _set_slot(log, b, "statements", b.statements + [
                               ast.If(
                                   cond=g(),
                                   then_stmt=ast.NonblockingAssign(
                                       lhs=ast.Identifier(n),
                                       rhs=copy.deepcopy(v),
                                   ),
                               ),
                           ])),
                    anchor=anchor,
                    signal=name,
                ))
    return edits


def _overwrite_block(always):
    """The block a conditional overwrite appends to: the non-reset arm
    of a top-level reset ``if``, else the always body itself."""
    body = always.body
    if isinstance(body, ast.Block) and len(body.statements) == 1:
        only = body.statements[0]
        if isinstance(only, ast.If) and isinstance(only.else_stmt, ast.Block):
            return only.else_stmt
    if isinstance(body, ast.Block):
        return body
    return None


# ---------------------------------------------------------------------------
# Registry + enumeration driver
# ---------------------------------------------------------------------------


#: Enumeration order: precise, single-node edits first; the generative
#: guard/overwrite families (large pools) last.
TEMPLATES = {
    "replace_literals": t_replace_literals,
    "shift_partselect": t_shift_partselect,
    "swap_partselect_pair": t_swap_partselect_pair,
    "widen_synchronizer": t_widen_synchronizer,
    "assign_const": t_assign_const,
    "invert_condition": t_invert_condition,
    "drop_conjunct": t_drop_conjunct,
    "swap_blocking": t_swap_blocking,
    "replace_rhs": t_replace_rhs,
    "add_guard": t_add_guard,
    "conditional_overwrite": t_conditional_overwrite,
}

TEMPLATE_NAMES = list(TEMPLATES)

#: Search tiers: tier 0 templates enumerate a handful of precise edits
#: per site; tier 1 templates are generative (every guard x every
#: value) and would flood the budget if interleaved by site rank alone.
#: The plan tries every tier-0 edit (any rank) before any tier-1 edit.
TEMPLATE_TIERS = {
    "add_guard": 1,
    "conditional_overwrite": 1,
}


def _expr_label(expr):
    from ..hdl import generate_expression

    try:
        text = generate_expression(expr)
    except Exception:
        text = str(expr)
    return text if len(text) <= 40 else text[:37] + "..."


def _first_signal(anchor, ctx):
    """The most site-relevant signal name an anchor carries."""
    ranked = [
        name for name in sorted(anchor.signals)
        if name in ctx.signal_ranks
    ]
    if ranked:
        return min(ranked, key=lambda n: (ctx.signal_ranks[n], n))
    return min(anchor.signals) if anchor.signals else ""


def resolve_sites(source, top, sites):
    """Distribute flattened site names over the modules they live in.

    A dotted name (``out_fifo.data``) follows one Instance level: when
    the instanced module is defined in *source* the local tail is
    charged to that module; when it is a blackbox IP the instance name
    itself becomes the site (widening an IP's parameters is the only
    edit possible there). Returns ``{module_name: SiteContext}`` for
    the top module and every source-defined module it instantiates.
    """
    modules = {top: source.find_module(top)}
    order = [top]
    queue = [top]
    module_map = source.module_map()
    while queue:
        name = queue.pop(0)
        for item in modules[name].items:
            if isinstance(item, ast.Instance):
                child = module_map.get(item.module_name)
                if child is not None and item.module_name not in modules:
                    modules[item.module_name] = child
                    order.append(item.module_name)
                    queue.append(item.module_name)
    contexts = {name: SiteContext() for name in order}

    def charge(module_name, signal, line, rank):
        ctx = contexts[module_name]
        if signal:
            prev = ctx.signal_ranks.get(signal)
            if prev is None or rank < prev:
                ctx.signal_ranks[signal] = rank
        if line:
            prev = ctx.line_ranks.get(line)
            if prev is None or rank < prev:
                ctx.line_ranks[line] = rank

    for site in sites:
        name = site.signal
        if name and "." in name:
            head, tail = name.split(".", 1)
            placed = False
            for item in modules[top].items:
                if isinstance(item, ast.Instance) and item.instance_name == head:
                    child = module_map.get(item.module_name)
                    if child is not None:
                        charge(item.module_name, tail, 0, site.rank)
                    else:
                        charge(top, head, 0, site.rank)  # blackbox IP
                    placed = True
                    break
            if not placed:
                charge(top, head, site.line, site.rank)
            if site.line:
                for module_name in order:
                    charge(module_name, "", site.line, site.rank)
            continue
        for module_name in order:
            charge(module_name, name if module_name == top else "",
                   site.line, site.rank)
    return order, contexts


class RepairPlan:
    """Every planned edit of one design, over one live AST.

    Built once per design: parse, resolve the sites, build the anchor
    maps and run each template, then sort the edits by ``(template
    tier, site_rank, template order, module order, edit index)`` — all
    precise edits first, best-localized first, then the generative
    guard/overwrite families in the same order. Each entry keeps its
    :class:`RepairEdit`, whose closures point into :attr:`tree`. A
    candidate is instantiated by applying that edit, rendering the tree
    with :func:`repro.hdl.generate_source` and undoing the edit, so the
    tree is pristine again before the next one.

    The plan does all three jobs a search needs: :attr:`planned` (the
    plan size), iteration (lazy candidates) and :meth:`instantiate`
    (lookup by ``candidate_id``).
    """

    def __init__(self, text, top, sites, templates=None, filename=""):
        self.tree = parse(text, filename=filename or "<input>")
        order, contexts = resolve_sites(self.tree, top, sites)
        # Anchor maps key nodes by id(), so they must describe the
        # pristine tree: build them before any edit runs.
        maps = build_anchor_maps(self.tree)
        #: The unedited design as the code generator renders it; an
        #: edit that renders to this text is a no-op.
        self.canonical = generate_source(self.tree)
        entries = []
        for t_index, t_name in enumerate(templates or TEMPLATE_NAMES):
            tier = TEMPLATE_TIERS.get(t_name, 0)
            for m_index, module_name in enumerate(order):
                ctx = contexts[module_name]
                module = self.tree.find_module(module_name)
                edits = TEMPLATES[t_name](module, ctx, maps)
                for e_index, edit in enumerate(edits):
                    rank = ctx.rank_of(edit.anchor)
                    entries.append((
                        (tier, rank, t_index, m_index, e_index),
                        "%s:%s:%d" % (t_name, module_name, e_index),
                        t_name, module_name, edit,
                    ))
        entries.sort(key=lambda entry: entry[0])
        self._entries = entries

    @property
    def planned(self):
        """Size of the full edit plan, no-op edits included."""
        return len(self._entries)

    def __iter__(self):
        """Candidates in plan order, each instantiated on demand; no-op
        edits (rendering to :attr:`canonical`) are skipped."""
        for entry in self._entries:
            candidate = self._instantiate(entry)
            if candidate is not None:
                yield candidate

    def instantiate(self, candidate_id):
        """Re-create one candidate by its stable id."""
        for entry in self._entries:
            if entry[1] == candidate_id:
                candidate = self._instantiate(entry)
                if candidate is not None:
                    return candidate
        raise KeyError("no candidate %r" % candidate_id)

    def _instantiate(self, entry):
        key, candidate_id, t_name, module_name, edit = entry
        log = []
        try:
            edit.apply(log)
            text = generate_source(self.tree)
        finally:
            _undo(log)
        if text == self.canonical:
            return None
        return RepairCandidate(
            candidate_id=candidate_id,
            template=t_name,
            module=module_name,
            description=edit.description,
            signal=edit.signal,
            site_rank=key[1],
            text=text,
        )


def enumerate_candidates(text, top, sites, templates=None, filename=""):
    """Plan every edit of *text* once; returns the :class:`RepairPlan`.

    Iterating the plan yields candidate patches in site-rank order,
    lazily: each is one edit applied to the plan's single live tree,
    rendered and undone, so a search with a budget of *N* pays for *N*
    renders however many edits the plan holds, and never re-parses.
    """
    return RepairPlan(text, top, sites, templates, filename)


def instantiate(text, top, sites, candidate_id, templates=None, filename=""):
    """Re-create one candidate's patched text by its stable id."""
    return enumerate_candidates(
        text, top, sites, templates, filename
    ).instantiate(candidate_id)
