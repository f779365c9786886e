"""Assignment and path-constraint extraction from elaborated designs.

Every tool in :mod:`repro.core` starts from the same static view of a flat
module: the list of assignments, each with the *path constraint* under which
it executes (the conjunction of enclosing ``if`` conditions and ``case``
label matches — §4.1 of the paper), plus the same view of ``$display``
statements.

:func:`collect_assignments` and :func:`collect_displays` produce these
records; :func:`condition_and`/:func:`condition_not` build the constraint
expressions that instrumentation re-emits as Verilog.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..hdl import ast_nodes as ast


def condition_and(left, right):
    """Conjunction of two (possibly None == always-true) conditions."""
    if left is None:
        return right
    if right is None:
        return left
    return ast.BinaryOp(op="&&", left=left, right=right)


def condition_or(left, right):
    """Disjunction of two (possibly None == always-true) conditions."""
    if left is None or right is None:
        return None
    return ast.BinaryOp(op="||", left=left, right=right)


def condition_not(cond):
    """Negation of a condition (None == always-true becomes constant 0)."""
    if cond is None:
        return ast.Number(value=0)
    return ast.UnaryOp(op="!", operand=cond)


def case_label_condition(subject, labels):
    """Condition expression for one case arm: ``subject == l0 || ...``."""
    cond = None
    for label in labels:
        eq = ast.BinaryOp(op="==", left=subject, right=label)
        cond = eq if cond is None else ast.BinaryOp(op="||", left=cond, right=eq)
    return cond


def expression_identifiers(expr):
    """All identifier names referenced by *expr* (in source order)."""
    names = []
    for node in expr.walk():
        if isinstance(node, ast.Identifier):
            names.append(node.name)
    return names


@dataclass
class AssignmentRecord:
    """One assignment with its execution context.

    ``condition`` is the path constraint (None == unconditional). For
    sequential assignments ``clock`` names the triggering clock signal.
    """

    lhs: ast.Expression
    rhs: ast.Expression
    target: str
    condition: Optional[ast.Expression]
    sequential: bool
    clock: Optional[str] = None
    lineno: int = 0
    blocking: bool = False
    #: Index of the always block this assignment lives in (-1 for
    #: continuous assigns). Lets flow checkers tell same-block
    #: last-write-wins ordering from cross-block write-write races.
    block: int = -1

    @property
    def data_sources(self):
        """Identifier names the assigned value is computed from."""
        return expression_identifiers(self.rhs) + self.index_sources

    @property
    def control_sources(self):
        """Identifier names the path constraint depends on."""
        if self.condition is None:
            return []
        return expression_identifiers(self.condition)

    @property
    def index_sources(self):
        """Identifier names that select where the value is stored."""
        names = []
        node = self.lhs
        while isinstance(node, (ast.Index, ast.IndexedPartSelect)):
            index = node.index if isinstance(node, ast.Index) else node.base
            names.extend(expression_identifiers(index))
            node = node.var
        return names


@dataclass
class DisplayRecord:
    """One ``$display`` with its path constraint and enclosing block info."""

    stmt: ast.Display
    condition: Optional[ast.Expression]
    clock: Optional[str]
    index: int = 0

    @property
    def argument_names(self):
        """Identifier names appearing in the display arguments."""
        names = []
        for arg in self.stmt.args:
            names.extend(expression_identifiers(arg))
        return names


@dataclass
class StaticView:
    """Static summary of a flat module used by all debugging tools."""

    module: ast.Module
    assignments: list = field(default_factory=list)
    displays: list = field(default_factory=list)

    def assignments_to(self, name):
        """All assignment records whose target is *name*."""
        return [a for a in self.assignments if a.target == name]

    def assignments_reading(self, name):
        """All assignment records whose rhs or condition reads *name*."""
        return [
            a
            for a in self.assignments
            if name in a.data_sources or name in a.control_sources
        ]


def _clock_of(always):
    for item in always.sens:
        if item.edge in (ast.Edge.POSEDGE, ast.Edge.NEGEDGE):
            return item.signal
    return None


class _Collector:
    def __init__(self, sequential, clock, block=-1):
        self.sequential = sequential
        self.clock = clock
        self.block = block
        self.assignments = []
        self.displays = []

    def visit(self, stmt, condition):
        if isinstance(stmt, ast.Block):
            for inner in stmt.statements:
                self.visit(inner, condition)
        elif isinstance(stmt, (ast.NonblockingAssign, ast.BlockingAssign)):
            for target in ast.lvalue_base_names(stmt.lhs):
                self.assignments.append(
                    AssignmentRecord(
                        lhs=stmt.lhs,
                        rhs=stmt.rhs,
                        target=target,
                        condition=condition,
                        sequential=self.sequential,
                        clock=self.clock,
                        lineno=stmt.lineno,
                        blocking=isinstance(stmt, ast.BlockingAssign),
                        block=self.block,
                    )
                )
        elif isinstance(stmt, ast.If):
            self.visit(stmt.then_stmt, condition_and(condition, stmt.cond))
            if stmt.else_stmt is not None:
                self.visit(
                    stmt.else_stmt, condition_and(condition, condition_not(stmt.cond))
                )
        elif isinstance(stmt, ast.Case):
            taken = None
            for item in stmt.items:
                if item.labels:
                    arm = case_label_condition(stmt.subject, item.labels)
                    guard = condition_and(
                        condition_not(taken) if taken is not None else None, arm
                    )
                    self.visit(item.stmt, condition_and(condition, guard))
                    taken = arm if taken is None else condition_or(taken, arm)
            for item in stmt.items:
                if not item.labels:
                    guard = condition_not(taken) if taken is not None else None
                    self.visit(item.stmt, condition_and(condition, guard))
        elif isinstance(stmt, ast.Display):
            self.displays.append(
                DisplayRecord(stmt=stmt, condition=condition, clock=self.clock)
            )
        elif isinstance(stmt, (ast.Finish,)):
            pass
        elif isinstance(stmt, ast.For):
            raise ValueError("for loops must be unrolled before analysis")
        else:
            raise TypeError("unsupported statement %r" % (stmt,))


def analyze_module(module):
    """Build the :class:`StaticView` for an elaborated flat module."""
    view = StaticView(module=module)
    block_index = 0
    for item in module.items:
        if isinstance(item, ast.ContinuousAssign):
            for target in ast.lvalue_base_names(item.lhs):
                view.assignments.append(
                    AssignmentRecord(
                        lhs=item.lhs,
                        rhs=item.rhs,
                        target=target,
                        condition=None,
                        sequential=False,
                        lineno=item.lineno,
                    )
                )
        elif isinstance(item, ast.Always):
            collector = _Collector(
                sequential=not item.is_combinational,
                clock=_clock_of(item),
                block=block_index,
            )
            block_index += 1
            collector.visit(item.body, None)
            view.assignments.extend(collector.assignments)
            view.displays.extend(collector.displays)
    for index, record in enumerate(view.displays):
        record.index = index
    return view


def collect_assignments(module):
    """All :class:`AssignmentRecord` of *module*."""
    return analyze_module(module).assignments


def collect_displays(module):
    """All :class:`DisplayRecord` of *module*."""
    return analyze_module(module).displays
