"""The reference simulator: processes run by walking the AST every time.

:class:`ReferenceSimulator` shares :class:`~repro.sim.simulator.Simulator`'s
settle loop, clock edges and commit; it differs only in how it builds a
process callable. Where the simulator compiles each process into a Python
function (:mod:`repro.sim.compiler`), this class returns closures that
interpret the statements with :class:`~repro.sim.values.Evaluator`.

It is the reference the ``differential`` fuzz oracle and the equivalence
tests compare the compiled simulator against; no user-facing path builds
it.
"""

from __future__ import annotations

from ..hdl import ast_nodes as ast
from ..hdl.transform import const_eval
from .simulator import Simulator
from .values import (
    Evaluator,
    Overlay,
    SimulatorError,
    mask,
    read_array,
    write_array,
)


class ReferenceSimulator(Simulator):
    """:class:`Simulator` whose processes interpret the AST."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.evaluator = Evaluator(self.symbols)

    def _build_process(self, item):
        if isinstance(item, ast.Instance):
            model = self._ip_models[item.instance_name]

            def settle(state):
                array_writes = False
                for conn, value in self._ip_output_values(item, model):
                    array_writes |= self._comb_write(conn, value)
                return array_writes

            return settle, lambda state: self._ip_inputs_of(item, model)
        if isinstance(item, ast.ContinuousAssign):

            def assign(state):
                value = self.evaluator.eval(
                    item.rhs, self.state, self._lhs_width(item.lhs)
                )
                return self._comb_write(item.lhs, value)

            return assign
        if item.is_combinational:
            return lambda state: self._exec_comb(item.body)
        return lambda state, pending: self._exec_seq(
            item.body, Overlay(state), pending
        )

    # -- combinational -----------------------------------------------------

    def _comb_write(self, lhs, value):
        """Combinational write; returns True only for memory writes."""
        is_array = (
            isinstance(lhs, ast.Index)
            and isinstance(lhs.var, ast.Identifier)
            and self.symbols.is_array(lhs.var.name)
        )
        changed = self._write(lhs, value, self.state)
        return changed and is_array

    def _ip_output_values(self, inst, model):
        outputs = model.outputs(self._ip_inputs_of(inst, model))
        for conn in inst.ports:
            if conn.port in outputs and conn.expr is not None:
                yield conn.expr, outputs[conn.port]

    def _ip_inputs_of(self, inst, model):
        inputs = {}
        for conn in inst.ports:
            if conn.port in model.OUTPUT_PORTS or conn.expr is None:
                continue
            inputs[conn.port] = self.evaluator.eval(conn.expr, self.state)
        return inputs

    def _exec_comb(self, stmt):
        """Execute a combinational statement; returns True on array writes."""
        changed = False
        if isinstance(stmt, ast.Block):
            for inner in stmt.statements:
                changed |= self._exec_comb(inner)
            return changed
        if isinstance(stmt, (ast.BlockingAssign, ast.NonblockingAssign)):
            value = self.evaluator.eval(
                stmt.rhs, self.state, self._lhs_width(stmt.lhs)
            )
            return self._comb_write(stmt.lhs, value)
        if isinstance(stmt, ast.If):
            if self.evaluator.eval(stmt.cond, self.state):
                return self._exec_comb(stmt.then_stmt)
            if stmt.else_stmt is not None:
                return self._exec_comb(stmt.else_stmt)
            return False
        if isinstance(stmt, ast.Case):
            arm = self._select_case_arm(stmt, self.state)
            if arm is not None:
                return self._exec_comb(arm)
            return False
        if isinstance(stmt, ast.Finish):
            self.finished = True
            return False
        raise SimulatorError("unsupported combinational statement %r" % (stmt,))

    # -- clocked -------------------------------------------------------------

    def _exec_seq(self, stmt, overlay, pending):
        if isinstance(stmt, ast.Block):
            for inner in stmt.statements:
                self._exec_seq(inner, overlay, pending)
            return
        if isinstance(stmt, ast.BlockingAssign):
            value = self.evaluator.eval(stmt.rhs, overlay, self._lhs_width(stmt.lhs))
            self._write(stmt.lhs, value, overlay, blocking=True)
            return
        if isinstance(stmt, ast.NonblockingAssign):
            value = self.evaluator.eval(stmt.rhs, overlay, self._lhs_width(stmt.lhs))
            pending.append((self._commit_writer(stmt.lhs), value, overlay))
            return
        if isinstance(stmt, ast.If):
            if self.evaluator.eval(stmt.cond, overlay):
                self._exec_seq(stmt.then_stmt, overlay, pending)
            elif stmt.else_stmt is not None:
                self._exec_seq(stmt.else_stmt, overlay, pending)
            return
        if isinstance(stmt, ast.Case):
            arm = self._select_case_arm(stmt, overlay)
            if arm is not None:
                self._exec_seq(arm, overlay, pending)
            return
        if isinstance(stmt, ast.Display):
            values = [self.evaluator.eval(arg, overlay) for arg in stmt.args]
            self._emit_display(stmt.format, values, stmt.lineno, stmt.label)
            return
        if isinstance(stmt, ast.Finish):
            self.finished = True
            return
        raise SimulatorError("unsupported sequential statement %r" % (stmt,))

    def _commit_writer(self, lhs):
        # Index expressions in the lvalue are evaluated against the overlay
        # (pre-commit) state at commit time, per nonblocking semantics.
        def write(state, overlay, value):
            self._write(lhs, value, state, index_state=overlay)

        return write

    def _select_case_arm(self, stmt, state):
        subject = self.evaluator.eval(stmt.subject, state)
        default = None
        for item in stmt.items:
            if not item.labels:
                default = item.stmt
                continue
            for label in item.labels:
                if self.evaluator.eval(label, state) == subject:
                    return item.stmt
        return default

    # -- lvalues -------------------------------------------------------------

    def _lhs_width(self, lhs):
        symbols = self.symbols
        if isinstance(lhs, ast.Identifier):
            return symbols.width_of(lhs.name)
        if isinstance(lhs, ast.Index):
            base = ast.lvalue_base_name(lhs)
            if symbols.is_array(base) and isinstance(lhs.var, ast.Identifier):
                return symbols.width_of(base)
            return 1
        if isinstance(lhs, ast.PartSelect):
            return const_eval(lhs.msb) - const_eval(lhs.lsb) + 1
        if isinstance(lhs, ast.IndexedPartSelect):
            return const_eval(lhs.width)
        if isinstance(lhs, ast.Concat):
            return sum(self._lhs_width(p) for p in lhs.parts)
        raise SimulatorError("unsupported lvalue %r" % (lhs,))

    def _write(self, lhs, value, state, blocking=False, index_state=None):
        """Write *value* into *state* at lvalue *lhs*; returns True on change.

        ``index_state`` (defaults to *state*) is where lvalue index
        expressions are evaluated — for nonblocking commits these were
        captured pre-commit.
        """
        if index_state is None:
            index_state = state
        symbols = self.symbols
        if isinstance(lhs, ast.Identifier):
            name = lhs.name
            if symbols.is_array(name):
                raise SimulatorError("cannot assign whole memory %r" % name)
            new = value & mask(symbols.width_of(name))
            old = state[name]
            if blocking or isinstance(state, Overlay):
                state[name] = new
                return old != new
            if state[name] != new:
                state[name] = new
                return True
            return False
        if isinstance(lhs, ast.Index):
            base = ast.lvalue_base_name(lhs)
            index = self.evaluator.eval(lhs.index, index_state)
            if symbols.is_array(base) and isinstance(lhs.var, ast.Identifier):
                depth = symbols.depth_of(base)
                if isinstance(state, Overlay):
                    values = state.array(base)
                else:
                    values = state[base]
                new = value & mask(symbols.width_of(base))
                old = read_array(values, index, depth)
                landed = write_array(values, index, depth, new)
                return landed and old != new
            old = state[base]
            new = (old & ~(1 << index)) | ((value & 1) << index)
            state[base] = new & mask(symbols.width_of(base))
            return old != state[base]
        if isinstance(lhs, ast.PartSelect):
            base = ast.lvalue_base_name(lhs)
            msb = const_eval(lhs.msb)
            lsb = const_eval(lhs.lsb)
            width = msb - lsb + 1
            old = state[base]
            new = (old & ~(mask(width) << lsb)) | ((value & mask(width)) << lsb)
            new &= mask(symbols.width_of(base))
            state[base] = new
            return old != new
        if isinstance(lhs, ast.IndexedPartSelect):
            base = ast.lvalue_base_name(lhs)
            start = self.evaluator.eval(lhs.base, index_state)
            width = const_eval(lhs.width)
            lsb = start if lhs.ascending else start - width + 1
            if lsb < 0:
                return False
            old = state[base]
            new = (old & ~(mask(width) << lsb)) | ((value & mask(width)) << lsb)
            new &= mask(symbols.width_of(base))
            state[base] = new
            return old != new
        if isinstance(lhs, ast.Concat):
            changed = False
            shift = sum(self._lhs_width(p) for p in lhs.parts)
            for part in lhs.parts:
                width = self._lhs_width(part)
                shift -= width
                changed |= self._write(
                    part,
                    (value >> shift) & mask(width),
                    state,
                    blocking=blocking,
                    index_state=index_state,
                )
            return changed
        raise SimulatorError("unsupported lvalue %r" % (lhs,))
