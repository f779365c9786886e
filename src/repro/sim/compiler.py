"""Process compilation: each simulator process becomes one Python function.

Every width, mask and array depth is static after elaboration, so at
:class:`~repro.sim.simulator.Simulator` construction each process — a
continuous assign, an ``always @(*)`` block, a clocked ``always`` block,
or a blackbox IP instance — is emitted once as the source of a single
Python function, with the two-state masking of
:mod:`repro.sim.values` baked in as constants. The simulator's settle
loop and clock edges then call these functions instead of walking the
AST, which removes the per-node dispatch, width recomputation and
statement recursion the interpreter repeats every cycle.

The generated code keeps the interpreter's semantics exactly
(:class:`~repro.sim.reference.ReferenceSimulator` is the reference the
tests and the ``differential`` fuzz oracle compare against):

* statements execute in the same order with the same blocking overlay
  and nonblocking commit (lvalue indices are evaluated at commit time,
  against the block's overlay);
* errors stay lazy: anything the interpreter would raise while executing
  a node (an undeclared signal, a memory used without an index, an
  unsupported statement or lvalue) is raised by the generated code at
  the same point, never at construction.

Only compiled code is cached: the stateless factory function that
``compile()`` and one ``exec`` make of a process's source, in a bounded
LRU keyed by that source text. Emission reruns on every construction,
so a changed AST always produces new source and can never hit stale
code.
"""

from __future__ import annotations

import functools
import weakref

from ..hdl import ast_nodes as ast
from ..hdl.transform import const_eval
from .values import (
    EvaluationError,
    Overlay,
    SimulatorError,
    mask,
    read_array,
    self_width,
    write_array,
)


def _div(left, right):
    return left // right if right else 0


def _mod(left, right):
    return left % right if right else 0


def _parity(value):
    return bin(value).count("1") & 1


def _raise(exc):
    raise exc.with_traceback(None)


def _write_array_changed(values, index, depth, value):
    """Array write for combinational logic: True if it landed and changed."""
    old = read_array(values, index, depth)
    return write_array(values, index, depth, value) and old != value


#: Globals visible to generated code.
_COMPILE_GLOBALS = {
    "_ra": read_array,
    "_wa": write_array,
    "_wac": _write_array_changed,
    "_div": _div,
    "_mod": _mod,
    "_parity": _parity,
    "_raise": _raise,
    "_Overlay": Overlay,
}

#: What the interpreter raises while executing a malformed node
#: (EvaluationError, SimulatorError and NotConstantError are ValueErrors;
#: lvalue_base_name raises TypeError). Emission defers these: the
#: generated code raises them when, and only if, that node executes.
_EXECUTION_ERRORS = (ValueError, TypeError)

#: Factories kept, keyed by source text. Fresh simulators of the same
#: designs (fault cases, repair candidates) hit it; a much larger cache
#: mostly adds resident memory.
_CACHE_SIZE = 256

#: Expression levels per generated function; deeper subtrees are moved
#: into a nested function so no function nests too many parentheses.
_EXPR_DEPTH = 20

#: Statement nesting per generated function, for the same reason.
_STMT_DEPTH = 40


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _factory(source):
    namespace = dict(_COMPILE_GLOBALS)
    exec(compile(source, "<repro.sim process>", "exec"), namespace)
    return namespace["_make"]


def _masked(source, m):
    """``source & m``, folded when *source* is a literal."""
    if source.isdigit():
        return repr(int(source) & m)
    return "%s & %d" % (source, m)


def lhs_width(lhs, symbols):
    """Assignment-context width of lvalue *lhs*."""
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
        return sum(lhs_width(p, symbols) for p in lhs.parts)
    raise SimulatorError("unsupported lvalue %r" % (lhs,))


def lvalue_names(item, kinds=(ast.BlockingAssign, ast.NonblockingAssign)):
    """Signals *item* writes through assigns of *kinds* (or continuous ones).

    Walks only the statement tree and the lvalues, so it stays cheap on
    large expressions.
    """
    kinds = (ast.ContinuousAssign,) + tuple(kinds)
    names = set()
    stack = [item]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Always):
            stack.append(node.body)
        elif isinstance(node, ast.Block):
            stack.extend(node.statements)
        elif isinstance(node, ast.If):
            stack += [node.then_stmt, node.else_stmt]
        elif isinstance(node, ast.Case):
            stack.extend(arm.stmt for arm in node.items)
        elif isinstance(node, kinds):
            lvalues = [node.lhs]
            while lvalues:
                lhs = lvalues.pop()
                if isinstance(lhs, ast.Identifier):
                    names.add(lhs.name)
                elif isinstance(lhs, ast.Concat):
                    lvalues.extend(lhs.parts)
                elif isinstance(
                    lhs, (ast.Index, ast.PartSelect, ast.IndexedPartSelect)
                ):
                    lvalues.append(lhs.var)
    return names


def compile_process(sim, item):
    """Build the callable for one process of *sim*.

    Returns ``fn(state) -> bool`` (True on a changed memory write) for a
    combinational item, ``fn(state, pending)`` for a clocked block, and
    ``(settle_fn, inputs_fn)`` for a blackbox instance.
    """
    model = None
    if isinstance(item, ast.Instance):
        model = sim.ip_model(item.instance_name)
        compiler = _Compiler(sim.symbols)
        source = compiler.instance(item, model)
    elif isinstance(item, ast.ContinuousAssign) or item.is_combinational:
        compiler = _Compiler(sim.symbols)
        source = compiler.comb(item)
    else:
        blocking = lvalue_names(item.body, (ast.BlockingAssign,))
        compiler = _Compiler(sim.symbols, overlaid=blocking)
        source = compiler.clocked(item)
    # A proxy, so the simulator and its processes form no reference cycle
    # and a dropped simulator is freed at once.
    return _factory(source)(weakref.proxy(sim), compiler.consts, model)


class _Compiler:
    """Translates one process (and its expressions) into Python source.

    Generated functions read committed state from ``s``; in clocked
    blocks, names with blocking writes read through the overlay ``o``.
    Objects the source cannot spell as literals (deferred exceptions)
    live in ``K``, passed to the factory at build time.
    """

    def __init__(self, symbols, overlaid=()):
        self.symbols = symbols
        self.overlaid = frozenset(overlaid)
        self.consts = []
        self.comb_mode = True
        self._helpers = []
        self._lines = []
        self._indent = 0
        self._expr_depth = 0
        self._stmt_depth = 0
        self._temps = 0
        self._tracks_arrays = False

    # -- source assembly -----------------------------------------------------

    def _const(self, value):
        self.consts.append(value)
        return "K[%d]" % (len(self.consts) - 1)

    def _temp(self, prefix="_t"):
        self._temps += 1
        return "%s%d" % (prefix, self._temps)

    def _line(self, text):
        self._lines.append("    " * self._indent + text)

    def _raise_line(self, exc):
        self._line("_raise(%s)" % self._const(exc))

    def _function(self, header, body_fn):
        """Emit ``def header:`` around *body_fn*'s lines; return them."""
        saved = self._lines, self._indent, self._stmt_depth
        self._lines, self._indent, self._stmt_depth = [], 1, 0
        body_fn()
        lines = ["def %s:" % header] + (self._lines or ["    pass"])
        self._lines, self._indent, self._stmt_depth = saved
        return lines

    def _module(self, main_lines, returns):
        out = ["def _make(sim, K, model):"]
        for line in self._helpers + main_lines:
            out.append("    " + line)
        out.append("    return " + returns)
        return "\n".join(out) + "\n"

    # -- processes -----------------------------------------------------------

    def comb(self, item):
        """Source for a continuous assign or ``always @(*)`` block."""

        def body():
            if isinstance(item, ast.ContinuousAssign):
                self._assign(item)
            else:
                self._stmt(item.body)

        lines = self._function("_p(s, o=None, pend=None)", body)
        if self._tracks_arrays:
            lines.insert(1, "    aw = False")
            lines.append("    return aw")
        else:
            lines.append("    return False")
        return self._module(lines, "_p")

    def clocked(self, block):
        """Source for a clocked ``always`` block: ``_p(s, pend)``."""
        self.comb_mode = False

        def body():
            self._line("o = _Overlay(s)" if self.overlaid else "o = None")
            self._stmt(block.body)

        return self._module(self._function("_p(s, pend)", body), "_p")

    def instance(self, inst, model):
        """Source for a blackbox instance: ``(_p, _in)``.

        ``_p`` drives the model's outputs onto their connections in the
        settle loop; ``_in`` evaluates its inputs for a clock edge.
        """
        inputs = [
            (conn.port, conn.expr)
            for conn in inst.ports
            if conn.port not in model.OUTPUT_PORTS and conn.expr is not None
        ]

        def input_dict():
            return "{%s}" % ", ".join(
                "%r: %s" % (port, self.emit(expr)) for port, expr in inputs
            )

        def settle_body():
            self._line("aw = False")
            self._line("out = model.outputs(%s)" % input_dict())
            for conn in inst.ports:
                if conn.expr is None:
                    continue
                self._line("if %r in out:" % conn.port)
                self._indent += 1
                self._write(conn.expr, "out[%r]" % conn.port, "s", top=True)
                self._indent -= 1
            self._line("return aw")

        def inputs_body():
            self._line("return " + input_dict())

        lines = self._function("_p(s, o=None, pend=None)", settle_body)
        lines += self._function("_in(s, o=None)", inputs_body)
        return self._module(lines, "_p, _in")

    # -- statements ------------------------------------------------------------

    def _suite(self, stmt):
        self._indent += 1
        start = len(self._lines)
        self._stmt(stmt)
        if len(self._lines) == start:
            self._line("pass")
        self._indent -= 1

    def _stmt(self, stmt):
        if self._stmt_depth >= _STMT_DEPTH:
            self._hoist_stmt(stmt)
            return
        self._stmt_depth += 1
        try:
            self._stmt_inner(stmt)
        finally:
            self._stmt_depth -= 1

    def _hoist_stmt(self, stmt):
        name = self._temp("_s")

        def body():
            self._line("aw = False")
            self._stmt(stmt)
            self._line("return aw")

        self._helpers += self._function("%s(s, o, pend)" % name, body)
        if self.comb_mode:
            self._tracks_arrays = True
            self._line("if %s(s, o, pend):" % name)
            self._line("    aw = True")
        else:
            self._line("%s(s, o, pend)" % name)

    def _stmt_inner(self, stmt):
        if isinstance(stmt, ast.Block):
            for inner in stmt.statements:
                self._stmt(inner)
        elif isinstance(stmt, (ast.BlockingAssign, ast.NonblockingAssign)):
            self._assign(stmt)
        elif isinstance(stmt, ast.If):
            self._if(stmt)
        elif isinstance(stmt, ast.Case):
            self._case(stmt)
        elif isinstance(stmt, ast.Display) and not self.comb_mode:
            self._line(
                "sim._emit_display(%r, [%s], %r, %r)"
                % (
                    stmt.format,
                    ", ".join(self.emit(arg) for arg in stmt.args),
                    stmt.lineno,
                    stmt.label,
                )
            )
        elif isinstance(stmt, ast.Finish):
            self._line("sim.finished = True")
        else:
            self._raise_line(
                SimulatorError(
                    "unsupported %s statement %r"
                    % ("combinational" if self.comb_mode else "sequential", stmt)
                )
            )

    def _if(self, stmt):
        self._line("if %s:" % self.emit(stmt.cond))
        self._suite(stmt.then_stmt)
        other = stmt.else_stmt
        while True:
            if (
                isinstance(other, ast.Block)
                and len(other.statements) == 1
                and isinstance(other.statements[0], ast.If)
            ):
                other = other.statements[0]
            if not isinstance(other, ast.If):
                break
            self._line("elif %s:" % self.emit(other.cond))
            self._suite(other.then_stmt)
            other = other.else_stmt
        if other is not None:
            self._line("else:")
            self._suite(other)

    def _case(self, stmt):
        subject = self._temp("_c")
        self._line("%s = %s" % (subject, self.emit(stmt.subject)))
        keyword = "if"
        default = None
        for item in stmt.items:
            if not item.labels:
                default = item.stmt
                continue
            test = " or ".join(
                "%s == (%s)" % (subject, self.emit(label)) for label in item.labels
            )
            self._line("%s %s:" % (keyword, test))
            # A matching arm without a statement does nothing.
            self._suite(ast.Block() if item.stmt is None else item.stmt)
            keyword = "elif"
        if default is not None:
            if keyword == "if":
                self._stmt(default)
            else:
                self._line("else:")
                self._suite(default)

    def _assign(self, stmt):
        try:
            ctx_width = lhs_width(stmt.lhs, self.symbols)
        except _EXECUTION_ERRORS as exc:
            self._raise_line(exc)
            return
        rhs = self.emit(stmt.rhs, ctx_width)
        lhs = stmt.lhs
        scalar = (
            isinstance(lhs, ast.Identifier)
            and lhs.name in self.symbols.widths
            and not self.symbols.is_array(lhs.name)
        )
        if not self.comb_mode and isinstance(stmt, ast.NonblockingAssign):
            if scalar:
                # Committed by Simulator._commit as a plain store.
                self._line(
                    "pend.append((%r, %s, o))"
                    % (lhs.name, _masked(rhs, mask(ctx_width)))
                )
                return
            writer = self._temp("_w")
            self._helpers += self._function(
                "%s(s, o, v)" % writer, lambda: self._write(lhs, "v", "s")
            )
            self._line("pend.append((%s, %s, o))" % (writer, rhs))
            return
        target = "s" if self.comb_mode else "o"
        if scalar:
            self._write(lhs, rhs, target)
            return
        value = self._temp("_v")
        self._line("%s = %s" % (value, rhs))
        self._write(lhs, value, target, top=self.comb_mode)

    # -- lvalues ---------------------------------------------------------------

    def _write(self, lhs, value, target, top=False):
        """Emit a write of *value* (a pure source expression) at *lhs*.

        *target* is ``s`` or the overlay ``o``; lvalue indices read through
        the same rule as expressions. With *top*, a changed memory write
        sets the combinational ``aw`` flag.
        """
        symbols = self.symbols
        if isinstance(lhs, ast.Identifier):
            name = lhs.name
            if symbols.is_array(name):
                self._raise_line(
                    SimulatorError("cannot assign whole memory %r" % name)
                )
                return
            try:
                m = mask(symbols.width_of(name))
            except _EXECUTION_ERRORS as exc:
                self._raise_line(exc)
                return
            self._line("%s[%r] = %s" % (target, name, _masked(value, m)))
            return
        if isinstance(lhs, ast.Index):
            try:
                base = ast.lvalue_base_name(lhs)
            except _EXECUTION_ERRORS as exc:
                self._raise_line(exc)
                return
            index = self._temp("_i")
            self._line("%s = %s" % (index, self.emit(lhs.index)))
            if symbols.is_array(base) and isinstance(lhs.var, ast.Identifier):
                values = (
                    "o.array(%r)" % base if target == "o" else "s[%r]" % base
                )
                args = "%s, %s, %d, %s & %d" % (
                    values,
                    index,
                    symbols.depth_of(base),
                    value,
                    mask(symbols.width_of(base)),
                )
                if top:
                    self._tracks_arrays = True
                    self._line("if _wac(%s):" % args)
                    self._line("    aw = True")
                else:
                    self._line("_wa(%s)" % args)
                return
            old = self._temp("_o")
            self._line("%s = %s[%r]" % (old, target, base))
            new = "(%s & ~(1 << %s)) | ((%s & 1) << %s)" % (old, index, value, index)
            try:
                m = mask(symbols.width_of(base))
            except _EXECUTION_ERRORS as exc:
                self._line(new)
                self._raise_line(exc)
                return
            self._line("%s[%r] = (%s) & %d" % (target, base, new, m))
            return
        if isinstance(lhs, ast.PartSelect):
            try:
                base = ast.lvalue_base_name(lhs)
                msb = const_eval(lhs.msb)
                lsb = const_eval(lhs.lsb)
            except _EXECUTION_ERRORS as exc:
                self._raise_line(exc)
                return
            self._splice(base, lsb, repr(lsb), msb - lsb + 1, value, target)
            return
        if isinstance(lhs, ast.IndexedPartSelect):
            try:
                base = ast.lvalue_base_name(lhs)
            except _EXECUTION_ERRORS as exc:
                self._raise_line(exc)
                return
            start = self._temp("_l")
            self._line("%s = %s" % (start, self.emit(lhs.base)))
            try:
                width = const_eval(lhs.width)
            except _EXECUTION_ERRORS as exc:
                self._raise_line(exc)
                return
            if not lhs.ascending:
                self._line("%s -= %d" % (start, width - 1))
            self._line("if %s >= 0:" % start)
            self._indent += 1
            self._splice(base, None, start, width, value, target)
            self._indent -= 1
            return
        if isinstance(lhs, ast.Concat):
            try:
                widths = [lhs_width(part, symbols) for part in lhs.parts]
            except _EXECUTION_ERRORS as exc:
                self._raise_line(exc)
                return
            whole = self._temp("_v")
            self._line("%s = %s" % (whole, value))
            shift = sum(widths)
            for part, width in zip(lhs.parts, widths):
                shift -= width
                try:
                    m = mask(width)
                except _EXECUTION_ERRORS as exc:
                    self._raise_line(exc)
                    return
                self._write(part, "((%s >> %d) & %d)" % (whole, shift, m), target)
            return
        self._raise_line(SimulatorError("unsupported lvalue %r" % (lhs,)))

    def _splice(self, base, lsb, lsb_source, width, value, target):
        """Write *width* bits of *value* into *base* at *lsb_source*.

        *lsb* is the constant shift, or None when it is only known at run
        time (indexed part selects).
        """
        old = self._temp("_o")
        self._line("%s = %s[%r]" % (old, target, base))
        try:
            m = mask(width)
            keep = "~(%d << %s)" % (m, lsb_source)
            if lsb is not None:
                keep = "(%d)" % ~(m << lsb)
            base_mask = mask(self.symbols.width_of(base))
        except _EXECUTION_ERRORS as exc:
            self._raise_line(exc)
            return
        self._line(
            "%s[%r] = ((%s & %s) | ((%s & %d) << %s)) & %d"
            % (target, base, old, keep, value, m, lsb_source, base_mask)
        )

    # -- expressions -----------------------------------------------------------

    def emit(self, expr, ctx_width=0):
        """Python source evaluating *expr* at context width *ctx_width*.

        A node the interpreter would fail to evaluate becomes a call that
        raises the same exception when (and only if) it is evaluated.
        """
        self._expr_depth += 1
        try:
            if self._expr_depth % _EXPR_DEPTH == 0:
                return self._hoist_expr(expr, ctx_width)
            return self._emit(expr, ctx_width)
        except _EXECUTION_ERRORS as exc:
            return "_raise(%s)" % self._const(exc)
        finally:
            self._expr_depth -= 1

    def _hoist_expr(self, expr, ctx_width):
        name = self._temp("_h")
        source = self._emit(expr, ctx_width)
        self._helpers += ["def %s(s, o):" % name, "    return " + source]
        return "%s(s, o)" % name

    def _read(self, name):
        return ("o[%r]" if name in self.overlaid else "s[%r]") % name

    # The cases below mirror Evaluator.eval case for case; any change there
    # must be reflected here (tests/test_compiler.py enforces this). Every
    # fragment returned is an atom or fully parenthesized, so it can be
    # used as an operand as is.

    def _emit(self, expr, ctx_width):
        symbols = self.symbols
        if isinstance(expr, ast.Number):
            value = expr.value
            if expr.width is not None:
                value &= mask(expr.width)
            return repr(value)
        if isinstance(expr, ast.Identifier):
            if expr.name not in symbols.widths:
                raise EvaluationError("undeclared signal %r" % expr.name)
            if symbols.is_array(expr.name):
                raise EvaluationError(
                    "memory %r used without an index" % expr.name
                )
            return self._read(expr.name)
        if isinstance(expr, ast.Index):
            index = self.emit(expr.index)
            if isinstance(expr.var, ast.Identifier) and symbols.is_array(
                expr.var.name
            ):
                return "_ra(%s, %s, %d)" % (
                    self._read(expr.var.name),
                    index,
                    symbols.depth_of(expr.var.name),
                )
            return "((%s >> %s) & 1)" % (self.emit(expr.var), index)
        if isinstance(expr, ast.PartSelect):
            var = self.emit(expr.var)
            msb = const_eval(expr.msb)
            lsb = const_eval(expr.lsb)
            if lsb:
                var = "(%s >> %d)" % (var, lsb)
            return "(%s & %d)" % (var, mask(msb - lsb + 1))
        if isinstance(expr, ast.IndexedPartSelect):
            var = self.emit(expr.var)
            base = self.emit(expr.base)
            width = const_eval(expr.width)
            if expr.ascending:
                return "((%s >> %s) & %d)" % (var, base, mask(width))
            return "(((%s >> (%s - %d)) & %d) if %s >= %d else 0)" % (
                var, base, width - 1, mask(width), base, width - 1,
            )
        if isinstance(expr, ast.Concat):
            parts = []
            shift = sum(self_width(p, symbols) for p in expr.parts)
            for part in expr.parts:
                width = self_width(part, symbols)
                shift -= width
                part = "(%s & %d)" % (self.emit(part), mask(width))
                parts.append("(%s << %d)" % (part, shift) if shift else part)
            return "(" + (" | ".join(parts) if parts else "0") + ")"
        if isinstance(expr, ast.Repeat):
            count = const_eval(expr.count)
            width = self_width(expr.expr, symbols)
            inner = self.emit(expr.expr)
            parts = [
                "((%s & %d) << %d)" % (inner, mask(width), i * width)
                for i in range(count)
            ]
            return "(" + (" | ".join(parts) if parts else "0") + ")"
        if isinstance(expr, ast.UnaryOp):
            return self._emit_unary(expr, ctx_width)
        if isinstance(expr, ast.BinaryOp):
            return self._emit_binary(expr, ctx_width)
        if isinstance(expr, ast.Ternary):
            cond = self.emit(expr.cond)
            width = max(self_width(expr, symbols), ctx_width)
            return "((%s if %s else %s) & %d)" % (
                self.emit(expr.iftrue, width),
                cond,
                self.emit(expr.iffalse, width),
                mask(width),
            )
        if isinstance(expr, ast.SizeCast):
            return "(%s & %d)" % (self.emit(expr.expr), mask(expr.width))
        raise EvaluationError("cannot evaluate %r" % (expr,))

    def _emit_unary(self, expr, ctx_width):
        op = expr.op
        if op in ("~", "-"):
            width = max(self_width(expr, self.symbols), ctx_width)
            inner = self.emit(expr.operand, width)
            return "(%s%s & %d)" % (op, inner, mask(width))
        inner = self.emit(expr.operand)
        width = self_width(expr.operand, self.symbols)
        if op in ("!", "~|"):
            return "(1 if %s == 0 else 0)" % inner
        if op == "&":
            return "(1 if %s == %d else 0)" % (inner, mask(width))
        if op == "~&":
            return "(0 if %s == %d else 1)" % (inner, mask(width))
        if op == "|":
            return "(1 if %s != 0 else 0)" % inner
        if op == "^":
            return "_parity(%s)" % inner
        if op == "~^":
            return "(1 - _parity(%s))" % inner
        raise EvaluationError("unsupported unary operator %s" % op)

    def _emit_binary(self, expr, ctx_width):
        op = expr.op
        symbols = self.symbols
        if op in ("&&", "||"):
            return "(1 if %s %s %s else 0)" % (
                self.emit(expr.left),
                "and" if op == "&&" else "or",
                self.emit(expr.right),
            )
        if op in ("==", "!=", "===", "!==", "<", "<=", ">", ">="):
            width = max(
                self_width(expr.left, symbols), self_width(expr.right, symbols)
            )
            left = "(%s & %d)" % (self.emit(expr.left, width), mask(width))
            right = "(%s & %d)" % (self.emit(expr.right, width), mask(width))
            python_op = {"===": "==", "!==": "!="}.get(op, op)
            return "(1 if %s %s %s else 0)" % (left, python_op, right)
        if op in ("<<", ">>", "<<<", ">>>"):
            width = max(self_width(expr.left, symbols), ctx_width)
            left = "(%s & %d)" % (self.emit(expr.left, width), mask(width))
            shift = self.emit(expr.right)
            if op in ("<<", "<<<"):
                return "((%s << %s) & %d)" % (left, shift, mask(width))
            return "(%s >> %s)" % (left, shift)
        width = max(self_width(expr, symbols), ctx_width)
        left = self.emit(expr.left, width)
        right = self.emit(expr.right, width)
        m = mask(width)
        if op in ("+", "-", "*"):
            return "((%s %s %s) & %d)" % (left, op, right, m)
        if op == "/":
            return "(_div(%s, %s) & %d)" % (left, right, m)
        if op == "%":
            return "(_mod(%s, %s) & %d)" % (left, right, m)
        if op in ("&", "|", "^"):
            return "(%s %s %s)" % (left, op, right)
        raise EvaluationError("unsupported binary operator %s" % op)
