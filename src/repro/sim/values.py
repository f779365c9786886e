"""Two-state value semantics for the simulator and the analyses.

Implements simplified-but-consistent Verilog width rules:

* every signal is an unsigned integer masked to its declared width
  (two-state, like Verilator — which the paper's testbed targets);
* arithmetic/bitwise operators evaluate at the *context width* (the max of
  both operands' self-determined widths and the assignment target), so
  idioms like ``if (a - 1 > 0)`` wrap the way real hardware does;
* size casts (``42'(e)``), concatenations and part selects are
  self-determined boundaries, which is exactly what makes the paper's bit
  truncation bug (§3.2.2) reproduce: ``42'(right) >> 6`` loses bits
  [47:42] while the fixed ``42'(right >> 6)`` keeps them.
"""

from __future__ import annotations

from ..hdl import ast_nodes as ast
from ..hdl.transform import NotConstantError, const_eval


class EvaluationError(ValueError):
    """Raised when an expression cannot be evaluated against the design."""


class SimulatorError(ValueError):
    """Raised for designs the simulator cannot execute."""


def mask(width):
    """Bit mask for *width* bits."""
    if width < 0:
        raise EvaluationError("negative width %d (reversed part select?)" % width)
    return (1 << width) - 1


class SymbolTable:
    """Declared widths/array depths for every signal of a flat module."""

    def __init__(self, module):
        self.widths = {}
        self.depths = {}
        self.signed = {}
        self.declarations = {}
        for decl in module.declarations():
            self.widths[decl.name] = decl.bit_width
            self.depths[decl.name] = decl.array_depth if decl.array else 0
            self.signed[decl.name] = decl.signed
            self.declarations[decl.name] = decl

    def width_of(self, name):
        """Declared element width of *name* in bits."""
        try:
            return self.widths[name]
        except KeyError:
            raise EvaluationError("undeclared signal %r" % name)

    def is_array(self, name):
        """True if *name* is a memory (array) declaration."""
        return self.depths.get(name, 0) > 0

    def depth_of(self, name):
        """Array depth of *name* (0 for scalars)."""
        return self.depths.get(name, 0)

    def initial_state(self):
        """Zero-initialized state mapping for all declared signals."""
        state = {}
        for name, width in self.widths.items():
            depth = self.depths[name]
            if depth:
                state[name] = [0] * depth
            else:
                state[name] = 0
        return state


def self_width(expr, symbols):
    """Self-determined width of *expr* in bits (Verilog-style, simplified)."""
    if isinstance(expr, ast.Number):
        return expr.width if expr.width is not None else 32
    if isinstance(expr, ast.Identifier):
        return symbols.width_of(expr.name)
    if isinstance(expr, ast.Index):
        if isinstance(expr.var, ast.Identifier) and symbols.is_array(expr.var.name):
            return symbols.width_of(expr.var.name)
        return 1
    if isinstance(expr, ast.PartSelect):
        try:
            return const_eval(expr.msb) - const_eval(expr.lsb) + 1
        except NotConstantError:
            raise EvaluationError("part select bounds must be constant")
    if isinstance(expr, ast.IndexedPartSelect):
        try:
            return const_eval(expr.width)
        except NotConstantError:
            raise EvaluationError("indexed part select width must be constant")
    if isinstance(expr, ast.Concat):
        return sum(self_width(p, symbols) for p in expr.parts)
    if isinstance(expr, ast.Repeat):
        try:
            count = const_eval(expr.count)
        except NotConstantError:
            raise EvaluationError("replication count must be constant")
        return count * self_width(expr.expr, symbols)
    if isinstance(expr, ast.UnaryOp):
        if expr.op in ("~", "-", "+"):
            return self_width(expr.operand, symbols)
        return 1
    if isinstance(expr, ast.BinaryOp):
        op = expr.op
        if op in ("==", "!=", "===", "!==", "<", "<=", ">", ">=", "&&", "||"):
            return 1
        if op in ("<<", ">>", "<<<", ">>>"):
            return self_width(expr.left, symbols)
        return max(self_width(expr.left, symbols), self_width(expr.right, symbols))
    if isinstance(expr, ast.Ternary):
        return max(self_width(expr.iftrue, symbols), self_width(expr.iffalse, symbols))
    if isinstance(expr, ast.SizeCast):
        return expr.width
    raise EvaluationError("cannot size expression %r" % (expr,))


def read_array(values, index, depth):
    """Array read honouring the paper's overflow semantics (§3.2.1).

    Power-of-two depths truncate the index (wrap); other depths return 0
    for out-of-range reads.
    """
    if 0 <= index < depth:
        return values[index]
    if depth & (depth - 1) == 0:
        return values[index & (depth - 1)]
    return 0


def write_array(values, index, depth, value):
    """Array write honouring the paper's overflow semantics (§3.2.1).

    Returns True if the write landed, False if it was dropped (overflow on
    a non-power-of-two buffer).
    """
    if 0 <= index < depth:
        values[index] = value
        return True
    if depth & (depth - 1) == 0:
        values[index & (depth - 1)] = value
        return True
    return False


class Overlay(dict):
    """Blocking-assignment overlay over the committed state."""

    def __init__(self, base):
        super().__init__()
        self._base = base

    def __missing__(self, key):
        return self._base[key]

    def __contains__(self, key):
        return dict.__contains__(self, key) or key in self._base

    def array(self, name):
        """Copy-on-write access to a memory for blocking writes."""
        if not dict.__contains__(self, name):
            self[name] = list(self._base[name])
        return self[name]


class Evaluator:
    """Evaluates expressions against a state mapping.

    ``state`` maps signal name to int (scalars) or list of ints (memories).
    The evaluator is shared by the simulator's combinational settle loop and
    sequential blocks (which pass an overlay state for blocking assigns).
    """

    def __init__(self, symbols):
        self.symbols = symbols

    def eval(self, expr, state, ctx_width=0):
        """Evaluate *expr*; ``ctx_width`` is the assignment-context width."""
        symbols = self.symbols
        if isinstance(expr, ast.Number):
            value = expr.value
            if expr.width is not None:
                value &= mask(expr.width)
            return value
        if isinstance(expr, ast.Identifier):
            try:
                value = state[expr.name]
            except KeyError:
                raise EvaluationError("undeclared signal %r" % expr.name)
            if isinstance(value, list):
                raise EvaluationError(
                    "memory %r used without an index" % expr.name
                )
            return value
        if isinstance(expr, ast.Index):
            index = self.eval(expr.index, state)
            if isinstance(expr.var, ast.Identifier) and symbols.is_array(
                expr.var.name
            ):
                values = state[expr.var.name]
                return read_array(values, index, symbols.depth_of(expr.var.name))
            value = self.eval(expr.var, state)
            return (value >> index) & 1
        if isinstance(expr, ast.PartSelect):
            value = self.eval(expr.var, state)
            msb = const_eval(expr.msb)
            lsb = const_eval(expr.lsb)
            return (value >> lsb) & mask(msb - lsb + 1)
        if isinstance(expr, ast.IndexedPartSelect):
            value = self.eval(expr.var, state)
            base = self.eval(expr.base, state)
            width = const_eval(expr.width)
            lsb = base if expr.ascending else base - width + 1
            if lsb < 0:
                return 0
            return (value >> lsb) & mask(width)
        if isinstance(expr, ast.Concat):
            result = 0
            for part in expr.parts:
                width = self_width(part, symbols)
                result = (result << width) | (self.eval(part, state) & mask(width))
            return result
        if isinstance(expr, ast.Repeat):
            count = const_eval(expr.count)
            width = self_width(expr.expr, symbols)
            value = self.eval(expr.expr, state) & mask(width)
            result = 0
            for _ in range(count):
                result = (result << width) | value
            return result
        if isinstance(expr, ast.UnaryOp):
            return self._eval_unary(expr, state, ctx_width)
        if isinstance(expr, ast.BinaryOp):
            return self._eval_binary(expr, state, ctx_width)
        if isinstance(expr, ast.Ternary):
            cond = self.eval(expr.cond, state)
            branch = expr.iftrue if cond else expr.iffalse
            width = max(self_width(expr, symbols), ctx_width)
            return self.eval(branch, state, width) & mask(width)
        if isinstance(expr, ast.SizeCast):
            return self.eval(expr.expr, state) & mask(expr.width)
        raise EvaluationError("cannot evaluate %r" % (expr,))

    def _eval_unary(self, expr, state, ctx_width):
        op = expr.op
        if op in ("~", "-"):
            width = max(self_width(expr, self.symbols), ctx_width)
            value = self.eval(expr.operand, state, width)
            if op == "~":
                return ~value & mask(width)
            return -value & mask(width)
        value = self.eval(expr.operand, state)
        width = self_width(expr.operand, self.symbols)
        if op == "!":
            return int(value == 0)
        if op == "&":
            return int(value == mask(width))
        if op == "~&":
            return int(value != mask(width))
        if op == "|":
            return int(value != 0)
        if op == "~|":
            return int(value == 0)
        if op in ("^", "~^"):
            parity = bin(value).count("1") & 1
            return parity if op == "^" else 1 - parity
        raise EvaluationError("unsupported unary operator %s" % op)

    def _eval_binary(self, expr, state, ctx_width):
        op = expr.op
        symbols = self.symbols
        if op in ("&&", "||"):
            left = self.eval(expr.left, state)
            if op == "&&":
                return int(bool(left) and bool(self.eval(expr.right, state)))
            return int(bool(left) or bool(self.eval(expr.right, state)))
        if op in ("==", "!=", "===", "!==", "<", "<=", ">", ">="):
            width = max(
                self_width(expr.left, symbols), self_width(expr.right, symbols)
            )
            left = self.eval(expr.left, state, width) & mask(width)
            right = self.eval(expr.right, state, width) & mask(width)
            table = {
                "==": left == right,
                "===": left == right,
                "!=": left != right,
                "!==": left != right,
                "<": left < right,
                "<=": left <= right,
                ">": left > right,
                ">=": left >= right,
            }
            return int(table[op])
        if op in ("<<", ">>", "<<<", ">>>"):
            width = max(self_width(expr.left, symbols), ctx_width)
            left = self.eval(expr.left, state, width) & mask(width)
            shift = self.eval(expr.right, state)
            if op in ("<<", "<<<"):
                return (left << shift) & mask(width)
            return left >> shift
        width = max(self_width(expr, symbols), ctx_width)
        left = self.eval(expr.left, state, width)
        right = self.eval(expr.right, state, width)
        if op == "+":
            return (left + right) & mask(width)
        if op == "-":
            return (left - right) & mask(width)
        if op == "*":
            return (left * right) & mask(width)
        if op == "/":
            return (left // right) & mask(width) if right else 0
        if op == "%":
            return (left % right) & mask(width) if right else 0
        if op == "&":
            return left & right
        if op == "|":
            return left | right
        if op == "^":
            return left ^ right
        raise EvaluationError("unsupported binary operator %s" % op)
