"""Abstract interpretation over elaborated designs: the L05xx value rules.

:func:`compute_facts` runs a value-range (interval) and known-bits
analysis over a flat module using the monotone worklist solver
(:mod:`repro.flow.solver`), with widening at sequential back-edges. The
abstract evaluator (:class:`AbsEvaluator`) mirrors the concrete
two-state evaluator (:class:`repro.sim.values.Evaluator`) node for node
— same context-width rules, same masking points, same divide-by-zero
and out-of-range array semantics — so every fact is a sound
over-approximation of every value the simulator can compute in a
*settled* state. The fuzz campaign's ``absint`` oracle enforces exactly
that contract by simulation.

On top of the per-signal :class:`FactTable`, :func:`check_values` runs
the L05xx checker family surfaced through ``repro check``:

* **L0501** — a condition that is always true or always false (one
  branch is dead);
* **L0502** — a ``case`` arm whose label value the subject can never
  take;
* **L0503** — a comparison that can never (or always) be satisfied,
  classically a terminal count that exceeds the counter's width;
* **L0504** — an uninitialized (never-reset) register's X reaches an
  output port or steers control flow;
* **L0505** — a memory/array index (or IP address port) provably out
  of bounds;
* **L0506** — a possibly-zero divisor or modulus (two-state division
  by zero silently yields 0);
* **L0507** — a redundant mask: AND selecting only bits proven zero.

All L05xx findings are warnings: the facts are conservative, so a rule
only fires on a *proof*, but value-level findings still rank below
simulation evidence (``--strict`` promotes them to the failing exit
code). The exported :class:`FactTable` is deterministic
(:meth:`FactTable.render` is byte-stable across runs) and doubles as
the constant-folding input contract for the compiled simulation
backend tracked in ROADMAP.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..analysis.assignments import analyze_module
from ..diag.model import Diagnostic, Severity, SourceSpan
from ..hdl import ast_nodes as ast
from ..hdl.codegen import generate_expression
from ..hdl.transform import NotConstantError, const_eval
from ..sim.values import EvaluationError, SymbolTable, self_width
from .checkers import _has_reset_arc, _reset_signals
from .domains import AbsValue, bit_mask
from .solver import reachable, solve

#: Joins a node tolerates before its interval bounds are widened to the
#: domain extremes. Small on purpose: sequential back-edges (counters)
#: otherwise climb one step per solver visit.
WIDEN_AFTER = 2

_COMPARE_OPS = ("==", "!=", "===", "!==", "<", "<=", ">", ">=")


# ---------------------------------------------------------------------------
# Abstract evaluator (mirrors repro.sim.values.Evaluator)
# ---------------------------------------------------------------------------


class _Env:
    """Name -> :class:`AbsValue` view the abstract evaluator reads."""

    def __init__(self, symbols, lookup):
        self.symbols = symbols
        self._lookup = lookup

    def get(self, name):
        if self.symbols.is_array(name):
            raise EvaluationError("memory %r used without an index" % name)
        return self._lookup(name).resized(self.symbols.width_of(name))

    def get_array(self, name):
        """Element fact of memory *name* (join over all elements)."""
        return self._lookup(name).resized(self.symbols.width_of(name))


class AbsEvaluator:
    """Abstract mirror of the concrete evaluator, total by construction.

    Every case follows ``Evaluator.eval``'s width/masking rules; any
    node or width it cannot handle degrades to TOP of the expression's
    context width, which is always sound.
    """

    def __init__(self, symbols):
        self.symbols = symbols

    def eval(self, expr, env, ctx_width=0):
        try:
            return self._eval(expr, env, ctx_width)
        except Exception:
            return AbsValue.top(self._fallback_width(expr, ctx_width))

    def _fallback_width(self, expr, ctx_width):
        try:
            return max(self_width(expr, self.symbols), ctx_width, 1)
        except Exception:
            return max(ctx_width, 32)

    def _eval(self, expr, env, ctx_width):
        symbols = self.symbols
        if isinstance(expr, ast.Number):
            if expr.width is not None:
                return AbsValue.const(
                    expr.value & bit_mask(expr.width), expr.width
                )
            return AbsValue.const(
                expr.value, max(32, int(expr.value).bit_length())
            )
        if isinstance(expr, ast.Identifier):
            return env.get(expr.name)
        if isinstance(expr, ast.Index):
            if isinstance(expr.var, ast.Identifier) and symbols.is_array(
                expr.var.name
            ):
                # Element join; the memory fact always includes the
                # initial 0, which also covers out-of-range reads.
                return env.get_array(expr.var.name)
            index = self._eval(expr.index, env, 0)
            value = self._eval(expr.var, env, 0)
            taint = 1 if value.xmask else 0
            if index.is_const:
                position = index.const_value
                if position >= value.width:
                    return AbsValue.const(0, 1)
                bit = 1 << position
                taint = 1 if value.xmask & bit else 0
                if value.ones & bit:
                    return AbsValue.const(1, 1, xmask=taint)
                if value.zeros & bit:
                    return AbsValue.const(0, 1, xmask=taint)
            return AbsValue.top(1, xmask=taint)
        if isinstance(expr, ast.PartSelect):
            value = self._eval(expr.var, env, 0)
            msb = const_eval(expr.msb)
            lsb = const_eval(expr.lsb)
            if msb < lsb:
                raise EvaluationError("reversed part select")
            return value.shifted_right(lsb).resized(msb - lsb + 1)
        if isinstance(expr, ast.IndexedPartSelect):
            value = self._eval(expr.var, env, 0)
            base = self._eval(expr.base, env, 0)
            width = const_eval(expr.width)
            if base.is_const:
                start = base.const_value
                lsb = start if expr.ascending else start - width + 1
                if lsb < 0:
                    return AbsValue.const(0, width)
                return value.shifted_right(lsb).resized(width)
            return AbsValue.top(
                width, xmask=bit_mask(width) if value.xmask else 0
            )
        if isinstance(expr, ast.Concat):
            parts = []
            for part in expr.parts:
                width = self_width(part, symbols)
                parts.append(
                    (width, self._eval(part, env, 0).resized(width))
                )
            return self._concat(parts)
        if isinstance(expr, ast.Repeat):
            count = const_eval(expr.count)
            width = self_width(expr.expr, symbols)
            if count < 0 or count * width > 4096:
                raise EvaluationError("unreasonable replication")
            fact = self._eval(expr.expr, env, 0).resized(width)
            return self._concat([(width, fact)] * count)
        if isinstance(expr, ast.UnaryOp):
            return self._eval_unary(expr, env, ctx_width)
        if isinstance(expr, ast.BinaryOp):
            return self._eval_binary(expr, env, ctx_width)
        if isinstance(expr, ast.Ternary):
            cond = self._eval(expr.cond, env, 0)
            width = max(self_width(expr, symbols), ctx_width)
            truth = cond.truth()
            if truth is True:
                result = self._eval(expr.iftrue, env, width).resized(width)
            elif truth is False:
                result = self._eval(expr.iffalse, env, width).resized(width)
            else:
                result = (
                    self._eval(expr.iftrue, env, width)
                    .resized(width)
                    .join(self._eval(expr.iffalse, env, width).resized(width))
                )
            if cond.xmask:
                result = result.with_xmask(bit_mask(width))
            return result
        if isinstance(expr, ast.SizeCast):
            return self._eval(expr.expr, env, 0).resized(expr.width)
        raise EvaluationError("cannot evaluate %r" % (expr,))

    @staticmethod
    def _concat(parts):
        """Concatenate (width, fact) pairs, leftmost part most significant.

        Each part is already masked to its width, so ``(acc << w) | part``
        places independent contributions in disjoint bit ranges — the
        interval endpoints compose exactly.
        """
        total = sum(width for width, _ in parts)
        lo = hi = ones = zeros = xmask = 0
        for width, fact in parts:
            lo = (lo << width) | fact.lo
            hi = (hi << width) | fact.hi
            ones = (ones << width) | fact.ones
            zeros = (zeros << width) | fact.zeros
            xmask = (xmask << width) | fact.xmask
        return AbsValue.make(max(total, 1), lo, hi, ones, zeros, xmask=xmask)

    def _eval_unary(self, expr, env, ctx_width):
        op = expr.op
        symbols = self.symbols
        if op in ("~", "-"):
            width = max(self_width(expr, symbols), ctx_width)
            fact = self._eval(expr.operand, env, width).resized(width)
            m = bit_mask(width)
            if op == "~":
                return AbsValue.make(
                    width, m - fact.hi, m - fact.lo, fact.zeros, fact.ones,
                    xmask=fact.xmask,
                )
            taint = m if fact.xmask else 0
            if fact.is_const:
                return AbsValue.const((-fact.lo) & m, width, xmask=taint)
            if fact.lo > 0:
                full = 1 << width
                return AbsValue.make(
                    width, full - fact.hi, full - fact.lo, xmask=taint
                )
            return AbsValue.top(width, xmask=taint)
        fact = self._eval(expr.operand, env, 0)
        width = self_width(expr.operand, symbols)
        fact = fact.resized(width)
        taint = 1 if fact.xmask else 0
        m = bit_mask(width)
        truth = fact.truth()
        if op == "!":
            return self._bool(None if truth is None else not truth, taint)
        if op in ("&", "~&"):
            if fact.ones == m:
                verdict = True
            elif fact.zeros or fact.hi < m:
                verdict = False
            else:
                verdict = None
            if op == "~&" and verdict is not None:
                verdict = not verdict
            return self._bool(verdict, taint)
        if op == "|":
            return self._bool(truth, taint)
        if op == "~|":
            return self._bool(None if truth is None else not truth, taint)
        if op in ("^", "~^"):
            if fact.is_const:
                parity = bin(fact.lo).count("1") & 1
                if op == "~^":
                    parity = 1 - parity
                return AbsValue.const(parity, 1, xmask=taint)
            return AbsValue.top(1, xmask=taint)
        raise EvaluationError("unsupported unary operator %s" % op)

    @staticmethod
    def _bool(verdict, taint=0):
        if verdict is True:
            return AbsValue.const(1, 1, xmask=taint)
        if verdict is False:
            return AbsValue.const(0, 1, xmask=taint)
        return AbsValue.top(1, xmask=taint)

    def _eval_binary(self, expr, env, ctx_width):
        op = expr.op
        symbols = self.symbols
        if op in ("&&", "||"):
            left = self._eval(expr.left, env, 0)
            right = self._eval(expr.right, env, 0)
            lt, rt = left.truth(), right.truth()
            taint = 1 if (left.xmask or right.xmask) else 0
            if op == "&&":
                if lt is False or rt is False:
                    return self._bool(False, taint)
                if lt is True and rt is True:
                    return self._bool(True, taint)
            else:
                if lt is True or rt is True:
                    return self._bool(True, taint)
                if lt is False and rt is False:
                    return self._bool(False, taint)
            return self._bool(None, taint)
        if op in _COMPARE_OPS:
            width = max(
                self_width(expr.left, symbols),
                self_width(expr.right, symbols),
            )
            left = self._eval(expr.left, env, width).resized(width)
            right = self._eval(expr.right, env, width).resized(width)
            taint = 1 if (left.xmask or right.xmask) else 0
            return self._bool(compare_facts(op, left, right), taint)
        if op in ("<<", ">>", "<<<", ">>>"):
            width = max(self_width(expr.left, symbols), ctx_width)
            left = self._eval(expr.left, env, width).resized(width)
            shift = self._eval(expr.right, env, 0)
            taint = bit_mask(width) if (left.xmask or shift.xmask) else 0
            if op in ("<<", "<<<"):
                if shift.is_const:
                    result = left.shifted_left(shift.lo, width)
                    return result.with_xmask(result.xmask | taint)
                return AbsValue.top(width, xmask=taint)
            if shift.is_const:
                result = left.shifted_right(shift.lo).resized(width)
                return result.with_xmask(result.xmask | taint)
            return AbsValue.make(
                width, left.lo >> shift.hi, left.hi >> shift.lo, xmask=taint
            )
        width = max(self_width(expr, symbols), ctx_width)
        left = self._eval(expr.left, env, width).resized(width)
        right = self._eval(expr.right, env, width).resized(width)
        m = bit_mask(width)
        taint = m if (left.xmask or right.xmask) else 0
        if op == "+":
            if left.hi + right.hi <= m:
                return AbsValue.make(
                    width, left.lo + right.lo, left.hi + right.hi, xmask=taint
                )
            if left.is_const and right.is_const:
                return AbsValue.const((left.lo + right.lo) & m, width,
                                      xmask=taint)
            return AbsValue.top(width, xmask=taint)
        if op == "-":
            if left.lo >= right.hi:
                return AbsValue.make(
                    width, left.lo - right.hi, left.hi - right.lo, xmask=taint
                )
            if left.is_const and right.is_const:
                return AbsValue.const((left.lo - right.lo) & m, width,
                                      xmask=taint)
            return AbsValue.top(width, xmask=taint)
        if op == "*":
            if left.hi * right.hi <= m:
                return AbsValue.make(
                    width, left.lo * right.lo, left.hi * right.hi, xmask=taint
                )
            if left.is_const and right.is_const:
                return AbsValue.const((left.lo * right.lo) & m, width,
                                      xmask=taint)
            return AbsValue.top(width, xmask=taint)
        if op == "/":
            if right.lo >= 1:
                return AbsValue.make(
                    width, left.lo // right.hi, left.hi // right.lo,
                    xmask=taint,
                )
            # A zero divisor yields 0 in two-state semantics.
            return AbsValue.make(width, 0, left.hi, xmask=taint)
        if op == "%":
            if right.lo >= 1:
                return AbsValue.make(
                    width, 0, min(left.hi, right.hi - 1), xmask=taint
                )
            return AbsValue.make(width, 0, left.hi, xmask=taint)
        bit_taint = (left.xmask | right.xmask) & m
        if op == "&":
            return AbsValue.make(
                width, 0, min(left.hi, right.hi),
                left.ones & right.ones,
                (left.zeros | right.zeros) & m,
                xmask=bit_taint,
            )
        if op == "|":
            return AbsValue.make(
                width, max(left.lo, right.lo), min(m, left.hi + right.hi),
                left.ones | right.ones,
                left.zeros & right.zeros,
                xmask=bit_taint,
            )
        if op == "^":
            return AbsValue.make(
                width, 0, min(m, left.hi + right.hi),
                (left.ones & right.zeros) | (right.ones & left.zeros),
                (left.ones & right.ones) | (left.zeros & right.zeros),
                xmask=bit_taint,
            )
        raise EvaluationError("unsupported binary operator %s" % op)


def compare_facts(op, left, right):
    """Three-valued comparison of two same-width facts (True/False/None)."""
    if op in ("==", "===", "!=", "!=="):
        if left.is_const and right.is_const:
            verdict = left.lo == right.lo
        elif left.hi < right.lo or right.hi < left.lo:
            verdict = False
        elif (left.ones & right.zeros) or (right.ones & left.zeros):
            verdict = False
        else:
            return None
        return verdict if op in ("==", "===") else not verdict
    if op == "<":
        if left.hi < right.lo:
            return True
        if left.lo >= right.hi:
            return False
        return None
    if op == "<=":
        if left.hi <= right.lo:
            return True
        if left.lo > right.hi:
            return False
        return None
    if op == ">":
        result = compare_facts("<=", left, right)
        return None if result is None else not result
    if op == ">=":
        result = compare_facts("<", left, right)
        return None if result is None else not result
    return None


# ---------------------------------------------------------------------------
# The fact table and its fixpoint
# ---------------------------------------------------------------------------


@dataclass
class FactTable:
    """Deterministic per-signal facts for one flat module.

    ``facts`` maps every declared signal to its :class:`AbsValue`; for
    memories the fact is the join over all elements (which always
    includes the initial 0). This table is the input contract for the
    compiled backend's elaboration-time constant folding: a signal in
    :meth:`constants` may be replaced by its literal in any settled
    state, and known bits may seed bit-parallel lane packing.
    """

    module: str
    facts: dict
    depths: dict
    tainted: tuple = ()
    iterations: int = 0
    converged: bool = True

    def get(self, name):
        """Fact for *name* (None when the signal is unknown)."""
        return self.facts.get(name)

    def constants(self):
        """``{name: value}`` for scalar signals proven constant."""
        out = {}
        for name in sorted(self.facts):
            if self.depths.get(name):
                continue
            fact = self.facts[name]
            if fact.is_const and not fact.xmask:
                out[name] = fact.lo
        return out

    def to_dict(self):
        signals = {}
        for name in sorted(self.facts):
            entry = self.facts[name].to_dict()
            entry["depth"] = self.depths.get(name, 0)
            signals[name] = entry
        return {
            "schema": "repro.flow.absint/v1",
            "module": self.module,
            "converged": self.converged,
            "tainted": list(self.tainted),
            "signals": signals,
        }

    def render(self):
        """Byte-stable JSON rendering (two runs must compare equal)."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        ) + "\n"


def _instance_param(inst, name, default):
    for override in inst.params:
        if override.name == name:
            try:
                return int(const_eval(override.value))
            except (NotConstantError, ValueError, TypeError):
                return default
    return default


def _ip_summary(inst):
    """Output-port facts for a known vendor IP instance (None if unknown).

    Bounds mirror the behavioral models in :mod:`repro.sim.ip`: FIFO
    occupancy stays within ``[0, LPM_NUMWORDS]``, status flags are
    1-bit, and data outputs are only bounded by their width.
    """
    kind = inst.module_name
    if kind in ("scfifo", "dcfifo"):
        width = max(1, _instance_param(inst, "LPM_WIDTH", 32))
        depth = max(1, _instance_param(inst, "LPM_NUMWORDS", 16))
        count = AbsValue.make(max(1, depth.bit_length()), 0, depth)
        flag = AbsValue.top(1)
        data = AbsValue.top(width)
        if kind == "scfifo":
            return {"q": data, "empty": flag, "full": flag, "usedw": count}
        return {
            "q": data, "rdempty": flag, "wrfull": flag,
            "wrusedw": count, "rdusedw": count,
        }
    if kind == "altsyncram":
        width = max(1, _instance_param(inst, "WIDTH_A", 32))
        data = AbsValue.top(width)
        return {"q_a": data, "q_b": data}
    if kind == "signal_recorder":
        return {"count": AbsValue.top(32)}
    return None


def _unreset_registers(module, view):
    """Sequential registers with no reset arc in a reset-disciplined design."""
    resets = _reset_signals(module)
    if not resets:
        return ()
    sequential = [r for r in view.assignments if r.sequential]
    if not any(_has_reset_arc(r, resets) for r in sequential):
        return ()  # the design never uses its reset at all
    tainted = []
    for target in sorted({r.target for r in sequential}):
        records = [r for r in sequential if r.target == target]
        if any(r.condition is None for r in records):
            continue  # unconditionally driven: defined after one cycle
        if any(_has_reset_arc(r, resets) for r in records):
            continue
        tainted.append(target)
    return tuple(tainted)


def _whole_signal_contribution(evaluator, symbols, record, env):
    """Abstract value one assignment record may store into its target."""
    lhs = record.lhs
    width = symbols.width_of(record.target)
    if isinstance(lhs, ast.Identifier):
        return evaluator.eval(record.rhs, env, width).resized(width)
    if (
        isinstance(lhs, ast.Index)
        and isinstance(lhs.var, ast.Identifier)
        and symbols.is_array(record.target)
    ):
        return evaluator.eval(record.rhs, env, width).resized(width)
    # Bit/part-select and concat lvalues read-modify-write the target;
    # the mix of old and new bits is only bounded by the width.
    return AbsValue.top(width)


def compute_facts(module, max_iterations=None):
    """Fixpoint value-range + known-bits facts for a flat *module*.

    Vendor-IP summaries are derived from the instance parameters
    directly. Returns a :class:`FactTable`; ``converged`` is
    False only if the solver hit ``max_iterations`` (facts are then
    under-approximations and every consumer must ignore them).
    """
    symbols = SymbolTable(module)
    view = analyze_module(module)
    evaluator = AbsEvaluator(symbols)
    names = sorted(symbols.widths)
    known = set(names)

    records_by = {}
    dependencies = {}
    for record in view.assignments:
        if record.target not in known:
            continue
        records_by.setdefault(record.target, []).append(record)
        dependencies.setdefault(record.target, set()).update(
            name for name in record.data_sources if name in known
        )

    input_ports = {
        port.name
        for port in module.ports
        if port.direction is ast.PortDirection.INPUT
    }

    seeds = {}

    def seed_join(name, fact):
        if name not in known:
            return
        fact = fact.resized(symbols.width_of(name))
        seeds[name] = fact if name not in seeds else seeds[name].join(fact)

    for name in names:
        if name in input_ports:
            seed_join(name, AbsValue.top(symbols.width_of(name)))

    for item in module.items:
        if not isinstance(item, ast.Instance):
            continue
        summary = _ip_summary(item)
        if summary is None:
            # Unknown blackbox: anything it touches may be driven by it.
            for conn in item.ports:
                if conn.expr is None:
                    continue
                for node in conn.expr.walk():
                    if isinstance(node, ast.Identifier):
                        seed_join(
                            node.name,
                            AbsValue.top(symbols.widths.get(node.name, 1)),
                        )
            continue
        for conn in item.ports:
            if conn.port not in summary or conn.expr is None:
                continue
            if isinstance(conn.expr, ast.Identifier):
                seed_join(conn.expr.name, summary[conn.port])
            else:
                for base in ast.lvalue_base_names(conn.expr):
                    seed_join(base, AbsValue.top(symbols.widths.get(base, 1)))

    for name in names:
        width = symbols.width_of(name)
        records = records_by.get(name, ())
        if symbols.is_array(name):
            seed_join(name, AbsValue.const(0, width))
            continue
        if not records:
            if name not in seeds:
                seed_join(name, AbsValue.const(0, width))
            continue
        always_defined = any(
            r.condition is None
            and not r.sequential
            and isinstance(r.lhs, ast.Identifier)
            for r in records
        )
        if not always_defined:
            # Sequential or conditionally-driven: the initial 0 (or a
            # held previous value, covered inductively) is observable.
            seed_join(name, AbsValue.const(0, width))

    tainted = _unreset_registers(module, view)
    tainted_set = set(tainted)

    def initial(name):
        fact = seeds.get(name)
        if fact is None:
            fact = AbsValue.const(0, symbols.width_of(name))
        if name in tainted_set:
            fact = fact.with_xmask(bit_mask(fact.width))
        return fact

    visits = {}

    def transfer(name, values):
        def lookup(dep):
            fact = values.get(dep)
            return fact if fact is not None else initial(dep)

        env = _Env(symbols, lookup)
        width = symbols.width_of(name)
        # Unseeded signals (unconditional non-sequential drivers) start
        # from bottom: their value is exactly the join of their drivers.
        fact = seeds.get(name)
        if fact is not None and name in tainted_set:
            fact = fact.with_xmask(bit_mask(fact.width))
        for record in records_by.get(name, ()):
            try:
                contribution = _whole_signal_contribution(
                    evaluator, symbols, record, env
                )
            except Exception:
                contribution = AbsValue.top(width)
            fact = contribution if fact is None else fact.join(contribution)
        if fact is None:
            fact = initial(name)
        fact = fact.resized(width)
        if name in tainted_set:
            fact = fact.with_xmask(fact.xmask | bit_mask(width))
        previous = values.get(name)
        visits[name] = visits.get(name, 0) + 1
        if previous is not None:
            fact = previous.join(fact)
            if visits[name] > WIDEN_AFTER:
                fact = previous.widen(fact)
        return fact

    result = solve(
        names, dependencies, transfer, bottom=None,
        max_iterations=max_iterations,
    )
    facts = {
        name: (result.values.get(name) or initial(name)) for name in names
    }
    return FactTable(
        module=module.name,
        facts=facts,
        depths={name: symbols.depth_of(name) for name in names},
        tainted=tainted,
        iterations=result.iterations,
        converged=result.converged,
    )


# ---------------------------------------------------------------------------
# The L05xx value checkers
# ---------------------------------------------------------------------------


class _ValueChecker:
    """Walks one module's statements and emits L05xx diagnostics."""

    def __init__(self, module, table, filename):
        self.module = module
        self.table = table
        self.filename = filename
        self.symbols = SymbolTable(module)
        self.evaluator = AbsEvaluator(self.symbols)
        self.env = _Env(
            self.symbols,
            lambda name: table.facts.get(name)
            or AbsValue.top(self.symbols.widths.get(name, 1)),
        )
        self.diagnostics = []
        self._emitted = set()
        #: Comparisons already explained by an L0503 finding, so the
        #: enclosing condition skips the redundant L0501.
        self._explained = set()
        #: (text, line) of control reads whose value may carry X.
        self._x_controls = []

    # -- plumbing -----------------------------------------------------------

    def emit(self, code, message, lineno, hint=""):
        key = (code, message, lineno)
        if key in self._emitted:
            return
        self._emitted.add(key)
        self.diagnostics.append(
            Diagnostic(
                Severity.WARNING,
                code,
                message,
                SourceSpan(file=self.filename, line=lineno),
                hint,
            )
        )

    def fact_of(self, expr, ctx_width=0):
        return self.evaluator.eval(expr, self.env, ctx_width)

    def _line_of(self, stmt, fallback):
        lineno = getattr(stmt, "lineno", 0)
        if lineno:
            return lineno
        for node in stmt.walk():
            lineno = getattr(node, "lineno", 0)
            if lineno:
                return lineno
        return fallback

    # -- module walk --------------------------------------------------------

    def run(self):
        for item in self.module.items:
            if isinstance(item, ast.ContinuousAssign):
                self.visit_expr(item.rhs, item.lineno)
                self.visit_expr(item.lhs, item.lineno)
            elif isinstance(item, ast.Always):
                self.visit_stmt(item.body, item.lineno)
            elif isinstance(item, ast.Instance):
                self.visit_instance(item)
        self.check_x_reach()
        return self.diagnostics

    def visit_stmt(self, stmt, line):
        if isinstance(stmt, ast.Block):
            for inner in stmt.statements:
                self.visit_stmt(inner, line)
        elif isinstance(stmt, (ast.NonblockingAssign, ast.BlockingAssign)):
            lineno = stmt.lineno or line
            self.visit_expr(stmt.rhs, lineno)
            self.visit_expr(stmt.lhs, lineno)
        elif isinstance(stmt, ast.If):
            lineno = self._line_of(stmt, line)
            self.visit_condition(stmt.cond, lineno)
            self.visit_stmt(stmt.then_stmt, lineno)
            if stmt.else_stmt is not None:
                self.visit_stmt(stmt.else_stmt, lineno)
        elif isinstance(stmt, ast.Case):
            self.visit_case(stmt, stmt.lineno or line)
        elif isinstance(stmt, ast.Display):
            for arg in stmt.args:
                self.visit_expr(arg, line)

    # -- L0501: constant conditions -----------------------------------------

    def visit_condition(self, cond, line):
        self.visit_expr(cond, line)
        fact = self.fact_of(cond)
        if fact.xmask:
            self._x_controls.append(
                ("condition '%s'" % generate_expression(cond), line)
            )
        truth = fact.truth()
        if truth is None:
            return
        if any(id(node) in self._explained for node in cond.walk()):
            return  # an L0503 on the comparison already explains this
        self.emit(
            "L0501",
            "condition '%s' is always %s: the %s branch is dead"
            % (
                generate_expression(cond),
                "true" if truth else "false",
                "else" if truth else "then",
            ),
            line,
            hint="the value facts prove this test constant; delete the "
            "dead branch or fix the guarded expression",
        )

    # -- L0502: unreachable case arms ---------------------------------------

    def visit_case(self, stmt, line):
        self.visit_expr(stmt.subject, line)
        subject = self.fact_of(stmt.subject)
        if subject.xmask:
            self._x_controls.append(
                (
                    "case subject '%s'" % generate_expression(stmt.subject),
                    line,
                )
            )
        for item in stmt.items:
            arm_line = self._line_of(item.stmt, line)
            for label in item.labels:
                self.visit_expr(label, arm_line)
            if item.labels and not stmt.casez and not subject.is_top:
                self._check_arm(stmt, item, subject, arm_line)
            self.visit_stmt(item.stmt, arm_line)

    def _check_arm(self, stmt, item, subject, line):
        for label in item.labels:
            fact = self.fact_of(label)
            if not fact.is_const or subject.contains(fact.lo):
                return
        self.emit(
            "L0502",
            "case arm %s is unreachable: subject '%s' is always %s"
            % (
                ", ".join(generate_expression(l) for l in item.labels),
                generate_expression(stmt.subject),
                subject.describe(),
            ),
            line,
            hint="no assignment ever gives the subject this value; "
            "delete the arm or add the missing transition",
        )

    # -- expression-level rules (L0503/L0505/L0506/L0507) -------------------

    def visit_expr(self, expr, line):
        for node in expr.walk():
            if isinstance(node, ast.BinaryOp):
                if node.op in ("==", "!=", "<", "<=", ">", ">="):
                    self.check_comparison(node, line)
                elif node.op in ("/", "%"):
                    self.check_division(node, line)
                elif node.op == "&":
                    self.check_mask(node, line)
            elif isinstance(node, ast.Index):
                self.check_index(node, line)

    def check_comparison(self, node, line):
        constant, other = None, None
        if isinstance(node.right, ast.Number) and not isinstance(
            node.left, ast.Number
        ):
            constant, other = node.right, node.left
        elif isinstance(node.left, ast.Number) and not isinstance(
            node.right, ast.Number
        ):
            constant, other = node.left, node.right
        if constant is None:
            return
        try:
            width = max(
                self_width(node.left, self.symbols),
                self_width(node.right, self.symbols),
            )
            other_width = self_width(other, self.symbols)
        except EvaluationError:
            return
        left = self.fact_of(node.left, width).resized(width)
        right = self.fact_of(node.right, width).resized(width)
        verdict = compare_facts(node.op, left, right)
        if verdict is None:
            return
        value = constant.value
        if constant.width is not None:
            value &= bit_mask(constant.width)
        text = generate_expression(node)
        if value > bit_mask(other_width):
            self.emit(
                "L0503",
                "comparison '%s' is always %s: constant %d exceeds the "
                "%d-bit range of '%s' (max %d)"
                % (
                    text,
                    "true" if verdict else "false",
                    value,
                    other_width,
                    generate_expression(other),
                    bit_mask(other_width),
                ),
                line,
                hint="widen '%s' or lower the terminal count so the "
                "comparison can fire" % generate_expression(other),
            )
        else:
            self.emit(
                "L0503",
                "comparison '%s' is always %s: '%s' is always %s"
                % (
                    text,
                    "true" if verdict else "false",
                    generate_expression(other),
                    self.fact_of(other).describe(),
                ),
                line,
                hint="the compared value can never cross this constant; "
                "check the counter update or the threshold",
            )
        self._explained.add(id(node))

    def check_division(self, node, line):
        divisor = self.fact_of(node.right)
        if not divisor.can_be_zero():
            return
        op_name = "divisor" if node.op == "/" else "modulus"
        self.emit(
            "L0506",
            "%s '%s' may be zero: two-state %s-by-zero silently yields 0"
            % (
                op_name,
                generate_expression(node.right),
                "division" if node.op == "/" else "modulo",
            ),
            line,
            hint="guard the operation with a nonzero test or prove the "
            "%s nonzero" % op_name,
        )

    def check_mask(self, node, line):
        try:
            width = max(
                self_width(node.left, self.symbols),
                self_width(node.right, self.symbols),
            )
        except EvaluationError:
            return
        left = self.fact_of(node.left, width).resized(width)
        right = self.fact_of(node.right, width).resized(width)
        if left.hi == 0 or right.hi == 0:
            return  # a plain zero operand, not a redundant mask
        possible = (~left.zeros) & (~right.zeros) & bit_mask(width)
        if possible:
            return
        self.emit(
            "L0507",
            "mask '%s' is redundant: every bit it selects is proven zero, "
            "so the AND is always 0" % generate_expression(node),
            line,
            hint="the operands have no overlapping possibly-one bits; "
            "fix the mask constant or the operand widths",
        )

    def check_index(self, node, line):
        if not (
            isinstance(node.var, ast.Identifier)
            and self.symbols.is_array(node.var.name)
        ):
            return
        depth = self.symbols.depth_of(node.var.name)
        index = self.fact_of(node.index)
        if index.lo < depth:
            return
        wraps = depth & (depth - 1) == 0
        self.emit(
            "L0505",
            "index '%s' into '%s' is always out of bounds: %s vs depth %d "
            "(%s)"
            % (
                generate_expression(node.index),
                node.var.name,
                index.describe(),
                depth,
                "the access wraps" if wraps
                else "reads return 0, writes are dropped",
            ),
            line,
            hint="resize the memory or mask the index to the legal range",
        )

    def visit_instance(self, inst):
        if inst.module_name != "altsyncram":
            return
        depth = max(1, _instance_param(inst, "NUMWORDS_A", 256))
        for conn in inst.ports:
            if conn.port not in ("address_a", "address_b") or conn.expr is None:
                continue
            address = self.fact_of(conn.expr)
            if address.lo < depth:
                continue
            self.emit(
                "L0505",
                "address '%s' on %s.%s is always out of bounds: %s vs "
                "NUMWORDS %d"
                % (
                    generate_expression(conn.expr),
                    inst.instance_name,
                    conn.port,
                    address.describe(),
                    depth,
                ),
                inst.lineno,
                hint="resize the RAM or mask the address to the legal "
                "range",
            )

    # -- L0504: X reaching outputs / control --------------------------------

    def check_x_reach(self):
        if not self.table.tainted:
            return
        adjacency = {}
        view = analyze_module(self.module)
        for record in view.assignments:
            for source in record.data_sources:
                adjacency.setdefault(source, set()).add(record.target)

        def origins_for(name):
            found = [
                origin
                for origin in self.table.tainted
                if origin == name or name in reachable(adjacency, {origin})
            ]
            return ", ".join("'%s'" % o for o in found) or "an unreset register"

        for port in self.module.ports:
            if port.direction is not ast.PortDirection.OUTPUT:
                continue
            fact = self.table.facts.get(port.name)
            if fact is None or not fact.xmask:
                continue
            decl = self.module.find_declaration(port.name)
            self.emit(
                "L0504",
                "output '%s' can carry X: it derives from never-reset "
                "register(s) %s" % (port.name, origins_for(port.name)),
                getattr(decl, "lineno", 0) if decl else 0,
                hint="reset every register on the output's fan-in cone "
                "so four-state hardware matches two-state simulation",
            )
        for text, line in self._x_controls:
            self.emit(
                "L0504",
                "%s can read X from a never-reset register: control flow "
                "may diverge from two-state simulation" % text,
                line,
                hint="reset the registers feeding this control read",
            )


def check_values(module, table, filename="<input>"):
    """Run the L05xx checkers over *module* using a converged *table*."""
    if not table.converged:
        return []  # facts are under-approximations; claims would be unsound
    checker = _ValueChecker(module, table, filename)
    diagnostics = checker.run()
    diagnostics.sort(key=Diagnostic.sort_key)
    return diagnostics


def analyze_values(module, filename="<input>", max_iterations=None):
    """Facts plus L05xx diagnostics for one flat module.

    Returns ``(FactTable, [Diagnostic])``. When the fixpoint fails to
    converge the diagnostic list is empty and ``table.converged`` is
    False — consumers must treat the facts as unusable.
    """
    table = compute_facts(module, max_iterations=max_iterations)
    return table, check_values(module, table, filename=filename)
