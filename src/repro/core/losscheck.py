"""LossCheck: precise data-loss localization (§4.5).

A developer names a **Source** register, a **Sink** register, and the
Source's valid signal. LossCheck then:

1. statically extracts the propagation-relation table
   (:mod:`repro.analysis.propagation`) and the registers on any
   Source-to-Sink propagation sequence (§4.5.1);
2. instruments each such register R with shadow variables (§4.5.2):
   assignment status ``A(R)``, valid-assignment status ``V(R)``,
   propagation status ``P(R)``, and the needs-propagation flag ``N(R)``
   computed exactly per Equation 1 —
   ``N_k = V_{k-1} | (N_{k-1} & ~P_{k-1})`` — flagging loss per
   Equation 2 — ``Loss = A_k & ~P_k & N_k``;
3. at runtime reports ``LossCheck: potential data loss at R`` through
   SignalCat, and filters false positives (intentional drops) using a
   developer-provided ground-truth test program (§4.5.3).

The documented limitation (§4.5.4) holds here too: an unintentional loss
at a register that also drops data intentionally in the ground-truth test
is mis-filtered (the testbed's bug D11 reproduces this false negative).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hdl import ast_nodes as ast
from ..analysis.assignments import analyze_module
from ..analysis.propagation import build_propagation_table
from ..sim.simulator import Simulator
from .. import obs
from .instrument import Instrumenter, flat_name, record_pass_metrics
from .signalcat import Mode, SignalCat

_LABEL_PREFIX = "losscheck:"


@dataclass
class LossWarning:
    """One runtime loss report."""

    cycle: int
    location: str

    def __str__(self):
        return "[%6d] LossCheck: potential data loss at %s" % (
            self.cycle,
            self.location,
        )


@dataclass
class LossCheckResult:
    """Outcome of one LossCheck analysis run."""

    #: All raw warnings, in cycle order.
    warnings: list = field(default_factory=list)
    #: Locations suppressed by ground-truth filtering (§4.5.3).
    filtered: set = field(default_factory=set)
    #: Locations still reported after filtering, ordered by first warning.
    localized: list = field(default_factory=list)

    @property
    def found_loss(self):
        return bool(self.localized)

    def first_warning_cycle(self, location):
        """Cycle of the first warning at *location* (None if never)."""
        for warning in self.warnings:
            if warning.location == location:
                return warning.cycle
        return None

    def report(self):
        """Readable multi-line summary of the analysis."""
        lines = []
        if not self.warnings:
            lines.append("no potential data loss observed")
        for location in self.localized:
            count = sum(1 for w in self.warnings if w.location == location)
            lines.append(
                "potential data loss at %s (first at cycle %d, %d warnings)"
                % (location, self.first_warning_cycle(location), count)
            )
        suppressed = sorted(
            {w.location for w in self.warnings} & self.filtered
        )
        for location in suppressed:
            lines.append(
                "suppressed %s (intentional drop per ground-truth test)"
                % location
            )
        return "\n".join(lines)


def _or_conditions(conditions):
    """OR a list of (possibly None == always-true) conditions."""
    result = None
    for condition in conditions:
        if condition is None:
            return ast.Number(value=1, width=1)
        if result is None:
            result = condition
        else:
            result = ast.BinaryOp(op="||", left=result, right=condition)
    return result


class LossCheck:
    """Instruments a design to localize data loss between Source and Sink.

    Parameters
    ----------
    design:
        Elaborated design (or flat module).
    source / sink:
        Register (or input/output port) names bounding the suspected
        lossy path.
    source_valid:
        Name (or expression text) of the Source's valid signal; when
        omitted, every Source value is treated as valid.
    prune:
        When set, restrict shadow-variable instrumentation to registers
        on an actual payload-carrying Source→Sink dataflow slice
        (:func:`repro.flow.payload_slice`) instead of every register on
        any propagation sequence. Verdict-only registers (comparison
        results, handshake flags the propagation table conservatively
        keeps) are skipped, cutting generated LoC and shadow registers,
        and registers the abstract interpreter
        (:func:`repro.flow.compute_facts`) proves constant are dropped
        too — a register that only ever holds one value cannot drop
        payload. Pruning errs toward reporting: a dropped register's validity is
        treated as always-true downstream, so kept registers warn at
        least as often as before. Falls back to the full monitored set
        when the payload slice misses either endpoint (e.g. the Source
        is a control signal whose influence on the Sink is all through
        conditions or indices).
    """

    def __init__(
        self,
        design,
        source,
        sink,
        source_valid=None,
        prune=False,
    ):
        with obs.span("pass:losscheck"):
            self.instrumenter = Instrumenter(design, prefix="lc_")
            self.module = self.instrumenter.module
            self.source = source
            self.sink = sink
            self.source_valid = source_valid
            self.table = build_propagation_table(self.instrumenter.original)
            self.path = self.table.path_registers(source, sink)
            if sink not in self.path or source not in self.path:
                raise ValueError(
                    "no propagation path from %r to %r" % (source, sink)
                )
            self._view = analyze_module(self.instrumenter.original)
            self.prune = prune
            self.monitored = self._select_monitored()
            #: Path registers dropped by pruning (empty without prune).
            self.pruned_out = []
            if prune:
                self._apply_prune()
            self._valid_regs = {}
            self.filtered = set()
            self._instrument()
        record_pass_metrics("losscheck", self.instrumenter)
        self._record_prune_metrics()

    # -- static selection ---------------------------------------------------

    def _select_monitored(self):
        """Path registers that can lose data: sequentially assigned, not sink."""
        monitored = []
        for name in sorted(self.path):
            if name == self.sink:
                continue
            records = self._view.assignments_to(name)
            if any(r.sequential for r in records):
                monitored.append(name)
        return monitored

    def _apply_prune(self):
        """Intersect the monitored set with the payload dataflow slice.

        Conservative in both directions: when the slice is empty or
        omits the Source/Sink endpoints (the payload tracer gave up on
        the design), the full propagation-path set is kept unchanged.

        A second cut intersects with the abstract-interpretation facts
        (:func:`repro.flow.compute_facts`): a monitored register proven
        to hold a single constant value in every reachable state cannot
        lose payload data — its shadow variable would never record a
        drop — so it is pruned too. Registers with X taint or
        non-converged fact tables are kept (facts would be unusable).
        """
        from ..flow.defuse import payload_slice

        slice_regs = set(
            payload_slice(
                self.instrumenter.original,
                self.source,
                self.sink,
                view=self._view,
            )
        )
        if self.source in slice_regs and self.sink in slice_regs:
            kept = [name for name in self.monitored if name in slice_regs]
            if kept:
                self.pruned_out = [
                    name for name in self.monitored if name not in slice_regs
                ]
                self.monitored = kept
        self._prune_constants()

    def _prune_constants(self):
        """Drop monitored registers the abstract facts prove constant."""
        from ..flow.absint import compute_facts

        try:
            facts = compute_facts(self.instrumenter.original)
        except Exception:
            return
        if not facts.converged:
            return
        constants = facts.constants()
        protected = {self.source, self.sink}
        dropped = [
            name
            for name in self.monitored
            if name in constants and name not in protected
        ]
        if not dropped:
            return
        kept = [name for name in self.monitored if name not in dropped]
        if not kept:
            return
        self.pruned_out.extend(dropped)
        self.monitored = kept

    def _record_prune_metrics(self):
        if not obs.enabled:
            return
        obs.gauge("pass.losscheck.monitored").set(len(self.monitored))
        obs.gauge("pass.losscheck.pruned_out").set(len(self.pruned_out))

    def _is_array(self, name):
        decl = self.instrumenter.original.find_declaration(name)
        return decl is not None and decl.array is not None

    # -- instrumentation (§4.5.2) ----------------------------------------------

    def _source_valid_expr(self):
        if self.source_valid is None:
            return ast.Number(value=1, width=1)
        from ..hdl.parser import parse_expression

        return parse_expression(self.source_valid)

    def _validity_of(self, name):
        """Expression for 'the value currently held by *name* is valid'.

        Untracked on-path nodes (IP outputs, memories, input ports other
        than the Source) are conservatively treated as always-valid; the
        ground-truth filtering pass absorbs any resulting false alarms
        (§4.5.3).
        """
        if name == self.source:
            return self._source_valid_expr()
        reg = self._valid_regs.get(name)
        if reg is None:
            return ast.Number(value=1, width=1)
        return ast.Identifier(name=reg)

    def _instrument(self):
        ins = self.instrumenter
        scalars = [n for n in self.monitored if not self._is_array(n)]
        arrays = [n for n in self.monitored if self._is_array(n)]
        # Validity-tracking registers must exist before V-expressions
        # reference them.
        for name in scalars:
            self._valid_regs[name] = ins.add_reg(
                ins.fresh("valid_" + name)
            ).name
        for name in scalars:
            self._instrument_register(name)
        for name in arrays:
            self._instrument_array(name)
        self._instrument_ip_loss_points()

    def _assignment_condition(self, name):
        """A(R): any non-hold assignment to R fires this cycle."""
        conditions = []
        for record in self._view.assignments_to(name):
            if not record.sequential:
                continue
            if (
                isinstance(record.rhs, ast.Identifier)
                and record.rhs.name == name
            ):
                continue  # explicit hold (r <= r) keeps the value
            conditions.append(record.condition)
        return _or_conditions(conditions) or ast.Number(value=0, width=1)

    def _valid_condition(self, name):
        """V(R): R is assigned a valid value from the path this cycle."""
        terms = []
        for relation in self.table.into(name):
            if relation.identity_hold or relation.src not in self.path:
                continue
            validity = self._validity_of(relation.src)
            if validity is None:
                continue
            if relation.condition is None:
                terms.append(validity)
            else:
                terms.append(
                    ast.BinaryOp(op="&&", left=relation.condition, right=validity)
                )
        return _or_conditions(terms) or ast.Number(value=0, width=1)

    def _propagation_condition(self, name):
        """P(R): R's value propagates to some register this cycle."""
        conditions = []
        for relation in self.table.out_of(name):
            if relation.identity_hold:
                continue
            conditions.append(relation.condition)
        return _or_conditions(conditions) or ast.Number(value=0, width=1)

    def _instrument_register(self, name):
        ins = self.instrumenter
        safe = flat_name(name)
        a_wire = ins.add_wire(ins.fresh("A_" + safe), self._assignment_condition(name))
        v_wire = ins.add_wire(ins.fresh("V_" + safe), self._valid_condition(name))
        p_wire = ins.add_wire(
            ins.fresh("P_" + safe), self._propagation_condition(name)
        )
        a_reg = ins.add_reg(ins.fresh("Ar_" + safe))
        v_reg = ins.add_reg(ins.fresh("Vr_" + safe))
        p_reg = ins.add_reg(ins.fresh("Pr_" + safe))
        n_reg = ins.add_reg(ins.fresh("N_" + safe))
        valid_reg = ast.Identifier(name=self._valid_regs[name])
        display = ast.Display(
            format="LossCheck: potential data loss at %s" % name,
            args=[],
            label=_LABEL_PREFIX + name,
        )
        statements = [
            # Shadow statuses of the current cycle, registered (§4.5.2).
            ast.NonblockingAssign(lhs=a_reg, rhs=a_wire),
            ast.NonblockingAssign(lhs=v_reg, rhs=v_wire),
            ast.NonblockingAssign(lhs=p_reg, rhs=p_wire),
            # Equation 1: N_k = V_{k-1} | (N_{k-1} & ~P_{k-1}).
            ast.NonblockingAssign(
                lhs=n_reg,
                rhs=ast.BinaryOp(
                    op="|",
                    left=v_reg,
                    right=ast.BinaryOp(
                        op="&",
                        left=n_reg,
                        right=ast.UnaryOp(op="~", operand=p_reg),
                    ),
                ),
            ),
            # Validity of the value now stored in R.
            ast.NonblockingAssign(
                lhs=valid_reg,
                rhs=ast.Ternary(
                    cond=v_wire,
                    iftrue=ast.Number(value=1, width=1),
                    iffalse=ast.Ternary(
                        cond=a_wire,
                        iftrue=ast.Number(value=0, width=1),
                        iffalse=valid_reg,
                    ),
                ),
            ),
            # Equation 2: Loss = A & ~P & N (one cycle delayed report).
            ast.If(
                cond=ast.BinaryOp(
                    op="&",
                    left=a_reg,
                    right=ast.BinaryOp(
                        op="&",
                        left=ast.UnaryOp(op="~", operand=p_reg),
                        right=n_reg,
                    ),
                ),
                then_stmt=ast.Block(statements=[display]),
            ),
        ]
        clock = self._clock_of(name)
        ins.add_clocked_block(statements, clock=clock)

    def _instrument_array(self, name):
        """Bounds-check instrumentation for a memory on the path (§3.2.1).

        Whole-array A/V/P/N tracking would flood with false positives, so
        memories are checked for the hardware buffer-overflow semantics
        instead: any write whose index can exceed the depth is monitored,
        catching both dropped writes (non-power-of-two depths) and
        index-truncation overwrites (power-of-two depths).
        """
        from ..sim.values import SymbolTable, self_width

        ins = self.instrumenter
        decl = self.instrumenter.original.find_declaration(name)
        depth = decl.array_depth
        symbols = SymbolTable(self.instrumenter.original)
        checks = []
        for record in self._view.assignments_to(name):
            if not record.sequential:
                continue
            lhs = record.lhs
            if not isinstance(lhs, ast.Index):
                continue
            index_expr = lhs.index
            index_width = self_width(index_expr, symbols)
            if (1 << index_width) <= depth:
                continue  # index cannot address past the end
            overflow = ast.BinaryOp(
                op=">=", left=index_expr, right=ast.Number(value=depth)
            )
            condition = (
                overflow
                if record.condition is None
                else ast.BinaryOp(op="&&", left=record.condition, right=overflow)
            )
            checks.append(condition)
        if not checks:
            return
        display = ast.Display(
            format="LossCheck: potential data loss at %s" % name,
            args=[],
            label=_LABEL_PREFIX + name,
        )
        condition = _or_conditions(checks)
        ins.add_clocked_block(
            [ast.If(cond=condition, then_stmt=ast.Block(statements=[display]))],
            clock=self._clock_of(name),
        )

    def _clock_of(self, name):
        for record in self._view.assignments_to(name):
            if record.clock:
                return record.clock
        return None

    def _instrument_ip_loss_points(self):
        ins = self.instrumenter
        for point in self.table.ip_loss_points:
            if not any(src in self.path for src in point.sources):
                continue
            location = "%s.%s" % (point.instance, point.port)
            display = ast.Display(
                format="LossCheck: potential data loss at %s (%s)"
                % (location, point.description),
                args=[],
                label=_LABEL_PREFIX + location,
            )
            condition = point.condition or ast.Number(value=1, width=1)
            ins.add_clocked_block(
                [ast.If(cond=condition, then_stmt=ast.Block(statements=[display]))]
            )

    # -- runtime (§4.5.3) -------------------------------------------------------

    def simulator(self, mode=Mode.SIMULATION, **kwargs):
        """SignalCat-wrapped simulator for the instrumented design."""
        self._signalcat = SignalCat(self.module, mode=mode, **kwargs)
        return self._signalcat.simulator()

    def _warnings_from(self, sim):
        signalcat = getattr(self, "_signalcat", None)
        if signalcat is not None:
            pairs = [(e.cycle, e.label) for e in signalcat.reconstruct(sim)]
        else:
            pairs = [(e.cycle, e.label) for e in sim.display_events]
        return [
            LossWarning(cycle=cycle, location=label[len(_LABEL_PREFIX):])
            for cycle, label in pairs
            if label.startswith(_LABEL_PREFIX)
        ]

    def calibrate(self, ground_truth, mode=Mode.SIMULATION, **kwargs):
        """Run a *passing* test program and learn intentional-drop sites.

        Any location that reports loss during the ground-truth run is an
        intentional data drop; its warnings are suppressed in subsequent
        analyses (§4.5.3). Returns the set of filtered locations.
        """
        sim = self.simulator(mode=mode, **kwargs)
        ground_truth(sim)
        self.filtered = {w.location for w in self._warnings_from(sim)}
        return self.filtered

    def analyze(self, drive, mode=Mode.SIMULATION, **kwargs):
        """Run the failure scenario *drive(sim)* and localize the loss."""
        sim = self.simulator(mode=mode, **kwargs)
        drive(sim)
        warnings = self._warnings_from(sim)
        localized = []
        for warning in warnings:
            if warning.location in self.filtered:
                continue
            if warning.location not in localized:
                localized.append(warning.location)
        return LossCheckResult(
            warnings=warnings, filtered=set(self.filtered), localized=localized
        )

    # -- reporting -----------------------------------------------------------------

    def relation_table(self):
        """The static propagation relations, for inspection/reports."""
        return self.table

    def generated_line_count(self):
        """Lines of generated Verilog (§6.3 metric)."""
        return self.instrumenter.generated_line_count()

    def generated_verilog(self):
        """The generated instrumentation as Verilog text."""
        return self.instrumenter.generated_verilog()
