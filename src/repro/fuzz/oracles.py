"""Correctness oracles: what a fuzz case must satisfy to pass.

Six oracle families, each checking a different layer of the stack:

* **round-trip** — ``parse(codegen(parse(src)))`` must be AST-equal to
  ``parse(src)``: the parser and code generator are inverses over the
  supported subset. Violations are parser/codegen bugs.
* **differential** — the compiled :class:`~repro.sim.Simulator` (one
  Python function per process, :mod:`repro.sim.compiler`) and the
  AST-walking :class:`~repro.sim.reference.ReferenceSimulator` must
  produce bit-identical per-cycle state traces, ``$display`` logs, and
  termination behavior under the same stimulus. Violations are simulator
  backend bugs.
* **metamorphic** — applying any instrumentation pass (SignalCat, FSM
  Monitor, Dependency Monitor, Statistics Monitor, LossCheck) must leave
  every *original* signal cycle-identical and every original ``$display``
  event unchanged: instrumentation never perturbs the design it observes
  (the property the paper's tools depend on). Violations are
  instrumentation bugs.
* **lint** — ``repro check`` must yield a *well-formed* verdict on any
  input: no crash, only registered rule codes, sane spans, agreement
  with the strict parser about validity, and a byte-deterministic
  report. Violations are diagnostics bugs.
* **flow** — the design-level dataflow engine must terminate with a
  deterministic verdict on any elaborable design: no crash, every
  fixpoint converges, only registered L04xx codes with sane spans, and
  two runs render byte-identical findings. Violations are flow-engine
  bugs.
* **absint** — the abstract interpreter's per-signal facts must be
  *sound*: simulating the design under seeded stimulus, no concrete
  value may ever escape its static interval or contradict its known
  bits; the fact fixpoint must converge (a cap hit is a failure, since
  capped facts are unusable under-approximations) and two runs must
  render byte-identical :class:`~repro.flow.absint.FactTable` JSON.
  Violations are abstract-domain/transfer-function bugs.

All oracles take Verilog source text, so reducer output can be re-run
through the same predicate unchanged. Outcomes are ``pass``, ``fail``
(with a first-divergence detail string), or ``inapplicable`` (the design
lacks what the oracle needs, e.g. LossCheck without a dataflow path).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.dependency_monitor import DependencyMonitor
from ..core.fsm_monitor import FSMMonitor
from ..core.losscheck import LossCheck
from ..core.signalcat import Mode, SignalCat
from ..core.statistics_monitor import StatisticsMonitor
from ..core.instrument import dominant_clock
from ..hdl import ast_nodes as ast
from ..hdl import elaborate, parse
from ..hdl.ast_nodes import ast_diff
from ..hdl.codegen import generate_source
from ..sim import Simulator
from ..sim.reference import ReferenceSimulator

PASS = "pass"
FAIL = "fail"
INAPPLICABLE = "inapplicable"

#: Oracle registry: name -> callable(text, top, seed, cycles).
ORACLE_NAMES = (
    "roundtrip", "differential", "metamorphic", "lint", "flow", "absint"
)

_RESET_HIGH = frozenset(["rst", "reset"])
_RESET_LOW = frozenset(["rst_n", "resetn", "rstn", "nreset"])


@dataclass
class OracleOutcome:
    """Verdict of one oracle on one case."""

    oracle: str
    status: str
    detail: str = ""

    @property
    def failed(self):
        return self.status == FAIL


# ---------------------------------------------------------------------------
# Stimulus
# ---------------------------------------------------------------------------


def build_stimulus(module, seed, cycles, clock):
    """A deterministic per-cycle input schedule for *module*.

    Reset-like ports are held active for the first two cycles and
    released; every other non-clock input gets a fresh seeded random
    value each cycle. Returns ``[{name: value}, ...]`` of length
    *cycles*.
    """
    rng = random.Random(seed)
    inputs = [
        (port.name, port.bit_width)
        for port in module.ports
        if port.direction is ast.PortDirection.INPUT and port.name != clock
    ]
    schedule = []
    for cycle in range(cycles):
        vector = {}
        for name, width in inputs:
            if name in _RESET_HIGH:
                vector[name] = 1 if cycle < 2 else 0
            elif name in _RESET_LOW:
                vector[name] = 0 if cycle < 2 else 1
            else:
                vector[name] = rng.randrange(1 << min(width, 32))
        schedule.append(vector)
    return schedule


def simulate_trace(design, stimulus, clock, signals=None,
                   simulator_class=Simulator):
    """Run *design* under *stimulus*; returns (per-cycle snapshots, sim).

    Each snapshot maps signal name to value (memories copied). When
    *signals* is given, snapshots are restricted to those names.
    """
    sim = simulator_class(design)
    trace = []
    for vector in stimulus:
        for name, value in vector.items():
            sim.set(name, value)
        sim.step(clock=clock)
        snapshot = {}
        for name, value in sim.state.items():
            if signals is not None and name not in signals:
                continue
            snapshot[name] = list(value) if isinstance(value, list) else value
        trace.append(snapshot)
    return trace, sim


def _first_trace_divergence(trace_a, trace_b, label_a, label_b):
    """Readable first mismatch between two traces, or None.

    Thin wrapper over the shared :mod:`repro.wave` aligner — the same
    primitive the fault scorer uses — preserving the historical detail
    string format (fuzz failure bucketing keys on it).
    """
    from ..wave.align import first_snapshot_divergence

    divergence = first_snapshot_divergence(trace_a, trace_b)
    if divergence is None:
        return None
    return divergence.describe(label_a, label_b)


def _display_log(sim, unlabeled_only=False):
    events = sim.display_events
    if unlabeled_only:
        events = [e for e in events if not e.label]
    return [(e.cycle, e.text) for e in events]


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def roundtrip_oracle(text, top=None, seed=0, cycles=0):
    """parse -> codegen -> parse must reproduce the same AST."""
    first = parse(text)
    regenerated = generate_source(first)
    second = parse(regenerated)
    diff = ast_diff(first, second)
    if diff is None:
        return OracleOutcome(oracle="roundtrip", status=PASS)
    return OracleOutcome(oracle="roundtrip", status=FAIL, detail=diff)


def differential_oracle(text, top=None, seed=0, cycles=48,
                        compiled_class=Simulator):
    """Compiled and reference simulators must be bit-identical.

    ``compiled_class`` (tests only) stands in for the compiled
    :class:`~repro.sim.Simulator`: a subclass with a divergent process
    builder verifies the oracle itself catches a divergent backend.
    """
    design = elaborate(parse(text), top=top)
    clock = dominant_clock(design.top)
    stimulus = build_stimulus(design.top, seed, cycles, clock)
    trace_ref, sim_ref = simulate_trace(
        design, stimulus, clock, simulator_class=ReferenceSimulator
    )
    trace_comp, sim_comp = simulate_trace(
        design, stimulus, clock, simulator_class=compiled_class
    )
    divergence = _first_trace_divergence(
        trace_ref, trace_comp, "reference", "compiled"
    )
    if divergence is None and _display_log(sim_ref) != _display_log(sim_comp):
        divergence = "display logs differ: %r != %r" % (
            _display_log(sim_ref)[:3], _display_log(sim_comp)[:3]
        )
    if divergence is None and sim_ref.finished != sim_comp.finished:
        divergence = "finished flags differ: reference=%r compiled=%r" % (
            sim_ref.finished, sim_comp.finished
        )
    if divergence is None:
        return OracleOutcome(oracle="differential", status=PASS)
    return OracleOutcome(oracle="differential", status=FAIL, detail=divergence)


def _pick_dependency_target(module):
    """A clocked register to trace for the Dependency Monitor pass."""
    for item in module.items:
        if isinstance(item, ast.Always) and not item.is_combinational:
            for node in item.body.walk():
                if isinstance(node, ast.NonblockingAssign) and isinstance(
                    node.lhs, ast.Identifier
                ):
                    return node.lhs.name
    return None


def _pick_statistics_event(module, clock):
    """A 1-bit-ish condition to count with the Statistics Monitor pass."""
    for port in module.ports:
        if port.direction is ast.PortDirection.INPUT and port.name != clock:
            return "%s != 0" % port.name
    return None


def _pick_loss_endpoints(module):
    """(source, sink) guesses for LossCheck on an arbitrary design."""
    source = None
    for port in module.ports:
        if port.direction is ast.PortDirection.INPUT and port.bit_width > 1:
            source = port.name
            break
    sink = _pick_dependency_target(module)
    if source is None or sink is None or source == sink:
        return None
    return source, sink


def default_tools(design, losscheck=None):
    """The instrumentation-pass factories the metamorphic oracle applies.

    Returns ``[(name, factory)]`` where ``factory()`` builds the pass
    over *design* and exposes the instrumented module as ``.module``.
    Factories may raise ValueError/KeyError for designs the pass does
    not apply to (reported as ``inapplicable``, not failures).
    """
    module = design.top
    clock = dominant_clock(module)
    tools = [
        ("signalcat", lambda: SignalCat(design, mode=Mode.SIMULATION)),
        # On-FPGA mode replaces the original $display statements with the
        # recorder IP, so only the signal trace is comparable.
        (
            "signalcat_fpga",
            lambda: SignalCat(design, mode=Mode.ON_FPGA, buffer_depth=64),
            False,
        ),
        ("fsm_monitor", lambda: FSMMonitor(design)),
    ]
    target = _pick_dependency_target(module)
    if target is not None:
        tools.append(
            (
                "dependency_monitor",
                lambda: DependencyMonitor(design, target=target, depth=2),
            )
        )
    event = _pick_statistics_event(module, clock)
    if event is not None:
        tools.append(
            (
                "statistics_monitor",
                lambda: StatisticsMonitor(design, events={"fuzz_event": event}),
            )
        )
    endpoints = losscheck or _pick_loss_endpoints(module)
    if endpoints is not None:
        source, sink = endpoints
        tools.append(
            (
                "losscheck",
                lambda: LossCheck(design, source=source, sink=sink),
            )
        )
    return tools


def metamorphic_oracle(text, top=None, seed=0, cycles=48, tools=None,
                       losscheck=None):
    """Instrumentation must not change any original signal or display.

    Simulates the plain design, then each instrumented variant, under
    identical stimulus; every signal declared in the *original* module
    must match cycle-for-cycle, and the original (unlabeled) ``$display``
    events must be reproduced exactly. Tool-generated signals (prefixed
    ``sc_``/``fsmmon_``/...) and labeled monitor displays are excluded —
    they are the instrumentation's own additions.
    """
    design = elaborate(parse(text), top=top)
    module = design.top
    clock = dominant_clock(module)
    stimulus = build_stimulus(module, seed, cycles, clock)
    base_signals = {decl.name for decl in module.declarations()}
    baseline_trace, baseline_sim = simulate_trace(
        design, stimulus, clock, signals=base_signals
    )
    baseline_displays = _display_log(baseline_sim, unlabeled_only=True)
    if tools is None:
        tools = default_tools(design, losscheck=losscheck)
    applied = 0
    for entry in tools:
        name, factory = entry[0], entry[1]
        compare_displays = entry[2] if len(entry) > 2 else True
        try:
            tool = factory()
        except (KeyError, ValueError):
            continue
        applied += 1
        try:
            instr_trace, instr_sim = simulate_trace(
                tool.module, stimulus, clock, signals=base_signals
            )
        except Exception as exc:
            return OracleOutcome(
                oracle="metamorphic",
                status=FAIL,
                detail="pass %s broke simulation: %s: %s"
                % (name, type(exc).__name__, exc),
            )
        divergence = _first_trace_divergence(
            baseline_trace, instr_trace, "plain", name
        )
        if divergence is None and compare_displays:
            instr_displays = _display_log(instr_sim, unlabeled_only=True)
            if instr_displays != baseline_displays:
                divergence = "original $display log changed under %s" % name
        if divergence is not None:
            return OracleOutcome(
                oracle="metamorphic",
                status=FAIL,
                detail="pass %s perturbed the design: %s" % (name, divergence),
            )
    if not applied:
        return OracleOutcome(
            oracle="metamorphic",
            status=INAPPLICABLE,
            detail="no instrumentation pass applies to this design",
        )
    return OracleOutcome(oracle="metamorphic", status=PASS)


def lint_oracle(text, top=None, seed=0, cycles=48):
    """``repro check`` must produce a well-formed, deterministic verdict.

    Whatever the fuzzer feeds it, the recovering frontend must (a) not
    crash, (b) emit only registered rule codes with sane spans, (c) agree
    with the strict parser about validity — an input the strict parse
    accepts must check with zero parse-stage errors and vice versa — and
    (d) be byte-deterministic: two runs render identical reports.
    """
    from ..diag import is_registered
    from ..diag.check import (
        build_check_report,
        check_text,
        render_check_report,
    )
    from ..hdl.lexer import LexerError
    from ..hdl.parser import ParseError

    result = check_text(text, run_tools=False, run_flow=False)
    for diagnostic in result.sink.diagnostics:
        if not is_registered(diagnostic.code):
            return OracleOutcome(
                oracle="lint",
                status=FAIL,
                detail="unregistered rule code %r" % diagnostic.code,
            )
        if diagnostic.span.line < 0 or diagnostic.span.col < 0:
            return OracleOutcome(
                oracle="lint",
                status=FAIL,
                detail="negative span %s on %s"
                % (diagnostic.span, diagnostic.code),
            )
        if not diagnostic.message:
            return OracleOutcome(
                oracle="lint",
                status=FAIL,
                detail="empty message on %s" % diagnostic.code,
            )
    try:
        parse(text)
        strict_ok = True
    except (LexerError, ParseError):
        strict_ok = False
    recovered_errors = any(
        d.severity.value == "error" and d.code.startswith("P")
        for d in result.sink.diagnostics
    )
    if strict_ok and recovered_errors:
        return OracleOutcome(
            oracle="lint",
            status=FAIL,
            detail="recovering parse reports errors on input the strict "
            "parse accepts",
        )
    if not strict_ok and not recovered_errors:
        return OracleOutcome(
            oracle="lint",
            status=FAIL,
            detail="strict parse rejects input the recovering parse "
            "accepts",
        )
    rendered = render_check_report(build_check_report(result))
    again = render_check_report(
        build_check_report(check_text(text, run_tools=False, run_flow=False))
    )
    if rendered != again:
        return OracleOutcome(
            oracle="lint",
            status=FAIL,
            detail="check report is not byte-deterministic",
        )
    return OracleOutcome(oracle="lint", status=PASS)


def flow_oracle(text, top=None, seed=0, cycles=48):
    """The dataflow engine must terminate with a deterministic verdict.

    On every design that elaborates, :func:`repro.flow.analyze_flow`
    must (a) not crash, (b) converge — no fixpoint may hit its
    iteration cap, (c) emit only registered rule codes with sane spans
    and non-empty messages, and (d) be byte-deterministic: two runs
    render identical findings and identical loop sets.
    """
    from ..diag import is_registered
    from ..flow import analyze_flow
    from ..hdl.lexer import LexerError
    from ..hdl.parser import ParseError

    try:
        design = elaborate(parse(text), top=top)
    except (LexerError, ParseError, ValueError) as exc:
        return OracleOutcome(
            oracle="flow",
            status=INAPPLICABLE,
            detail="design does not elaborate (%s)" % type(exc).__name__,
        )
    try:
        first = analyze_flow(design, filename="<fuzz>")
        second = analyze_flow(design, filename="<fuzz>")
    except Exception as exc:
        return OracleOutcome(
            oracle="flow",
            status=FAIL,
            detail="flow engine crashed: %s: %s" % (type(exc).__name__, exc),
        )
    if not first.converged:
        return OracleOutcome(
            oracle="flow",
            status=FAIL,
            detail="clock-domain fixpoint hit its iteration cap",
        )
    for diagnostic in first.diagnostics:
        if not is_registered(diagnostic.code):
            return OracleOutcome(
                oracle="flow",
                status=FAIL,
                detail="unregistered rule code %r" % diagnostic.code,
            )
        if diagnostic.span.line < 0 or diagnostic.span.col < 0:
            return OracleOutcome(
                oracle="flow",
                status=FAIL,
                detail="negative span %s on %s"
                % (diagnostic.span, diagnostic.code),
            )
        if not diagnostic.message:
            return OracleOutcome(
                oracle="flow",
                status=FAIL,
                detail="empty message on %s" % diagnostic.code,
            )
    rendered = "\n".join(d.format() for d in first.diagnostics)
    again = "\n".join(d.format() for d in second.diagnostics)
    if rendered != again or first.loops != second.loops:
        return OracleOutcome(
            oracle="flow",
            status=FAIL,
            detail="flow verdict is not byte-deterministic",
        )
    return OracleOutcome(oracle="flow", status=PASS)


def absint_oracle(text, top=None, seed=0, cycles=48, max_iterations=None):
    """Abstract facts must be sound against simulation and deterministic.

    On every design that elaborates, :func:`repro.flow.compute_facts`
    must (a) not crash, (b) converge — capped facts are unsound
    under-approximations and count as failures, (c) render a
    byte-identical ``FactTable`` across two runs, and (d) be *sound*:
    simulating the design under the seeded stimulus, every per-cycle
    settled value of every tracked signal (memory elements included)
    stays inside its static interval and consistent with its known
    0/1 bits. ``max_iterations`` (tests only) lowers the solver cap to
    exercise the cap-hit-is-failure path.
    """
    from ..flow import compute_facts
    from ..hdl.lexer import LexerError
    from ..hdl.parser import ParseError

    try:
        design = elaborate(parse(text), top=top)
    except (LexerError, ParseError, ValueError) as exc:
        return OracleOutcome(
            oracle="absint",
            status=INAPPLICABLE,
            detail="design does not elaborate (%s)" % type(exc).__name__,
        )
    module = design.top
    try:
        first = compute_facts(module, max_iterations=max_iterations)
        second = compute_facts(module, max_iterations=max_iterations)
    except Exception as exc:
        return OracleOutcome(
            oracle="absint",
            status=FAIL,
            detail="abstract interpreter crashed: %s: %s"
            % (type(exc).__name__, exc),
        )
    if not first.converged:
        return OracleOutcome(
            oracle="absint",
            status=FAIL,
            detail="fact fixpoint hit its iteration cap after %d "
            "iterations" % first.iterations,
        )
    if first.render() != second.render():
        return OracleOutcome(
            oracle="absint",
            status=FAIL,
            detail="fact table is not byte-deterministic",
        )
    clock = dominant_clock(module)
    stimulus = build_stimulus(module, seed, cycles, clock)
    trace, _sim = simulate_trace(design, stimulus, clock)
    for cycle, snapshot in enumerate(trace):
        for name, value in snapshot.items():
            fact = first.get(name)
            if fact is None:
                continue
            values = value if isinstance(value, list) else [value]
            for index, element in enumerate(values):
                if fact.contains(element):
                    continue
                where = (
                    "%s[%d]" % (name, index)
                    if isinstance(value, list)
                    else name
                )
                return OracleOutcome(
                    oracle="absint",
                    status=FAIL,
                    detail="soundness violation: %s = %d at cycle %d "
                    "escapes its static fact %s"
                    % (where, element, cycle, fact.describe()),
                )
    return OracleOutcome(oracle="absint", status=PASS)


ORACLES = {
    "roundtrip": roundtrip_oracle,
    "differential": differential_oracle,
    "metamorphic": metamorphic_oracle,
    "lint": lint_oracle,
    "flow": flow_oracle,
    "absint": absint_oracle,
}
