"""Cycle-accurate two-phase simulator for elaborated designs.

Execution model (matching synthesizable semantics, like Verilator's
two-state scheduler that the paper's testbed uses):

1. **Settle**: continuous assigns, ``always @(*)`` blocks and blackbox IP
   outputs are evaluated repeatedly until the state reaches a fixed point
   (a bounded loop; a true combinational cycle raises
   :class:`CombinationalLoopError`).
2. **Clock edge**: every ``always @(posedge clk)`` block executes against
   the pre-edge state; blocking assigns update a per-block overlay,
   nonblocking assigns are queued and committed together afterwards.
   Blackbox IPs clock their internal state with pre-edge inputs.
3. Settle again (and run ``negedge`` blocks, if any, as a second half).

``$display`` statements execute during sequential evaluation and append
:class:`DisplayEvent` records — the hook SignalCat builds on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import itemgetter

from .. import obs
from ..hdl import ast_nodes as ast
from ..hdl.elaborate import Design
from ..hdl.transform import const_eval
from .compiler import compile_process, lvalue_names
from .values import SimulatorError, SymbolTable, mask


class CombinationalLoopError(SimulatorError):
    """Raised when combinational logic does not reach a fixed point."""


@dataclass
class DisplayEvent:
    """One executed ``$display``: cycle number, formatted text, raw values."""

    cycle: int
    text: str
    values: list = field(default_factory=list)
    lineno: int = 0
    label: str = ""
    format: str = ""

    def __str__(self):
        return "[%6d] %s" % (self.cycle, self.text)


_FORMAT_RE = re.compile(r"%(-?\d*)([dhxbcst%])", re.IGNORECASE)


def _pad(text, width_spec):
    """Apply a ``%5d``-style width: right-justify, ``-`` left, ``0`` zero."""
    if not width_spec:
        return text
    width = int(width_spec)
    if width < 0:
        return text.ljust(-width)
    if width_spec[0] == "0":
        return text.rjust(width, "0")
    return text.rjust(width)


def verilog_format(fmt, values):
    """Format a ``$display`` string with evaluated argument values."""
    values = list(values)

    def sub(match):
        spec = match.group(2).lower()
        if spec == "%":
            return "%"
        if spec == "t":
            spec = "d"
        if not values:
            return match.group(0)
        value = values.pop(0)
        if spec == "d":
            return _pad(str(value), match.group(1))
        if spec in ("h", "x"):
            return _pad("%x" % value, match.group(1))
        if spec == "b":
            return _pad(bin(value)[2:], match.group(1))
        if spec == "c":
            return chr(value & 0xFF)
        if spec == "s":
            return _pad(str(value), match.group(1))
        return match.group(0)

    return _FORMAT_RE.sub(sub, fmt)


def _snapshotter(names):
    """``f(state) -> tuple`` of the values of *names*, in order."""
    if len(names) == 1:
        (name,) = names
        return lambda state: (state[name],)
    if not names:
        return lambda state: ()
    return itemgetter(*names)


class Simulator:
    """Simulates one elaborated :class:`~repro.hdl.elaborate.Design`.

    Each process (continuous assign, ``always`` block, blackbox instance)
    is compiled once, at construction, into a Python function by
    :mod:`repro.sim.compiler`; settle and clock edges call those.

    Parameters
    ----------
    design:
        An elaborated Design (or a flat Module).
    ips:
        Optional mapping of blackbox module name to a model factory
        ``factory(params: dict) -> model``. Defaults to the registry in
        :mod:`repro.sim.ip`.
    trace:
        Optional iterable of signal names to record every cycle (or the
        string ``"all"``); see :attr:`waveform`.
    """

    def __init__(self, design, ips=None, max_settle=100, trace=None):
        if isinstance(design, Design):
            module = design.top
        elif isinstance(design, ast.Module):
            module = design
        else:
            raise TypeError("design must be a Design or Module")
        self.module = module
        self.symbols = SymbolTable(module)
        self.state = self.symbols.initial_state()
        self.cycle = 0
        self.finished = False
        self.display_events = []
        self.on_display = None
        #: Callables invoked with ``self`` at the start of every cycle,
        #: before the pre-edge settle. The fault-injection engine
        #: (:mod:`repro.faults`) and the harness watchdog attach here.
        self.cycle_hooks = []
        #: Nets forced to a fixed value (stuck-at faults): name -> value.
        #: Reapplied after every settle pass so combinational logic cannot
        #: overwrite the forced value; managed by :mod:`repro.faults`.
        self.forced = {}
        self._max_settle = max_settle
        self._comb_items = []
        self._seq_blocks = []
        self._instances = []
        self._classify_items(module)
        self._bind_ips(ips)
        self._build_processes()
        if trace == "all":
            trace = [
                name
                for name, depth in self.symbols.depths.items()
                if depth == 0
            ]
        self._trace_signals = list(trace) if trace else []
        self.waveform = {name: [] for name in self._trace_signals}

    # -- construction -------------------------------------------------------

    def _classify_items(self, module):
        for item in module.items:
            if isinstance(item, ast.ContinuousAssign):
                self._comb_items.append(item)
            elif isinstance(item, ast.Always):
                if item.is_combinational:
                    self._check_no_display(item.body)
                    self._comb_items.append(item)
                else:
                    self._seq_blocks.append(item)
            elif isinstance(item, ast.Instance):
                self._instances.append(item)
            elif isinstance(item, (ast.Declaration, ast.ParameterDecl)):
                continue
            else:
                raise SimulatorError("unsupported module item %r" % (item,))

    def _check_no_display(self, stmt):
        for node in stmt.walk():
            if isinstance(node, ast.Display):
                raise SimulatorError(
                    "$display inside combinational always blocks is not "
                    "supported; move it into a clocked block"
                )

    def _bind_ips(self, ips):
        from . import ip as ip_registry

        factories = dict(ip_registry.REGISTRY)
        if ips:
            factories.update(ips)
        self._ip_models = {}
        for inst in self._instances:
            if inst.module_name not in factories:
                raise SimulatorError(
                    "no IP model registered for blackbox %r" % inst.module_name
                )
            params = {p.name: const_eval(p.value) for p in inst.params}
            self._ip_models[inst.instance_name] = factories[inst.module_name](params)

    def _build_process(self, item):
        """The callable for one process (see :func:`compile_process`)."""
        return compile_process(self, item)

    def _build_processes(self):
        comb_procs = [self._build_process(item) for item in self._comb_items]
        ip_procs = [self._build_process(inst) for inst in self._instances]
        # One settle pass: every comb item, then every IP's outputs.
        self._settle_procs = comb_procs + [settle for settle, _ in ip_procs]
        self._ip_inputs = [inputs for _, inputs in ip_procs]
        self._seq_procs = [self._build_process(b) for b in self._seq_blocks]
        # Only these scalars can change during a settle pass (plus forced
        # nets), so only they are snapshotted for the convergence test.
        written = set()
        for item in self._comb_items:
            written |= lvalue_names(item)
        for inst in self._instances:
            for conn in inst.ports:
                if conn.expr is not None:
                    written.update(
                        n.name
                        for n in conn.expr.walk()
                        if isinstance(n, ast.Identifier)
                    )
        watched = sorted(
            name for name in written if self.symbols.depths.get(name) == 0
        )
        self._watched = watched, _snapshotter(watched)
        self._edge_plans = {}

    def ip_model(self, instance_name):
        """Return the bound Python model for a blackbox instance."""
        return self._ip_models[instance_name]

    # -- state access -------------------------------------------------------

    def get(self, name):
        """Current value of signal *name* (int, or list for memories)."""
        return self.state[name]

    def set(self, name, value):
        """Drive signal *name* (used by testbenches for top-level inputs)."""
        if name not in self.state:
            raise SimulatorError("undeclared signal %r" % name)
        if isinstance(self.state[name], list):
            raise SimulatorError("cannot set a memory directly")
        self.state[name] = value & mask(self.symbols.width_of(name))

    def __getitem__(self, name):
        return self.get(name)

    def __setitem__(self, name, value):
        self.set(name, value)

    # -- combinational settle -------------------------------------------------

    def settle(self):
        """Evaluate combinational logic and IP outputs to a fixed point.

        Convergence is judged per *pass*, not per write: a pass that
        rewrites a signal several times (the two-process FSM idiom
        ``next = state; case (state) ... next = X;``) but ends where it
        started has converged.
        """
        state = self.state
        procs = self._settle_procs
        names, snapshot = self._watched
        before = ()
        array_writes = False
        for iteration in range(1, self._max_settle + 1):
            if self.forced:
                names, snapshot = self._forced_watch(state)
            before = snapshot(state)
            array_writes = False
            for proc in procs:
                if proc(state):
                    array_writes = True
            if self.forced:
                self._apply_forced()
            if not array_writes and snapshot(state) == before:
                if obs.enabled:
                    obs.histogram("sim.settle_iterations").observe(iteration)
                    if self._comb_items:
                        obs.counter("sim.comb_evals").inc(
                            iteration * len(self._comb_items)
                        )
                    if self._instances:
                        obs.counter("sim.ip_calls").inc(
                            iteration * len(self._instances)
                        )
                return
        unstable = sorted(
            name
            for name, value in zip(names, before)
            if state[name] != value
        )
        if array_writes:
            unstable.append("<memory writes>")
        raise CombinationalLoopError(
            "combinational logic did not settle after %d passes; "
            "still changing: %s"
            % (self._max_settle, ", ".join(unstable) or "<none observed>")
        )

    def _forced_watch(self, state):
        """The settle snapshot widened by forced scalar nets."""
        names, snapshot = self._watched
        extra = [
            name
            for name in self.forced
            if name not in names
            and name in state
            and not isinstance(state[name], list)
        ]
        if not extra:
            return names, snapshot
        names = names + extra
        return names, _snapshotter(names)

    # -- clocked execution -----------------------------------------------------

    def step(self, cycles=1, clock="clk"):
        """Advance *cycles* full cycles of *clock*."""
        for _ in range(cycles):
            if self.finished:
                return
            self._one_cycle(clock)

    def _apply_forced(self):
        """Reassert stuck-at forces over whatever the design computed."""
        for name, value in self.forced.items():
            self.state[name] = value & mask(self.symbols.width_of(name))

    def _one_cycle(self, clock):
        if self.cycle_hooks:
            for hook in list(self.cycle_hooks):
                hook(self)
        if self.forced:
            self._apply_forced()
        self.settle()
        self._record_trace()
        self._edge(clock, ast.Edge.POSEDGE)
        self.settle()
        if self._edge_plan(clock, ast.Edge.NEGEDGE)[0]:
            self._edge(clock, ast.Edge.NEGEDGE)
            self.settle()
        self.cycle += 1
        if obs.enabled:
            obs.counter("sim.cycles").inc()

    def _edge_plan(self, clock, edge):
        """(triggered block processes, [(model, inputs, fired ports)])."""
        plan = self._edge_plans.get((clock, edge))
        if plan is None:
            blocks = [
                proc
                for block, proc in zip(self._seq_blocks, self._seq_procs)
                if any(
                    item.edge is edge and item.signal == clock
                    for item in block.sens
                )
            ]
            ips = []
            for inst, inputs in zip(self._instances, self._ip_inputs):
                model = self._ip_models[inst.instance_name]
                fired = frozenset(
                    conn.port
                    for conn in inst.ports
                    if conn.port in model.CLOCK_PORTS
                    and isinstance(conn.expr, ast.Identifier)
                    and conn.expr.name == clock
                )
                if fired:
                    ips.append((model, inputs, fired))
            plan = self._edge_plans[(clock, edge)] = (blocks, ips)
        return plan

    def _edge(self, clock, edge):
        blocks, ips = self._edge_plan(clock, edge)
        state = self.state
        pending = []
        for proc in blocks:
            proc(state, pending)
        for model, inputs, fired in ips:
            model.clock_edge(inputs(state), fired)
            if obs.enabled:
                obs.counter("sim.ip_calls").inc()
        self._commit(pending)

    def _commit(self, pending):
        # Each entry is (writer, value, overlay). A writer is a scalar's
        # name (value already masked) or a callable that evaluates the
        # lvalue's indices now, against the block's overlay, per
        # nonblocking semantics.
        state = self.state
        for writer, value, overlay in pending:
            if writer.__class__ is str:
                state[writer] = value
            else:
                writer(state, overlay, value)

    def _emit_display(self, fmt, values, lineno, label):
        """Record one executed ``$display``."""
        event = DisplayEvent(
            cycle=self.cycle,
            text=verilog_format(fmt, values),
            values=values,
            lineno=lineno,
            label=label,
            format=fmt,
        )
        self.display_events.append(event)
        if obs.enabled:
            obs.counter("sim.display_events").inc()
        if self.on_display is not None:
            self.on_display(event)

    # -- tracing -------------------------------------------------------------------

    def _record_trace(self):
        for name in self._trace_signals:
            self.waveform[name].append(self.state[name])

    # -- checkpointing -----------------------------------------------------

    def checkpoint(self):
        """Capture the complete simulation state (§7's checkpointing).

        Returns an opaque snapshot: design registers/memories, cycle
        count, display log, and every blackbox IP's internal state.
        Restore with :meth:`restore` to replay from that point —
        StateMover/DESSERT-style debugging without re-running the prefix.
        """
        import copy
        import pickle

        ip_state = {
            name: copy.deepcopy(model.__dict__)
            for name, model in self._ip_models.items()
        }
        return pickle.dumps(
            {
                "state": copy.deepcopy(self.state),
                "cycle": self.cycle,
                "finished": self.finished,
                "displays": copy.deepcopy(self.display_events),
                "ips": ip_state,
                "waveform": copy.deepcopy(self.waveform),
                "forced": dict(self.forced),
            }
        )

    def restore(self, snapshot):
        """Restore a snapshot captured by :meth:`checkpoint`."""
        import pickle

        data = pickle.loads(snapshot)
        self.state = data["state"]
        self.cycle = data["cycle"]
        self.finished = data["finished"]
        self.display_events = data["displays"]
        self.waveform = data["waveform"]
        self.forced = dict(data.get("forced", {}))
        for name, model_state in data["ips"].items():
            self._ip_models[name].__dict__.update(model_state)

    def run(self, max_cycles, clock="clk", until=None):
        """Step until ``$finish``, *until(sim)* is truthy, or *max_cycles*.

        Returns the number of cycles executed.
        """
        start = self.cycle
        while self.cycle - start < max_cycles and not self.finished:
            self.step(clock=clock)
            if until is not None and until(self):
                break
        return self.cycle - start
