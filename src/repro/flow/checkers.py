"""Semantic flow checkers: the L04xx rule family.

Each checker walks the artifacts of the dataflow engine — the signal
graph, clock-domain inference, def-use chains, FSM detection — and
yields :class:`~repro.diag.model.Diagnostic` findings:

* **L0401** (error) — static combinational loop. A cycle in the
  combinational signal graph is reported with its full loop path before
  simulation ever raises ``CombinationalLoopError``; by construction the
  loop's signal set matches the simulator's "still changing" list for
  designs that oscillate.
* **L0402** (warning) — unsynchronized crossing: either a signal from
  another inferred clock domain feeding logic directly, or a data
  register and its name-paired valid/qualifier register driven with
  mismatched latencies (the paper's *signal asynchrony* subclass,
  testbed C3). Latencies are the minimum cycles over the signal
  graph's edge latencies, so a path through a blackbox costs the
  model's latency (``altsyncram`` data→q is 2 cycles).
* **L0403** (warning) — multi-bit clock-domain crossing captured without
  gray coding or a synchronized handshake: individual bits can settle on
  different edges, so the captured word can be a value never sent.
* **L0404** (warning) — write-write race: one register sequentially
  assigned from two different always blocks under conditions that cannot
  be proven disjoint (simulator ordering decides who wins).
* **L0405** (warning) — mixed blocking/nonblocking drivers on one
  register (read-order hazards inside the same timestep).
* **L0406** (warning) — register read but never reset in a design that
  otherwise uses its reset, so it holds an uninitialized value until its
  enable first fires.
* **L0407** (warning) — FSM states that no transition can reach from the
  reset/initial states (via ``fsm_detect`` + reachability).

All checkers are deterministic: inputs are walked in sorted order and
diagnostics carry stable messages, so two runs over the same design
render byte-identical reports (enforced by the ``flow`` fuzz oracle and
CI's ``cmp`` gate).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hdl import ast_nodes as ast
from ..hdl.codegen import generate_expression
from ..analysis.assignments import analyze_module
from ..analysis.fsm_detect import detect_fsms
from ..diag.model import Diagnostic, Severity, SourceSpan
from .clockdomain import infer_domains
from .graph import build_signal_graph
from .solver import min_latencies, reachable

#: Reset-like signal names (aligned with the fuzz stimulus conventions).
RESET_NAMES = frozenset(
    ["rst", "reset", "rst_n", "resetn", "rstn", "nreset", "clear", "clr"]
)

#: Suffix/prefix patterns pairing a data register with its qualifier.
_VALID_SUFFIXES = ("_valid", "_vld")
_VALID_PREFIX = "valid_"


@dataclass
class FlowReport:
    """Everything one flow analysis learned about one module."""

    module: str
    filename: str = "<input>"
    diagnostics: list = field(default_factory=list)
    #: Combinational loops, each a sorted signal-name list (L0401).
    loops: list = field(default_factory=list)
    #: Clock-domain inference result (exposed for tests/tools).
    domains: object = None
    #: Abstract-interpretation facts (:class:`repro.flow.absint.FactTable`).
    facts: object = None
    #: False only if a fixpoint hit its iteration cap (a flow bug).
    converged: bool = True

    def _emit(self, severity, code, message, lineno=0, hint=""):
        self.diagnostics.append(
            Diagnostic(
                severity,
                code,
                message,
                SourceSpan(file=self.filename, line=lineno),
                hint,
            )
        )

    def warning(self, code, message, lineno=0, hint=""):
        self._emit(Severity.WARNING, code, message, lineno, hint)

    def error(self, code, message, lineno=0, hint=""):
        self._emit(Severity.ERROR, code, message, lineno, hint)


def _signal_width(module, name):
    decl = module.find_declaration(name)
    if decl is not None:
        return decl.bit_width
    for port in module.ports:
        if port.name == name:
            return port.bit_width
    return 1


def _rhs_identifiers(record):
    names = set()
    for node in record.rhs.walk():
        if isinstance(node, ast.Identifier):
            names.add(node.name)
    return names


def _is_identity_capture(record, src):
    """``dst <= src;`` — the canonical synchronizer/capture shape."""
    return isinstance(record.rhs, ast.Identifier) and record.rhs.name == src


# ---------------------------------------------------------------------------
# L0401 — static combinational loops
# ---------------------------------------------------------------------------


def _strongly_connected(adjacency):
    """SCCs of ``{src: [dst]}`` (Tarjan, iterative, deterministic order)."""
    index_of = {}
    lowlink = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]
    nodes = sorted(set(adjacency) | {d for ds in adjacency.values() for d in ds})

    for root in nodes:
        if root in index_of:
            continue
        work = [(root, iter(adjacency.get(root, ())))]
        index_of[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in index_of:
                    index_of[child] = lowlink[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(adjacency.get(child, ()))))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(sorted(component))
    return sccs


def _loop_path(members, adjacency):
    """A concrete cycle through an SCC, rendered ``a -> b -> a``."""
    member_set = set(members)
    start = members[0]
    path = [start]
    seen = {start}
    node = start
    while True:
        successors = [
            dst for dst in adjacency.get(node, ()) if dst in member_set
        ]
        if not successors:
            break
        closing = [dst for dst in successors if dst == start]
        fresh = [dst for dst in successors if dst not in seen]
        if not fresh or (closing and len(seen) == len(member_set)):
            path.append(start)
            return " -> ".join(path)
        node = fresh[0]
        seen.add(node)
        path.append(node)
    path.append(start)
    return " -> ".join(path)


def check_comb_loops(report, graph):
    adjacency = graph.combinational_adjacency()
    has_self = {
        src for src, dsts in adjacency.items() if src in dsts
    }
    for component in _strongly_connected(adjacency):
        if len(component) < 2 and component[0] not in has_self:
            continue
        report.loops.append(component)
        lineno = min(
            (
                e.lineno
                for e in graph.edges
                if not e.sequential
                and e.src in component
                and e.dst in component
            ),
            default=0,
        )
        report.error(
            "L0401",
            "combinational loop: %s (signals %s will not settle)"
            % (_loop_path(component, adjacency), ", ".join(component)),
            lineno=lineno,
            hint="break the cycle with a register; simulation of this "
            "design can raise CombinationalLoopError",
        )
    report.loops.sort()


# ---------------------------------------------------------------------------
# L0402 / L0403 — clock-domain crossings and valid/data asynchrony
# ---------------------------------------------------------------------------


def _is_gray_coded(name, view):
    if "gray" in name.lower():
        return True
    for record in view.assignments_to(name):
        has_xor = False
        has_shift = False
        for node in record.rhs.walk():
            if isinstance(node, ast.BinaryOp):
                if node.op in ("^", "~^", "^~"):
                    has_xor = True
                elif node.op in (">>", ">>>"):
                    has_shift = True
        if has_xor and has_shift:
            return True
    return False


def _synchronized_controls(view, graph, domains, module, dst_clock):
    """Signals in *dst_clock*'s domain derived from a 1-bit synchronizer.

    Seeds are registers clocked by *dst_clock* that identity-capture a
    width-1 signal from another domain (a synchronizer's first stage);
    the closure follows edges whose destinations stay inside
    *dst_clock*'s domain. Reading any of these in a capture condition
    counts as a handshake.
    """
    seeds = set()
    for record in view.assignments:
        if not record.sequential or record.clock != dst_clock:
            continue
        for src in sorted(_rhs_identifiers(record)):
            src_domains = domains.of(src)
            if not src_domains or dst_clock in src_domains:
                continue
            if (
                _is_identity_capture(record, src)
                and _signal_width(module, src) == 1
            ):
                seeds.add(record.target)
    if not seeds:
        return frozenset()
    local = {
        name
        for name, doms in domains.domains.items()
        if doms == frozenset([dst_clock])
    }
    edges = {}
    for edge in graph.edges:
        if edge.dst in local:
            edges.setdefault(edge.src, set()).add(edge.dst)
    return frozenset(reachable(edges, seeds))


def check_cdc(report, module, view, graph, domains):
    if domains.is_multi_clock():
        clock_set = set(domains.clocks)
        sync_cache = {}
        for record in sorted(
            (r for r in view.assignments if r.sequential and r.clock),
            key=lambda r: (r.target, r.lineno),
        ):
            dst_clock = record.clock
            sources = sorted(
                _rhs_identifiers(record) | set(record.control_sources)
            )
            for src in sources:
                if src in clock_set:
                    continue
                src_domains = domains.of(src)
                if not src_domains or dst_clock in src_domains:
                    continue
                crossing_from = ", ".join(sorted(src_domains))
                width = _signal_width(module, src)
                if _is_identity_capture(record, src):
                    if width == 1:
                        continue  # first stage of a 2-FF synchronizer
                    if _is_gray_coded(src, view):
                        continue
                    if dst_clock not in sync_cache:
                        sync_cache[dst_clock] = _synchronized_controls(
                            view, graph, domains, module, dst_clock
                        )
                    condition_ids = set(record.control_sources)
                    if condition_ids & sync_cache[dst_clock]:
                        continue  # handshake-gated capture
                    report.warning(
                        "L0403",
                        "%d-bit signal '%s' (domain %s) is captured into "
                        "'%s' (domain %s) without gray coding or a "
                        "synchronized handshake"
                        % (width, src, crossing_from, record.target,
                           dst_clock),
                        lineno=record.lineno,
                        hint="gray-code the crossing value or gate the "
                        "capture with a synchronized request/ack",
                    )
                else:
                    report.warning(
                        "L0402",
                        "signal '%s' (domain %s) feeds logic for '%s' "
                        "clocked by %s without synchronization"
                        % (src, crossing_from, record.target, dst_clock),
                        lineno=record.lineno,
                        hint="pass the signal through a 2-FF synchronizer "
                        "in the %s domain first" % dst_clock,
                    )
    _check_valid_data_skew(report, module, view, graph, domains)
    _check_circular_handshake(report, module, view)


def _check_circular_handshake(report, module, view):
    """Mutual-wait deadlocks between handshake flags (testbed C1).

    A 1-bit register *waits on* another when every assignment that can
    make it true requires the other to be true already (a positive
    occurrence in the path constraint). A cycle in the waits-on relation
    with all members starting at 0 can never fire — the paper's
    ``if (a) b <= 1; if (b) a <= 1;`` deadlock pattern.
    """
    flags = sorted(
        target
        for target in {r.target for r in view.assignments if r.sequential}
        if _signal_width(module, target) == 1
    )
    waits_on = {}
    first_line = {}
    for target in flags:
        truthy = [
            r
            for r in view.assignments_to(target)
            if r.sequential
            and isinstance(r.rhs, ast.Number)
            and r.rhs.value != 0
        ]
        if not truthy:
            continue
        if any(
            not (isinstance(r.rhs, ast.Number))
            for r in view.assignments_to(target)
            if r.sequential
        ):
            continue  # also driven by non-constant logic: not a pure flag
        required = None
        for record in truthy:
            positive = _positive_identifiers(record.condition) & set(flags)
            positive.discard(target)
            required = positive if required is None else required & positive
        if required:
            waits_on[target] = sorted(required)
            first_line[target] = min(r.lineno for r in truthy)
    adjacency = {src: dsts for src, dsts in waits_on.items()}
    for component in _strongly_connected(adjacency):
        members = [m for m in component if m in waits_on]
        if len(members) < 2:
            continue
        cycle = _loop_path(sorted(members), adjacency)
        report.warning(
            "L0402",
            "circular handshake: %s — each flag is only set once the "
            "next one is already high, and all start at 0, so none can "
            "ever fire" % cycle,
            lineno=min(first_line[m] for m in members),
            hint="break the cycle by letting one side commit without "
            "waiting for the acknowledgment",
        )


def _latencies_to(incoming, target):
    """``{ancestor: min cycles for its value to reach *target*}``."""
    distances = min_latencies(incoming, target)
    distances.pop(target)
    return distances


def _valid_pairs(module, view):
    """Name-paired (data register, valid register) candidates."""
    seq_targets = {
        r.target for r in view.assignments if r.sequential
    }
    pairs = []
    for name in sorted(seq_targets):
        if _signal_width(module, name) <= 1:
            continue
        base = name.rsplit(".", 1)[-1]
        prefix = name[: len(name) - len(base)]
        candidates = [prefix + base + s for s in _VALID_SUFFIXES]
        candidates.append(prefix + _VALID_PREFIX + base)
        for candidate in candidates:
            if (
                candidate in seq_targets
                and _signal_width(module, candidate) == 1
            ):
                pairs.append((name, candidate))
                break
    return pairs


def _record_clock(view, name):
    for record in view.assignments_to(name):
        if record.clock:
            return record.clock
    return None


def check_valid_data_skew(report, module, view, graph, domains):
    _check_valid_data_skew(report, module, view, graph, domains)


def _check_valid_data_skew(report, module, view, graph, domains):
    clock_set = set(domains.clocks)
    incoming = graph.incoming()
    for data_reg, valid_reg in _valid_pairs(module, view):
        if _record_clock(view, data_reg) != _record_clock(view, valid_reg):
            continue  # cross-domain pairs are the CDC checks' business
        data_dist = _latencies_to(incoming, data_reg)
        valid_dist = _latencies_to(incoming, valid_reg)
        shared = sorted(
            (set(data_dist) & set(valid_dist))
            - clock_set
            - RESET_NAMES
            - {data_reg, valid_reg}
        )
        mismatched = [
            name for name in shared if data_dist[name] != valid_dist[name]
        ]
        if not mismatched:
            continue
        witness = mismatched[0]
        lineno = min(
            (r.lineno for r in view.assignments_to(valid_reg)), default=0
        )
        report.warning(
            "L0402",
            "'%s' and its qualifier '%s' arrive with different latencies "
            "from '%s' (%d vs %d cycles): data and valid are out of sync"
            % (data_reg, valid_reg, witness, data_dist[witness],
               valid_dist[witness]),
            lineno=lineno,
            hint="delay the shorter path so the value and its valid flag "
            "line up cycle-for-cycle",
        )


# ---------------------------------------------------------------------------
# L0404 / L0405 — driver races
# ---------------------------------------------------------------------------


def _conditions_provably_disjoint(left, right):
    if left is None or right is None:
        return False
    left_text = generate_expression(left)
    right_text = generate_expression(right)
    if left_text == "!(%s)" % right_text or right_text == "!(%s)" % left_text:
        return True

    def equality_test(cond):
        if isinstance(cond, ast.BinaryOp) and cond.op == "==":
            if isinstance(cond.right, ast.Number):
                return generate_expression(cond.left), cond.right.value
        return None

    left_eq = equality_test(left)
    right_eq = equality_test(right)
    if left_eq and right_eq and left_eq[0] == right_eq[0]:
        return left_eq[1] != right_eq[1]
    return False


def check_write_write_races(report, view):
    targets = {}
    for record in view.assignments:
        if record.sequential:
            targets.setdefault(record.target, []).append(record)
    for target in sorted(targets):
        records = targets[target]
        blocks = sorted({r.block for r in records})
        if len(blocks) < 2:
            continue
        racy = False
        for i, first in enumerate(records):
            for second in records[i + 1:]:
                if first.block == second.block:
                    continue
                if not _conditions_provably_disjoint(
                    first.condition, second.condition
                ):
                    racy = True
                    break
            if racy:
                break
        if not racy:
            continue
        lines = sorted({r.lineno for r in records})
        report.warning(
            "L0404",
            "register '%s' is written from %d always blocks (lines %s) "
            "under overlapping conditions; which write wins is "
            "nondeterministic"
            % (target, len(blocks), ", ".join(str(l) for l in lines)),
            lineno=lines[0],
            hint="merge the writers into one always block or make their "
            "conditions mutually exclusive",
        )


def check_mixed_drivers(report, view):
    targets = {}
    for record in view.assignments:
        if record.sequential:
            targets.setdefault(record.target, []).append(record)
    for target in sorted(targets):
        records = targets[target]
        blocking = sorted(r.lineno for r in records if r.blocking)
        nonblocking = sorted(r.lineno for r in records if not r.blocking)
        if not blocking or not nonblocking:
            continue
        report.warning(
            "L0405",
            "register '%s' mixes blocking (line %d) and nonblocking "
            "(line %d) drivers; readers in the same timestep race the "
            "blocking write"
            % (target, blocking[0], nonblocking[0]),
            lineno=min(blocking[0], nonblocking[0]),
            hint="use nonblocking assignments for every sequential "
            "driver of this register",
        )


# ---------------------------------------------------------------------------
# L0406 — read-before-reset
# ---------------------------------------------------------------------------


def _reset_signals(module):
    names = set()
    for port in module.ports:
        if (
            port.direction is ast.PortDirection.INPUT
            and port.name in RESET_NAMES
        ):
            names.add(port.name)
    return names


def _positive_identifiers(condition):
    """Identifiers appearing under an even number of negations.

    Path constraints synthesized for else-branches wrap the if-condition
    in ``!(...)`` — so ``rst`` inside ``!(rst) && enable`` is a *negated*
    occurrence (the assignment runs when reset is inactive), while
    ``if (rst)`` branch constraints carry ``rst`` positively. Only the
    positive occurrences make an assignment a reset arc.
    """
    names = set()
    if condition is None:
        return names

    def visit(node, negated):
        if isinstance(node, ast.Identifier):
            if not negated:
                names.add(node.name)
            return
        if isinstance(node, ast.UnaryOp) and node.op in ("!", "~"):
            visit(node.operand, not negated)
            return
        for child in node.children():
            visit(child, negated)

    visit(condition, False)
    return names


def _has_reset_arc(record, resets):
    """True when *record* fires while a reset signal is asserted.

    Active-low resets (``rst_n``) assert when low, so for them the
    *negated* occurrence is the reset arc.
    """
    positive = _positive_identifiers(record.condition)
    negative = set(record.control_sources) - positive
    active_low = {n for n in resets if n in ("rst_n", "resetn", "rstn",
                                             "nreset")}
    active_high = resets - active_low
    return bool(positive & active_high) or bool(negative & active_low)


def check_read_before_reset(report, module, view, chains):
    resets = _reset_signals(module)
    if not resets:
        return
    reset_discipline = any(
        _has_reset_arc(r, resets) for r in view.assignments if r.sequential
    )
    if not reset_discipline:
        return  # the design never uses its reset; not a per-register bug
    for target in sorted({r.target for r in view.assignments if r.sequential}):
        records = [r for r in view.assignments_to(target) if r.sequential]
        if any(r.condition is None for r in records):
            continue  # unconditionally driven: defined after one cycle
        if any(_has_reset_arc(r, resets) for r in records):
            continue  # has a reset arc
        # Unreset *datapath* registers are conventional (their consumers
        # wait for a valid qualifier); only flag reads that steer control
        # flow or address memory, where the uninitialized value always
        # has consequences.
        steering = [
            use
            for use in chains.uses_of(target)
            if use.kind in ("control", "index")
            and use.record.target != target
        ]
        if not steering:
            continue
        lineno = min((r.lineno for r in records), default=0)
        report.warning(
            "L0406",
            "register '%s' steers control flow (line %d) but is never "
            "reset: it holds an uninitialized value until its write "
            "condition first fires"
            % (target, min(u.record.lineno for u in steering)),
            lineno=lineno,
            hint="clear '%s' in the reset branch alongside the other "
            "state registers" % target,
        )


# ---------------------------------------------------------------------------
# L0407 — unreachable FSM states
# ---------------------------------------------------------------------------


def check_fsm_reachability(report, module):
    for fsm in detect_fsms(module):
        entry = {0} & fsm.states
        edges = {}
        for transition in fsm.transitions:
            if transition.from_state is None:
                entry.add(transition.to_state)
            else:
                edges.setdefault(transition.from_state, set()).add(
                    transition.to_state
                )
        if not entry:
            entry = {0}
        reached = set(reachable(edges, entry))
        unreachable_states = sorted(set(fsm.states) - reached)
        if not unreachable_states:
            continue
        lineno = min((t.lineno for t in fsm.transitions), default=0)
        report.warning(
            "L0407",
            "FSM '%s' has unreachable state%s %s (reachable from reset: "
            "%s)"
            % (
                fsm.name,
                "" if len(unreachable_states) == 1 else "s",
                ", ".join(str(s) for s in unreachable_states),
                ", ".join(str(s) for s in sorted(reached)),
            ),
            lineno=lineno,
            hint="add a transition into the state or delete its dead "
            "case arm",
        )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def analyze_flow(design, filename="<input>"):
    """Run every flow checker over an elaborated design (or flat module).

    Returns a :class:`FlowReport`; use :func:`run_flow_checks` to also
    emit the findings into a :class:`~repro.diag.model.DiagnosticSink`.
    """
    from .absint import analyze_values
    from .defuse import build_def_use

    module = getattr(design, "top", design)
    view = analyze_module(module)
    graph = build_signal_graph(module, view=view)
    domains = infer_domains(module, view=view, graph=graph)
    chains = build_def_use(module, view=view)
    facts, value_diagnostics = analyze_values(module, filename=filename)
    report = FlowReport(
        module=module.name,
        filename=filename,
        domains=domains,
        facts=facts,
        converged=domains.converged and facts.converged,
    )
    check_comb_loops(report, graph)
    check_cdc(report, module, view, graph, domains)
    check_write_write_races(report, view)
    check_mixed_drivers(report, view)
    check_read_before_reset(report, module, view, chains)
    check_fsm_reachability(report, module)
    report.diagnostics.extend(value_diagnostics)
    report.diagnostics.sort(key=Diagnostic.sort_key)
    return report


def run_flow_checks(design, sink=None, filename="<input>"):
    """Analyze *design* and emit findings into *sink* (when given)."""
    report = analyze_flow(design, filename=filename)
    if sink is not None:
        for diagnostic in report.diagnostics:
            sink.emit(diagnostic)
    return report
