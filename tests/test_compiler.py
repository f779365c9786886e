"""Compiled processes against the reference (AST-walking) simulator.

:class:`repro.sim.Simulator` compiles every process to a Python function;
:class:`repro.sim.reference.ReferenceSimulator` interprets the same AST.
Everything observable must be identical: per-cycle state, ``$display``
logs, ``$finish``, the ``sim.*`` work counters, and the errors raised
(type, message and the moment they are raised).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.hdl import ast_nodes as ast
from repro.hdl import elaborate, parse, parse_expression
from repro.sim import CombinationalLoopError, Simulator
from repro.sim.compiler import _COMPILE_GLOBALS, _Compiler
from repro.sim.reference import ReferenceSimulator
from repro.testbed import BUG_IDS, load_design
from repro.testbed.scenarios import SCENARIOS

from .test_values import make_env

EXPRESSIONS = [
    "a + b",
    "a - b",
    "a * b",
    "a / b",
    "a % b",
    "a & b | a ^ b",
    "~a",
    "-a",
    "!a",
    "&a",
    "|a",
    "^a",
    "~&a",
    "~|a",
    "~^a",
    "a == b",
    "a != b",
    "a < b",
    "a >= b",
    "a && b",
    "a || b",
    "a << 3",
    "a >> b",
    "a[3]",
    "a[7:4]",
    "a[b +: 4]",
    "a[b -: 4]",
    "{a, b}",
    "{3{a}}",
    "b ? a : b",
    "12'(a + b)",
    "42'(a) >> 6",
    "a - 1 > 0",
]

COUNTERS = ("sim.cycles", "sim.comb_evals", "sim.settle_iterations", "sim.ip_calls")


def compile_expression(symbols, expr, ctx_width=0):
    """``fn(state)`` for one expression, through the process emitter."""
    compiler = _Compiler(symbols)
    source = compiler.emit(expr, ctx_width)
    namespace = dict(_COMPILE_GLOBALS, K=compiler.consts)
    return eval("lambda s, o=None: (%s)" % source, namespace)


class TestCompilerAgainstInterpreter:
    @pytest.mark.parametrize("text", EXPRESSIONS)
    def test_known_expressions(self, text):
        symbols, interpreted = make_env({"a": 8, "b": 8})
        expr = parse_expression(text)
        for ctx in (0, 8, 16):
            compiled = compile_expression(symbols, expr, ctx)
            for a, b in [(0, 0), (1, 2), (255, 1), (170, 85), (7, 0)]:
                state = {"a": a, "b": b}
                assert compiled(state) == interpreted.eval(expr, state, ctx), (
                    text, a, b, ctx,
                )

    @given(
        st.integers(min_value=0, max_value=(1 << 16) - 1),
        st.integers(min_value=0, max_value=(1 << 16) - 1),
    )
    @settings(max_examples=100)
    def test_random_operands(self, a, b):
        symbols, interpreted = make_env({"a": 16, "b": 16})
        for text in ("a + b", "a - b", "{a[7:0], b[15:8]}", "a < b", "~a ^ b"):
            expr = parse_expression(text)
            state = {"a": a, "b": b}
            compiled = compile_expression(symbols, expr)
            assert compiled(state) == interpreted.eval(expr, state)

    def test_array_reads(self):
        symbols, interpreted = make_env({"i": 4}, arrays={"m": (8, 10)})
        compiled = compile_expression(symbols, parse_expression("m[i]"))
        expr = parse_expression("m[i]")
        state = {"m": list(range(10)), "i": 3}
        assert compiled(state) == 3
        state["i"] = 12  # out of range, non-power-of-two: reads 0
        assert compiled(state) == interpreted.eval(expr, state) == 0

    def test_deep_expression_compiles(self):
        symbols, interpreted = make_env({"a": 8, "b": 8})
        expr = parse_expression(" + ".join(["a", "b"] * 150))
        compiler = _Compiler(symbols)
        source = "def _f(s, o=None):\n    return %s\n" % compiler.emit(expr)
        namespace = dict(_COMPILE_GLOBALS, K=compiler.consts)
        exec("\n".join(compiler._helpers) + "\n" + source, namespace)
        state = {"a": 3, "b": 250}
        assert namespace["_f"](state) == interpreted.eval(expr, state)


def _observe(sim_class, design, drive):
    """Run *drive(sim)*; return everything observable about the run."""
    obs.reset()
    trace = []
    error = None
    with obs.observed():
        sim = sim_class(design)
        sim.cycle_hooks.append(lambda s: trace.append(_snapshot(s)))
        try:
            drive(sim)
        except Exception as exc:  # compared, not swallowed
            error = (type(exc), str(exc))
    counters = {}
    for name in COUNTERS:
        metric = obs.registry.get(name)
        if metric is not None:
            counters[name] = metric.snapshot()
    obs.reset()
    displays = [
        (e.cycle, e.text, e.values, e.lineno, e.label, e.format)
        for e in sim.display_events
    ]
    return {
        "trace": trace + [_snapshot(sim)],
        "displays": displays,
        "finished": sim.finished,
        "counters": counters,
        "error": error,
    }


def _snapshot(sim):
    return {
        name: list(value) if isinstance(value, list) else value
        for name, value in sim.state.items()
    }


def assert_equivalent(design_factory, drive):
    compiled = _observe(Simulator, design_factory(), drive)
    reference = _observe(ReferenceSimulator, design_factory(), drive)
    for key in ("error", "finished", "displays", "counters"):
        assert compiled[key] == reference[key], key
    assert len(compiled["trace"]) == len(reference["trace"])
    for cycle, (a, b) in enumerate(zip(compiled["trace"], reference["trace"])):
        assert a == b, "state diverges at cycle %d" % cycle
    return compiled


def _fault_targets(module):
    """(a combinationally driven net, a clocked register) of *module*."""
    net = register = None
    for item in module.items:
        if isinstance(item, ast.ContinuousAssign):
            assigns = [item]
        elif isinstance(item, ast.Always):
            assigns = [
                node
                for node in item.body.walk()
                if isinstance(node, (ast.BlockingAssign, ast.NonblockingAssign))
            ]
        else:
            continue
        for node in assigns:
            if not isinstance(node.lhs, ast.Identifier):
                continue
            if isinstance(item, ast.Always) and not item.is_combinational:
                register = register or node.lhs.name
            else:
                net = net or node.lhs.name
    return net, register


class TestCompiledSimulation:
    def test_counter_matches(self, counter_design):
        reference = ReferenceSimulator(counter_design)
        compiled = Simulator(counter_design)
        for sim in (reference, compiled):
            sim["enable"] = 1
            sim.step(17)
        assert reference["count"] == compiled["count"] == 17

    @pytest.mark.parametrize("bug_id", BUG_IDS)
    def test_whole_testbed_scenarios_match(self, bug_id):
        """Every testbed scenario observes identical symptoms compiled."""
        reference = SCENARIOS[bug_id](ReferenceSimulator(load_design(bug_id)))
        compiled = SCENARIOS[bug_id](Simulator(load_design(bug_id)))
        assert reference.symptoms == compiled.symptoms
        assert reference.details == compiled.details

    def test_display_values_match(self):
        design = elaborate(
            parse(
                'module d (input wire clk, output reg [7:0] n);'
                ' always @(posedge clk) begin n <= n + 3;'
                ' $display("n=%d", n); end endmodule'
            )
        )
        a = ReferenceSimulator(design)
        b = Simulator(design)
        a.step(5)
        b.step(5)
        assert [e.text for e in a.display_events] == [
            e.text for e in b.display_events
        ]


class TestProcessEquivalence:
    @pytest.mark.parametrize("fixed", [False, True], ids=["buggy", "fixed"])
    @pytest.mark.parametrize("bug_id", BUG_IDS)
    def test_testbed_runs_identical(self, bug_id, fixed):
        observed = assert_equivalent(
            lambda: load_design(bug_id, fixed=fixed), SCENARIOS[bug_id]
        )
        assert observed["error"] is None
        assert observed["counters"]["sim.cycles"]["value"] > 0

    @pytest.mark.parametrize("bug_id", BUG_IDS)
    def test_faulted_run_identical(self, bug_id):
        net, register = _fault_targets(load_design(bug_id).top)
        # Designs without combinational nets get a stuck-at register.
        net = net or register

        def drive(sim):
            def inject(s):
                if s.cycle == 5:
                    s.forced[net] = (1 << 40) - 1
                if s.cycle == 9:
                    s.state[register] ^= 1

            sim.cycle_hooks.insert(0, inject)
            SCENARIOS[bug_id](sim)

        assert_equivalent(lambda: load_design(bug_id), drive)


def _design(body, ports="input wire clk, input wire go, output reg [7:0] q"):
    return lambda: elaborate(parse("module t (%s);\n%s\nendmodule" % (ports, body)))


def _pulse_go(sim):
    sim.step(3)
    sim["go"] = 1
    sim.step(3)


class TestErrorParity:
    def _errors(self, design_factory, drive=_pulse_go):
        observed = assert_equivalent(design_factory, drive)
        assert observed["error"] is not None
        return observed

    def test_memory_without_index(self):
        observed = self._errors(
            _design(
                "reg [7:0] mem [0:3];\n"
                "always @(posedge clk) if (go) q <= mem + 1;"
            )
        )
        assert observed["error"][1] == "memory 'mem' used without an index"
        # Raised when the branch first runs, not at construction.
        assert len(observed["trace"]) == 5

    def test_unsupported_statement_only_raises_when_taken(self):
        design_factory = _design(
            "always @(posedge clk) if (go) q <= 1; else q <= 2;"
        )

        def with_unsupported():
            design = design_factory()
            for item in design.top.items:
                if isinstance(item, ast.Always):
                    loop = ast.For(
                        init=None, cond=ast.Number(value=0), step=None,
                        body=ast.Block(),
                    )
                    item.body.then_stmt = loop
            return design

        observed = self._errors(with_unsupported)
        assert observed["error"][0].__name__ == "SimulatorError"
        assert observed["error"][1].startswith("unsupported sequential statement")
        assert [t["q"] for t in observed["trace"]][:4] == [0, 2, 2, 2]

    @pytest.mark.parametrize("op", ["<=", "="])
    def test_whole_memory_assignment(self, op):
        observed = self._errors(
            _design(
                "reg [7:0] mem [0:3];\n"
                "always @(posedge clk) if (go) mem %s 0;" % op
            )
        )
        assert observed["error"][1] == "cannot assign whole memory 'mem'"

    def test_undeclared_signal_in_untaken_branch(self):
        def with_ghost():
            design = _design("always @(posedge clk) if (go) q <= 1;")()
            for item in design.top.items:
                if isinstance(item, ast.Always):
                    item.body.then_stmt.rhs = ast.Identifier(name="ghost")
            return design

        observed = self._errors(with_ghost)
        assert observed["error"][1] == "undeclared signal 'ghost'"

    def test_combinational_loop_message(self):
        observed = self._errors(
            _design(
                "wire [3:0] a;\nassign a = a + 1;",
                ports="input wire clk, input wire go",
            ),
            drive=lambda sim: sim.step(1),
        )
        assert observed["error"] == (
            CombinationalLoopError,
            "combinational logic did not settle after 100 passes; "
            "still changing: a",
        )

    def test_missing_then_branch_raises_only_when_taken(self):
        def without_then():
            design = _design("always @(posedge clk) if (go) q <= 1;")()
            for item in design.top.items:
                if isinstance(item, ast.Always):
                    item.body.then_stmt = None
            return design

        observed = self._errors(without_then)
        assert observed["error"][1] == "unsupported sequential statement None"


class TestDeepNesting:
    def test_nested_ifs_and_long_ladders(self):
        nested = "q <= q + 1;"
        for i in range(60):
            nested = "if (q != %d) begin %s end" % (i + 200, nested)
        ladder = " else ".join(
            "if (q == %d) r <= %d;" % (i, (i * 7) % 256) for i in range(150)
        )
        body = (
            "reg [7:0] r;\n"
            "always @(posedge clk) begin %s end\n"
            "always @(posedge clk) begin %s end" % (nested, ladder)
        )
        observed = assert_equivalent(_design(body), lambda sim: sim.step(40))
        assert observed["trace"][-1]["q"] == 40
        assert observed["trace"][-1]["r"] == (39 * 7) % 256
