"""Tests for repro.flow: solver, def-use, domains, and L04xx checkers."""

import json
import os

import pytest

from repro.analysis import dependency_chain
from repro.diag.check import build_check_report, check_text, render_check_report
from repro.flow import (
    analyze_flow,
    build_def_use,
    build_signal_graph,
    infer_domains,
    payload_identifiers,
    payload_slice,
    reachable,
    reaching_definitions,
    solve,
)
from repro.flow.checkers import _latencies_to
from repro.flow.solver import min_latencies
from repro.hdl import elaborate, parse
from repro.hdl.parser import parse_expression
from repro.sim.simulator import CombinationalLoopError, Simulator
from repro.testbed import BUG_IDS, load_design

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "flow")


def fixture_design(name, top=None):
    with open(os.path.join(FIXTURES, name + ".v")) as handle:
        text = handle.read()
    return elaborate(parse(text), top=top or name)


def flow_of(text, top):
    return analyze_flow(elaborate(parse(text), top=top), filename=top)


def codes_of(report):
    return [d.code for d in report.diagnostics]


# ---------------------------------------------------------------------------
# Fixpoint solver
# ---------------------------------------------------------------------------


class TestSolver:
    def test_transitive_closure_fixpoint(self):
        deps = {"c": {"b"}, "b": {"a"}}
        seeds = {"a": frozenset(["x"])}

        def transfer(node, values):
            fact = set(seeds.get(node, ()))
            for src in deps.get(node, ()):
                fact.update(values.get(src, ()))
            return frozenset(fact)

        result = solve({"a", "b", "c"}, deps, transfer)
        assert result.converged
        assert result.values["c"] == frozenset(["x"])

    def test_cyclic_dependencies_converge(self):
        deps = {"a": {"b"}, "b": {"a"}}

        def transfer(node, values):
            fact = {node}
            for src in deps.get(node, ()):
                fact.update(values.get(src, ()))
            return frozenset(fact)

        result = solve({"a", "b"}, deps, transfer)
        assert result.converged
        assert result.values["a"] == frozenset(["a", "b"])

    def test_iteration_cap_reports_divergence(self):
        # A non-monotone transfer that never stabilizes must hit the cap
        # and report converged=False instead of hanging.
        flip = {}

        def transfer(node, values):
            flip[node] = not flip.get(node, False)
            return frozenset(["t"]) if flip[node] else frozenset()

        result = solve({"a"}, {"a": {"a"}}, transfer, max_iterations=16)
        assert not result.converged

    def test_determinism(self):
        deps = {"c": {"a", "b"}, "b": {"a"}}

        def transfer(node, values):
            fact = {node}
            for src in deps.get(node, ()):
                fact.update(values.get(src, ()))
            return frozenset(fact)

        first = solve({"a", "b", "c"}, deps, transfer)
        second = solve({"c", "b", "a"}, deps, transfer)
        assert first.values == second.values
        assert first.iterations == second.iterations

    def test_reachable(self):
        edges = {"a": {"b"}, "b": {"c"}, "x": {"y"}}
        assert reachable(edges, "a") == ["a", "b", "c"]
        assert reachable(edges, "c") == ["c"]

    def test_min_latencies_shortest_and_bounded(self):
        incoming = {"c": [("b", 1), ("a", 3)], "b": [("a", 1)]}
        assert min_latencies(incoming, "c") == {"c": 0, "b": 1, "a": 2}
        assert min_latencies(incoming, "c", bound=1) == {"c": 0, "b": 1}
        assert min_latencies(incoming, "a") == {"a": 0}

    def test_min_latencies_stops_on_self_edges(self):
        incoming = {"q": [("q", 1), ("d", 1)], "d": [("d", 0)]}
        assert min_latencies(incoming, "q") == {"q": 0, "d": 1}

    def test_min_latencies_stops_on_zero_latency_cycle(self):
        graph = build_signal_graph(fixture_design("comb_loop").top)
        incoming = graph.incoming()
        assert min_latencies(incoming, "a") == {"a": 0, "b": 0}
        assert min_latencies(incoming, "out_q") == {
            "out_q": 0, "a": 1, "b": 1, "in_bit": 1,
        }


# ---------------------------------------------------------------------------
# Def-use chains and payload classification
# ---------------------------------------------------------------------------


DEFUSE = """
module defuse (
    input wire clk,
    input wire en,
    input wire [3:0] idx,
    input wire [7:0] din,
    output reg [7:0] dout
);
    reg [7:0] mem [0:15];
    always @(posedge clk) begin
        if (en) mem[idx] <= din;
        dout <= mem[0];
    end
endmodule
"""


class TestDefUse:
    def test_use_kinds(self):
        design = elaborate(parse(DEFUSE), top="defuse")
        chains = build_def_use(design.top if hasattr(design, "top") else design)
        assert {u.kind for u in chains.uses_of("din")} == {"data"}
        assert {u.kind for u in chains.uses_of("en")} == {"control"}
        assert {u.kind for u in chains.uses_of("idx")} == {"index"}
        assert [r.target for r in chains.defs_of("dout")] == ["dout"]
        assert "mem" in chains.signals()

    def test_payload_identifiers(self):
        expr = parse_expression("(sel == 2'd1) ? (a + b) : (c > t ? d : e)")
        names = payload_identifiers(expr)
        # Selects and comparison operands are verdicts, not payload.
        assert set(names) == {"a", "b", "d", "e"}
        assert "sel" not in names and "t" not in names and "c" not in names

    def test_reaching_definitions(self):
        text = """
module reach (input wire clk, input wire [7:0] din, output reg [7:0] a,
              output reg [7:0] b);
    always @(posedge clk) begin
        a <= din;
        b <= a + 1;
    end
endmodule
"""
        design = elaborate(parse(text), top="reach")
        module = design.top if hasattr(design, "top") else design
        reaching = reaching_definitions(module)
        # b's value can carry a's definition (one cycle later).
        assert any(label.startswith("a:") for label in reaching["b"])

    def test_payload_slice_excludes_verdict_registers(self):
        design = fixture_design("routed_pipeline")
        module = design.top if hasattr(design, "top") else design
        regs = payload_slice(module, "in_data", "out_q")
        assert "stage_a" in regs and "stage_b" in regs
        assert "route_sel" not in regs and "threshold" not in regs


# ---------------------------------------------------------------------------
# Clock-domain inference
# ---------------------------------------------------------------------------


class TestClockDomains:
    def test_registers_pin_their_domain(self):
        design = fixture_design("sync_2ff")
        module = design.top if hasattr(design, "top") else design
        domains = infer_domains(module)
        assert domains.converged
        assert domains.clocks == ["clk_a", "clk_b"]
        assert domains.of("flag_a") == frozenset(["clk_a"])
        # The synchronizer stages re-time into clk_b.
        assert domains.of("sync_0") == frozenset(["clk_b"])
        assert domains.of("dout") == frozenset(["clk_b"])

    def test_input_ports_have_no_domain(self):
        design = fixture_design("sync_2ff")
        module = design.top if hasattr(design, "top") else design
        domains = infer_domains(module)
        assert domains.of("din") == frozenset()

    def test_ip_port_clocks(self, multiclock_design=None):
        text = """
module dualip (
    input wire wr_clk,
    input wire rd_clk,
    input wire [7:0] din,
    input wire push,
    input wire pop,
    output wire [7:0] dout,
    output wire empty,
    output wire full
);
    reg [7:0] q_reg;
    dcfifo #(.LPM_WIDTH(8), .LPM_NUMWORDS(4)) xing (
        .wrclk(wr_clk), .rdclk(rd_clk), .data(din), .wrreq(push),
        .rdreq(pop), .q(dout), .rdempty(empty), .wrfull(full)
    );
    always @(posedge rd_clk) q_reg <= dout;
endmodule
"""
        design = elaborate(parse(text), top="dualip")
        module = design.top if hasattr(design, "top") else design
        domains = infer_domains(module)
        # The FIFO re-times its q/rdempty outputs into the read clock
        # and wrfull into the write clock.
        assert domains.of("dout") == frozenset(["rd_clk"])
        assert domains.of("empty") == frozenset(["rd_clk"])
        assert domains.of("full") == frozenset(["wr_clk"])
        # Capturing dout in rd_clk is therefore NOT a crossing.
        report = analyze_flow(design, filename="dualip")
        assert not [d for d in report.diagnostics if d.code in ("L0402", "L0403")]


# ---------------------------------------------------------------------------
# L0401: static combinational loops, in agreement with the simulator
# ---------------------------------------------------------------------------


class TestCombLoop:
    def test_static_report_before_simulation(self):
        design = fixture_design("comb_loop")
        report = analyze_flow(design, filename="comb_loop")
        errors = [d for d in report.diagnostics if d.code == "L0401"]
        assert len(errors) == 1
        assert errors[0].severity.value == "error"
        assert report.loops == [["a", "b"]]

    def test_agrees_with_simulator_signal_set(self):
        """The satellite fix: L0401 names the simulator's unstable set."""
        design = fixture_design("comb_loop")
        report = analyze_flow(design, filename="comb_loop")
        with pytest.raises(CombinationalLoopError) as excinfo:
            Simulator(design).run(2)
        message = str(excinfo.value)
        runtime = sorted(
            name.strip()
            for name in message.split("still changing:")[1].split(",")
            if name.strip() and name.strip() != "<memory writes>"
        )
        assert report.loops == [runtime]

    def test_settling_designs_stay_quiet(self):
        text = """
module nolod (input wire clk, input wire a, output reg q);
    wire x;
    wire y;
    assign x = a & y;
    assign y = ~a;
    always @(posedge clk) q <= x;
endmodule
"""
        report = flow_of(text, "nolod")
        assert "L0401" not in codes_of(report)


# ---------------------------------------------------------------------------
# L0402/L0403: clock-domain crossings
# ---------------------------------------------------------------------------


class TestCDC:
    def test_clean_synchronizer(self):
        report = analyze_flow(fixture_design("sync_2ff"), filename="sync_2ff")
        assert report.diagnostics == []

    def test_gray_coded_pointer_accepted(self):
        report = analyze_flow(
            fixture_design("gray_crossing"), filename="gray_crossing"
        )
        assert report.diagnostics == []

    def test_direct_crossing_flagged_both_ways(self):
        report = analyze_flow(
            fixture_design("direct_crossing"), filename="direct_crossing"
        )
        codes = codes_of(report)
        assert "L0402" in codes, "logic fed by another domain"
        assert "L0403" in codes, "multi-bit capture without gray/handshake"
        messages = " ".join(d.message for d in report.diagnostics)
        assert "flag_a" in messages and "data_a" in messages


class TestValidDataSkew:
    """L0402's data/valid latency check counts each edge's latency."""

    def skew_warnings(self, design):
        report = analyze_flow(design, filename="ram_valid_latency")
        return [
            d.message
            for d in report.diagnostics
            if d.code == "L0402" and "out of sync" in d.message
        ]

    def test_ram_read_path_in_sync(self):
        # x -> altsyncram (2 cycles) -> res (1) matches x[0] through
        # three registers to res_valid.
        assert self.skew_warnings(fixture_design("ram_valid_latency")) == []
        with open(os.path.join(FIXTURES, "ram_valid_latency.v")) as handle:
            text = handle.read()
        assert check_text(text, filename="x.v", strict=True).exit_code == 0

    def test_two_register_valid_path_still_warns(self):
        with open(os.path.join(FIXTURES, "ram_valid_latency.v")) as handle:
            text = handle.read()
        skewed = text.replace("res_valid <= v2;", "res_valid <= v1;")
        assert skewed != text
        (message,) = self.skew_warnings(
            elaborate(parse(skewed), top="ram_valid_latency")
        )
        assert "from 'x' (3 vs 2 cycles)" in message

    def test_agrees_with_dependency_chain(self):
        module = fixture_design("ram_valid_latency").top
        incoming = build_signal_graph(module).incoming()
        for target in ("res", "res_valid"):
            chain = dependency_chain(module, target, depth=64)
            chain.distances.pop(target)
            assert chain.distances == _latencies_to(incoming, target)
        assert _latencies_to(incoming, "res")["x"] == 3
        assert _latencies_to(incoming, "res_valid")["x"] == 3


# ---------------------------------------------------------------------------
# L0404/L0405: races
# ---------------------------------------------------------------------------


class TestRaces:
    def test_write_write_race(self):
        text = """
module wwrace(input wire clk, input wire a, input wire b, output reg r);
  always @(posedge clk) if (a) r <= 1;
  always @(posedge clk) if (b) r <= 0;
endmodule
"""
        report = flow_of(text, "wwrace")
        assert "L0404" in codes_of(report)

    def test_provably_disjoint_conditions_accepted(self):
        text = """
module disjoint(input wire clk, input wire sel, output reg r);
  always @(posedge clk) if (sel) r <= 1;
  always @(posedge clk) if (!sel) r <= 0;
endmodule
"""
        report = flow_of(text, "disjoint")
        assert "L0404" not in codes_of(report)

    def test_mixed_blocking_nonblocking_drivers(self):
        text = """
module mixed(input wire clk, input wire a, input wire b, output reg r,
             output reg q);
  always @(posedge clk) begin
    r = a;
    q <= r & b;
  end
  always @(posedge clk) if (b) r <= 0;
endmodule
"""
        report = flow_of(text, "mixed")
        assert "L0405" in codes_of(report)


# ---------------------------------------------------------------------------
# L0406: read-before-reset
# ---------------------------------------------------------------------------


class TestReadBeforeReset:
    POSITIVE = """
module rbr(input wire clk, input wire rst, input wire en, input wire d,
           output reg q);
  reg mode;
  always @(posedge clk) begin
    if (rst) q <= 0;
    else if (mode) q <= d;
  end
  always @(posedge clk) if (en) mode <= d;
endmodule
"""

    def test_unreset_steering_register_flagged(self):
        report = flow_of(self.POSITIVE, "rbr")
        findings = [d for d in report.diagnostics if d.code == "L0406"]
        assert findings and "mode" in findings[0].message

    def test_reset_register_accepted(self):
        text = self.POSITIVE.replace(
            "if (en) mode <= d;", "if (rst) mode <= 0; else if (en) mode <= d;"
        )
        report = flow_of(text, "rbr")
        assert "L0406" not in codes_of(report)

    def test_data_only_registers_accepted(self):
        # A conventional unreset datapath register (reads in data
        # positions only) is idiomatic, not a defect.
        text = """
module pipe(input wire clk, input wire rst, input wire [7:0] d,
            output reg [7:0] q);
  reg [7:0] stage;
  always @(posedge clk) begin
    if (rst) q <= 0;
    else q <= stage;
  end
  always @(posedge clk) stage <= d;
endmodule
"""
        report = flow_of(text, "pipe")
        assert "L0406" not in codes_of(report)


# ---------------------------------------------------------------------------
# L0407: unreachable FSM states
# ---------------------------------------------------------------------------


class TestFSMReachability:
    def test_unreachable_state_flagged(self):
        text = """
module fsm(input wire clk, input wire rst, input wire go, output reg out);
  localparam S0 = 0;
  localparam S1 = 1;
  localparam S3 = 3;
  reg [1:0] state;
  always @(posedge clk) begin
    if (rst) state <= S0;
    else case (state)
      S0: if (go) state <= S1;
      S1: state <= S0;
      S3: state <= S0;
    endcase
  end
  always @(posedge clk) out <= (state == S1);
endmodule
"""
        report = flow_of(text, "fsm")
        findings = [d for d in report.diagnostics if d.code == "L0407"]
        assert findings and "state 3" in findings[0].message

    def test_fully_reachable_fsm_accepted(self):
        text = """
module okfsm(input wire clk, input wire rst, input wire go, output reg out);
  localparam S0 = 0;
  localparam S1 = 1;
  reg state;
  always @(posedge clk) begin
    if (rst) state <= S0;
    else case (state)
      S0: if (go) state <= S1;
      S1: state <= S0;
    endcase
  end
  always @(posedge clk) out <= (state == S1);
endmodule
"""
        report = flow_of(text, "okfsm")
        assert "L0407" not in codes_of(report)


# ---------------------------------------------------------------------------
# Testbed snapshot: precision over the 20 documented bugs
# ---------------------------------------------------------------------------


class TestTestbedSnapshot:
    def test_no_error_severity_false_positives(self):
        """The precision gate: error-severity flow findings would break
        `repro check` on known-good-to-simulate designs."""
        for bug_id in BUG_IDS:
            report = analyze_flow(load_design(bug_id), filename=bug_id)
            assert report.converged, bug_id
            errors = [
                d for d in report.diagnostics if d.severity.value == "error"
            ]
            assert not errors, (bug_id, [d.message for d in errors])

    def test_communication_bugs_flagged(self):
        """At least one of C1-C4 trips the CDC/communication rules."""
        flagged = set()
        for bug_id in ("C1", "C2", "C3", "C4"):
            report = analyze_flow(load_design(bug_id), filename=bug_id)
            if any(d.code in ("L0402", "L0403") for d in report.diagnostics):
                flagged.add(bug_id)
        assert flagged, "no communication bug flagged by the CDC rules"

    def test_c1_circular_handshake(self):
        report = analyze_flow(load_design("C1"), filename="C1")
        findings = [d for d in report.diagnostics if d.code == "L0402"]
        assert findings and "circular handshake" in findings[0].message
        fixed = analyze_flow(load_design("C1", fixed=True), filename="C1")
        assert "L0402" not in codes_of(fixed)

    def test_c3_valid_data_skew(self):
        report = analyze_flow(load_design("C3"), filename="C3")
        skew = [
            d
            for d in report.diagnostics
            if d.code == "L0402" and "out of sync" in d.message
        ]
        assert skew and "final_response" in skew[0].message
        fixed = analyze_flow(load_design("C3", fixed=True), filename="C3")
        assert not [
            d
            for d in fixed.diagnostics
            if d.code == "L0402" and "out of sync" in d.message
        ]

    def test_c2_unreachable_fsm_state(self):
        report = analyze_flow(load_design("C2"), filename="C2")
        assert "L0407" in codes_of(report)


# ---------------------------------------------------------------------------
# `repro check` integration
# ---------------------------------------------------------------------------


class TestCheckIntegration:
    def test_flow_rules_in_report(self):
        with open(os.path.join(FIXTURES, "direct_crossing.v")) as handle:
            text = handle.read()
        result = check_text(text, filename="direct_crossing.v")
        codes = {d.code for d in result.sink.diagnostics}
        assert "L0402" in codes and "L0403" in codes
        flow_modules = [m for m in result.modules if "flow" in m.tools]
        assert flow_modules

    def test_select_flow_rules(self):
        with open(os.path.join(FIXTURES, "direct_crossing.v")) as handle:
            text = handle.read()
        result = check_text(text, filename="x.v", select=("L04",))
        assert result.sink.diagnostics
        assert all(
            d.code.startswith("L04") for d in result.sink.diagnostics
        )

    def test_strict_fails_on_flow_warnings(self):
        with open(os.path.join(FIXTURES, "direct_crossing.v")) as handle:
            text = handle.read()
        assert check_text(text, filename="x.v").exit_code == 0
        assert check_text(text, filename="x.v", strict=True).exit_code == 1

    def test_comb_loop_is_error_exit(self):
        with open(os.path.join(FIXTURES, "comb_loop.v")) as handle:
            text = handle.read()
        result = check_text(text, filename="comb_loop.v")
        assert result.exit_code == 1
        assert "L0401" in {d.code for d in result.sink.diagnostics}

    def test_json_report_byte_deterministic_with_flow(self):
        with open(os.path.join(FIXTURES, "direct_crossing.v")) as handle:
            text = handle.read()

        def render():
            result = check_text(text, filename="direct_crossing.v")
            return render_check_report(build_check_report(result))

        first, second = render(), render()
        assert first == second
        parsed = json.loads(first)
        codes = {
            d["code"]
            for report in parsed["reports"]
            for d in report["diagnostics"]
        }
        assert "L0402" in codes


class TestFlowOracle:
    """The fuzz oracle wrapping the engine (termination + determinism)."""

    def test_passes_on_clean_fixture(self):
        from repro.fuzz.oracles import flow_oracle

        with open(os.path.join(FIXTURES, "sync_2ff.v")) as handle:
            outcome = flow_oracle(handle.read())
        assert outcome.status == "pass", outcome.detail

    def test_passes_with_findings(self):
        # A design full of L04xx findings still passes: the oracle
        # judges well-formedness, not cleanliness.
        from repro.fuzz.oracles import flow_oracle

        with open(os.path.join(FIXTURES, "direct_crossing.v")) as handle:
            outcome = flow_oracle(handle.read())
        assert outcome.status == "pass", outcome.detail

    def test_inapplicable_on_unparsable_input(self):
        from repro.fuzz.oracles import flow_oracle

        outcome = flow_oracle("module busted ( ;")
        assert outcome.status == "inapplicable"

    def test_generated_designs_terminate(self):
        from repro.fuzz.generator import generate_design
        from repro.fuzz.oracles import flow_oracle

        for seed in (3, 17, 41):
            design = generate_design(seed)
            outcome = flow_oracle(design.text, top=design.top, seed=seed)
            assert outcome.status == "pass", (seed, outcome.detail)

    def test_registered_in_campaign(self):
        from repro.fuzz.oracles import ORACLE_NAMES, ORACLES

        assert "flow" in ORACLE_NAMES and "flow" in ORACLES
