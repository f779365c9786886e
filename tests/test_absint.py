"""Tests for repro.flow.absint: domains, facts, L05xx rules, soundness."""

import json
import os

import pytest

from repro.flow import analyze_values, compute_facts
from repro.flow.domains import AbsValue, bit_mask
from repro.fuzz import generate_design
from repro.fuzz.oracles import absint_oracle, build_stimulus, simulate_trace
from repro.core.instrument import dominant_clock
from repro.hdl import elaborate, parse
from repro.testbed import BUG_IDS, load_design

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "flow")


def fixture_design(name, top=None):
    with open(os.path.join(FIXTURES, name + ".v")) as handle:
        text = handle.read()
    return elaborate(parse(text), top=top or name)


def analyze(text, top):
    design = elaborate(parse(text), top=top)
    return analyze_values(design.top, filename=top)


def codes_of(diagnostics):
    return [d.code for d in diagnostics]


# ---------------------------------------------------------------------------
# AbsValue domain algebra
# ---------------------------------------------------------------------------


class TestAbsValue:
    def test_const_pins_every_bit(self):
        v = AbsValue.const(0b1010, 4)
        assert v.is_const and v.const_value == 10
        assert v.ones == 0b1010 and v.zeros == 0b0101
        assert v.contains(10) and not v.contains(11)

    def test_reduction_tightens_both_ways(self):
        # hi=5 proves bit 3 zero; known one at bit 2 lifts lo to 4.
        v = AbsValue.make(4, 0, 5, ones=0b100)
        assert v.lo == 4 and v.hi == 5
        assert v.zeros & 0b1000

    def test_contradiction_falls_back_to_top(self):
        v = AbsValue.make(4, 3, 2)
        assert v.is_top

    def test_join_hulls_interval_and_intersects_bits(self):
        a = AbsValue.const(4, 4)
        b = AbsValue.const(6, 4)
        j = a.join(b)
        assert j.lo == 4 and j.hi == 6
        assert j.ones == 0b100  # bit 2 set in both
        assert j.zeros & 0b0001  # bit 0 clear in both
        assert j.contains(4) and j.contains(6)

    def test_join_merges_taint(self):
        a = AbsValue.const(1, 2, xmask=0b01)
        b = AbsValue.const(2, 2)
        assert a.join(b).xmask == 0b01

    def test_widen_jumps_growing_bound(self):
        old = AbsValue.make(16, 0, 3)
        new = AbsValue.make(16, 0, 4)
        w = old.widen(new)
        assert w.hi == bit_mask(16)
        assert w.lo == 0
        # A stable bound survives widening.
        stable = old.widen(AbsValue.make(16, 1, 3))
        assert stable.hi == 3

    def test_resize_grow_adds_known_zeros(self):
        v = AbsValue.top(4).resized(8)
        assert v.hi == 15 and v.zeros == 0xF0

    def test_resize_shrink_wraps_to_top(self):
        v = AbsValue.make(8, 0, 200).resized(4)
        assert v.lo == 0 and v.hi == 15

    def test_truth_three_valued(self):
        assert AbsValue.const(0, 4).truth() is False
        assert AbsValue.make(4, 1, 5).truth() is True
        assert AbsValue.top(4).truth() is None

    def test_shifted_left_overshift_is_zero(self):
        v = AbsValue.top(8).shifted_left(8, 8)
        assert v.is_const and v.const_value == 0

    def test_describe_renders_bits(self):
        assert AbsValue.const(3, 4).describe() == "constant 3"
        assert "[" in AbsValue.top(4).describe()


# ---------------------------------------------------------------------------
# Fact computation
# ---------------------------------------------------------------------------


class TestComputeFacts:
    def test_constant_register_proven(self):
        design = fixture_design("constant_tap")
        table = compute_facts(design.top)
        assert table.converged
        assert table.get("dbg_tag").is_const
        assert table.constants() == {"dbg_tag": 0}
        # The payload register is not constant.
        assert not table.get("stage").is_const

    def test_inputs_are_top(self):
        design = fixture_design("constant_tap")
        table = compute_facts(design.top)
        fact = table.get("in_data")
        assert fact.lo == 0 and fact.hi == 255

    def test_widening_converges_divergent_counter(self):
        design = fixture_design("divergent_counter")
        table = compute_facts(design.top)
        assert table.converged
        # Widening must converge in a handful of passes, far below the
        # cap the naive one-step-per-iteration chain would trip.
        assert table.iterations < 64
        count = table.get("count")
        assert count.lo == 0 and count.hi == 65535

    def test_iteration_cap_marks_unconverged(self):
        design = fixture_design("divergent_counter")
        table = compute_facts(design.top, max_iterations=2)
        assert not table.converged
        # Unconverged tables yield no diagnostics (facts are unusable).
        from repro.flow.absint import check_values

        assert check_values(design.top, table) == []

    def test_render_is_byte_deterministic(self):
        design = fixture_design("divergent_counter")
        first = compute_facts(design.top).render()
        second = compute_facts(design.top).render()
        assert first == second
        payload = json.loads(first)
        assert payload["schema"] == "repro.flow.absint/v1"
        assert payload["converged"] is True
        assert "count" in payload["signals"]

    def test_ip_summary_bounds_fifo_usedw(self):
        text = (
            "module m (input wire clk, input wire push, input wire pop,\n"
            "          input wire [7:0] d, output wire [7:0] q);\n"
            "  wire [3:0] usedw;\n"
            "  wire full, empty;\n"
            "  scfifo #(.LPM_WIDTH(8), .LPM_NUMWORDS(8)) f (\n"
            "    .clock(clk), .data(d), .wrreq(push), .rdreq(pop),\n"
            "    .q(q), .usedw(usedw), .full(full), .empty(empty));\n"
            "endmodule"
        )
        design = elaborate(parse(text), top="m")
        table = compute_facts(design.top)
        usedw = table.get("usedw")
        assert usedw.lo == 0 and usedw.hi == 8

    def test_unknown_instance_tops_connections(self):
        # Analyzed pre-elaboration (elaborate would reject the unknown
        # module): every signal touching the mystery instance is TOP.
        text = (
            "module m (input wire clk, output wire [7:0] q);\n"
            "  reg [7:0] held;\n"
            "  always @(posedge clk) held <= 5;\n"
            "  mystery u (.a(held), .b(q));\n"
            "endmodule"
        )
        module = parse(text).find_module("m")
        table = compute_facts(module)
        assert table.get("held").is_top
        assert table.get("q").is_top


# ---------------------------------------------------------------------------
# L05xx checkers
# ---------------------------------------------------------------------------


class TestValueCheckers:
    def test_l0501_condition_always_false(self):
        _, diags = analyze(
            "module m (input wire clk, output reg q);\n"
            "  reg [3:0] zero;\n"
            "  always @(posedge clk) begin\n"
            "    zero <= 0;\n"
            "    if (zero[1]) q <= 1; else q <= 0;\n"
            "  end\nendmodule",
            "m",
        )
        assert "L0501" in codes_of(diags)

    def test_l0502_unreachable_case_arm(self):
        _, diags = analyze(
            "module m (input wire clk, output reg q);\n"
            "  reg [1:0] st;\n"
            "  always @(posedge clk) begin\n"
            "    st <= 0;\n"
            "    case (st)\n"
            "      0: q <= 0;\n"
            "      3: q <= 1;\n"
            "    endcase\n"
            "  end\nendmodule",
            "m",
        )
        assert "L0502" in codes_of(diags)

    def test_l0503_width_impossible_comparison(self):
        design = fixture_design("divergent_counter")
        _, diags = analyze_values(design.top, filename="divergent_counter.v")
        codes = codes_of(diags)
        assert "L0503" in codes
        # The dead branch is explained by the L0503, not double-flagged.
        assert "L0501" not in codes
        message = next(d for d in diags if d.code == "L0503").message
        assert "65536" in message and "16-bit" in message

    def test_l0504_unreset_register_reaches_output(self):
        _, diags = analyze(
            "module m (input wire clk, input wire rst,\n"
            "          input wire [7:0] d, output reg [7:0] q);\n"
            "  reg [7:0] held;\n"
            "  reg vld;\n"
            "  always @(posedge clk) begin\n"
            "    if (rst) vld <= 0;\n"
            "    else begin\n"
            "      if (vld) held <= d;\n"
            "      q <= held;\n"
            "    end\n"
            "  end\nendmodule",
            "m",
        )
        l0504 = [d for d in diags if d.code == "L0504"]
        assert l0504 and "'held'" in l0504[0].message

    def test_l0504_silent_when_all_reset(self):
        _, diags = analyze(
            "module m (input wire clk, input wire rst,\n"
            "          input wire [7:0] d, output reg [7:0] q);\n"
            "  always @(posedge clk) begin\n"
            "    if (rst) q <= 0; else q <= d;\n"
            "  end\nendmodule",
            "m",
        )
        assert "L0504" not in codes_of(diags)

    def test_l0505_index_out_of_bounds(self):
        _, diags = analyze(
            "module m (input wire clk, output reg [7:0] q);\n"
            "  reg [7:0] mem [0:3];\n"
            "  wire [3:0] idx;\n"
            "  assign idx = 12;\n"
            "  always @(posedge clk) q <= mem[idx];\n"
            "endmodule",
            "m",
        )
        assert "L0505" in codes_of(diags)

    def test_l0505_silent_for_register_with_reset_zero(self):
        # A sequential index register always joins its initial 0, so a
        # register that *can* be 12 but starts in range stays silent.
        _, diags = analyze(
            "module m (input wire clk, output reg [7:0] q);\n"
            "  reg [7:0] mem [0:3];\n"
            "  reg [3:0] idx;\n"
            "  always @(posedge clk) begin\n"
            "    idx <= 4'd12;\n"
            "    q <= mem[idx];\n"
            "  end\nendmodule",
            "m",
        )
        assert "L0505" not in codes_of(diags)

    def test_l0506_possibly_zero_divisor(self):
        _, diags = analyze(
            "module m (input wire [7:0] a, input wire [7:0] b,\n"
            "          output wire [7:0] q);\n"
            "  assign q = a / b;\n"
            "endmodule",
            "m",
        )
        assert "L0506" in codes_of(diags)

    def test_l0506_silent_when_divisor_nonzero(self):
        _, diags = analyze(
            "module m (input wire [7:0] a, output wire [7:0] q);\n"
            "  assign q = a / 3;\n"
            "endmodule",
            "m",
        )
        assert "L0506" not in codes_of(diags)

    def test_l0507_redundant_mask(self):
        _, diags = analyze(
            "module m (input wire clk, output reg [7:0] q);\n"
            "  reg [7:0] low;\n"
            "  always @(posedge clk) begin\n"
            "    low <= 7;\n"
            "    q <= low & 8'hF0;\n"
            "  end\nendmodule",
            "m",
        )
        assert "L0507" in codes_of(diags)

    def test_all_findings_are_warnings(self):
        from repro.diag.model import Severity

        design = fixture_design("divergent_counter")
        _, diags = analyze_values(design.top)
        assert diags
        assert all(d.severity is Severity.WARNING for d in diags)

    def test_codes_registered(self):
        from repro.diag import is_registered

        for code in ("L0501", "L0502", "L0503", "L0504", "L0505",
                     "L0506", "L0507"):
            assert is_registered(code), code


# ---------------------------------------------------------------------------
# Soundness against the simulator (the absint oracle's core claim)
# ---------------------------------------------------------------------------


class TestSoundness:
    def _assert_sound(self, design, seed=0, cycles=48):
        module = design.top
        table = compute_facts(module)
        assert table.converged
        clock = dominant_clock(module)
        stimulus = build_stimulus(module, seed, cycles, clock)
        trace, _sim = simulate_trace(design, stimulus, clock)
        for cycle, snapshot in enumerate(trace):
            for name, value in snapshot.items():
                fact = table.get(name)
                if fact is None:
                    continue
                values = value if isinstance(value, list) else [value]
                for element in values:
                    assert fact.contains(element), (
                        "%s=%d escapes %s at cycle %d"
                        % (name, element, fact.describe(), cycle)
                    )

    @pytest.mark.parametrize("bug_id", sorted(BUG_IDS))
    def test_testbed_designs_sound(self, bug_id):
        self._assert_sound(load_design(bug_id))
        self._assert_sound(load_design(bug_id, fixed=True))

    @pytest.mark.parametrize("name", ["constant_tap", "divergent_counter",
                                      "routed_pipeline"])
    def test_fixtures_sound(self, name):
        self._assert_sound(fixture_design(name))


# ---------------------------------------------------------------------------
# The absint fuzz oracle
# ---------------------------------------------------------------------------


class TestAbsintOracle:
    def test_registered(self):
        from repro.fuzz.oracles import ORACLE_NAMES, ORACLES

        assert "absint" in ORACLE_NAMES and "absint" in ORACLES

    def test_passes_on_generated_designs(self):
        for seed in range(8):
            g = generate_design(seed)
            outcome = absint_oracle(g.text, top=g.top, seed=seed, cycles=24)
            assert outcome.status == "pass", (seed, outcome.detail)

    def test_inapplicable_on_garbage(self):
        outcome = absint_oracle("utter ( garbage")
        assert outcome.status == "inapplicable"

    def test_cap_hit_is_failure(self):
        text = open(
            os.path.join(FIXTURES, "divergent_counter.v")
        ).read()
        outcome = absint_oracle(
            text, top="divergent_counter", max_iterations=2
        )
        assert outcome.status == "fail"
        assert "iteration cap" in outcome.detail

    def test_detects_planted_unsoundness(self, monkeypatch):
        # Force deliberately-wrong facts (every non-constant scalar
        # claimed constant 0) and confirm the oracle sees the escape.
        import repro.flow as flow_pkg

        real = flow_pkg.compute_facts

        def lying(module, max_iterations=None):
            table = real(module, max_iterations=max_iterations)
            for name, fact in list(table.facts.items()):
                if not fact.is_const and not table.depths.get(name):
                    table.facts[name] = AbsValue.const(0, fact.width)
            return table

        monkeypatch.setattr(flow_pkg, "compute_facts", lying)
        g = generate_design(3)
        outcome = absint_oracle(g.text, top=g.top, seed=3, cycles=24)
        assert outcome.status == "fail"
        assert "soundness violation" in outcome.detail


# ---------------------------------------------------------------------------
# Testbed snapshot: the L05xx family on the paper's 20 bugs
# ---------------------------------------------------------------------------


class TestTestbedSnapshot:
    def _l05_codes(self, bug_id, fixed=False):
        design = load_design(bug_id, fixed=fixed)
        _, diags = analyze_values(design.top, filename=bug_id)
        return sorted({d.code for d in diags})

    def test_c2_flagged_by_value_rules(self):
        # C2's merge FSM is provably stuck in MG_RUN: the MG_FLUSH arm
        # is dead code — a value-level finding structure checks missed.
        codes = self._l05_codes("C2")
        assert "L0502" in codes and "L0503" in codes

    def test_every_design_converges(self):
        for bug_id in sorted(BUG_IDS):
            for fixed in (False, True):
                design = load_design(bug_id, fixed=fixed)
                table, _ = analyze_values(design.top, filename=bug_id)
                assert table.converged, (bug_id, fixed)

    def test_no_error_severity_findings_on_fixed_designs(self):
        from repro.diag.model import Severity

        for bug_id in sorted(BUG_IDS):
            design = load_design(bug_id, fixed=True)
            _, diags = analyze_values(design.top, filename=bug_id)
            assert all(
                d.severity is not Severity.ERROR for d in diags
            ), bug_id


# ---------------------------------------------------------------------------
# Integration: facts surface through analyze_flow and repro check
# ---------------------------------------------------------------------------


class TestIntegration:
    def test_analyze_flow_carries_facts(self):
        from repro.flow import analyze_flow

        design = fixture_design("divergent_counter")
        report = analyze_flow(design, filename="divergent_counter.v")
        assert report.facts is not None
        assert report.facts.get("count") is not None
        assert "L0503" in [d.code for d in report.diagnostics]

    def test_check_select_l05(self):
        from repro.diag.check import check_text

        text = open(
            os.path.join(FIXTURES, "divergent_counter.v")
        ).read()
        result = check_text(text, run_tools=False, select=("L05",))
        codes = {d.code for d in result.sink.diagnostics}
        assert codes and all(c.startswith("L05") for c in codes)

    def test_losscheck_prunes_constant_register(self):
        from repro.core import LossCheck

        design = fixture_design("constant_tap")
        lc = LossCheck(design, "in_data", "out_q", prune=True)
        assert "dbg_tag" in lc.pruned_out
        assert "stage" in lc.monitored

    def test_repair_sites_accept_l05(self):
        from repro.repair.sites import RANK_CHECK, _check_sites

        # C2's dead MG_FLUSH arm yields L0502/L0503 findings; they must
        # surface as rank-1 repair sites naming the quoted signal.
        sites = _check_sites("C2")
        l05 = [s for s in sites if s.origin.startswith("check:L05")]
        assert l05
        assert all(s.rank == RANK_CHECK for s in l05)
        assert any(s.signal == "mg_state" for s in l05)
