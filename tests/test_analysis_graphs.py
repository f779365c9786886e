"""Tests for dependency graphs, FSM detection, and propagation relations."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    build_dependency_graph,
    build_propagation_table,
    dependency_chain,
    detect_fsms,
    instantiate_condition,
)
from repro.core.dependency_monitor import DependencyMonitor
from repro.flow import build_signal_graph, payload_register_graph
from repro.hdl import elaborate, parse, parse_expression
from repro.hdl.codegen import generate_expression
from repro.hdl.elaborate import DEFAULT_BLACKBOXES
from repro.testbed import BUG_IDS
from repro.testbed.debug_configs import CONFIGS
from repro.testbed.harness import load_design

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


def top_of(text, top=None):
    return elaborate(parse(text), top=top).top


class TestDependencyChain:
    PIPE = """
    module pipe (input wire clk, input wire [7:0] x, output reg [7:0] s3);
        reg [7:0] s1;
        reg [7:0] s2;
        always @(posedge clk) begin
            s1 <= x;
            s2 <= s1;
            s3 <= s2;
        end
    endmodule
    """

    def test_distances_count_cycles(self):
        chain = dependency_chain(top_of(self.PIPE), "s3", 5)
        assert chain.distances["s2"] == 1
        assert chain.distances["s1"] == 2
        assert chain.distances["x"] == 3

    def test_depth_cuts_off(self):
        chain = dependency_chain(top_of(self.PIPE), "s3", 1)
        assert "s2" in chain.distances
        assert "s1" not in chain.distances

    def test_combinational_hop_is_free(self):
        module = top_of(
            "module m (input wire clk, input wire [7:0] x, output reg [7:0] q);"
            " wire [7:0] w; assign w = x + 1;"
            " always @(posedge clk) q <= w; endmodule"
        )
        chain = dependency_chain(module, "q", 1)
        assert chain.distances["w"] == 1
        assert chain.distances["x"] == 1

    def test_control_dependency_included_and_excludable(self):
        text = (
            "module m (input wire clk, input wire en, input wire d, output reg q);"
            " always @(posedge clk) if (en) q <= d; endmodule"
        )
        with_control = dependency_chain(top_of(text), "q", 2)
        assert "en" in with_control.distances
        without = dependency_chain(top_of(text), "q", 2, include_control=False)
        assert "en" not in without.distances

    def test_unknown_target_rejected(self):
        with pytest.raises(KeyError):
            dependency_chain(top_of(self.PIPE), "nope", 2)

    def test_registers_ordered_nearest_first(self):
        chain = dependency_chain(top_of(self.PIPE), "s3", 5)
        assert chain.registers[0] == "s3"
        assert chain.registers.index("s2") < chain.registers.index("s1")

    def test_ip_flow_edges(self):
        module = top_of(
            """
            module m (input wire clk, input wire [7:0] d, input wire push,
                      input wire pop, output reg [7:0] out);
                wire [7:0] q;
                wire full;
                scfifo #(.LPM_WIDTH(8)) f (.clock(clk), .data(d), .wrreq(push),
                                           .rdreq(pop), .q(q), .full(full));
                always @(posedge clk) out <= q;
            endmodule
            """
        )
        chain = dependency_chain(module, "out", 3)
        assert "d" in chain.distances  # traced through the FIFO model

    def test_graph_edge_attributes(self):
        graph = build_dependency_graph(top_of(self.PIPE))
        assert graph["s2"] == [("s1", 1)]
        assert "x" not in graph  # inputs have no incoming edges

    def test_altsyncram_data_takes_two_cycles(self):
        module = top_of(
            """
            module m (input wire clk, input wire [3:0] addr,
                      input wire [7:0] d, input wire we,
                      output wire [7:0] q);
                altsyncram #(.WIDTH_A(8), .NUMWORDS_A(16)) ram (
                    .clock0(clk), .address_a(addr), .data_a(d),
                    .wren_a(we), .q_a(q)
                );
            endmodule
            """
        )
        assert dependency_chain(module, "q", 1).distances == {
            "q": 0, "addr": 1
        }
        assert dependency_chain(module, "q", 2).distances == {
            "q": 0, "addr": 1, "d": 2
        }

    def test_unmodeled_blackbox_rejected(self):
        module = elaborate(
            parse(
                "module m (input wire clk, input wire [7:0] d,"
                " output wire [7:0] q);"
                " mystery_ip u0 (.clk(clk), .d(d), .q(q)); endmodule"
            ),
            blackboxes=DEFAULT_BLACKBOXES | {"mystery_ip"},
        ).top
        with pytest.raises(KeyError, match="mystery_ip") as excinfo:
            dependency_chain(module, "q", 2)
        # The message names the registry a custom model goes into.
        assert str(excinfo.value) == repr(
            "no IP analysis model for blackbox 'mystery_ip'; register "
            "one in DEFAULT_IP_MODELS (repro.analysis.ip_models)"
        )
        # The other readers of the blackbox resolver keep their policies.
        with pytest.raises(KeyError, match="mystery_ip"):
            build_propagation_table(module)
        assert build_signal_graph(module).unmodeled == ["u0"]
        assert payload_register_graph(module) == {}

    def test_declared_signal_without_edges_is_a_target(self):
        chain = dependency_chain(top_of(self.PIPE), "x", 3)
        assert chain.distances == {"x": 0}


class TestDependencyMonitorSnapshot:
    """``DependencyMonitor.report()`` on every testbed bug with a target.

    The snapshot was recorded with the original networkx-based graph;
    the dependency query must keep reproducing it exactly.
    """

    SNAPSHOT = Path(__file__).parent / "fixtures" / "depmonitor_reports.json"

    def test_reports_match_snapshot(self):
        expected = json.loads(self.SNAPSHOT.read_text())
        actual = {}
        for bug_id, config in sorted(CONFIGS.items()):
            if config.dep_target is None:
                continue
            for fixed in (False, True):
                monitor = DependencyMonitor(
                    load_design(bug_id, fixed=fixed),
                    config.dep_target,
                    config.dep_depth,
                )
                key = "%s/%s" % (bug_id, "fixed" if fixed else "buggy")
                actual[key] = monitor.report()
        assert actual == expected


def propagation_snapshot():
    """Every testbed bug's propagation table, buggy and fixed, as JSON data.

    Relations keep their extraction order: LossCheck's generated
    instrumentation follows it.
    """

    def text(condition):
        return None if condition is None else generate_expression(condition)

    snapshot = {}
    for bug_id in BUG_IDS:
        for fixed in (False, True):
            table = build_propagation_table(load_design(bug_id, fixed=fixed).top)
            key = "%s/%s" % (bug_id, "fixed" if fixed else "buggy")
            snapshot[key] = {
                "relations": [
                    {
                        "src": r.src,
                        "dst": r.dst,
                        "condition": text(r.condition),
                        "lineno": r.lineno,
                        "via_ip": r.via_ip,
                        "identity_hold": r.identity_hold,
                    }
                    for r in table.relations
                ],
                "ip_loss_points": [
                    {
                        "instance": p.instance,
                        "port": p.port,
                        "condition": text(p.condition),
                        "sources": p.sources,
                    }
                    for p in table.ip_loss_points
                ],
            }
    return snapshot


class TestPropagationSnapshot:
    """``build_propagation_table`` on all 20 testbed bugs, buggy and fixed.

    Recorded before the blackbox resolver and the register-collapsing
    walk were shared with :mod:`repro.flow`; the tables must keep
    matching exactly, relation order included.
    """

    SNAPSHOT = Path(__file__).parent / "fixtures" / "propagation_tables.json"

    def test_tables_match_snapshot(self):
        expected = json.loads(self.SNAPSHOT.read_text())
        assert propagation_snapshot() == expected


class TestNoRuntimeDependencies:
    @pytest.mark.parametrize("module", ["repro.cli", "repro.serve.worker"])
    def test_networkx_never_imported(self, module):
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, %s; print('networkx' in sys.modules)" % module],
            capture_output=True, text=True, env=env, check=True,
        )
        assert result.stdout.strip() == "False"


class TestFSMDetection:
    def test_listing1_fsm(self, fsm_design):
        (fsm,) = detect_fsms(fsm_design.top)
        assert fsm.name == "state"
        assert fsm.states == {0, 1, 2}
        arcs = {(t.from_state, t.to_state) for t in fsm.transitions}
        assert arcs == {(0, 1), (1, 2), (2, 0)}

    def test_counter_not_detected(self, counter_design):
        assert detect_fsms(counter_design.top) == []

    def test_two_process_fsm_missed(self):
        # The documented false-negative pattern (§4.2 / §6.3).
        module = top_of(
            """
            module m (input wire clk, input wire go, output reg st);
                reg nxt;
                always @(*) begin
                    nxt = st;
                    case (st)
                        0: if (go) nxt = 1;
                        1: nxt = 0;
                    endcase
                end
                always @(posedge clk) st <= nxt;
            endmodule
            """
        )
        assert detect_fsms(module) == []

    def test_bit_selected_register_excluded(self):
        module = top_of(
            """
            module m (input wire clk, input wire go, output reg [1:0] st,
                      output wire b);
                assign b = st[0];
                always @(posedge clk)
                    case (st)
                        0: if (go) st <= 1;
                        1: st <= 0;
                    endcase
            endmodule
            """
        )
        assert detect_fsms(module) == []

    def test_if_style_fsm_detected(self):
        module = top_of(
            """
            module m (input wire clk, input wire go, output reg [1:0] st);
                always @(posedge clk) begin
                    if (st == 0 && go) st <= 2;
                    if (st == 2) st <= 0;
                end
            endmodule
            """
        )
        (fsm,) = detect_fsms(module)
        assert fsm.states == {0, 2}

    def test_reset_arc_has_no_from_state(self, fsm_design):
        module = top_of(
            """
            module m (input wire clk, input wire rst, input wire go,
                      output reg [1:0] st);
                always @(posedge clk) begin
                    if (rst) st <= 0;
                    else case (st)
                        0: if (go) st <= 1;
                        1: st <= 0;
                    endcase
                end
            endmodule
            """
        )
        (fsm,) = detect_fsms(module)
        reset_arcs = [t for t in fsm.transitions if t.from_state is None]
        assert len(reset_arcs) == 1

    def test_hold_assignment_allowed(self):
        module = top_of(
            """
            module m (input wire clk, input wire go, output reg st);
                always @(posedge clk)
                    case (st)
                        0: if (go) st <= 1; else st <= st;
                        1: st <= 0;
                    endcase
            endmodule
            """
        )
        assert len(detect_fsms(module)) == 1

    def test_flag_without_self_reference_excluded(self):
        module = top_of(
            "module m (input wire clk, input wire go, output reg done);"
            " always @(posedge clk) if (go) done <= 1; else done <= 0;"
            " endmodule"
        )
        assert detect_fsms(module) == []


class TestPropagation:
    def test_paper_running_example_table(self, lossy_design):
        """§4.5.1: the three relations of the running example."""
        table = build_propagation_table(lossy_design.top)
        rel = {
            (r.src, r.dst): generate_expression(r.condition)
            for r in table.relations
        }
        assert rel[("a", "out")] == "cond_a"
        assert rel[("b", "out")] == "(!(cond_a) && cond_b)"
        assert rel[("in", "b")] == "in_valid"

    def test_path_registers(self, lossy_design):
        table = build_propagation_table(lossy_design.top)
        assert table.path_registers("in", "out") == {"in", "b", "out"}

    def test_comb_signals_collapsed(self):
        module = top_of(
            "module m (input wire clk, input wire en, input wire [7:0] x,"
            " output reg [7:0] q);"
            " wire [7:0] w; assign w = x + 1;"
            " always @(posedge clk) if (en) q <= w; endmodule"
        )
        table = build_propagation_table(module)
        pairs = {(r.src, r.dst) for r in table.relations}
        assert ("x", "q") in pairs
        assert ("w", "q") not in pairs

    def test_identity_hold_flagged(self):
        module = top_of(
            "module m (input wire clk, input wire en, input wire [7:0] d,"
            " output reg [7:0] q);"
            " always @(posedge clk) if (en) q <= d; else q <= q; endmodule"
        )
        table = build_propagation_table(module)
        holds = [r for r in table.relations if r.identity_hold]
        assert len(holds) == 1
        assert holds[0].src == holds[0].dst == "q"

    def test_ip_relations_and_loss_rules(self):
        module = top_of(
            """
            module m (input wire clk, input wire [7:0] d, input wire push,
                      input wire pop, output wire [7:0] q);
                wire full;
                scfifo #(.LPM_WIDTH(8)) f (.clock(clk), .data(d), .wrreq(push),
                                           .rdreq(pop), .q(q), .full(full));
            endmodule
            """
        )
        table = build_propagation_table(module)
        pairs = {(r.src, r.dst) for r in table.relations}
        assert ("d", "q") in pairs
        (point,) = table.ip_loss_points
        assert point.port == "data"
        assert "d" in point.sources
        assert generate_expression(point.condition) == "(push && full)"

    def test_instantiate_condition(self):
        cond = instantiate_condition(
            "{wrreq} && !{full}",
            {"wrreq": parse_expression("go"), "full": parse_expression("f")},
        )
        assert generate_expression(cond) == "(go && !(f))"

    def test_unbound_placeholder_rejected(self):
        with pytest.raises(KeyError):
            instantiate_condition("{missing}", {})
