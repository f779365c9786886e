"""Ablations for DESIGN.md's called-out design choices.

1. LossCheck's ground-truth false-positive filtering (§4.5.3): raw vs
   filtered report sizes across the loss bugs.
2. SignalCat's bounded on-FPGA buffer (§7's tradeoff vs Cascade/Synergy
   unbounded off-chip logging): log completeness vs buffer size.
3. The process compiler: compiled vs reference (AST-walking) simulation
   throughput (bit-identical results, asserted by the test suite).
"""

from repro.core import LossCheck, Mode, SignalCat
from repro.hdl import elaborate, parse
from repro.sim import Simulator
from repro.sim.reference import ReferenceSimulator
from repro.testbed import GROUND_TRUTH, SPECS, load_design
from repro.testbed.scenarios import SCENARIOS

LOSS_BUGS = ["D1", "D2", "D3", "D11", "C2"]


def _filtering_ablation():
    rows = []
    for bug_id in LOSS_BUGS:
        spec = SPECS[bug_id].losscheck

        def fresh():
            return LossCheck(
                load_design(bug_id),
                source=spec.source,
                sink=spec.sink,
                source_valid=spec.source_valid,
            )

        unfiltered = fresh().analyze(SCENARIOS[bug_id])
        filtered_lc = fresh()
        if bug_id in GROUND_TRUTH:
            filtered_lc.calibrate(GROUND_TRUTH[bug_id])
        filtered = filtered_lc.analyze(SCENARIOS[bug_id])
        rows.append(
            (
                bug_id,
                sorted(set(w.location for w in unfiltered.warnings)),
                sorted(filtered_lc.filtered),
                filtered.localized,
            )
        )
    return rows


def test_ablation_losscheck_filtering(benchmark, emit):
    rows = benchmark.pedantic(_filtering_ablation, rounds=1, iterations=1)
    lines = [
        "LossCheck with vs without ground-truth filtering (§4.5.3)",
        "%-5s %-30s %-22s %-22s"
        % ("bug", "raw warning sites", "filtered out", "final report"),
    ]
    for bug_id, raw, filtered, final in rows:
        lines.append(
            "%-5s %-30s %-22s %-22s"
            % (bug_id, ",".join(raw), ",".join(filtered) or "-",
               ",".join(final) or "-")
        )
    emit("ablation_losscheck_filtering.txt", "\n".join(lines))
    by_bug = {r[0]: r for r in rows}
    # D11: filtering is exactly what hides the real loss (the documented FN).
    assert "word_stage" in by_bug["D11"][1]
    assert by_bug["D11"][3] == []


CHATTY = """
module chatty (input wire clk, output reg [15:0] n);
    always @(posedge clk) begin
        n <= n + 1;
        $display("n=%d", n);
    end
endmodule
"""


def _completeness(buffer_depth, cycles=2000):
    design = elaborate(parse(CHATTY), top="chatty")
    sc = SignalCat(design, mode=Mode.ON_FPGA, buffer_depth=buffer_depth)
    sim = sc.simulator()
    sim.step(cycles)
    return len(sc.reconstruct(sim)) / cycles


def test_ablation_buffer_completeness(benchmark, emit):
    depths = [256, 512, 1024, 2048, 4096]

    def sweep():
        return {depth: _completeness(depth) for depth in depths}

    completeness = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [
        "Log completeness vs recording-buffer depth (2000-event run)",
        "%8s %14s" % ("entries", "log retained"),
    ]
    for depth in depths:
        lines.append("%8d %13.1f%%" % (depth, completeness[depth] * 100))
    emit("ablation_buffer_completeness.txt", "\n".join(lines))
    assert completeness[256] < completeness[2048] <= 1.0
    assert completeness[4096] == 1.0


def test_ablation_compiled_simulation(benchmark):
    sim = Simulator(load_design("D1"))
    benchmark(lambda: sim.step(50))


def test_ablation_reference_simulation(benchmark):
    sim = ReferenceSimulator(load_design("D1"))
    benchmark(lambda: sim.step(50))
