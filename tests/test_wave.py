"""Tests for repro.wave: VCD round-trip, trace diff, OSDD, recorder decode."""

import json

import pytest

from repro.cli import main
from repro.core import Mode, SignalCat
from repro.hdl import elaborate, parse
from repro.sim import Simulator
from repro.wave import (
    SCHEMA,
    SignalTrace,
    Trace,
    capture_what_if,
    classify_signals,
    diff_traces,
    dump_vcd,
    escape_id,
    first_snapshot_divergence,
    parse_fault_spec,
    parse_vcd,
    render_wave_report,
    unescape_id,
    wavediff_bug,
)
from repro.wave.capture import FaultSpecError

STREAMER = """
module streamer (
    input wire clk,
    input wire rst,
    input wire in_valid,
    input wire [7:0] in_data,
    output reg out_valid,
    output reg [7:0] out_data
);
    reg [7:0] held;
    wire [7:0] next_data;
    assign next_data = in_data + 1;
    always @(posedge clk) begin
        if (rst) out_valid <= 0;
        else begin
            held <= in_data;
            out_valid <= in_valid;
            out_data <= next_data;
        end
    end
endmodule
"""

PKTCOUNT = """
module pktcount (
    input wire clk,
    input wire pkt_valid,
    input wire [7:0] pkt,
    output reg [15:0] count
);
    always @(posedge clk) begin
        if (pkt_valid) begin
            count <= count + 1;
            $display("packet %h arrived, total %d", pkt, count);
        end
    end
endmodule
"""


def streamer():
    return elaborate(parse(STREAMER), top="streamer")


def pktcount_design():
    return elaborate(parse(PKTCOUNT), top="pktcount")


def drive_packets(sim, values=(0xAA, 0xBB, 0xCC)):
    for value in values:
        sim["pkt"] = value
        sim["pkt_valid"] = 1
        sim.step()
        sim["pkt_valid"] = 0
        sim.step()


def make_trace(cycles, label="", **signals):
    """Synthetic Trace from {name: (kind, [values])} keyword specs."""
    built = {}
    for name, (kind, values) in signals.items():
        built[name] = SignalTrace(
            name=name, width=8, values=list(values), kind=kind
        )
    return Trace(cycles=cycles, signals=built, label=label)


class TestVCDWriter:
    def test_dumpvars_initial_values(self):
        text = dump_vcd({"a": [0, 1], "bus": [5, 5]}, {"a": 1, "bus": 4})
        lines = text.splitlines()
        start = lines.index("$dumpvars")
        end = lines.index("$end", start)
        # Every signal gets an initial value inside the #0 $dumpvars block.
        assert lines[start - 1] == "#0"
        block = lines[start + 1:end]
        assert len(block) == 2
        assert sorted(block)[0].startswith("0")      # a = 0
        assert sorted(block)[1].startswith("b101 ")  # bus = 5

    def test_unknown_values_render_x(self):
        text = dump_vcd({"a": [None, 1], "bus": [None, 3]}, {"a": 1, "bus": 4})
        lines = text.splitlines()
        assert any(line.startswith("x") for line in lines)
        assert any(line.startswith("bx ") for line in lines)

    def test_reserved_chars_escaped(self):
        assert escape_id("a b") == "a\\x20b"
        assert escape_id("x$y") == "x\\x24y"
        assert escape_id("p\\q") == "p\\\\q"
        for name in ("a b", "x$y", "p\\q", "s0.a0.total + 1"):
            assert unescape_id(escape_id(name)) == name

    def test_escaped_name_survives_roundtrip(self):
        waveform = {"s0.a0.pkt + 1": [1, 2], "plain": [0, 0]}
        widths = {"s0.a0.pkt + 1": 8, "plain": 1}
        parsed, parsed_widths = parse_vcd(dump_vcd(waveform, widths))
        assert parsed == waveform
        assert parsed_widths == widths


class TestVCDRoundTrip:
    def test_dump_parse_trace_equality(self):
        waveform = {
            "a": [0, 1, 1, 0, None],
            "bus": [5, 5, 2, 2, 2],
            "wide": [None, None, 1000, 1000, 7],
        }
        widths = {"a": 1, "bus": 4, "wide": 16}
        trace = Trace.from_waveform(waveform, widths)
        again = Trace.from_vcd(trace.to_vcd())
        assert again.cycles == trace.cycles
        assert again.waveform() == trace.waveform()
        assert {n: s.width for n, s in again.signals.items()} == widths

    def test_simulator_roundtrip(self):
        sim = Simulator(streamer(), trace="all")
        sim["in_valid"] = 1
        sim["in_data"] = 7
        sim.step(4)
        trace = Trace.from_simulator(sim)
        again = Trace.from_vcd(trace.to_vcd())
        assert again.waveform() == trace.waveform()
        assert again.cycles == sim.cycle


class TestTraceModel:
    def test_classify_signals(self):
        kinds = classify_signals(streamer().top)
        assert kinds["in_data"] == "input"
        assert kinds["out_data"] == "output"  # output port, even registered
        assert kinds["held"] == "state"
        assert kinds["next_data"] == "internal"

    def test_from_simulator_attaches_kinds(self):
        sim = Simulator(streamer(), trace="all")
        sim.step(2)
        trace = Trace.from_simulator(sim)
        assert trace["out_data"].kind == "output"
        assert trace["held"].kind == "state"
        assert trace.label == "streamer"

    def test_filter_by_glob(self):
        sim = Simulator(streamer(), trace="all")
        sim.step(2)
        trace = Trace.from_simulator(sim).filter(signals="out_*")
        assert trace.names() == ["out_data", "out_valid"]

    def test_filter_last_window(self):
        trace = make_trace(6, a=("state", [0, 1, 2, 3, 4, 5]))
        window = trace.filter(last=2)
        assert window.cycles == 2
        assert window["a"].values == [4, 5]


class TestRecorderDecode:
    def test_recorder_buffer_decodes_to_trace(self):
        sc = SignalCat(pktcount_design(), mode=Mode.ON_FPGA, buffer_depth=64)
        sim = sc.simulator()
        drive_packets(sim)
        trace = Trace.from_recorder(sc, sim)
        assert trace.names() == ["s0.a0.pkt", "s0.a1.count"]
        assert trace.cycles == sim.cycle
        pkt = trace["s0.a0.pkt"]
        count = trace["s0.a1.count"]
        assert pkt.kind == "recorded"
        assert pkt.width == 8 and count.width == 16
        assert [v for v in pkt.values if v is not None] == [0xAA, 0xBB, 0xCC]
        assert [v for v in count.values if v is not None] == [0, 1, 2]
        # Cycles without a fired $display stay unknown.
        assert pkt.values.count(None) == trace.cycles - 3

    def test_wrapped_buffer_forgets_oldest(self):
        sc = SignalCat(pktcount_design(), mode=Mode.ON_FPGA, buffer_depth=2)
        sim = sc.simulator()
        drive_packets(sim)
        trace = Trace.from_recorder(sc, sim)
        assert [
            v for v in trace["s0.a0.pkt"].values if v is not None
        ] == [0xBB, 0xCC]

    def test_recorded_trace_exports_vcd(self):
        sc = SignalCat(pktcount_design(), mode=Mode.ON_FPGA, buffer_depth=64)
        sim = sc.simulator()
        drive_packets(sim)
        trace = Trace.from_recorder(sc, sim)
        again = Trace.from_vcd(trace.to_vcd())
        assert again.waveform() == trace.waveform()


class TestAlignment:
    def test_identical_traces(self):
        trace = make_trace(4, a=("state", [0, 1, 2, 3]))
        diff = diff_traces(trace, trace)
        assert not diff.diverged
        assert diff.signals_compared == 1
        assert diff.first is None and diff.osdd is None

    def test_unknowns_never_diverge(self):
        golden = make_trace(3, a=("state", [1, 1, 1]))
        variant = make_trace(3, a=("state", [1, None, 1]))
        diff = diff_traces(golden, variant)
        assert not diff.diverged
        assert diff.signals[0].unknown_cycles == 1

    def test_pipeline_skew_absorbed_by_alignment(self):
        ramp = [0, 1, 2, 3, 4, 5, 6, 7]
        golden = make_trace(8, a=("state", ramp))
        variant = make_trace(8, a=("state", [0, 0] + ramp[:-2]))
        assert diff_traces(golden, variant).diverged
        aligned = diff_traces(golden, variant, max_offset=3)
        assert aligned.offset == 2
        assert not aligned.diverged

    def test_osdd_output_minus_state(self):
        golden = make_trace(
            10,
            st=("state", [0] * 10),
            out=("output", [0] * 10),
        )
        variant = make_trace(
            10,
            st=("state", [0] * 5 + [1] * 5),
            out=("output", [0] * 8 + [1] * 2),
        )
        diff = diff_traces(golden, variant)
        assert diff.state_divergence == (5, "st")
        assert diff.output_divergence == (8, "out")
        assert diff.osdd == 3
        assert (diff.first.cycle, diff.first.signal) == (5, "st")

    def test_input_divergence_excluded_from_first(self):
        golden = make_trace(
            6,
            stim=("input", [0] * 6),
            st=("state", [0] * 6),
        )
        variant = make_trace(
            6,
            stim=("input", [1] * 6),
            st=("state", [0, 0, 0, 1, 1, 1]),
        )
        diff = diff_traces(golden, variant)
        assert diff.divergent_signals == 2
        assert diff.first.signal == "st"

    def test_snapshot_divergence_legacy_strings(self):
        a = [{"x": 1, "y": 2}, {"x": 1, "y": 3}]
        b = [{"x": 1, "y": 2}, {"x": 5, "y": 3}]
        divergence = first_snapshot_divergence(a, b)
        assert divergence.describe("interpreted", "compiled") == (
            "cycle 1 signal x: interpreted=1 compiled=5"
        )
        short = first_snapshot_divergence(a, a[:1])
        assert short.describe("plain", "tool") == "trace length plain=2 tool=1"
        assert first_snapshot_divergence(a, a) is None

    def test_fuzz_oracle_uses_shared_aligner(self):
        from repro.fuzz.oracles import _first_trace_divergence

        a = [{"x": 1}]
        b = [{"x": 2}]
        assert _first_trace_divergence(a, b, "interpreted", "compiled") == (
            "cycle 0 signal x: interpreted=1 compiled=2"
        )
        assert _first_trace_divergence(a, a, "interpreted", "compiled") is None


class TestFaultSpec:
    def test_single_event(self):
        schedule = parse_fault_spec("seu_reg:count@12:bit=3")
        assert schedule.label == "seu_reg:count@12:bit=3"
        (event,) = schedule.events
        assert (event.kind, event.target, event.cycle, event.bit) == (
            "seu_reg", "count", 12, 3
        )

    def test_multi_event_and_options(self):
        schedule = parse_fault_spec(
            "stuck0:valid@5:duration=4+glitch:ready@9:bit=1"
        )
        assert len(schedule.events) == 2
        stuck, glitch = sorted(schedule.events)
        assert stuck.kind == "stuck0" and stuck.duration == 4
        assert glitch.kind == "glitch" and glitch.bit == 1

    @pytest.mark.parametrize("spec", [
        "seu_reg:count",            # no @CYCLE
        "count@12",                 # no KIND:TARGET
        "bogus:count@12",           # unknown kind
        "seu_reg:count@twelve",     # non-integer cycle
        "seu_reg:count@12:bits=3",  # unknown option
        "seu_reg:count@12:bit=x",   # non-integer option
        "seu_reg:count@3++",        # empty event
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(FaultSpecError):
            parse_fault_spec(spec)


class TestCaptureWhatIf:
    def test_faulted_trace_captured_then_rolled_back(self):
        sim = Simulator(streamer(), trace="all")
        sim["in_valid"] = 1
        sim["in_data"] = 3
        sim.step(4)
        schedule = parse_fault_spec("seu_reg:held@5:bit=0")
        trace, _value = capture_what_if(
            sim, schedule, lambda s: s.run(4), label="faulted"
        )
        assert trace.cycles == 8
        assert trace.label == "faulted"
        # The golden timeline is untouched by the what-if replay.
        assert sim.cycle == 4
        assert all(len(v) == 4 for v in sim.waveform.values())


class TestWavediffBugs:
    # Pinned divergence geometry for three testbed bugs (plus a
    # negative-OSDD control): first divergence cycle/signal and the
    # output/state delta of the fixed-vs-buggy comparison.
    EXPECTED = {
        "C4": {"first": (7, "fifo_pop"), "osdd": 2},
        "D1": {"first": (36, "parity"), "osdd": 2},
        "D12": {"first": (7, "len"), "osdd": 6},
        "C2": {"first": (6, "b_ready"), "osdd": -2},
    }

    @pytest.mark.parametrize("bug_id", sorted(EXPECTED))
    def test_known_divergence_geometry(self, bug_id):
        expected = self.EXPECTED[bug_id]
        outcome = wavediff_bug(bug_id)
        assert outcome.diverged
        assert (
            outcome.diff.first.cycle, outcome.diff.first.signal
        ) == expected["first"]
        assert outcome.diff.osdd == expected["osdd"]

    def test_fault_mode_diverges_at_injection(self):
        outcome = wavediff_bug("C4", fault="seu_reg:pop_inflight@20")
        assert outcome.report["mode"] == "fault"
        assert outcome.report["fault"]["events"][0]["kind"] == "seu_reg"
        assert outcome.diff.first.cycle == 20
        assert outcome.diff.first.signal == "pop_inflight"

    def test_never_applied_fault_means_no_divergence(self):
        outcome = wavediff_bug("C4", fault="seu_reg:pop_inflight@100000")
        assert not outcome.diverged

    def test_signal_and_last_windows(self):
        outcome = wavediff_bug("C4", signals=["fifo_*"], last=20)
        assert all(n.startswith("fifo_") for n in outcome.golden.names())
        assert outcome.golden.cycles == 20
        assert outcome.variant.cycles == 20

    def test_all_20_bugs_byte_deterministic(self):
        from repro.testbed.metadata import BUG_IDS

        for bug_id in BUG_IDS:
            first = render_wave_report(wavediff_bug(bug_id).report)
            second = render_wave_report(wavediff_bug(bug_id).report)
            assert first == second, bug_id
            report = json.loads(first)
            assert report["schema"] == SCHEMA
            assert report["diverged"] is True
            assert report["first_divergence"]["cycle"] >= 0
            divergent = [
                s for s in report["signals"]
                if s["first_divergence"] is not None
            ]
            assert len(divergent) == report["divergent_signals"] > 0


class TestScorerOSDD:
    def test_detection_scorer_reports_osdd(self):
        from repro.faults.models import FaultEvent, FaultSchedule
        from repro.faults.scoring import DetectionScorer

        scorer = DetectionScorer("C4")
        schedule = FaultSchedule(
            events=[FaultEvent(cycle=20, kind="seu_reg",
                               target="pop_inflight")],
            label="unit",
        )
        score = scorer.score(schedule)
        record = score.to_dict()
        assert record["divergence"]["cycle"] == 20
        assert record["divergence"]["signal"] == "pop_inflight"
        assert isinstance(record["osdd"], int) or record["osdd"] is None
        json.dumps(record)  # journal-serializable


class TestWaveCli:
    def test_wavediff_exit_one_on_divergence(self, capsys):
        assert main(["wavediff", "C4"]) == 1
        out = capsys.readouterr().out
        assert "OSDD: 2 cycles" in out
        assert "first divergence: cycle 7 signal fifo_pop" in out

    def test_wavediff_json_report_deterministic(self, capsys, tmp_path):
        paths = []
        for name in ("a.json", "b.json"):
            path = str(tmp_path / name)
            assert main(["wavediff", "C4", "--json", "-o", path]) == 1
            paths.append(path)
        first = open(paths[0], "rb").read()
        assert first == open(paths[1], "rb").read()
        report = json.loads(first)
        assert report["schema"] == SCHEMA
        assert report["osdd"] == 2
        assert report["mode"] == "fixed-vs-buggy"

    def test_wavediff_json_to_stdout(self, capsys):
        assert main(["wavediff", "C4", "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == SCHEMA

    def test_wavediff_fault_mode(self, capsys):
        code = main([
            "wavediff", "C4", "--fault", "seu_reg:pop_inflight@20",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "C4:buggy vs C4:buggy+fault" in out
        assert "cycle 20 signal pop_inflight" in out

    def test_wavediff_clean_fault_exits_zero(self, capsys):
        code = main([
            "wavediff", "C4", "--fault", "seu_reg:pop_inflight@100000",
        ])
        assert code == 0
        assert "no divergence" in capsys.readouterr().out

    def test_wavediff_bad_spec_is_usage_error(self, capsys):
        assert main(["wavediff", "C4", "--fault", "bogus:x@1"]) == 2
        assert "unknown fault kind" in capsys.readouterr().err

    def test_wavediff_negative_cycle_is_usage_error(self, capsys):
        code = main(["wavediff", "C4", "--fault", "seu_reg:fifo_pop@-5"])
        assert code == 2
        assert "negative cycle" in capsys.readouterr().err

    def test_wavediff_duplicate_option_is_usage_error(self, capsys):
        code = main([
            "wavediff", "C4", "--fault",
            "seu_reg:fifo_pop@5:bit=1:bit=2",
        ])
        assert code == 2
        assert "duplicate fault option 'bit'" in capsys.readouterr().err

    def test_wavediff_negative_option_is_usage_error(self, capsys):
        code = main(["wavediff", "C4", "--fault", "seu_reg:fifo_pop@5:bit=-1"])
        assert code == 2
        assert "is negative" in capsys.readouterr().err

    def test_wavediff_fixed_requires_fault(self, capsys):
        assert main(["wavediff", "C4", "--fixed"]) == 2
        assert "--fixed without --fault" in capsys.readouterr().err

    def test_wavediff_unknown_bug(self, capsys):
        assert main(["wavediff", "Z9"]) == 2
        assert "unknown bug id" in capsys.readouterr().err

    def test_wavediff_vcd_out(self, capsys, tmp_path):
        assert main([
            "wavediff", "C4", "--vcd-out", str(tmp_path),
        ]) == 1
        golden = (tmp_path / "C4_golden.vcd").read_text()
        variant = (tmp_path / "C4_variant.vcd").read_text()
        assert "$dumpvars" in golden
        assert "fifo_pop" in variant

    def test_wave_signals_filter(self, capsys, tmp_path):
        path = str(tmp_path / "d8.vcd")
        assert main(["wave", "D8", path, "--signals", "sw_*"]) == 0
        content = open(path).read()
        assert "sw_state" in content
        assert "dest" not in content

    def test_wave_last_window(self, capsys, tmp_path):
        path = str(tmp_path / "d8.vcd")
        assert main(["wave", "D8", path, "--last", "5"]) == 0
        out = capsys.readouterr().out
        assert "wrote 5-cycle waveform" in out
