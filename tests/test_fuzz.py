"""Tests for the repro.fuzz subsystem: generator, mutator, oracles,
reducer, campaign runner, and the `python -m repro fuzz` CLI."""

import copy
import glob
import os
import signal
import time

import pytest

from repro.fuzz import (
    CampaignConfig,
    ORACLES,
    crash_signature,
    ddmin,
    differential_oracle,
    generate_design,
    metamorphic_oracle,
    mutate_source,
    mutation_names,
    reduce_source,
    roundtrip_oracle,
    run_campaign,
)
from repro.fuzz.oracles import OracleOutcome
from repro.fuzz.runner import case_spec, oracle_signature, run_case
from repro.hdl import ast, ast_diff, ast_equal, elaborate, parse
from repro.hdl.codegen import generate_source
from repro.sim import Simulator

DESIGN_DIR = os.path.join(
    os.path.dirname(__file__), "..", "src", "repro", "testbed", "designs"
)
DESIGN_FILES = sorted(glob.glob(os.path.join(DESIGN_DIR, "*.v")))


# ---------------------------------------------------------------------------
# AST equality / diff
# ---------------------------------------------------------------------------


class TestAstEquality:
    def test_equal_ignores_linenos(self):
        a = parse("module m (input wire c);\nendmodule")
        b = parse("\n\nmodule m (input wire c);\nendmodule")
        assert ast_equal(a, b)
        assert ast_diff(a, b) is None

    def test_diff_names_the_divergent_path(self):
        a = parse("module m (input wire c); assign x = a + b; endmodule")
        b = parse("module m (input wire c); assign x = a - b; endmodule")
        assert not ast_equal(a, b)
        diff = ast_diff(a, b)
        assert "op" in diff and "'+'" in diff and "'-'" in diff

    def test_diff_reports_length_mismatch(self):
        a = parse("module m (); wire x; endmodule")
        b = parse("module m (); wire x; wire y; endmodule")
        assert "length" in ast_diff(a, b)


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


class TestGenerator:
    @pytest.mark.parametrize("seed", range(0, 40, 7))
    def test_generated_designs_are_valid(self, seed):
        design = generate_design(seed)
        elaborated = elaborate(parse(design.text), top=design.top)
        sim = Simulator(elaborated)
        sim.set("rst", 1)
        sim.step()
        sim.set("rst", 0)
        for _ in range(8):
            sim.step()
        assert sim.cycle == 9

    def test_deterministic(self):
        assert generate_design(7).text == generate_design(7).text

    def test_distinct_seeds_distinct_designs(self):
        assert generate_design(1).text != generate_design(2).text


# ---------------------------------------------------------------------------
# Mutator
# ---------------------------------------------------------------------------


class TestMutator:
    def test_families_are_nonempty(self):
        assert len(mutation_names(preserving=True)) >= 4
        assert len(mutation_names(preserving=False)) >= 6

    @pytest.mark.parametrize("seed", range(6))
    def test_mutant_closure(self, seed):
        """Mutants must remain parseable (valid fuzzer inputs)."""
        base = generate_design(seed).text
        for preserving in (True, False):
            result = mutate_source(base, seed, preserving=preserving)
            assert result is not None
            assert result.preserving is preserving
            parse(result.text)

    def test_preserving_mutant_keeps_behavior(self):
        design = generate_design(3)
        result = mutate_source(design.text, 11, preserving=True)
        outcome = differential_oracle(result.text, top=design.top, seed=3)
        assert outcome.status == "pass"

    def test_mutation_changes_source(self):
        base = generate_design(5).text
        result = mutate_source(base, 2, preserving=False)
        assert result.text != base


_SITED = """
module sited (
    input wire clk,
    input wire rst,
    input wire en,
    output reg [3:0] q,
    output reg done
);
    always @(posedge clk) begin
        if (rst) begin
            q <= 0;
            done <= 0;
        end else if (en) begin
            q <= q + 1;
            done <= q == 9;
        end
    end
endmodule
"""


class TestMutatorSiteTargeting:
    def test_signal_site_restricts_to_its_cone(self):
        for seed in range(8):
            result = mutate_source(_SITED, seed, site="done")
            assert result is not None
            # The mutated line must involve `done`, not the q-only ones.
            assert "done" in result.description or "done" in result.text

    def test_line_site_accepts_file_colon_line(self):
        # Line 14 is `q <= q + 1;` in _SITED (1-based, leading newline).
        for spec in (14, "14", "sited.v:14"):
            result = mutate_source(_SITED, 0, site=spec)
            assert result is not None

    def test_unmatched_site_returns_none(self):
        assert mutate_source(_SITED, 0, site="no_such_signal") is None
        assert mutate_source(_SITED, 0, site=9999) is None

    def test_site_none_is_unchanged_behavior(self):
        with_site = mutate_source(_SITED, 4, site=None)
        without = mutate_source(_SITED, 4)
        assert with_site.text == without.text
        assert with_site.name == without.name

    def test_sited_mutants_stay_parseable(self):
        for seed in range(6):
            result = mutate_source(_SITED, seed, site="q")
            assert result is not None
            parse(result.text)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


class TestRoundtripOracle:
    @pytest.mark.parametrize(
        "path", DESIGN_FILES, ids=[os.path.basename(p) for p in DESIGN_FILES]
    )
    def test_all_testbed_designs_roundtrip(self, path):
        with open(path) as handle:
            text = handle.read()
        outcome = roundtrip_oracle(text)
        assert outcome.status == "pass", outcome.detail

    def test_detects_codegen_divergence(self):
        # A number that codegen cannot faithfully re-emit would show up
        # as an AST diff; simulate one by comparing two distinct sources.
        assert roundtrip_oracle("module m (); wire x; endmodule").status == "pass"


class _OffByOneAdd(Simulator):
    """Deliberately broken backend: every compiled addition is off by one."""

    def _build_process(self, item):
        item = copy.deepcopy(item)
        adds = [
            node
            for node in item.walk()
            if isinstance(node, ast.BinaryOp) and node.op == "+"
        ]
        for node in adds:
            node.left = ast.BinaryOp(op="+", left=node.left, right=node.right)
            node.op = "^"
            node.right = ast.Number(value=1, width=1)
        return super()._build_process(item)


class TestDifferentialOracle:
    GOOD = """
    module m (input wire clk, input wire rst, input wire [3:0] a,
              output reg [3:0] q);
        always @(posedge clk) begin
            if (rst) q <= 0;
            else q <= q + a;
        end
    endmodule
    """

    def test_known_good_passes(self):
        outcome = differential_oracle(self.GOOD, seed=1, cycles=16)
        assert outcome.status == "pass", outcome.detail

    def test_seeded_bad_backend_fails(self):
        outcome = differential_oracle(
            self.GOOD, seed=1, cycles=16, compiled_class=_OffByOneAdd
        )
        assert outcome.status == "fail"
        assert "signal" in outcome.detail


class _PerturbingTool:
    """Fake instrumentation pass that breaks the design it instruments."""

    def __init__(self, text, top):
        design = elaborate(parse(text), top=top)
        self.module = design.top
        for item in self.module.items:
            for node in item.walk():
                if isinstance(node, ast.NonblockingAssign):
                    node.rhs = ast.BinaryOp(
                        op="+", left=node.rhs, right=ast.Number(value=1)
                    )


class TestMetamorphicOracle:
    def test_real_passes_do_not_perturb(self):
        design = generate_design(12)
        outcome = metamorphic_oracle(design.text, top=design.top, seed=12)
        assert outcome.status in ("pass", "inapplicable"), outcome.detail

    def test_seeded_bad_pass_fails(self):
        design = generate_design(12)
        tools = [
            ("bad", lambda: _PerturbingTool(design.text, design.top)),
        ]
        outcome = metamorphic_oracle(
            design.text, top=design.top, seed=12, tools=tools
        )
        assert outcome.status == "fail"
        assert "bad" in outcome.detail

    def test_no_applicable_tool_is_inapplicable(self):
        design = generate_design(12)
        outcome = metamorphic_oracle(
            design.text, top=design.top, seed=12, tools=[]
        )
        assert outcome.status == "inapplicable"


# ---------------------------------------------------------------------------
# Reducer
# ---------------------------------------------------------------------------


class TestReducer:
    def test_ddmin_is_minimal(self):
        # Failure needs both 3 and 7 present; ddmin must find exactly those.
        result = ddmin(list(range(10)), lambda items: 3 in items and 7 in items)
        assert result == [3, 7]

    def test_reduces_injected_bug_to_small_reproducer(self):
        # A design with an injected bug (q reaches the magic value 7)
        # padded with unrelated logic; the reducer must strip the padding.
        design = generate_design(21)
        bug = (
            "module buggy (input wire clk, input wire rst,\n"
            "              output reg [3:0] q);\n"
            "    always @(posedge clk) begin\n"
            "        if (rst) q <= 0;\n"
            "        else q <= 7;\n"
            "    end\n"
            "endmodule\n"
        )
        text = design.text + "\n" + bug

        def bug_manifests(candidate):
            try:
                sim = Simulator(elaborate(parse(candidate), top="buggy"))
                sim.set("rst", 1)
                sim.step()
                sim.set("rst", 0)
                sim.step()
                sim.step()
                return sim.get("q") == 7
            except Exception:
                return False

        assert bug_manifests(text)
        reduced = reduce_source(text, bug_manifests)
        lines = [l for l in reduced.splitlines() if l.strip()]
        assert len(lines) <= 15
        assert bug_manifests(reduced)

    def test_predicate_must_hold_on_input(self):
        with pytest.raises(ValueError):
            reduce_source("module m (); endmodule", lambda text: False)


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------


class TestSignatures:
    def test_crash_signature_buckets_same_frames_together(self):
        def boom():
            raise RuntimeError("x")

        sigs = set()
        for _ in range(2):
            try:
                boom()
            except RuntimeError as exc:
                sigs.add(crash_signature(exc))
        assert len(sigs) == 1
        signature = sigs.pop()
        assert signature.startswith("RuntimeError@")
        assert "test_fuzz.py:boom" in signature

    def test_oracle_signature_normalizes_values(self):
        a = oracle_signature("differential", "cycle 3 signal q: 1 != 2")
        b = oracle_signature("differential", "cycle 9 signal q: 7 != 0")
        assert a == b


# ---------------------------------------------------------------------------
# Campaign runner
# ---------------------------------------------------------------------------


class TestCampaign:
    def test_case_specs_are_jobs_independent(self):
        specs = [case_spec(0, i) for i in range(20)]
        assert specs == [case_spec(0, i) for i in range(20)]
        kinds = {kind for _, kind, _ in specs}
        assert "generated" in kinds

    def test_smoke_campaign_50_cases(self, tmp_path):
        """Deterministic 50-case campaign: the stack must be clean."""
        config = CampaignConfig(
            cases=50,
            seed=0,
            jobs=1,
            cycles=16,
            output_dir=str(tmp_path),
        )
        report = run_campaign(config)
        counts = report.counts
        assert len(report.results) == 50
        assert counts["oracle_fail"] == 0, report.buckets
        assert counts["crash"] == 0, report.buckets
        assert counts["timeout"] == 0
        assert not report.buckets

    def test_injected_oracle_failure_is_bucketed_and_reduced(
        self, tmp_path, monkeypatch
    ):
        def always_fails(text, top=None, seed=0, cycles=0):
            return OracleOutcome(
                oracle="roundtrip", status="fail", detail="injected failure"
            )

        monkeypatch.setitem(ORACLES, "roundtrip", always_fails)
        config = CampaignConfig(
            cases=4,
            seed=1,
            jobs=1,
            oracles=("roundtrip",),
            output_dir=str(tmp_path),
            reduce_checks=50,
        )
        report = run_campaign(config)
        assert report.counts["oracle_fail"] == 4
        assert len(report.buckets) == 1
        (path,) = report.reproducers.values()
        assert os.path.exists(path)
        with open(path) as handle:
            content = handle.read()
        assert "injected failure" in content
        # The predicate holds on any text, so reduction collapses the body.
        body = [
            l for l in content.splitlines()
            if l.strip() and not l.startswith("//")
        ]
        assert len(body) <= 2

    def test_crash_is_caught_and_bucketed(self, tmp_path, monkeypatch):
        def explodes(text, top=None, seed=0, cycles=0):
            raise RuntimeError("synthetic stack bug")

        monkeypatch.setitem(ORACLES, "differential", explodes)
        config = CampaignConfig(
            cases=2,
            seed=2,
            jobs=1,
            oracles=("differential",),
            output_dir=str(tmp_path),
            reduce=False,
        )
        report = run_campaign(config)
        assert report.counts["crash"] == 2
        assert len(report.buckets) == 1
        signature = next(iter(report.buckets))
        assert signature.startswith("RuntimeError@")

    @pytest.mark.skipif(
        not hasattr(signal, "SIGALRM"), reason="needs SIGALRM"
    )
    def test_case_timeout(self, monkeypatch):
        def hangs(text, top=None, seed=0, cycles=0):
            time.sleep(5)

        monkeypatch.setitem(ORACLES, "metamorphic", hangs)
        result = run_case((3, 0, ("metamorphic",), 8, 0.2))
        assert result.status == "timeout"

    def test_time_budget_stops_early(self, tmp_path):
        config = CampaignConfig(
            cases=500,
            seed=0,
            jobs=1,
            cycles=8,
            time_budget=0.5,
            output_dir=str(tmp_path),
        )
        report = run_campaign(config)
        assert 0 < len(report.results) < 500


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestFuzzCli:
    def test_fuzz_command(self, tmp_path, capsys):
        from repro.cli import main

        report_path = str(tmp_path / "report.json")
        status = main(
            [
                "fuzz",
                "--seed", "0",
                "--cases", "5",
                "--cycles", "12",
                "--output-dir", str(tmp_path),
                "--report", report_path,
            ]
        )
        assert status == 0
        assert os.path.exists(report_path)
        out = capsys.readouterr().out
        assert "5 cases" in out
        import json

        with open(report_path) as handle:
            data = json.load(handle)
        assert data["schema"] == "repro.obs/v1"
        names = {m["name"] for m in data["metrics"]}
        assert "fuzz.cases" in names
