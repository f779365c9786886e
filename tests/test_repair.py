"""Tests for repro.repair: templates, sites, validation, ranking, CLI."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.fuzz.mutator import MutationAnchor
from repro.hdl import ast_equal, ast_nodes, generate_source, parse
from repro.repair import (
    RepairConfig,
    RepairEdit,
    RepairSite,
    TEMPLATE_NAMES,
    TEMPLATES,
    enumerate_candidates,
    enumerate_sites,
    instantiate,
    render_repair_report,
    run_repair,
    unified_patch,
)
from repro.repair.templates import _set_slot
from repro.repair.validate import baseline_result, bug_source_text
from repro.testbed import BUG_IDS
from repro.testbed.metadata import SPECS

# A compact design exercising every template's trigger shapes: literals,
# part selects, an array, a width, a constant continuous assign, &&
# conditions, case arms, and a reset branch.
_DESIGN = """
module patchme (
    input wire clk,
    input wire rst,
    input wire in_valid,
    input wire [7:0] in_data,
    input wire out_ready,
    output reg out_valid,
    output reg [7:0] out_data,
    output wire in_ready
);
    reg [3:0] count;
    reg pending;
    reg [7:0] buffer [0:3];
    assign in_ready = 1;
    always @(posedge clk) begin
        if (rst) begin
            count <= 0;
            pending <= 0;
            out_valid <= 0;
            out_data <= 0;
        end else begin
            case (pending)
                1'b0: begin
                    if (in_valid && in_ready) begin
                        out_data[7:4] <= in_data[7:4];
                        out_data[3:0] <= in_data[3:0];
                        pending <= 1;
                        count <= count + 1;
                    end
                end
                1'b1: begin
                    out_valid <= 1;
                    pending <= 0;
                end
            endcase
        end
    end
endmodule
"""

_TOP = "patchme"

_SITES = [
    RepairSite(signal="out_data", origin="test", rank=0),
    RepairSite(signal="pending", origin="test", rank=1),
]


def _all_candidates():
    return list(enumerate_candidates(_DESIGN, _TOP, _SITES))


class TestTemplatePurity:
    """Templates are pure transforms: parseable, interface-preserving,
    deterministic, and never the identity edit."""

    def test_registry_matches_names(self):
        assert list(TEMPLATES) == TEMPLATE_NAMES
        assert "replace_literals" in TEMPLATE_NAMES
        assert "add_guard" in TEMPLATE_NAMES

    def test_every_candidate_roundtrips_through_frontend(self):
        candidates = _all_candidates()
        assert len(candidates) > 50
        for candidate in candidates:
            reparsed = parse(candidate.text)
            assert ast_equal(reparsed, parse(generate_source(reparsed)))

    def test_every_candidate_preserves_module_interface(self):
        original = parse(_DESIGN).find_module(_TOP)
        expected = [
            (p.name, p.direction, p.bit_width) for p in original.ports
        ]
        for candidate in _all_candidates():
            module = parse(candidate.text).find_module(_TOP)
            got = [(p.name, p.direction, p.bit_width) for p in module.ports]
            assert got == expected, candidate.candidate_id

    def test_no_candidate_is_the_identity(self):
        # Candidates are generated source, so the identity is the
        # design as the code generator renders it, not the raw text.
        canonical = generate_source(parse(_DESIGN))
        for candidate in _all_candidates():
            assert candidate.text != canonical

    def test_noop_edit_is_skipped(self, monkeypatch):
        def t_noop(module, ctx, maps):
            # Rewrites the first literal to its own value.
            number = next(
                node for node in module.walk()
                if isinstance(node, ast_nodes.Number)
            )
            return [RepairEdit(
                description="noop",
                apply=(lambda log, n=number:
                       _set_slot(log, n, "value", n.value)),
                anchor=MutationAnchor(),
            )]

        monkeypatch.setitem(TEMPLATES, "noop", t_noop)
        plan = enumerate_candidates(
            _DESIGN, _TOP, _SITES, templates=("noop", "drop_conjunct")
        )
        ids = [c.candidate_id for c in plan]
        assert plan.planned == len(ids) + 1
        assert ids and "noop:patchme:0" not in ids
        with pytest.raises(KeyError):
            plan.instantiate("noop:patchme:0")

    def test_enumeration_leaves_the_tree_pristine(self):
        plan = enumerate_candidates(_DESIGN, _TOP, _SITES)
        assert len(list(plan)) == plan.planned
        fresh = parse(_DESIGN)
        assert ast_equal(plan.tree, fresh)
        assert generate_source(plan.tree) == generate_source(fresh)

    def test_enumeration_is_deterministic(self):
        first = [(c.candidate_id, c.text) for c in _all_candidates()]
        second = [(c.candidate_id, c.text) for c in _all_candidates()]
        assert first == second

    def test_instantiate_by_id_matches_enumeration(self):
        candidates = _all_candidates()
        probe = candidates[len(candidates) // 2]
        rebuilt = instantiate(
            _DESIGN, _TOP, _SITES, probe.candidate_id
        )
        assert rebuilt.text == probe.text
        assert rebuilt.template == probe.template

    def test_unknown_candidate_id_raises(self):
        with pytest.raises(KeyError):
            instantiate(_DESIGN, _TOP, _SITES, "replace_literals:ghost:99")

    def test_noop_site_yields_no_candidates_for_inapplicable_template(self):
        # No ternaries in a design built only from ifs: invert_condition
        # applies, but swap_partselect_pair needs two part-select writes
        # to the same base with different ranges — absent here after we
        # restrict to a site that owns none.
        minimal = (
            "module tiny (input wire clk, output reg q);\n"
            "    always @(posedge clk) q <= 1;\n"
            "endmodule\n"
        )
        sites = [RepairSite(signal="q", origin="test", rank=0)]
        for name in ("swap_partselect_pair", "shift_partselect",
                     "widen_synchronizer"):
            got = list(enumerate_candidates(
                minimal, "tiny", sites, templates=(name,)
            ))
            assert got == [], name

    def test_site_rank_orders_the_plan(self):
        ranks = [c.site_rank for c in _all_candidates()
                 if c.template not in ("add_guard", "conditional_overwrite")]
        assert ranks == sorted(ranks)

    def test_count_edits_covers_enumeration(self):
        plan = enumerate_candidates(_DESIGN, _TOP, _SITES)
        assert plan.planned >= len(list(plan))


class TestCandidateSnapshot:
    """Every testbed bug's candidate texts, pinned.

    The snapshot was recorded with the earlier instantiation, which
    re-parsed the pristine source for every candidate: per bug, the
    plan size, the candidate count and a sha256 over the first 400
    ``(candidate_id, text)`` pairs (sites without fault probing). A
    full enumeration must also leave the plan's live tree equal to a
    fresh parse, which catches an edit whose undo leaks.
    """

    SNAPSHOT = Path(__file__).parent / "fixtures" / "repair_candidates.json"

    @pytest.fixture(scope="class")
    def expected(self):
        return json.loads(self.SNAPSHOT.read_text())

    @pytest.mark.parametrize("bug_id", BUG_IDS)
    def test_candidates_match_snapshot(self, bug_id, expected):
        spec = SPECS[bug_id]
        text = bug_source_text(bug_id)
        plan = enumerate_candidates(
            text, spec.top, enumerate_sites(bug_id, use_faults=False),
            filename=spec.design_file,
        )
        digest = hashlib.sha256()
        count = 0
        for candidate in plan:
            count += 1
            if count <= 400:
                digest.update(json.dumps(
                    [candidate.candidate_id, candidate.text]
                ).encode() + b"\n")
        assert {
            "planned": plan.planned,
            "candidates": count,
            "sha256_first400": digest.hexdigest(),
        } == expected[bug_id]
        fresh = parse(text, filename=spec.design_file)
        assert ast_equal(plan.tree, fresh)
        assert generate_source(plan.tree) == generate_source(fresh)


class TestSites:
    def test_d13_sites_include_check_findings(self):
        sites = enumerate_sites("D13", use_faults=False)
        assert sites, "no sites at all"
        origins = {s.origin for s in sites}
        assert any(o.startswith("check:") for o in origins)
        assert "cone" in origins
        # Deterministic: same call, same list.
        again = enumerate_sites("D13", use_faults=False)
        assert [s.to_dict() for s in sites] == [s.to_dict() for s in again]

    def test_losscheck_bug_gets_rank_zero_sites(self):
        sites = enumerate_sites("D1", use_faults=False)
        loss = [s for s in sites if s.origin == "losscheck"]
        assert loss and all(s.rank == 0 for s in loss)
        assert any(s.signal == "symbols" for s in loss)

    def test_sites_are_deduplicated_by_best_rank(self):
        sites = enumerate_sites("D1", use_faults=False)
        keys = [(s.signal, s.line) for s in sites]
        assert len(keys) == len(set(keys))


class TestValidation:
    def test_baseline_reproduces_the_bug(self):
        baseline = baseline_result("D13")
        assert baseline.status == "symptomatic"
        assert baseline.symptoms == ("Incor.",)
        assert baseline.trace is not None

    def test_broken_candidate_is_classified_not_raised(self):
        from repro.repair.validate import validate_candidate

        baseline = baseline_result("D13")
        result = validate_candidate("D13", "module nonsense (", baseline)
        assert result.status == "parse-error"
        result = validate_candidate(
            "D13", "module other (input wire clk);\nendmodule\n", baseline
        )
        assert result.status == "elaborate-error"

    def test_only_passing_traces_carry_domain_tags(self, d13_outcome):
        # Only passing candidates are ranked; a failing run skips the
        # signal graph that domain inference builds.
        from repro.repair.validate import validate_candidate

        baseline = baseline_result("D13")
        assert not any(s.domains for s in baseline.trace.signals.values())
        best = d13_outcome.report["best"]["candidate"]
        result = validate_candidate("D13", d13_outcome.patches[best], baseline)
        assert result.passed
        assert any(s.domains for s in result.trace.signals.values())


@pytest.fixture(scope="module")
def d13_outcome():
    return run_repair(RepairConfig(
        bug_id="D13", budget=400, use_faults=False, stop_after=0,
    ))


class TestRepairEndToEnd:
    def test_d13_is_repaired_with_the_ground_truth_edit(self, d13_outcome):
        report = d13_outcome.report
        assert report["repaired"] is True
        best = report["best"]
        assert best["template"] == "assign_const"
        assert "count <= const 1" in best["description"]

    def test_report_shape(self, d13_outcome):
        report = d13_outcome.report
        assert report["schema"] == "repro.repair/v1"
        assert report["bug"] == "D13"
        assert report["baseline"]["symptoms"] == ["Incor."]
        counts = report["candidates"]
        assert counts["tried"] <= report["budget"]
        assert counts["planned"] >= counts["tried"]
        assert sum(counts["by_status"].values()) == counts["tried"]
        json.dumps(report)  # journal/report-serializable

    def test_report_is_byte_deterministic(self, d13_outcome):
        again = run_repair(RepairConfig(
            bug_id="D13", budget=400, use_faults=False, stop_after=0,
        ))
        assert render_repair_report(d13_outcome.report) == \
            render_repair_report(again.report)

    def test_patch_shows_only_the_semantic_edit(self, d13_outcome):
        best_id = d13_outcome.report["best"]["candidate"]
        assert best_id in d13_outcome.patches
        patch = unified_patch(
            "D13", best_id, d13_outcome.patches[best_id]
        )
        assert patch.startswith("--- a/")
        # Baseline is normalized through parse -> generate, so the
        # diff is the edit itself, not comment/formatting noise.
        changed = [
            line for line in patch.splitlines()
            if line.startswith(("+", "-"))
            and not line.startswith(("+++", "---"))
        ]
        assert 0 < len(changed) <= 4

    def test_journal_resume_skips_validated_candidates(self, tmp_path):
        journal = str(tmp_path / "repair.jsonl")
        config = RepairConfig(
            bug_id="D13", budget=40, use_faults=False,
            journal_path=journal, stop_after=0,
        )
        first = run_repair(config)
        lines = open(journal).read().count("\n")
        assert lines == first.report["candidates"]["tried"]
        # Resume: no new journal lines, identical report.
        second = run_repair(config)
        assert open(journal).read().count("\n") == lines
        assert render_repair_report(first.report) == \
            render_repair_report(second.report)


class TestRankingPins:
    """Waveform ranking is doing real work: the top-ranked candidate is
    strictly closer to the fixed reference than the median plausible
    candidate — full trace equivalence, or a strictly later first
    output divergence."""

    @pytest.mark.parametrize("bug_id", ["D1", "D4", "S1"])
    def test_top_candidate_beats_median_on_output_divergence(self, bug_id):
        outcome = run_repair(RepairConfig(bug_id=bug_id, use_faults=False))
        ranking = outcome.report["ranking"]
        assert len(ranking) >= 3, "need a candidate pool to rank"
        top = ranking[0]["metrics"]
        median = ranking[len(ranking) // 2]["metrics"]
        if top["equivalent"]:
            assert not median["equivalent"]
        else:
            top_cycle = top["output_divergence_cycle"]
            median_cycle = median["output_divergence_cycle"]
            assert median_cycle is not None
            assert top_cycle is None or top_cycle > median_cycle


class TestRepairCli:
    def test_unknown_bug_is_usage_error(self, capsys):
        assert main(["repair", "Z9"]) == 2

    def test_bad_budget_is_usage_error(self, capsys):
        assert main(["repair", "D13", "--budget", "0"]) == 2
        assert "--budget" in capsys.readouterr().err

    def test_unknown_template_is_usage_error(self, capsys):
        assert main(["repair", "D13", "--template", "magic"]) == 2
        assert "unknown template" in capsys.readouterr().err

    def test_repair_d13_exits_zero_and_reports(self, capsys, tmp_path):
        out_path = str(tmp_path / "repair.json")
        patches = str(tmp_path / "patches")
        code = main([
            "repair", "D13", "--no-faults", "--json",
            "-o", out_path, "--emit-patch", patches,
        ])
        assert code == 0
        report = json.loads(open(out_path).read())
        assert report["repaired"] is True
        import os

        assert any(
            name.endswith(".patch") for name in os.listdir(patches)
        )

    def test_no_repair_within_budget_exits_one(self, capsys):
        # One template that cannot fix D13, tiny budget.
        code = main([
            "repair", "D13", "--no-faults", "--budget", "5",
            "--template", "swap_blocking",
        ])
        assert code == 1
        assert "no repair found" in capsys.readouterr().out
