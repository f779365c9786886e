"""The resumable repair campaign: localize, enumerate, validate, rank.

One :func:`run_repair` call is the whole loop for one bug:

1. :func:`repro.repair.sites.enumerate_sites` localizes the search;
2. :func:`repro.repair.templates.enumerate_candidates` plans every
   edit once, on one live AST, and lazily yields candidate patches in
   site-rank order;
3. each candidate is validated by scenario replay
   (:mod:`repro.repair.validate`) under a watchdog, with one retry on a
   wall-clock overrun;
4. scenario-passing candidates are ranked against the fixed reference
   trace (:mod:`repro.repair.rank`);
5. everything is journaled to a crash-safe
   :class:`~repro.runtime.JsonlJournal`, so an interrupted campaign
   resumes instead of restarting — a journaled candidate is never
   re-simulated.

The final ``repro.repair/v1`` report is byte-deterministic: no wall
clock, no environment, all tables sorted.
"""

from __future__ import annotations

import difflib
import json
import os
from dataclasses import dataclass, field

from .. import obs
from ..hdl import generate_source, parse
from ..runtime import JsonlJournal, TimeLimitExceeded, retry_with_backoff
from ..testbed.metadata import SPECS
from .rank import RankMetrics, rank_candidates, reference_trace, score_candidate
from .sites import enumerate_sites
from .templates import enumerate_candidates
from .validate import (
    DEFAULT_WATCHDOG,
    STATUS_PASSED,
    ValidationResult,
    baseline_result,
    bug_source_text,
    validate_candidate,
)

SCHEMA = "repro.repair/v1"

#: Default candidate budget: enough for every testbed repair while
#: keeping the worst-case campaign under a couple of minutes.
DEFAULT_BUDGET = 400

#: How many top-ranked plausible candidates get full patch text.
PATCH_TOP_N = 3


@dataclass
class RepairConfig:
    """Knobs for one repair campaign."""

    bug_id: str
    budget: int = DEFAULT_BUDGET
    watchdog: float = DEFAULT_WATCHDOG
    #: Journal path; empty disables resumability.
    journal_path: str = ""
    #: Ignore (and overwrite) an existing journal.
    fresh: bool = False
    #: Restrict to these template names (empty: the full registry).
    templates: tuple = ()
    #: Include the fault-sensitivity localization pass (slowest source).
    use_faults: bool = True
    #: Stop early once this many scenario-passing candidates exist
    #: (0: exhaust the budget). Several survivors are wanted so the
    #: waveform ranking has something to discriminate between.
    stop_after: int = 5
    #: Validate only candidates whose enumeration index falls in
    #: ``[lo, hi)``. Enumeration order is deterministic, so disjoint
    #: windows partition one campaign across workers (the serve fabric's
    #: repair sharding); merging the windows' records reproduces the
    #: whole campaign only when ``stop_after`` is 0 — early stopping
    #: depends on global order no single window can see.
    candidate_range: tuple = None


@dataclass
class RepairOutcome:
    """Everything one campaign produced."""

    report: dict
    #: ``{candidate_id: patched_text}`` for the top plausible candidates.
    patches: dict = field(default_factory=dict)
    #: Raw per-candidate journal records, in enumeration order — what
    #: :func:`build_report_from_parts` needs to merge sharded windows.
    records: list = field(default_factory=list)

    @property
    def repaired(self):
        return self.report["repaired"]


def _journal_key(record):
    return record.get("candidate")


def _record_for(candidate, result, metrics):
    record = dict(candidate.to_dict())
    record["validation"] = result.to_dict()
    record["rank"] = metrics.to_dict() if metrics is not None else None
    return record


def _result_from_record(record):
    data = record["validation"]
    return ValidationResult(
        status=data["status"],
        symptoms=tuple(data["symptoms"]),
        detail=data["detail"],
        improved=data["improved"],
        cycles=data["cycles"],
    )


def run_repair(config):
    """Run one repair campaign; returns a :class:`RepairOutcome`."""
    bug_id = config.bug_id
    if bug_id not in SPECS:
        raise KeyError(bug_id)
    spec = SPECS[bug_id]
    text = bug_source_text(bug_id)
    templates = tuple(config.templates) or None

    sites = enumerate_sites(bug_id, use_faults=config.use_faults)

    with obs.span("repair:baseline", bug=bug_id):
        baseline = baseline_result(bug_id, watchdog=config.watchdog)
        reference = reference_trace(bug_id)

    journal = None
    seen = {}
    if config.journal_path:
        journal = JsonlJournal(config.journal_path)
        if config.fresh:
            if os.path.exists(config.journal_path):
                os.remove(config.journal_path)
        else:
            for record in journal.load():
                key = _journal_key(record)
                if key:
                    seen[key] = record

    with obs.span("repair:enumerate", bug=bug_id):
        plan = enumerate_candidates(
            text, spec.top, sites, templates=templates,
            filename=spec.design_file,
        )
        planned = plan.planned

    lo, hi = 0, None
    if config.candidate_range is not None:
        lo, hi = int(config.candidate_range[0]), int(config.candidate_range[1])
    records = []
    patches = {}
    tried = 0
    passing = 0
    try:
        with obs.span("repair:validate", bug=bug_id):
            for position, candidate in enumerate(plan):
                if hi is not None and position >= hi:
                    break
                if tried >= config.budget:
                    break
                if config.stop_after and passing >= config.stop_after:
                    break
                if position < lo:
                    continue
                tried += 1
                cached = seen.get(candidate.candidate_id)
                if cached is not None:
                    records.append(cached)
                    if cached["validation"]["status"] == STATUS_PASSED:
                        passing += 1
                        patches[candidate.candidate_id] = candidate.text
                    continue
                result, metrics = _validate_one(
                    bug_id, candidate, baseline, reference, config
                )
                record = _record_for(candidate, result, metrics)
                records.append(record)
                if journal is not None:
                    journal.append(record)
                if result.passed:
                    passing += 1
                    patches[candidate.candidate_id] = candidate.text
    finally:
        if journal is not None:
            journal.close()

    report = build_report(
        bug_id, config, baseline, sites, planned, tried, records
    )
    top_ids = [entry["candidate"] for entry in report["ranking"][:PATCH_TOP_N]]
    patches = {cid: patches[cid] for cid in top_ids if cid in patches}
    if obs.enabled:
        obs.gauge("repair.candidates").set(tried)
        obs.gauge("repair.validated").set(len(records))
        obs.gauge("repair.plausible").set(len(report["ranking"]))
    return RepairOutcome(report=report, patches=patches, records=records)


def _validate_one(bug_id, candidate, baseline, reference, config):
    """Validate and (when passing) rank one candidate.

    A wall-clock overrun gets one retry — SIGALRM timing near the limit
    is noisy; a candidate that hangs twice is recorded as a hang.
    """
    def attempt():
        result = validate_candidate(
            bug_id, candidate.text, baseline,
            watchdog=config.watchdog,
            label="%s:%s" % (bug_id, candidate.candidate_id),
        )
        if result.status == "hang":
            raise TimeLimitExceeded(result.detail)
        return result

    try:
        result, _attempts = retry_with_backoff(
            attempt, retries=1, base_delay=0.01,
            retry_on=(TimeLimitExceeded,),
        )
    except TimeLimitExceeded as exc:
        result = ValidationResult(status="hang", detail=str(exc))
    metrics = None
    if result.passed and result.trace is not None:
        metrics = score_candidate(reference, result.trace)
    return result, metrics


def build_report(bug_id, config, baseline, sites, planned, tried, records):
    """The byte-deterministic ``repro.repair/v1`` report dict."""
    return build_report_from_parts(
        bug_id=bug_id,
        budget=config.budget,
        watchdog=config.watchdog,
        baseline={
            "status": baseline.status,
            "symptoms": list(baseline.symptoms),
        },
        sites=[site.to_dict() for site in sites],
        planned=planned,
        tried=tried,
        records=records,
    )


def build_report_from_parts(bug_id, budget, watchdog, baseline, sites,
                            planned, tried, records):
    """:func:`build_report` from already-serialized parts.

    *baseline* and *sites* are the JSON-ready dicts the report embeds;
    *records* are per-candidate journal records in enumeration order.
    The serve fabric merges sharded repair windows through this — each
    shard ships its records, the parent rebuilds the one report the
    unsharded campaign would have written.
    """
    by_status = {}
    by_template = {}
    improved = []
    plausible = []
    for record in records:
        status = record["validation"]["status"]
        by_status[status] = by_status.get(status, 0) + 1
        template = record["template"]
        by_template[template] = by_template.get(template, 0) + 1
        if record["validation"]["improved"]:
            improved.append(record["candidate"])
        if status == STATUS_PASSED and record.get("rank") is not None:
            plausible.append(
                (record["candidate"], RankMetrics.from_dict(record["rank"]))
            )
    ranked = rank_candidates(plausible)
    record_by_id = {r["candidate"]: r for r in records}
    ranking = []
    for rank_index, (candidate_id, metrics) in enumerate(ranked):
        record = record_by_id[candidate_id]
        ranking.append({
            "rank": rank_index + 1,
            "candidate": candidate_id,
            "template": record["template"],
            "module": record["module"],
            "description": record["description"],
            "signal": record["signal"],
            "site_rank": record["site_rank"],
            "metrics": dict(record["rank"]),
        })
    best = ranking[0] if ranking else None
    return {
        "schema": SCHEMA,
        "bug": bug_id,
        "budget": budget,
        "watchdog": watchdog,
        "baseline": dict(baseline),
        "sites": list(sites),
        "candidates": {
            "planned": planned,
            "tried": tried,
            "by_status": dict(sorted(by_status.items())),
            "by_template": dict(sorted(by_template.items())),
        },
        "improved": sorted(improved),
        "ranking": ranking,
        "repaired": bool(ranking),
        "best": best,
    }


def render_repair_report(report):
    """The canonical byte-deterministic JSON rendering."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_repair_report(report, path):
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        handle.write(render_repair_report(report))


def render_repair_summary(report):
    """Human-readable campaign summary."""
    lines = []
    lines.append("repair %s: %s" % (
        report["bug"],
        "REPAIRED" if report["repaired"] else "no repair found",
    ))
    lines.append("  baseline: %s (%s)" % (
        report["baseline"]["status"],
        ", ".join(report["baseline"]["symptoms"]) or "no symptoms",
    ))
    lines.append("  sites: %d  candidates: %d tried of %d planned "
                 "(budget %d)" % (
                     len(report["sites"]),
                     report["candidates"]["tried"],
                     report["candidates"]["planned"],
                     report["budget"],
                 ))
    by_status = report["candidates"]["by_status"]
    lines.append("  outcomes: " + ", ".join(
        "%s=%d" % (k, v) for k, v in sorted(by_status.items())
    ))
    if report["improved"]:
        lines.append("  improved (fewer symptoms, still failing): %d"
                     % len(report["improved"]))
    for entry in report["ranking"][:5]:
        metrics = entry["metrics"]
        if metrics["equivalent"]:
            closeness = "trace-equivalent to the fix"
        elif metrics["output_divergence_cycle"] is None:
            closeness = "outputs match the fix (%d internal divergent)" \
                % metrics["divergent_signals"]
        else:
            closeness = "first output divergence @%d (%s), %d divergent" \
                % (
                    metrics["output_divergence_cycle"],
                    metrics["output_divergence_signal"],
                    metrics["divergent_signals"],
                )
        lines.append("  #%d %s [%s] %s — %s" % (
            entry["rank"], entry["candidate"], entry["template"],
            entry["description"], closeness,
        ))
    return "\n".join(lines) + "\n"


def unified_patch(bug_id, candidate_id, patched_text):
    """A unified diff of one candidate against the buggy source.

    Candidate text comes out of the code generator, so the baseline
    side is normalized through the same parse -> generate pipeline:
    the diff then shows only the semantic edit, not comment and
    formatting noise.
    """
    spec = SPECS[bug_id]
    original = generate_source(parse(
        bug_source_text(bug_id), filename=spec.design_file
    ))
    return "".join(difflib.unified_diff(
        original.splitlines(keepends=True),
        patched_text.splitlines(keepends=True),
        fromfile="a/%s" % spec.design_file,
        tofile="b/%s (%s)" % (spec.design_file, candidate_id),
    ))
