"""``repro.repair`` — template-based automated repair, waveform-ranked.

Closes the paper's debugging loop: the diagnostics (SignalCat, the
monitors, LossCheck, the L03xx/L04xx checkers) *localize* a bug; this
subsystem turns that localization into candidate patches and picks the
best one by simulation:

* :mod:`~repro.repair.templates` — rtl-repair-style parameterized AST
  edits (literal tweaks, condition inversion, guards, conditional
  overwrites, width/depth widening, …) enumerated at diagnostic sites
  via the same anchor model as :mod:`repro.fuzz`;
* :mod:`~repro.repair.sites` — candidate sites from LossCheck shadow
  variables, ``repro check`` findings, and fault-sensitivity probes,
  so the search is diagnostic-bounded, not exhaustive;
* :mod:`~repro.repair.validate` — differential scenario replay on each
  patched design against the buggy baseline;
* :mod:`~repro.repair.rank` — :func:`repro.wave.diff_traces` scoring
  against the fixed reference run (later first output divergence,
  fewer divergent signals, higher OSDD rank higher);
* :mod:`~repro.repair.search` — the resumable, journaled,
  budget-bounded campaign behind ``python -m repro repair``.

Exports resolve lazily (PEP 562): importing :mod:`repro.repair` does
not drag in the simulator/testbed layers until a repair actually runs.
"""

from __future__ import annotations

_EXPORTS = {
    "RepairCandidate": ".templates",
    "RepairEdit": ".templates",
    "RepairPlan": ".templates",
    "RepairSite": ".templates",
    "SiteContext": ".templates",
    "TEMPLATES": ".templates",
    "TEMPLATE_NAMES": ".templates",
    "enumerate_candidates": ".templates",
    "instantiate": ".templates",
    "resolve_sites": ".templates",
    "enumerate_sites": ".sites",
    "ValidationResult": ".validate",
    "baseline_result": ".validate",
    "bug_source_text": ".validate",
    "run_scenario_on_text": ".validate",
    "validate_candidate": ".validate",
    "RankMetrics": ".rank",
    "rank_candidates": ".rank",
    "reference_trace": ".rank",
    "score_candidate": ".rank",
    "DEFAULT_BUDGET": ".search",
    "RepairConfig": ".search",
    "RepairOutcome": ".search",
    "SCHEMA": ".search",
    "build_report": ".search",
    "render_repair_report": ".search",
    "render_repair_summary": ".search",
    "run_repair": ".search",
    "unified_patch": ".search",
    "write_repair_report": ".search",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            "module %r has no attribute %r" % (__name__, name)
        )
    import importlib

    module = importlib.import_module(module_name, __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
