"""Differential validation of candidate patches by scenario replay.

A candidate repairs a bug exactly when the bug's own testbed scenario —
the reproduction recipe, not a new oracle — stops observing symptoms on
the patched design. Validation is differential against the *buggy*
baseline: a candidate that still fails but shows a strict subset of the
baseline's symptoms is recorded as ``improved`` (useful search signal,
not a repair).

Every run traces all signals, so the same simulation that validates a
candidate also produces the :class:`~repro.wave.trace.Trace` the
ranking stage diffs against the fixed reference — one simulation per
candidate, not two. Only a passing run's trace carries clock-domain
tags: only passing candidates are ranked, and the tags (a signal-graph
build per design) would otherwise be inferred for the hundreds of
failing candidates of a search, which nothing reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hdl import (
    ElaborationError,
    LexerError,
    ParseError,
    elaborate,
    parse,
)
from ..runtime import TimeLimitExceeded, time_limit
from ..sim import Simulator
from ..testbed.metadata import SPECS
from ..testbed.scenarios import SCENARIOS
from ..wave.trace import Trace

#: Validation statuses, from best to worst.
STATUS_PASSED = "passed"
STATUS_SYMPTOMATIC = "symptomatic"
STATUS_HANG = "hang"
STATUS_PARSE_ERROR = "parse-error"
STATUS_ELABORATE_ERROR = "elaborate-error"
STATUS_SIMULATE_ERROR = "simulate-error"

#: Default per-candidate wall-clock bound (seconds). Testbed scenarios
#: finish in well under a second; a patch that loops a scenario (e.g.
#: a broken handshake wait) must not stall the whole campaign.
DEFAULT_WATCHDOG = 10


@dataclass
class ValidationResult:
    """Outcome of replaying one scenario on one (patched) design."""

    status: str
    symptoms: tuple = ()
    detail: str = ""
    #: Strict subset of the baseline's symptoms (still failing, closer).
    improved: bool = False
    cycles: int = 0
    trace: object = field(default=None, repr=False)

    @property
    def passed(self):
        return self.status == STATUS_PASSED

    def to_dict(self):
        return {
            "status": self.status,
            "symptoms": list(self.symptoms),
            "detail": self.detail,
            "improved": self.improved,
            "cycles": self.cycles,
        }


def _symptom_tuple(observation):
    return tuple(sorted(s.value for s in observation.symptoms))


def run_scenario_on_text(bug_id, text, watchdog=DEFAULT_WATCHDOG,
                         label=""):
    """Parse, elaborate, and replay *bug_id*'s scenario on *text*.

    Returns a :class:`ValidationResult`; its ``trace`` is populated for
    every run that simulated to completion, pass or fail. A failing
    run's trace has no clock-domain tags: it is never ranked, so its
    signal graph is not built.
    """
    spec = SPECS[bug_id]
    try:
        source = parse(text, filename=spec.design_file)
    except (ParseError, LexerError) as exc:
        return ValidationResult(status=STATUS_PARSE_ERROR, detail=str(exc))
    try:
        design = elaborate(source, top=spec.top)
    except (ElaborationError, KeyError) as exc:
        return ValidationResult(
            status=STATUS_ELABORATE_ERROR, detail=str(exc)
        )
    sim = Simulator(design, trace="all")
    try:
        with time_limit(watchdog):
            observation = SCENARIOS[bug_id](sim)
    except TimeLimitExceeded:
        return ValidationResult(
            status=STATUS_HANG,
            detail="scenario exceeded %ss at cycle %d"
            % (watchdog, sim.cycle),
            cycles=sim.cycle,
        )
    except Exception as exc:  # any runtime fault in the patched design
        return ValidationResult(
            status=STATUS_SIMULATE_ERROR,
            detail="%s: %s" % (type(exc).__name__, exc),
            cycles=sim.cycle,
        )
    symptoms = _symptom_tuple(observation)
    passed = not observation.failed
    trace = Trace.from_simulator(
        sim, label=label or "%s:candidate" % bug_id, with_domains=passed
    )
    return ValidationResult(
        status=STATUS_PASSED if passed else STATUS_SYMPTOMATIC,
        symptoms=symptoms,
        cycles=sim.cycle,
        trace=trace,
    )


def bug_source_text(bug_id):
    """The buggy design's original source text (diagnostic line numbers
    in repair sites refer to this text, so repair operates on it
    verbatim, not on a regenerated rendering)."""
    from ..testbed.harness import _design_text

    return _design_text(SPECS[bug_id].design_file)


def baseline_result(bug_id, watchdog=DEFAULT_WATCHDOG):
    """The buggy design's own scenario outcome (the differential anchor)."""
    return run_scenario_on_text(
        bug_id, bug_source_text(bug_id), watchdog=watchdog,
        label="%s:buggy" % bug_id,
    )


def validate_candidate(bug_id, candidate_text, baseline,
                       watchdog=DEFAULT_WATCHDOG, label=""):
    """Validate one candidate differentially against *baseline*.

    *baseline* is the :class:`ValidationResult` of the unpatched
    design. A candidate whose scenario still fails but with a strict
    subset of the baseline symptoms gets ``improved=True``.
    """
    result = run_scenario_on_text(
        bug_id, candidate_text, watchdog=watchdog, label=label
    )
    if result.status == STATUS_SYMPTOMATIC and baseline is not None:
        base = set(baseline.symptoms)
        mine = set(result.symptoms)
        result.improved = mine < base
    return result
