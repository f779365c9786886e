"""repro.repair across the whole testbed: how much does it fix, how fast?

Three headline numbers:

* **bugs repaired / 20** — testbed bugs where the diagnostic-bounded
  template search finds a scenario-passing patch within the default
  budget;
* **candidates validated per second** — throughput of the
  parse-elaborate-simulate validation loop (the campaign's hot path);
* **median rank of the reference-equivalent patch** — among repaired
  bugs, the rank position of the first candidate whose outputs match
  the fixed design on every traced cycle (``output_divergence_cycle is
  None``). A median of 1 means waveform ranking puts the
  right-for-the-right-reason patch on top, not merely somewhere in the
  passing set.

The fault-sensitivity localization pass is skipped here (``use_faults=
False``) to keep the benchmark wall-clock dominated by the search
itself rather than by site probing; the CI smoke job exercises the
fault-localized path. The skip costs no repair: this benchmark and the
default CLI configuration both repair 17/20 (not C4, S3, D12). D12's
overwrite site is only surfaced by fault probing, and with probing on
its passing ``conditional_overwrite`` candidates lie past the default
400-candidate budget (893 planned; ``--budget 900`` repairs it).
"""

import time

from repro.repair import RepairConfig, run_repair
from repro.testbed import BUG_IDS


def _campaigns():
    rows = {}
    for bug_id in BUG_IDS:
        start = time.time()
        outcome = run_repair(RepairConfig(
            bug_id=bug_id, use_faults=False,
        ))
        elapsed = time.time() - start
        report = outcome.report
        ref_rank = None
        for entry in report["ranking"]:
            metrics = entry["metrics"]
            if metrics["equivalent"] or \
                    metrics["output_divergence_cycle"] is None:
                ref_rank = entry["rank"]
                break
        rows[bug_id] = {
            "repaired": report["repaired"],
            "tried": report["candidates"]["tried"],
            "planned": report["candidates"]["planned"],
            "plausible": len(report["ranking"]),
            "reference_rank": ref_rank,
            "seconds": elapsed,
            "best": (report["best"]["description"]
                     if report["best"] else ""),
        }
    return rows


def _median(values):
    ordered = sorted(values)
    if not ordered:
        return None
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _render(rows):
    lines = [
        "repro.repair across the 20-bug testbed (default budget, "
        "no fault probing)",
        "",
        "%-5s %-9s %6s %8s %6s %9s %7s  %s"
        % ("bug", "result", "tried", "planned", "plaus",
           "ref.rank", "sec", "best candidate"),
    ]
    for bug_id, row in rows.items():
        lines.append(
            "%-5s %-9s %6d %8d %6d %9s %7.1f  %s"
            % (
                bug_id,
                "repaired" if row["repaired"] else "no",
                row["tried"],
                row["planned"],
                row["plausible"],
                "-" if row["reference_rank"] is None
                else row["reference_rank"],
                row["seconds"],
                row["best"][:44],
            )
        )
    repaired = sum(1 for row in rows.values() if row["repaired"])
    validated = sum(row["tried"] for row in rows.values())
    seconds = sum(row["seconds"] for row in rows.values())
    ranks = [
        row["reference_rank"] for row in rows.values()
        if row["reference_rank"] is not None
    ]
    lines += [
        "",
        "bugs repaired: %d/20" % repaired,
        "candidates validated: %d in %.1fs (%.1f/sec)"
        % (validated, seconds, validated / seconds if seconds else 0.0),
        "median rank of the reference-equivalent patch: %s"
        % (_median(ranks) if ranks else "n/a"),
    ]
    return "\n".join(lines), repaired, validated, seconds, ranks


def test_repair_testbed(benchmark, emit):
    rows = benchmark.pedantic(_campaigns, rounds=1, iterations=1)
    text, repaired, validated, seconds, ranks = _render(rows)
    emit("repair_testbed.txt", text)
    # The acceptance bar: a majority of the testbed repairs.
    assert repaired >= 11
    assert validated > 0 and seconds > 0
    # Waveform ranking puts a reference-equivalent patch at or near the
    # top wherever one exists.
    assert ranks and _median(ranks) <= 2
