#!/usr/bin/env python3
"""Regenerate ``perfbench/pins.json``: the outputs the benchmark accepts.

Run from the repository root, only on a commit whose outputs are known
good: every later run compares each operation's output digest, exit
code and exact simulator work against this file and counts a mismatch
as a failed operation. Takes a few minutes.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE]

from run import bootstrap, cleanup  # noqa: E402


def main():
    workdir = bootstrap()
    try:
        pin_all(workdir)
    finally:
        cleanup(workdir)


def pin_all(workdir):
    from repro.serve.jobs import execute_job, payload_digest
    from repro.testbed import BUG_IDS
    from workloads import (FAULT_SEEDS, PINNED_SIM, REPAIR_BUGS, cli,
                           fault_groups, fault_label, serve_pool,
                           sha256_file)

    def pin(path, code, counts=None):
        entry = {"sha256": sha256_file(path), "exit": code}
        for name in PINNED_SIM if counts else ():
            entry[name] = counts[name]
        return entry

    pins = {"check": {}, "faults": {}, "repair": {}, "serve": {}}
    out = os.path.join(workdir, "out.json")
    for bug in BUG_IDS:
        code, _ = cli(["check", bug, "--json", "-o", out])
        pins["check"][bug] = pin(out, code)
    for seed in FAULT_SEEDS:
        for group in fault_groups():
            bugs = [arg for bug in group for arg in ("--bug", bug)]
            code, counts = cli(["faults", "--seed", str(seed), "--fresh",
                                "--output-dir", workdir] + bugs)
            pins["faults"][fault_label(seed, group)] = pin(
                os.path.join(workdir, "detection_seed%d.json" % seed), code,
                counts)
        print("faults seed %d pinned" % seed, file=sys.stderr)
    for bug in REPAIR_BUGS:
        code, counts = cli(["repair", bug, "--json", "-o", out])
        pins["repair"][bug] = pin(out, code, counts)
    for pin_name, kind, params in serve_pool():
        digest = payload_digest(execute_job(kind, params))
        # Jobs sharing a pin (the edits of one design) must agree.
        if pins["serve"].setdefault(pin_name, digest) != digest:
            sys.exit("pin: %s gave two different payloads" % pin_name)
    with open(os.path.join(HERE, "pins.json"), "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
