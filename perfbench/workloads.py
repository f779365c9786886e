"""The four workloads: plan from the seed, warm up, run, check outputs.

Every workload drives a user-facing verb the way ``python -m repro``
runs it. ``check``, ``faults`` and ``repair`` call ``repro.cli.main``
in process, so ``repro.obs`` is on exactly as a user gets it;
``serve`` runs an in-process ``ReproServer`` with subprocess workers
and drives it with ``ServeClient`` threads.

A workload's size comes from ``--seconds`` and nominal per-unit costs,
never from the clock, so one seed always does the same work: every
count repeats exactly and ``items_per_s`` compares like with like.
"""

import contextlib
import hashlib
import io
import os
import random
import signal
import threading
import time

from repro import obs

#: Nominal cost of one planning unit on a 2-core x86 box. They set how
#: many units fill ``--seconds``; the run then times what it did.
CHECK_ROUND_S = 1.2          # one check call per testbed design file
FAULT_CAMPAIGN_S = 8.0       # one default 20 bugs x 8 faults grid
REPAIR_PAIR_S = 35.0         # repair D9, C2 and D9, with D9's re-runs
SERVE_BLOCK_S = 1.25         # one client's block of ten first requests

#: Campaign seeds whose outputs are pinned. A full-size run does all
#: of them, so the case mix never varies.
FAULT_SEEDS = (0, 1, 2)
#: Each seed's grid runs as this many ``--bug`` groups of bugs. Case
#: seeds depend only on (campaign seed, bug, index), so the groups run
#: exactly the cases of the whole grid; a hit after each group spreads
#: the hits over the run, where one per whole grid bunched them into
#: three windows that each caught the machine at one speed.
FAULT_GROUPS = 4
#: A faults hit is one batch of back-to-back journal re-runs of the
#: group just run: a single re-run takes about 11 ms, too short to time
#: steadily on its own, and a batch of 16 is about 200 ms.
FAULT_RESUMES_PER_HIT = 16
REPAIR_BUGS = ("D9", "C2")
#: Re-runs of D9 from its journal after each repair, one hit each.
REPAIR_RESUMES = 2

SERVE_CLIENTS = 2
SERVE_WORKERS = 2
SERVE_POLL_S = 0.002
#: serve-mix traffic follows benchmarks/bench_serve_throughput.py, the
#: served workload the server was built for: "mostly near-duplicate
#: checks, a few fuzz campaigns", where each client submits 25 jobs
#: over 10 distinct keys, so 60% of its submissions repeat its own
#: earlier work, and every tenth job is a campaign. Here a client's
#: first requests come in blocks of ten about one testbed bug: six
#: checks of the design file, each with a different edit (a trailing
#: comment, as a user re-checks a file while editing it), three
#: ``wavediff`` views with different ``--last`` windows, and one small
#: ``faults`` campaign. Repeats are 60% of each client's jobs.
SERVE_BLOCK = (("check", 6), ("wavediff", 3), ("faults", 1))
SERVE_HIT_SHARE = 0.6
#: A repeat is one of the keys its client completed most recently.
SERVE_RECENT = 8
#: Blocks per client are capped at this many per bug, so every job a
#: run can draw is pinned.
SERVE_MAX_ROUNDS = 3
#: Miss jobs re-run in process (traced run only) to split miss latency
#: into execution and serving overhead, and to trace the layers a
#: worker runs.
EXEC_SAMPLE = 40

#: obs metrics summed over the CLI calls of a run (histograms by total).
OBS_COUNTS = (
    "sim.cycles", "sim.settle_iterations", "sim.comb_evals", "sim.ip_calls",
    "diag.emitted", "faults.cases", "faults.effectful",
    "repair.validated", "repair.plausible",
)
#: Pinned per operation: the simulator's exact work.
PINNED_SIM = ("sim.cycles", "sim.comb_evals")


def sha256_file(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def cli(argv):
    """``python -m repro <argv>`` in process; returns (exit code, obs counts)."""
    from repro.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    counts = dict.fromkeys(OBS_COUNTS, 0)
    for metric in obs.metrics():
        if metric["name"] in counts:
            counts[metric["name"]] = metric.get(
                "value", metric.get("total", 0)
            )
    return code, counts


@contextlib.contextmanager
def item_probe(module, attr, sink):
    """Time each call of ``module.attr`` into *sink* (one clock pair)."""
    original = getattr(module, attr)

    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - started)

    setattr(module, attr, timed)
    try:
        yield
    finally:
        setattr(module, attr, original)


class Tally:
    """What one timed pass did: items, operations, counts, failures."""

    def __init__(self):
        #: (seconds, hit): *hit* if the result was reused from an earlier
        #: identical request, not computed.
        self.items = []
        self.elapsed = 0.0
        self.attempted = 0
        self.failures = []
        self.counts = dict.fromkeys(OBS_COUNTS, 0)
        self.serve = {}

    def operation(self, label, ok, why=""):
        self.attempted += 1
        if not ok:
            self.failures.append("%s: %s" % (label, why))

    def add_counts(self, counts):
        for name, value in counts.items():
            self.counts[name] += value

    def check_pin(self, label, pin, digest, code, counts=None):
        """One operation: output digest, exit code and sim work vs pin."""
        problems = []
        if pin is None:
            problems.append("no pinned output")
        else:
            if digest != pin["sha256"]:
                problems.append("output digest %s != pinned %s"
                                % (digest[:12], pin["sha256"][:12]))
            if code != pin["exit"]:
                problems.append("exit %s != pinned %s" % (code, pin["exit"]))
            for name in PINNED_SIM:
                if counts is not None and name in pin \
                        and counts[name] != pin[name]:
                    problems.append("%s %s != pinned %s"
                                    % (name, counts[name], pin[name]))
        self.operation(label, not problems, "; ".join(problems))


class Workload:
    name = ""

    def __init__(self, seed, seconds, pins, workdir):
        self.seconds = seconds
        self.pins = pins
        self.workdir = workdir
        self.rng = random.Random("%s:%d" % (self.name, seed))
        self._passes = 0

    def scratch(self, label):
        self._passes += 1
        path = os.path.join(self.workdir, "%s-%d" % (label, self._passes))
        os.makedirs(path, exist_ok=True)
        return path

    def warm_up(self):
        """One untimed item: imports, lazy tables, first-call costs."""

    def run(self):
        """One timed pass over the plan; returns a :class:`Tally`."""
        raise NotImplementedError

    def exec_split(self, tally):
        """Serving only: (exec, overhead) seconds of sampled miss jobs."""
        return None

    def close(self):
        pass


class CheckTestbed(Workload):
    """``repro check <bug> --json -o <tmp>`` over the 20 design files."""

    name = "check-testbed"

    def __init__(self, *args):
        super().__init__(*args)
        from repro.testbed import BUG_IDS

        rounds = max(2, round(self.seconds / CHECK_ROUND_S))
        self.plan = []
        for _ in range(rounds):
            order = list(BUG_IDS)
            self.rng.shuffle(order)
            self.plan.extend(order)

    def warm_up(self):
        out = os.path.join(self.scratch("warm"), "check.json")
        cli(["check", self.plan[0], "--json", "-o", out])

    def run(self):
        tally = Tally()
        out = os.path.join(self.scratch("check"), "report.json")
        started = time.perf_counter()
        for bug in self.plan:
            began = time.perf_counter()
            code, counts = cli(["check", bug, "--json", "-o", out])
            # repro check reuses nothing: every call is computed.
            tally.items.append((time.perf_counter() - began, False))
            tally.add_counts(counts)
            tally.check_pin("check %s" % bug, self.pins["check"].get(bug),
                            sha256_file(out), code)
        tally.elapsed = time.perf_counter() - started
        return tally


def fault_groups():
    """The default grid's 20 bugs as ``--bug`` groups, each a stride
    through the testbed so the heavy bugs fall in different groups."""
    from repro.testbed import BUG_IDS

    return [BUG_IDS[g::FAULT_GROUPS] for g in range(FAULT_GROUPS)]


def fault_label(seed, group):
    return "--seed %d --bug %s" % (seed, ",".join(group))


class FaultsCampaign(Workload):
    """``repro faults --seed S --bug ... --fresh`` over the default grid
    of campaign seeds 0-2, each group then re-run from its journal: the
    verb's reuse path. One hit item is a batch of back-to-back re-runs."""

    name = "faults-campaign"

    def __init__(self, *args):
        super().__init__(*args)
        seeds = max(1, round(self.seconds / FAULT_CAMPAIGN_S))
        self.plan = [(seed, group) for seed in FAULT_SEEDS[:seeds]
                     for group in fault_groups()]
        self.rng.shuffle(self.plan)

    def warm_up(self):
        cli(["faults", "--seed", "0", "--bug", "D9", "--faults-per-bug", "1",
             "--fresh", "--output-dir", self.scratch("warm")])

    def run(self):
        from repro.faults import campaign

        tally = Tally()
        case_times = []
        started = time.perf_counter()
        for seed, group in self.plan:
            out = self.scratch("faults")
            argv = ["faults", "--seed", str(seed), "--output-dir", out]
            argv += [arg for bug in group for arg in ("--bug", bug)]
            with item_probe(campaign, "_run_case", case_times):
                code, counts = cli(argv + ["--fresh"])
            tally.add_counts(counts)
            self._check(tally, seed, group, out, code, counts)
            batch = 0.0
            for _ in range(FAULT_RESUMES_PER_HIT):
                began = time.perf_counter()
                code, _ = cli(argv)
                batch += time.perf_counter() - began
                self._check(tally, seed, group, out, code, None)
            tally.items.append((batch, True))
        tally.items.extend((s, False) for s in case_times)
        tally.elapsed = time.perf_counter() - started
        return tally

    def _check(self, tally, seed, group, out, code, counts):
        label = fault_label(seed, group)
        tally.check_pin(
            "faults %s%s" % (label, "" if counts else " (resumed)"),
            self.pins["faults"].get(label),
            sha256_file(os.path.join(out, "detection_seed%d.json" % seed)),
            code, counts,
        )


class RepairD9C2(Workload):
    """``repro repair D9 --journal J --fresh``, ``repro repair C2`` and
    D9 again, each followed by re-runs of D9 from J: the verb's reuse
    path, one hit item each (about 2.4 s apiece)."""

    name = "repair-d9-c2"

    def __init__(self, *args):
        super().__init__(*args)
        pairs = max(1, round(self.seconds / REPAIR_PAIR_S))
        # D9 twice keeps the median of the validations inside the D9
        # cluster: D9's take 4-7 ms, C2's 10-19 ms, and with one D9
        # run the median fell in the gap between the two.
        self.plan = list(REPAIR_BUGS) * pairs + [REPAIR_BUGS[0]]

    def warm_up(self):
        out = self.scratch("warm")
        cli(["repair", "D9", "--budget", "2", "--stop-after", "0",
             "--no-faults", "--json", "-o", os.path.join(out, "r.json")])

    def _repair(self, tally, bug, argv):
        code, counts = cli(["repair", bug, "--json", "-o", self.report]
                           + argv)
        tally.check_pin("repair %s %s" % (bug, " ".join(argv)),
                        self.pins["repair"].get(bug),
                        sha256_file(self.report), code,
                        counts if "--fresh" in argv or not argv else None)
        return counts

    def run(self):
        from repro.repair import search

        tally = Tally()
        out = self.scratch("repair")
        self.report = os.path.join(out, "report.json")
        journal = ["--journal", os.path.join(out, "journal.jsonl")]
        validations = []
        started = time.perf_counter()
        for index, bug in enumerate(self.plan):
            with item_probe(search, "_validate_one", validations):
                tally.add_counts(self._repair(
                    tally, bug, journal + ["--fresh"] if index == 0 else []))
            # The hits are spread over the run, not bunched at its end,
            # so they see the same drift in machine speed as the misses.
            for _ in range(REPAIR_RESUMES):
                began = time.perf_counter()
                self._repair(tally, "D9", journal)
                tally.items.append((time.perf_counter() - began, True))
        tally.items.extend((s, False) for s in validations)
        tally.elapsed = time.perf_counter() - started
        return tally


def design_source(bug):
    """The text of *bug*'s testbed design file, as a user would read it."""
    from importlib.resources import files

    from repro.testbed.metadata import SPECS

    filename = SPECS[bug].design_file
    return filename, (files("repro.testbed") / "designs" / filename).read_text()


def serve_block(client, bug, round_):
    """One client's first requests about *bug* in round *round_*.

    Returns ``(pin, kind, params)`` triples. The two clients' keys are
    disjoint: each numbers its edits, windows and campaign seeds apart
    from the other's. Every edit of a design checks to the same report,
    so a check's pin names only the bug.
    """
    filename, text = design_source(bug)
    jobs = []
    for kind, count in SERVE_BLOCK:
        for k in range(round_ * count, (round_ + 1) * count):
            n = client + SERVE_CLIENTS * k
            if kind == "check":
                jobs.append(("check %s" % bug, kind, {
                    "source": "%s\n// edit %d\n" % (text, n),
                    "filename": filename}))
            elif kind == "wavediff":
                last = 8 * (n + 1)
                jobs.append(("wavediff %s --last %d" % (bug, last), kind,
                             {"bug": bug, "last": last}))
            else:
                jobs.append(("faults %s --seed %d" % (bug, n), kind,
                             {"bugs": [bug], "faults_per_bug": 2, "seed": n}))
    return jobs


def serve_pool():
    """Every job any serve-mix run can draw, for pinning."""
    from repro.testbed import BUG_IDS

    return [job for client in range(SERVE_CLIENTS) for bug in BUG_IDS
            for round_ in range(SERVE_MAX_ROUNDS)
            for job in serve_block(client, bug, round_)]


def live_children():
    """PIDs of this process's live children (Linux ``/proc``)."""
    pids = []
    for tid in os.listdir("/proc/self/task"):
        try:
            with open("/proc/self/task/%s/children" % tid) as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        except OSError:
            continue
    return pids


def reap_children(timeout=10.0):
    """Wait for every child to exit; kill stragglers. Returns their count."""
    deadline = time.monotonic() + timeout
    stragglers = 0
    for pid in live_children():
        while True:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                break
            if done:
                break
            if time.monotonic() >= deadline:
                stragglers += 1
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.01)
    return stragglers


class ServeMix(Workload):
    """An in-process server, 2 workers, 2 closed-loop client threads."""

    name = "serve-mix"

    def __init__(self, *args):
        super().__init__(*args)
        from repro.testbed import BUG_IDS

        blocks = min(len(BUG_IDS) * SERVE_MAX_ROUNDS,
                     max(2, round(self.seconds / SERVE_BLOCK_S)))
        self.plan = []
        for client in range(SERVE_CLIENTS):
            # Every seed runs the same jobs; the seed orders them and
            # picks the repeats. A client's repeat is always its own
            # earlier key, so hits never depend on how clients interleave.
            fresh = [job for b in range(blocks)
                     for job in serve_block(client, BUG_IDS[b % len(BUG_IDS)],
                                            b // len(BUG_IDS))]
            self.rng.shuffle(fresh)
            repeats = [True] * round(
                len(fresh) * SERVE_HIT_SHARE / (1 - SERVE_HIT_SHARE))
            order = [False] * (len(fresh) - 2) + repeats
            self.rng.shuffle(order)
            done, jobs = [], []
            for repeat in [False, False] + order:
                if repeat:
                    # Never the latest key: its cache write may still be
                    # in flight when the client sees the job done.
                    jobs.append((self.rng.choice(
                        done[-SERVE_RECENT - 1:-1]), True))
                else:
                    done.append(fresh.pop())
                    jobs.append((done[-1], False))
            self.plan.append(jobs)
        self.server = None

    def _start(self):
        from repro.serve import ReproServer, ServeClient, ServeConfig

        out = self.scratch("serve")
        config = ServeConfig(
            port=0, workers=SERVE_WORKERS, watchdog=60.0, retries=1,
            backoff=0.05, cache_dir=os.path.join(out, "cache"),
            journal_path=os.path.join(out, "journal.jsonl"), quota_rate=0.0,
        )
        self.server = ReproServer(config).start_background()
        self.base = "http://127.0.0.1:%d" % self.server.port
        # One inline check per worker spawns and warms both of them.
        tiny = ("module tiny(input wire clk, output reg [%d:0] q);\n"
                "always @(posedge clk) q <= q + 1;\nendmodule\n")
        statuses = []

        def warm(width):
            statuses.append(ServeClient(self.base).run(
                "check", {"source": tiny % width, "filename": "tiny.v"},
                poll=SERVE_POLL_S)["status"])

        threads = [threading.Thread(target=warm, args=(width,))
                   for width in range(1, SERVE_WORKERS + 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if statuses != ["done"] * SERVE_WORKERS:
            raise RuntimeError("serve warm-up jobs ended %s" % statuses)

    def warm_up(self):
        self._start()

    def _stop(self):
        if self.server is not None:
            self.server.shutdown()
            self.server = None
        return reap_children()

    def close(self):
        self._stop()

    def _client(self, index, records, errors):
        from repro.serve import ServeClient
        from repro.serve.jobs import TERMINAL_STATUSES

        client = ServeClient(self.base, client_id="bench-%d" % index)
        try:
            for job, repeat in self.plan[index]:
                began = time.perf_counter()
                summary = client.submit(*job[1:])
                submitted = time.perf_counter()
                polls = 0
                while True:
                    detail = client.job(summary["id"])
                    polls += 1
                    if detail["status"] in TERMINAL_STATUSES:
                        break
                    time.sleep(SERVE_POLL_S)
                records.append({
                    "job": job, "repeat": repeat,
                    "seconds": time.perf_counter() - began,
                    "submit_s": submitted - began, "polls": polls,
                    "detail": detail,
                })
        except Exception as exc:  # noqa: BLE001 — reported as a failure
            errors.append("client %d: %s: %s" % (index, type(exc).__name__,
                                                  exc))

    def run(self):
        from repro.serve import ServeClient
        from repro.serve.jobs import payload_digest

        if self.server is None:
            self._start()
        tally = Tally()
        records = [[] for _ in range(SERVE_CLIENTS)]
        errors = []
        threads = [
            threading.Thread(target=self._client,
                             args=(index, records[index], errors))
            for index in range(SERVE_CLIENTS)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        tally.elapsed = time.perf_counter() - started
        metrics = ServeClient(self.base).metrics()
        stragglers = self._stop()
        for error in errors:
            tally.operation("serve", False, error)
        if stragglers:
            tally.operation("serve shutdown", False,
                            "%d worker(s) still alive" % stragglers)
        flat = [record for batch in records for record in batch]
        for record in flat:
            detail = record["detail"]
            digest = payload_digest(detail["result"]) \
                if detail["status"] == "done" else detail["status"]
            pin = record["job"][0]
            pinned = self.pins["serve"].get(pin)
            problems = []
            if digest != pinned:
                problems.append("payload %s != pinned %s"
                                % (digest[:12], (pinned or "none")[:12]))
            if detail["cached"] != record["repeat"]:
                problems.append("cached=%s on a %s" % (
                    detail["cached"],
                    "repeat" if record["repeat"] else "first request"))
            tally.operation("serve %s" % pin, not problems,
                            "; ".join(problems))
            tally.items.append((record["seconds"], record["repeat"]))
        misses = [r for r in flat if not r["repeat"]]
        tally.serve = {
            "submit_s": [r["submit_s"] for r in flat],
            "polls_per_job": sum(r["polls"] for r in flat) / len(flat),
            "cache_hits": metrics["cache"]["hits"],
            "cache_misses": metrics["cache"]["misses"],
            "executions": metrics["pool"].get("executions", 0),
            "retries": metrics["pool"].get("retries", 0),
            "misses": misses,
        }
        return tally

    def exec_split(self, tally):
        """Re-run a fixed sample of miss jobs in process: exec time, and
        the rest of each job's miss latency.

        The sample takes every job kind in proportion to its share of
        the misses, and at least one of each, so the layers a worker
        runs are all exercised when the traced run calls this.
        """
        from repro.serve.jobs import execute_job

        misses = tally.serve["misses"]
        sample = []
        for kind, _ in SERVE_BLOCK:
            of_kind = [r for r in misses if r["job"][1] == kind]
            take = max(1, round(EXEC_SAMPLE * len(of_kind) / len(misses)))
            sample += of_kind[::max(1, len(of_kind) // take)][:take]
        exec_s, overhead_s = [], []
        for record in sample:
            began = time.perf_counter()
            execute_job(*record["job"][1:])
            spent = time.perf_counter() - began
            exec_s.append(spent)
            overhead_s.append(record["seconds"] - spent)
        return exec_s, overhead_s


WORKLOADS = {cls.name: cls for cls in (
    CheckTestbed, FaultsCampaign, RepairD9C2, ServeMix,
)}
