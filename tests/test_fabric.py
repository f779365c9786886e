"""Tests for the TCP worker fabric, lease fencing, and campaign sharding.

Covers the frame protocol and handshake in isolation, the lease table's
epoch fencing, deterministic shard planning and byte-identical merging
for all three campaign kinds, the FabricPool against both real
(in-thread) workers and scripted sockets that misbehave on purpose —
stale epochs, duplicated frames, vanished connections — and the
distributed chaos acceptance scenario from the issue: a sharded 50-case
campaign under seeded connection drops, heartbeat stalls, duplicated
and delayed result frames, plus a worker SIGKILLed mid-run, must
complete every case exactly once with a final report byte-identical to
an unsharded, chaos-free run's.
"""

import io
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import obs
from repro.serve import (
    ChaosConfig,
    ChaosMonkey,
    FabricPool,
    FrameError,
    Job,
    JobError,
    LeaseTable,
    PROTO_VERSION,
    ReproServer,
    ServeClient,
    ServeConfig,
    encode_frame,
    merge_shards,
    plan_shards,
    shard_count,
)
from repro.serve.fabric import read_frame_blocking
from repro.serve.jobs import DONE, TIMEOUT, canonical_json, execute_job
from repro.serve.worker import main_tcp

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


# ---------------------------------------------------------------------------
# Frame protocol
# ---------------------------------------------------------------------------


class TestFrames:
    def roundtrip(self, obj):
        return read_frame_blocking(io.BytesIO(encode_frame(obj)))

    def test_roundtrip(self):
        frame = {"type": "job", "id": "j000001", "params": {"cases": 3}}
        assert self.roundtrip(frame) == frame

    def test_unicode_roundtrip(self):
        frame = {"type": "result", "error": "défaut → bug"}
        assert self.roundtrip(frame) == frame

    def test_two_frames_back_to_back(self):
        stream = io.BytesIO(
            encode_frame({"n": 1}) + encode_frame({"n": 2})
        )
        assert read_frame_blocking(stream) == {"n": 1}
        assert read_frame_blocking(stream) == {"n": 2}
        assert read_frame_blocking(stream) is None  # clean EOF

    def test_torn_prefix_is_eof(self):
        assert read_frame_blocking(io.BytesIO(b"0000")) is None

    def test_torn_body_is_eof(self):
        whole = encode_frame({"type": "result"})
        assert read_frame_blocking(io.BytesIO(whole[:-4])) is None

    def test_garbage_prefix_raises(self):
        with pytest.raises(FrameError):
            read_frame_blocking(io.BytesIO(b"not hex!" + b"{}"))

    def test_non_object_body_raises(self):
        body = b'"just a string"\n'
        stream = io.BytesIO(b"%08x" % len(body) + body)
        with pytest.raises(FrameError):
            read_frame_blocking(stream)

    def test_oversized_frame_refused_at_encode(self):
        with pytest.raises(FrameError):
            encode_frame({"blob": "x" * (17 * 1024 * 1024)})


# ---------------------------------------------------------------------------
# Lease table
# ---------------------------------------------------------------------------


class TestLeaseTable:
    def test_epochs_are_monotonic_per_job(self):
        leases = LeaseTable()
        assert leases.grant("j1").epoch == 1
        assert leases.grant("j1").epoch == 2
        assert leases.grant("j2").epoch == 1  # independent sequence

    def test_grant_fences_previous_epoch(self):
        leases = LeaseTable()
        old = leases.grant("j1")
        new = leases.grant("j1")
        assert not leases.is_current("j1", old.epoch)
        assert leases.is_current("j1", new.epoch)

    def test_revoke_fences_without_granting(self):
        leases = LeaseTable()
        lease = leases.grant("j1")
        leases.revoke("j1")
        assert not leases.is_current("j1", lease.epoch)
        assert leases.grant("j1").epoch == lease.epoch + 2

    def test_observe_fast_forwards_for_resume(self):
        leases = LeaseTable()
        leases.observe("j1", 7)
        assert leases.grant("j1").epoch == 8
        leases.observe("j1", 3)  # never rewinds
        assert leases.current("j1") == 8

    def test_forget_bounds_memory(self):
        leases = LeaseTable()
        leases.grant("j1")
        leases.forget("j1")
        assert leases.snapshot()["active_jobs"] == 0


# ---------------------------------------------------------------------------
# Shard planning
# ---------------------------------------------------------------------------


class TestShardPlanning:
    def test_shard_count_validates(self):
        assert shard_count({}) == 1
        assert shard_count({"_shards": 4}) == 4
        with pytest.raises(JobError):
            shard_count({"_shards": 0})
        with pytest.raises(JobError):
            shard_count({"_shards": "many"})

    def test_fuzz_plan_partitions_the_index_range(self):
        plans = plan_shards("fuzz", {"seed": 1, "cases": 10, "_shards": 3}, 3)
        assert [(p["start"], p["cases"]) for p in plans] == [
            (0, 4), (4, 3), (7, 3),
        ]
        assert all("_shards" not in p for p in plans)

    def test_fuzz_plan_respects_parent_start(self):
        plans = plan_shards("fuzz", {"cases": 4, "start": 10}, 2)
        assert [(p["start"], p["cases"]) for p in plans] == [(10, 2), (12, 2)]

    def test_more_shards_than_cases_collapses(self):
        plans = plan_shards("fuzz", {"cases": 2}, 8)
        assert len(plans) == 2

    def test_faults_plan_partitions_the_grid(self):
        params = {"bugs": ["D1", "D2"], "faults_per_bug": 2}
        plans = plan_shards("faults", params, 2)
        grids = [p["case_list"] for p in plans]
        assert grids == [
            [["D1", 0], ["D1", 1]],
            [["D2", 0], ["D2", 1]],
        ]

    def test_repair_plan_windows_the_budget(self):
        params = {"bug": "D1", "budget": 5, "stop_after": 0}
        plans = plan_shards("repair", params, 2)
        assert [p["candidate_range"] for p in plans] == [[0, 3], [3, 5]]

    def test_sharded_repair_requires_exhaustive_search(self):
        with pytest.raises(JobError):
            plan_shards("repair", {"bug": "D1", "stop_after": 3}, 2)

    def test_unshardable_kind_rejected(self):
        with pytest.raises(JobError):
            plan_shards("check", {}, 2)


# ---------------------------------------------------------------------------
# Merge determinism: sharded == unsharded, byte for byte
# ---------------------------------------------------------------------------


class TestShardMergeDeterminism:
    def merged(self, kind, params, shards):
        plans = plan_shards(kind, dict(params, _shards=shards), shards)
        payloads = [execute_job(kind, plan) for plan in plans]
        return merge_shards(kind, dict(params, _shards=shards), payloads)

    @pytest.mark.parametrize("shards", [2, 3])
    def test_fuzz_merge_is_byte_identical(self, shards):
        params = {"seed": 11, "cases": 6, "cycles": 16}
        direct = execute_job("fuzz", dict(params))
        assert canonical_json(self.merged("fuzz", params, shards)) == \
            canonical_json(direct)

    @pytest.mark.parametrize("shards", [2, 3])
    def test_faults_merge_is_byte_identical(self, shards):
        params = {"seed": 5, "bugs": ["D1", "D2"], "faults_per_bug": 2}
        direct = execute_job("faults", dict(params))
        assert canonical_json(self.merged("faults", params, shards)) == \
            canonical_json(direct)

    def test_repair_merge_is_byte_identical(self):
        params = {"bug": "D1", "budget": 4, "stop_after": 0}
        direct = execute_job("repair", dict(params))
        assert canonical_json(self.merged("repair", params, 2)) == \
            canonical_json(direct)


# ---------------------------------------------------------------------------
# FabricPool against real (in-thread) TCP workers
# ---------------------------------------------------------------------------


TINY = """
module tiny(input wire clk, input wire rst, output reg [3:0] q);
    always @(posedge clk) begin
        if (rst) q <= 0;
        else q <= q + 1;
    end
endmodule
"""


def start_worker_thread(port, token="", name="w", **kwargs):
    """An in-process TCP worker on a daemon thread.

    Off the main thread, ``SIGALRM`` limits are unavailable, so only
    run job kinds without per-case limits here (``check``); campaign
    kinds need the subprocess workers :func:`spawn_worker_proc` starts.
    """
    kwargs.setdefault("max_reconnects", 2)
    kwargs.setdefault("reconnect_delay", 0.1)
    kwargs.setdefault("log", lambda message: None)
    thread = threading.Thread(
        target=main_tcp, args=("127.0.0.1", port),
        kwargs=dict(kwargs, token=token, worker_id=name), daemon=True,
    )
    thread.start()
    return thread


def spawn_worker_proc(port, token="", name="w", max_reconnects=20):
    """A real ``python -m repro worker`` process (jobs on main thread)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    return subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro", "worker",
            "--connect", "127.0.0.1:%d" % port,
            "--token", token,
            "--name", name,
            "--max-reconnects", str(max_reconnects),
            "--reconnect-delay", "0.2",
        ],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
    )


def await_workers(pool, count, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pool.workers() >= count:
            return
        time.sleep(0.02)
    raise AssertionError("only %d workers joined" % pool.workers())


def make_check_job(job_id, marker=""):
    source = TINY.replace("tiny", "tiny%s" % marker) if marker else TINY
    return Job(id=job_id, kind="check",
               params={"source": source, "filename": "tiny.v"})


def make_fuzz_job(job_id, **params):
    params.setdefault("seed", 3)
    params.setdefault("cases", 2)
    params.setdefault("cycles", 16)
    return Job(id=job_id, kind="fuzz", params=params)


class TestFabricPool:
    def test_executes_jobs_across_tcp_workers(self):
        pool = FabricPool(port=0, token="s3cret", heartbeat_interval=0.2,
                          watchdog_seconds=30.0, retries=0)
        try:
            start_worker_thread(pool.port, token="s3cret", name="w1")
            start_worker_thread(pool.port, token="s3cret", name="w2")
            await_workers(pool, 2)
            jobs = [make_check_job("j%06d" % n, marker=str(n))
                    for n in (1, 2, 3)]
            for job in jobs:
                pool.submit(job)
            assert pool.drain(timeout=60.0)
            assert all(job.status == DONE for job in jobs)
            assert all(job.result["schema"] == "repro.diag/v1"
                       for job in jobs)
            assert all(job.lease_epoch == 1 for job in jobs)
            stats = pool.stats_snapshot()
            assert stats["executions"] == 3
            assert stats["workers_seen"] == 2
        finally:
            pool.close()

    def test_bad_token_rejected_at_handshake(self):
        pool = FabricPool(port=0, token="right")
        try:
            sock = socket.create_connection(("127.0.0.1", pool.port),
                                            timeout=5.0)
            reader = sock.makefile("rb")
            sock.sendall(encode_frame({
                "type": "hello", "proto": PROTO_VERSION,
                "token": "wrong", "worker": "evil",
            }))
            reject = read_frame_blocking(reader)
            assert reject["type"] == "reject"
            assert "token" in reject["error"]
            sock.close()
            assert pool.workers() == 0
            assert pool.stats_snapshot()["handshake_rejected"] == 1
        finally:
            pool.close()

    def test_protocol_version_mismatch_rejected(self):
        pool = FabricPool(port=0)
        try:
            sock = socket.create_connection(("127.0.0.1", pool.port),
                                            timeout=5.0)
            reader = sock.makefile("rb")
            sock.sendall(encode_frame({
                "type": "hello", "proto": PROTO_VERSION + 1, "worker": "new",
            }))
            reject = read_frame_blocking(reader)
            assert reject["type"] == "reject"
            assert "version" in reject["error"]
            sock.close()
        finally:
            pool.close()

    def test_worker_death_requeues_onto_survivor(self):
        pool = FabricPool(port=0, heartbeat_interval=0.2, retries=2,
                          backoff=0.02, jitter=0.0)
        try:
            # A scripted worker that accepts the job and drops dead.
            sock = socket.create_connection(("127.0.0.1", pool.port),
                                            timeout=5.0)
            reader = sock.makefile("rb")
            sock.sendall(encode_frame({
                "type": "hello", "proto": PROTO_VERSION, "worker": "doomed",
            }))
            assert read_frame_blocking(reader)["type"] == "welcome"
            job = make_check_job("j000001")
            pool.submit(job)
            dispatched = read_frame_blocking(reader)
            assert dispatched["type"] == "job"
            assert dispatched["epoch"] == 1
            # SIGKILL-equivalent: hard EOF with a job in flight. (Plain
            # close() would leave the fd alive behind the makefile.)
            sock.shutdown(socket.SHUT_RDWR)
            sock.close()
            start_worker_thread(pool.port, name="survivor")
            assert pool.drain(timeout=60.0)
            assert job.status == DONE
            assert job.attempts == 2
            # Disconnect fenced epoch 1 (revoke bumps to 2); the
            # survivor's fresh lease is 3.
            assert job.lease_epoch == 3
            stats = pool.stats_snapshot()
            assert stats["disconnect_requeues"] == 1
            assert stats["retries"] == 1
        finally:
            pool.close()


    def test_hung_job_on_tcp_worker_ends_timeout(self):
        """One deadline rule for every link: the server's watchdog cuts a
        TCP worker's hung attempt before the worker's own backstop."""
        pool = FabricPool(port=0, heartbeat_interval=0.2,
                          watchdog_seconds=0.5, retries=0)
        proc = spawn_worker_proc(pool.port, name="hung")
        try:
            await_workers(pool, 1)
            job = make_check_job("j000001")
            job.params["_chaos_hang"] = {"seconds": 30, "attempts": 99}
            pool.submit(job)
            assert pool.drain(timeout=30.0)
            assert job.status == TIMEOUT
            assert job.error == "watchdog kill after 0.5s"
            assert job.attempts == 1
            assert pool.stats_snapshot()["watchdog_kills"] == 1
        finally:
            pool.close()
            proc.kill()
            proc.wait(timeout=10.0)


# ---------------------------------------------------------------------------
# Lease fencing end to end: the partitioned-worker scenario
# ---------------------------------------------------------------------------


class ScriptedWorker:
    """A raw fabric connection under full test control."""

    def __init__(self, port, token="", name="scripted"):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=10.0)
        self.sock.settimeout(10.0)
        self.reader = self.sock.makefile("rb")
        self.send({"type": "hello", "proto": PROTO_VERSION,
                   "token": token, "worker": name})
        welcome = self.recv()
        assert welcome["type"] == "welcome", welcome

    def send(self, obj):
        self.sock.sendall(encode_frame(obj))

    def recv(self):
        return read_frame_blocking(self.reader)

    def heartbeat(self):
        self.send({"type": "heartbeat"})

    def result_for(self, job_frame, payload=None, epoch=None):
        self.send({
            "type": "result",
            "id": job_frame["id"],
            "ok": True,
            "payload": payload if payload is not None else {"who": "me"},
            "epoch": epoch if epoch is not None else job_frame["epoch"],
        })

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


def await_stat(pool, name, minimum, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pool.stats_snapshot().get(name, 0) >= minimum:
            return
        time.sleep(0.02)
    raise AssertionError(
        "stat %s stuck at %d" % (name, pool.stats_snapshot().get(name, 0))
    )


class TestLeaseFencing:
    def test_partitioned_workers_stale_result_is_fenced(self):
        """The headline robustness scenario: a worker misses its
        heartbeats, its job is requeued elsewhere, and then the
        "dead" worker (it was only partitioned) delivers its result
        anyway. The stale epoch must be rejected — dropped and counted,
        never double-applied over the legitimate result."""
        obs.reset()
        with obs.observed():
            pool = FabricPool(port=0, heartbeat_interval=0.1,
                              heartbeat_misses=2, retries=3,
                              backoff=0.02, jitter=0.0)
            try:
                slow = ScriptedWorker(pool.port, name="partitioned")
                job = make_fuzz_job("j000001")
                pool.submit(job)
                dispatch = slow.recv()
                assert dispatch["type"] == "job"
                assert dispatch["epoch"] == 1
                # The partition: no heartbeats. The monitor declares the
                # worker suspect and requeues the job with a fenced lease.
                await_stat(pool, "heartbeat_misses", 1)
                healthy = ScriptedWorker(pool.port, name="healthy")
                redispatch = healthy.recv()
                assert redispatch["type"] == "job"
                assert redispatch["id"] == job.id
                assert redispatch["epoch"] == 3  # fenced (2), regranted (3)
                healthy.result_for(redispatch, payload={"winner": "healthy"})
                await_stat(pool, "executions", 2)
                deadline = time.monotonic() + 10.0
                while job.status != DONE and time.monotonic() < deadline:
                    time.sleep(0.02)
                assert job.status == DONE
                assert job.result == {"winner": "healthy"}
                # The partition heals: the old owner's echo arrives late.
                slow.heartbeat()
                slow.result_for(dispatch, payload={"winner": "stale"})
                await_stat(pool, "stale_rejected", 1)
                assert job.result == {"winner": "healthy"}  # not clobbered
                assert job.lease_epoch == 3
                assert obs.counter("serve.lease.stale_rejected").value >= 1
                slow.close()
                healthy.close()
            finally:
                pool.close()

    def test_duplicate_result_frame_applies_once(self):
        pool = FabricPool(port=0, heartbeat_interval=0.5, retries=0)
        try:
            worker = ScriptedWorker(pool.port, name="echoey")
            job = make_fuzz_job("j000001")
            pool.submit(job)
            dispatch = worker.recv()
            worker.result_for(dispatch, payload={"n": 1})
            worker.result_for(dispatch, payload={"n": 1})  # duplicated frame
            assert pool.drain(timeout=10.0)
            assert job.status == DONE
            await_stat(pool, "stale_rejected", 1)
            worker.close()
        finally:
            pool.close()

    def test_dropped_result_frame_requeues_the_attempt(self):
        """A chaos-dropped result takes its link down; the disconnect
        must requeue the attempt, not strand the job."""
        pool = FabricPool(port=0, heartbeat_interval=0.5, retries=1,
                          backoff=0.01, jitter=0.0,
                          chaos=ChaosMonkey(ChaosConfig(drop_prob=1.0)))
        try:
            first = ScriptedWorker(pool.port, name="first")
            job = make_fuzz_job("j000001")
            pool.submit(job)
            dispatch = first.recv()
            first.result_for(dispatch)  # dropped, link cut
            second = ScriptedWorker(pool.port, name="second")
            redispatch = second.recv()
            assert redispatch["id"] == job.id
            assert redispatch["epoch"] == 3  # fenced (2), regranted (3)
            stats = pool.stats_snapshot()
            assert stats["chaos_drops"] == 1
            assert stats["disconnect_requeues"] == 1
            first.close()
            second.close()
        finally:
            pool.close()

    def test_straggler_kick_fences_the_loser(self):
        pool = FabricPool(port=0, heartbeat_interval=0.5, retries=0)
        try:
            slow = ScriptedWorker(pool.port, name="slow")
            job = make_fuzz_job("j000001")
            pool.submit(job)
            dispatch = slow.recv()
            assert dispatch["epoch"] == 1
            fast = ScriptedWorker(pool.port, name="fast")
            pool.kick(job)  # what the shard coordinator does to stragglers
            cancel = slow.recv()
            assert cancel["type"] == "cancel"
            redispatch = fast.recv()
            assert redispatch["id"] == job.id
            assert redispatch["epoch"] == 3  # revoked (2) then regranted (3)
            fast.result_for(redispatch, payload={"winner": "fast"})
            assert pool.drain(timeout=10.0)
            # The loser finishes anyway; its lease was fenced at kick.
            slow.result_for(dispatch, payload={"winner": "slow"})
            await_stat(pool, "stale_rejected", 1)
            assert job.result == {"winner": "fast"}
            assert pool.stats_snapshot()["straggler_redispatches"] == 1
            assert job.attempts == 2
            slow.close()
            fast.close()
        finally:
            pool.close()


# ---------------------------------------------------------------------------
# Sharded campaigns through the full server (in-process)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="class")
def fabric_server(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fabric")
    config = ServeConfig(
        port=0,
        workers=0,
        fabric_port=0,
        fabric_token="tok",
        heartbeat_interval=0.3,
        watchdog=30.0,
        retries=2,
        backoff=0.05,
        cache_dir=str(tmp / "cache"),
        journal_path=str(tmp / "journal.jsonl"),
        quota_rate=0.0,
    )
    server = ReproServer(config).start_background()
    procs = [
        spawn_worker_proc(server.pool.port, token="tok", name="w%d" % n)
        for n in (1, 2)
    ]
    await_workers(server.pool, 2)
    client = ServeClient("http://127.0.0.1:%d" % server.port,
                         client_id="fabric-tests")
    yield server, client
    server.shutdown()
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=10.0)


class TestShardedServer:
    def test_sharded_campaign_matches_direct_run(self, fabric_server):
        server, client = fabric_server
        params = {"seed": 21, "cases": 8, "cycles": 16}
        detail = client.run("fuzz", dict(params, _shards=2), timeout=120.0)
        assert detail["status"] == "done"
        direct = execute_job("fuzz", dict(params))
        assert canonical_json(detail["result"]) == canonical_json(direct)
        # Two children actually ran through the fabric.
        children = server.store.children_of(detail["id"])
        assert len(children) == 2
        assert all(child.status == DONE for child in children)

    def test_sharded_parent_shares_cache_with_unsharded(self, fabric_server):
        server, client = fabric_server
        params = {"seed": 22, "cases": 4, "cycles": 16}
        first = client.run("fuzz", dict(params, _shards=2), timeout=120.0)
        assert first["status"] == "done"
        again = client.run("fuzz", dict(params), timeout=120.0)
        assert again["cached"]
        assert again["result"] == first["result"]

    def test_final_report_hides_shard_children(self, fabric_server):
        server, client = fabric_server
        detail = client.run(
            "fuzz", {"seed": 23, "cases": 4, "_shards": 2}, timeout=120.0
        )
        assert detail["status"] == "done"
        report = server.store.final_report()
        ids = [entry["id"] for entry in report["jobs"]]
        assert detail["id"] in ids
        for child in server.store.children_of(detail["id"]):
            assert child.id not in ids

    def test_metrics_expose_fabric_state(self, fabric_server):
        server, client = fabric_server
        metrics = client.metrics()
        assert metrics["transport"] == "fabric"
        assert metrics["workers"] == 2
        assert metrics["fabric_port"] == server.pool.port
        assert "lease" in metrics


# ---------------------------------------------------------------------------
# Distributed chaos acceptance (real processes, real SIGKILL)
# ---------------------------------------------------------------------------


def boot_fabric_server(tmp, name, fabric=True, chaos=False):
    argv = [
        sys.executable, "-u", "-m", "repro", "serve",
        "--port", "0",
        "--watchdog", "30",
        "--retries", "8",
        "--backoff", "0.02",
        "--jitter", "0",
        "--quota-rate", "0",
        "--breaker-threshold", "0",
        "--cache-dir", os.path.join(tmp, name, "cache"),
        "--journal", os.path.join(tmp, name, "journal.jsonl"),
        "--report", os.path.join(tmp, name, "report.json"),
    ]
    if fabric:
        argv += [
            "--workers", "0",
            "--fabric-port", "0",
            "--fabric-token", "chaos",
            "--heartbeat-interval", "0.2",
            "--heartbeat-misses", "3",
        ]
    else:
        argv += ["--workers", "1"]
    if chaos:
        argv += [
            "--chaos-seed", "1337",
            "--chaos-drop-prob", "0.15",
            "--chaos-stall-prob", "0.1",
            "--chaos-stall-duration", "1.0",
            "--chaos-dup-prob", "0.2",
            "--chaos-delay-prob", "0.2",
        ]
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, env=env)
    http_port = fabric_port = None
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        if line.startswith("fabric listening on "):
            fabric_port = int(line.split(":")[1].split(" ")[0])
        if line.startswith("serving on http://"):
            http_port = int(line.split(":")[2].split(" ")[0])
            break
    assert http_port is not None, "server never announced its port"
    return proc, http_port, fabric_port


def boot_fabric_worker(fabric_port, name):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    return subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro", "worker",
            "--connect", "127.0.0.1:%d" % fabric_port,
            "--token", "chaos",
            "--name", name,
            "--max-reconnects", "20",
            "--reconnect-delay", "0.2",
        ],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
    )


def reap(proc):
    """Kill *proc* if it still runs, then wait for it and close its pipe."""
    with proc:
        if proc.poll() is None:
            proc.kill()


def stop_server(proc, timeout=60.0):
    proc.send_signal(signal.SIGTERM)
    out = proc.stdout.read()
    proc.wait(timeout=timeout)
    return out


class TestDistributedChaosAcceptance:
    CAMPAIGN = {"seed": 2024, "cases": 50, "cycles": 24}

    def test_sharded_campaign_under_chaos_matches_clean_run(self, tmp_path):
        tmp = str(tmp_path)

        # -- Reference: unsharded, chaos-free, subprocess pool. ----------
        proc_ref, port_ref, _ = boot_fabric_server(tmp, "ref", fabric=False)
        try:
            client = ServeClient("http://127.0.0.1:%d" % port_ref,
                                 client_id="chaos", max_retries=3)
            detail = client.run("fuzz", dict(self.CAMPAIGN), timeout=300.0)
            assert detail["status"] == "done"
            out = stop_server(proc_ref)
            assert proc_ref.returncode == 0, out
        finally:
            reap(proc_ref)
        report_ref = os.path.join(tmp, "ref", "report.json")

        # -- The gauntlet: 4-way sharded over 3 TCP workers, all four ----
        # chaos kinds armed, and one worker SIGKILLed mid-campaign.
        proc, port, fabric_port = boot_fabric_server(
            tmp, "chaos", fabric=True, chaos=True
        )
        workers = []
        try:
            workers = [boot_fabric_worker(fabric_port, "w%d" % n)
                       for n in range(3)]
            client = ServeClient("http://127.0.0.1:%d" % port,
                                 client_id="chaos", max_retries=3)
            client.wait_ready(timeout=10.0)
            summary = client.submit(
                "fuzz", dict(self.CAMPAIGN, _shards=4)
            )
            time.sleep(1.0)  # let shards land on workers first
            workers[0].kill()  # SIGKILL one worker mid-run
            detail = client.wait(summary["id"], timeout=300.0)
            assert detail["status"] == "done", detail["error"]
            out = stop_server(proc)
            assert proc.returncode == 0, out
            assert "drained cleanly" in out
        finally:
            for child in [proc] + workers:
                reap(child)
        report_chaos = os.path.join(tmp, "chaos", "report.json")

        # -- The payoff: byte-identical reports, exactly-once work. ------
        with open(report_ref, "rb") as handle:
            bytes_ref = handle.read()
        with open(report_chaos, "rb") as handle:
            bytes_chaos = handle.read()
        assert bytes_ref == bytes_chaos
        report = json.loads(bytes_chaos)
        assert report["counts"] == {"done": 1}
        assert report["jobs"][0]["result_sha256"] is not None
        # Every case ran exactly once into the merged result: the
        # journal's terminal child payloads cover the full index range
        # with no overlap.
        journal = os.path.join(tmp, "chaos", "journal.jsonl")
        spans = []
        with open(journal) as handle:
            for line in handle:
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if record.get("event") == "submit" and record.get("shard"):
                    params = record["params"]
                    spans.append(range(params["start"],
                                       params["start"] + params["cases"]))
        covered = sorted(index for span in spans for index in span)
        assert covered == list(range(50))
