"""Tests for the fault-tolerant job server (repro.serve).

Covers the robustness pieces in isolation (cache, quota, breaker,
chaos monkey, store), the worker transport against real local worker
children, the HTTP API end to end against an in-process
server, and the chaos acceptance scenario from the issue: a 50-job
campaign under worker SIGKILLs, injected hangs, corrupted cache
entries, and a truncated journal, killed halfway and resumed, must
complete every job exactly once with a final report byte-identical to
an uninterrupted run's.
"""

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import obs
from repro.serve import (
    ArtifactCache,
    ChaosConfig,
    ChaosMonkey,
    CircuitBreaker,
    FabricPool,
    Job,
    JobError,
    JobStore,
    LeaseTable,
    ReproServer,
    ServeClient,
    ServeClientError,
    ServeConfig,
    TokenBucketQuota,
    job_cache_key,
    payload_digest,
)
from repro.serve.client import RETRYABLE_ERRORS
from repro.serve.jobs import CRASHED, DONE, QUARANTINED, TIMEOUT

TINY = """
module tiny(input wire clk, input wire rst, output reg [3:0] q);
    always @(posedge clk) begin
        if (rst) q <= 0;
        else q <= q + 1;
    end
endmodule
"""

TINY_LATCH = TINY.replace("else q <= q + 1;", "")


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def check_params(source=TINY, **extra):
    params = {"source": source, "filename": "tiny.v"}
    params.update(extra)
    return params


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ---------------------------------------------------------------------------
# Cache keys
# ---------------------------------------------------------------------------


class TestJobCacheKey:
    def test_stable_across_calls(self):
        params = check_params()
        assert job_cache_key("check", params) == job_cache_key(
            "check", dict(params)
        )

    def test_source_text_changes_key(self):
        assert job_cache_key("check", check_params()) != job_cache_key(
            "check", check_params(source=TINY_LATCH)
        )

    def test_semantic_params_change_key(self):
        assert job_cache_key("check", check_params()) != job_cache_key(
            "check", check_params(strict=True)
        )

    def test_chaos_knobs_excluded(self):
        noisy = check_params(
            _chaos_hang={"seconds": 5, "attempts": 1},
            _chaos_exit={"attempts": 1},
        )
        assert job_cache_key("check", noisy) == job_cache_key(
            "check", check_params()
        )

    def test_testbed_bug_resolves_to_design_text(self):
        key = job_cache_key("profile", {"bug": "D2"})
        assert key == job_cache_key("profile", {"bug": "D2"})
        assert key != job_cache_key("profile", {"bug": "D3"})

    def test_unknown_kind_raises(self):
        with pytest.raises(JobError):
            job_cache_key("transmogrify", {})


# ---------------------------------------------------------------------------
# Artifact cache
# ---------------------------------------------------------------------------


class TestArtifactCache:
    def test_roundtrip_and_stats(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "cache"))
        assert cache.get("k1") is None
        cache.put("k1", {"answer": 42})
        assert cache.get("k1") == {"answer": 42}
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1
        assert stats["hit_rate"] == 0.5

    def test_persists_across_instances(self, tmp_path):
        directory = str(tmp_path / "cache")
        ArtifactCache(directory).put("k1", ["a", "b"])
        assert ArtifactCache(directory).get("k1") == ["a", "b"]

    def test_corrupt_entry_is_miss_then_recomputable(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "cache"))
        cache.put("k1", {"answer": 42})
        cache.corrupt_entry("k1")
        assert cache.get("k1") is None  # verified read rejects it
        assert cache.corrupt == 1
        assert "k1" not in cache  # damaged entry deleted
        cache.put("k1", {"answer": 42})  # recompute path
        assert cache.get("k1") == {"answer": 42}

    def test_garbage_file_is_miss_not_crash(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "cache"))
        with open(os.path.join(cache.directory, "k9.json"), "w") as handle:
            handle.write("{not json at all")
        assert cache.get("k9") is None
        assert cache.corrupt == 1

    def test_lru_eviction_under_size_pressure(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "cache"), max_bytes=600)
        filler = "x" * 150
        cache.put("old", {"data": filler})
        time.sleep(0.02)
        cache.put("mid", {"data": filler})
        time.sleep(0.02)
        cache.get("old")  # bump recency: "mid" is now the LRU entry
        time.sleep(0.02)
        cache.put("new", {"data": filler})
        assert cache.total_bytes() <= 600
        assert cache.evictions >= 1
        assert "new" in cache  # the fresh insert always survives
        assert "old" in cache  # recently used survives
        assert "mid" not in cache  # LRU entry paid the price

    def test_eviction_order_survives_identical_mtimes(self, tmp_path):
        """The regression the explicit access index exists for: on a
        fast filesystem consecutive accesses land in the same mtime
        granule, so mtime-ranked eviction was tie-dependent. Recency
        must come from the access counter, never the filesystem."""
        cache = ArtifactCache(str(tmp_path / "cache"), max_bytes=600)
        filler = "x" * 150
        cache.put("old", {"data": filler})
        cache.put("mid", {"data": filler})
        cache.get("old")  # bump recency: "mid" is now the LRU entry
        stamp = time.time()  # collapse every mtime to one instant
        for name in os.listdir(cache.directory):
            os.utime(os.path.join(cache.directory, name), (stamp, stamp))
        cache.put("new", {"data": filler})
        assert "old" in cache
        assert "mid" not in cache

    def test_access_order_survives_restart(self, tmp_path):
        directory = str(tmp_path / "cache")
        warm = ArtifactCache(directory, max_bytes=600)
        filler = "x" * 150
        warm.put("old", {"data": filler})
        warm.put("mid", {"data": filler})
        warm.get("old")
        # A crash-restart: a fresh instance must inherit the warmth.
        cache = ArtifactCache(directory, max_bytes=600)
        cache.put("new", {"data": filler})
        assert "old" in cache
        assert "mid" not in cache

    def test_corrupt_index_degrades_to_cold_start(self, tmp_path):
        directory = str(tmp_path / "cache")
        cache = ArtifactCache(directory)
        cache.put("k1", {"answer": 42})
        with open(os.path.join(directory, "lru-index"), "w") as handle:
            handle.write("{torn mid-write")
        fresh = ArtifactCache(directory)
        assert fresh.get("k1") == {"answer": 42}  # entries unaffected
        fresh.put("k2", {"answer": 43})  # and the index rebuilds
        assert fresh.get("k2") == {"answer": 43}


# ---------------------------------------------------------------------------
# Quotas
# ---------------------------------------------------------------------------


class TestTokenBucketQuota:
    def test_burst_then_deny_with_retry_after(self):
        clock = FakeClock()
        quota = TokenBucketQuota(rate=1.0, burst=2.0, clock=clock)
        assert quota.admit("alice") == (True, 0.0)
        assert quota.admit("alice") == (True, 0.0)
        allowed, retry_after = quota.admit("alice")
        assert not allowed
        assert retry_after == pytest.approx(1.0, abs=0.01)
        assert quota.denied == 1

    def test_refill_restores_admission(self):
        clock = FakeClock()
        quota = TokenBucketQuota(rate=2.0, burst=1.0, clock=clock)
        assert quota.admit("alice")[0]
        assert not quota.admit("alice")[0]
        clock.advance(0.6)  # 1.2 tokens accrue
        assert quota.admit("alice")[0]

    def test_clients_are_independent(self):
        clock = FakeClock()
        quota = TokenBucketQuota(rate=1.0, burst=1.0, clock=clock)
        assert quota.admit("alice")[0]
        assert not quota.admit("alice")[0]
        assert quota.admit("bob")[0]

    def test_zero_rate_disables(self):
        quota = TokenBucketQuota(rate=0.0, burst=0.0)
        for _ in range(100):
            assert quota.admit("anyone") == (True, 0.0)


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, cooldown=30.0, clock=clock)
        for _ in range(2):
            breaker.record_failure("repair")
        assert breaker.allow("repair")
        assert breaker.state("repair") == "closed"
        breaker.record_failure("repair")
        assert breaker.state("repair") == "open"
        assert not breaker.allow("repair")
        assert breaker.allow("check")  # other kinds unaffected

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2, cooldown=30.0)
        breaker.record_failure("fuzz")
        breaker.record_success("fuzz")
        breaker.record_failure("fuzz")
        assert breaker.state("fuzz") == "closed"

    def test_half_open_admits_single_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=10.0, clock=clock)
        breaker.record_failure("repair")
        assert not breaker.allow("repair")
        clock.advance(10.1)
        assert breaker.state("repair") == "half-open"
        assert breaker.allow("repair")  # the probe
        assert not breaker.allow("repair")  # only one at a time

    def test_probe_success_closes_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=10.0, clock=clock)
        breaker.record_failure("repair")
        clock.advance(10.1)
        assert breaker.allow("repair")
        breaker.record_failure("repair")  # probe failed
        assert breaker.state("repair") == "open"
        clock.advance(10.1)
        assert breaker.allow("repair")
        breaker.record_success("repair")  # probe succeeded
        assert breaker.state("repair") == "closed"
        assert breaker.allow("repair")

    def test_zero_threshold_disables(self):
        breaker = CircuitBreaker(threshold=0)
        for _ in range(50):
            breaker.record_failure("check")
        assert breaker.allow("check")
        assert breaker.state("check") == "closed"

    def test_concurrent_half_open_probes_admit_exactly_one(self):
        """The half-open race: many submissions hit a cooled-down
        breaker at once; exactly one may probe, the rest stay blocked
        until the probe's verdict is in."""
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=10.0, clock=clock)
        breaker.record_failure("repair")
        clock.advance(10.1)
        admitted = []
        barrier = threading.Barrier(8)

        def probe():
            barrier.wait()
            if breaker.allow("repair"):
                admitted.append(threading.current_thread().name)

        threads = [threading.Thread(target=probe) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(admitted) == 1

    def test_transition_counters_track_the_state_machine(self):
        obs.reset()
        try:
            with obs.observed():
                clock = FakeClock()
                breaker = CircuitBreaker(threshold=1, cooldown=10.0,
                                         clock=clock)
                breaker.record_failure("repair")  # closed -> open
                assert obs.counter("serve.breaker.opened").value == 1
                clock.advance(10.1)
                assert breaker.allow("repair")  # open -> half-open probe
                assert obs.counter("serve.breaker.half_open").value == 1
                breaker.record_failure("repair")  # probe fails: reopen
                assert obs.counter("serve.breaker.reopened").value == 1
                assert obs.counter("serve.breaker.opened").value == 2
                clock.advance(10.1)
                assert breaker.allow("repair")
                breaker.record_success("repair")  # probe passes: close
                assert obs.counter("serve.breaker.closed").value == 1
        finally:
            obs.reset()
            obs.enabled = False


# ---------------------------------------------------------------------------
# Chaos monkey
# ---------------------------------------------------------------------------


class TestChaosMonkey:
    def test_inactive_never_kills(self):
        monkey = ChaosMonkey(ChaosConfig(kill_prob=0.0))
        assert monkey.kill_after("j000001", 1) is None

    def test_decisions_are_deterministic(self):
        config = ChaosConfig(seed=7, kill_prob=0.5, kill_delay=0.1)
        first = [ChaosMonkey(config).kill_after("j%06d" % n, 1)
                 for n in range(1, 30)]
        second = [ChaosMonkey(config).kill_after("j%06d" % n, 1)
                  for n in range(1, 30)]
        assert first == second
        assert any(delay is not None for delay in first)
        assert any(delay is None for delay in first)

    def test_decisions_vary_by_attempt_and_seed(self):
        config = ChaosConfig(seed=7, kill_prob=0.5)
        monkey = ChaosMonkey(config)
        by_attempt = {
            (n, attempt): monkey.kill_after("j%06d" % n, attempt) is not None
            for n in range(1, 30) for attempt in (1, 2)
        }
        assert len(set(by_attempt.values())) == 2  # both outcomes occur
        other = ChaosMonkey(ChaosConfig(seed=8, kill_prob=0.5))
        assert any(
            (monkey.kill_after("j%06d" % n, 1) is None)
            != (other.kill_after("j%06d" % n, 1) is None)
            for n in range(1, 30)
        )


# ---------------------------------------------------------------------------
# Job store
# ---------------------------------------------------------------------------


class TestJobStore:
    def test_resume_returns_only_incomplete_jobs(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        store = JobStore(journal_path=path)
        done_job = store.create("check", check_params(), "anon", "key1")
        done_job.status = DONE
        done_job.result = {"schema": "x"}
        store.record_done(done_job)
        store.create("fuzz", {"seed": 3}, "anon", "key2")
        store.close()

        fresh = JobStore(journal_path=path)
        incomplete = fresh.resume()
        assert [job.id for job in incomplete] == ["j000002"]
        assert incomplete[0].attempts == 0
        restored = fresh.get("j000001")
        assert restored.status == DONE
        assert restored.result == {"schema": "x"}
        # Sequence continues after the highest replayed id.
        assert fresh.create("check", {}, "anon", "k").id == "j000003"
        fresh.close()

    def test_resume_survives_truncated_journal(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        store = JobStore(journal_path=path)
        store.create("fuzz", {"seed": 1}, "anon", "key1")
        store.close()
        with open(path, "a") as handle:
            handle.write('{"event": "done", "id": "j0000')  # torn write
        fresh = JobStore(journal_path=path)
        assert [job.id for job in fresh.resume()] == ["j000001"]
        fresh.close()

    def test_final_report_excludes_runtime_variant_fields(self, tmp_path):
        store = JobStore(journal_path=None)
        job = store.create("check", check_params(), "anon", "key1")
        job.status = DONE
        job.result = {"answer": 42}
        job.attempts = 3
        job.cached = True
        report = store.final_report()
        assert report["schema"] == "repro.serve/v1"
        (entry,) = report["jobs"]
        assert entry["result_sha256"] == payload_digest({"answer": 42})
        assert "attempts" not in entry
        assert "cached" not in entry
        assert report["counts"] == {"done": 1}

    def test_write_final_report_is_deterministic(self, tmp_path):
        store = JobStore(journal_path=None)
        job = store.create("fuzz", {"seed": 1}, "anon", "key1")
        job.status = DONE
        job.result = {"cases": 3}
        first = str(tmp_path / "a.json")
        second = str(tmp_path / "b.json")
        store.write_final_report(first)
        store.write_final_report(second)
        assert read_bytes(first) == read_bytes(second)

    def test_resume_applies_first_done_and_counts_duplicates(
        self, tmp_path
    ):
        """The crash-window double-``done``: finalized, journaled,
        killed before the in-memory flag landed, then finalized again
        after resume. The first record must win, the duplicate must be
        visible on the duplicate counter, and the replayed epoch must
        reseed both fencing and the first-application registry."""
        path = str(tmp_path / "journal.jsonl")
        store = JobStore(journal_path=path)
        job = store.create("check", check_params(), "anon", "key1")
        job.status = DONE
        job.result = {"winner": "first"}
        job.lease_epoch = 2
        store.record_done(job)
        job.result = {"winner": "second"}
        store.record_done(job)  # the duplicate the crash window writes
        store.close()

        obs.reset()
        try:
            with obs.observed():
                fresh = JobStore(journal_path=path)
                leases = LeaseTable()
                assert fresh.resume(leases=leases) == []
                duplicates = obs.counter(
                    "runtime.journal.duplicate"
                ).value
        finally:
            obs.reset()
            obs.enabled = False
        assert duplicates == 1
        restored = fresh.get("j000001")
        assert restored.status == DONE
        assert restored.result == {"winner": "first"}
        assert restored.lease_epoch == 2
        # Fencing state survives the restart: the journaled epoch can
        # never be re-issued, and its result can never re-apply.
        assert leases.current("j000001") == 2
        assert not fresh.mark_applied("j000001", 2)
        fresh.close()


# ---------------------------------------------------------------------------
# Worker transport with local links (real worker children on pipes)
# ---------------------------------------------------------------------------


def make_job(job_id, kind="check", params=None):
    return Job(id=job_id, kind=kind,
               params=params if params is not None else check_params())


class TestWorkerPool:
    """FabricPool with ``workers=N`` and no listener: local children."""

    def test_executes_job_to_done(self):
        pool = FabricPool(workers=1, watchdog_seconds=30.0, retries=0)
        try:
            job = make_job("j000001")
            pool.submit(job)
            assert pool.drain(timeout=60.0)
            assert job.status == DONE
            assert job.result["schema"] == "repro.diag/v1"
            assert job.attempts == 1
        finally:
            pool.close()

    def test_deterministic_failure_is_final_without_retry(self):
        pool = FabricPool(workers=1, watchdog_seconds=30.0, retries=3)
        try:
            job = make_job("j000001", kind="profile",
                           params={"bug": "no-such-bug"})
            pool.submit(job)
            assert pool.drain(timeout=60.0)
            assert job.status == "failed"
            assert job.attempts == 1  # KeyError is not transient
        finally:
            pool.close()

    def test_hung_job_killed_by_watchdog_then_retry_succeeds(self):
        pool = FabricPool(workers=1, watchdog_seconds=0.5, retries=2,
                          backoff=0.05, jitter=0.0)
        try:
            job = make_job("j000001", params=check_params(
                _chaos_hang={"seconds": 30, "attempts": 1}))
            pool.submit(job)
            assert pool.drain(timeout=60.0)
            assert job.status == DONE  # hang was transient
            assert job.attempts == 2
            stats = pool.stats_snapshot()
            assert stats["watchdog_kills"] == 1
            assert stats["retries"] == 1
            assert stats["worker_restarts"] == 1
        finally:
            pool.close()

    def test_worker_dead_before_ready_requeued_without_watchdog(
            self, monkeypatch):
        import types

        import repro.serve.fabric as fabric_module

        false = shutil.which("false")
        if false is None:
            pytest.skip("no `false` executable")
        # Every spawned "worker" exits before sending its hello.
        monkeypatch.setattr(fabric_module, "sys",
                            types.SimpleNamespace(executable=false))
        pool = FabricPool(workers=1, watchdog_seconds=30.0, retries=1,
                          backoff=0.01, jitter=0.0)
        try:
            job = make_job("j000001")
            pool.submit(job)
            assert pool.drain(timeout=30.0)
            assert job.status == CRASHED
            assert job.error == "worker died"
            assert job.attempts == 2  # initial + 1 retry
            stats = pool.stats_snapshot()
            assert stats["watchdog_kills"] == 0
            assert stats["worker_restarts"] == 1
            # No busy respawn loop: with no work waiting, the broken
            # worker is not started again.
            time.sleep(0.3)
            assert pool.stats_snapshot()["worker_restarts"] == 1
        finally:
            pool.close()

    def test_permanent_hang_times_out_after_retries(self):
        pool = FabricPool(workers=1, watchdog_seconds=0.3, retries=1,
                          backoff=0.05, jitter=0.0)
        try:
            job = make_job("j000001", params=check_params(
                _chaos_hang={"seconds": 30, "attempts": 99}))
            pool.submit(job)
            assert pool.drain(timeout=60.0)
            assert job.status == TIMEOUT
            assert job.error == "watchdog kill after 0.3s"
            assert job.attempts == 2  # initial + 1 retry
        finally:
            pool.close()

    def test_worker_crash_requeued_then_succeeds(self):
        pool = FabricPool(workers=1, watchdog_seconds=30.0, retries=2,
                          backoff=0.05, jitter=0.0)
        try:
            job = make_job("j000001", params=check_params(
                _chaos_exit={"attempts": 1}))
            pool.submit(job)
            assert pool.drain(timeout=60.0)
            assert job.status == DONE
            assert job.attempts == 2
        finally:
            pool.close()

    def test_persistent_crash_finalizes_crashed(self):
        pool = FabricPool(workers=1, watchdog_seconds=30.0, retries=1,
                          backoff=0.05, jitter=0.0)
        try:
            job = make_job("j000001", params=check_params(
                _chaos_exit={"attempts": 99}))
            pool.submit(job)
            assert pool.drain(timeout=60.0)
            assert job.status == CRASHED
            assert job.error == "worker died"
        finally:
            pool.close()

    def test_breaker_quarantines_sick_kind(self):
        breaker = CircuitBreaker(threshold=1, cooldown=300.0)
        pool = FabricPool(workers=1, watchdog_seconds=30.0, retries=0,
                          backoff=0.05, breaker=breaker)
        try:
            crasher = make_job("j000001", params=check_params(
                _chaos_exit={"attempts": 99}))
            pool.submit(crasher)
            assert pool.drain(timeout=60.0)
            assert crasher.status == CRASHED
            quarantined = make_job("j000002")
            pool.submit(quarantined)
            assert pool.drain(timeout=10.0)
            assert quarantined.status == QUARANTINED
            assert "circuit breaker" in quarantined.error
            assert quarantined.attempts == 0  # never reached a worker
        finally:
            pool.close()


    def test_worker_main_serves_one_job_over_pipes_and_returns_on_eof(
            self):
        from repro.serve.fabric import (
            PROTO_VERSION,
            encode_frame,
            read_frame_blocking,
        )
        from repro.serve.worker import main

        down_r, down_w = os.pipe()  # server -> worker
        up_r, up_w = os.pipe()  # worker -> server
        worker_in, worker_out = os.fdopen(down_r, "rb"), os.fdopen(up_w, "wb")
        server_in, server_out = os.fdopen(up_r, "rb"), os.fdopen(down_w, "wb")
        codes = []
        thread = threading.Thread(
            target=lambda: codes.append(main(worker_in, worker_out)),
            daemon=True,
        )
        thread.start()

        def send(obj):
            server_out.write(encode_frame(obj))
            server_out.flush()

        try:
            hello = read_frame_blocking(server_in)
            assert hello["type"] == "hello"
            assert hello["proto"] == PROTO_VERSION
            # A long heartbeat keeps the pipe to the job's result frame.
            send({"type": "welcome", "proto": PROTO_VERSION,
                  "heartbeat": 60.0, "watchdog": 30.0})
            send({"type": "job", "id": "j000001", "kind": "check",
                  "params": check_params(), "attempt": 1, "epoch": 4,
                  "deadline": 30.0})
            result = read_frame_blocking(server_in)
            assert result["type"] == "result"
            assert result["id"] == "j000001"
            assert result["ok"] is True
            assert result["epoch"] == 4
            assert result["payload"]["schema"] == "repro.diag/v1"
            server_out.close()  # EOF: the server went away
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            assert codes == [0]
        finally:
            for stream in (worker_in, server_out, server_in, worker_out):
                try:
                    stream.close()
                except OSError:
                    pass

    def test_server_without_fabric_port_opens_no_tcp_listener(
            self, tmp_path):
        if not os.path.exists("/proc/self/net/tcp"):
            pytest.skip("needs Linux /proc")
        before = listening_tcp_ports()
        config = ServeConfig(
            port=0, workers=1, watchdog=30.0, retries=0,
            cache_dir=str(tmp_path / "cache"),
            journal_path=str(tmp_path / "journal.jsonl"), quota_rate=0.0,
        )
        server = ReproServer(config).start_background()
        try:
            client = ServeClient("http://127.0.0.1:%d" % server.port)
            detail = client.run("check", check_params(), timeout=60.0)
            assert detail["status"] == DONE  # a local child served it
            assert listening_tcp_ports() - before == {server.port}
            metrics = client.metrics()
            assert metrics["transport"] == "local"
            assert metrics["fabric_port"] is None
        finally:
            server.shutdown()


def listening_tcp_ports():
    """TCP ports this process listens on (Linux ``/proc``)."""
    inodes = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink("/proc/self/fd/%s" % fd)
        except OSError:
            continue
        if target.startswith("socket:["):
            inodes.add(target[len("socket:["):-1])
    ports = set()
    for table in ("/proc/self/net/tcp", "/proc/self/net/tcp6"):
        try:
            with open(table) as handle:
                rows = handle.read().splitlines()[1:]
        except OSError:
            continue
        for row in rows:
            fields = row.split()
            if fields[3] == "0A" and fields[9] in inodes:  # 0A: LISTEN
                ports.add(int(fields[1].rsplit(":", 1)[1], 16))
    return ports


# ---------------------------------------------------------------------------
# HTTP server end to end (in-process)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="class")
def live_server(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve")
    config = ServeConfig(
        port=0,
        workers=2,
        watchdog=30.0,
        retries=1,
        backoff=0.05,
        cache_dir=str(tmp / "cache"),
        journal_path=str(tmp / "journal.jsonl"),
        report_path=str(tmp / "report.json"),
        quota_rate=500.0,
        quota_burst=500.0,
    )
    server = ReproServer(config).start_background()
    client = ServeClient("http://127.0.0.1:%d" % server.port,
                         client_id="tests")
    yield server, client
    server.shutdown()


class TestServerEndToEnd:
    def test_health_and_info(self, live_server):
        _, client = live_server
        assert client.health() == {"status": "ok"}
        info = client.info()
        assert info["schema"] == "repro.serve/v1"
        assert "check" in info["kinds"]

    def test_submit_wait_then_cached_resubmit(self, live_server):
        server, client = live_server
        params = check_params()
        first = client.run("check", params, timeout=60.0)
        assert first["status"] == "done"
        assert not first["cached"]
        assert first["result"]["schema"] == "repro.diag/v1"
        second = client.run("check", params, timeout=60.0)
        assert second["status"] == "done"
        assert second["cached"]
        assert second["result"] == first["result"]
        assert server.cache.hits >= 1

    def test_cache_corruption_degrades_to_recompute(self, live_server):
        server, client = live_server
        params = check_params(source=TINY_LATCH)
        first = client.run("check", params, timeout=60.0)
        assert first["status"] == "done"
        server.cache.corrupt_entry(first["cache_key"])
        again = client.run("check", params, timeout=60.0)
        assert again["status"] == "done"
        assert not again["cached"]  # verified read refused the entry
        assert again["result"] == first["result"]
        assert server.cache.corrupt >= 1

    def test_unknown_kind_is_400(self, live_server):
        _, client = live_server
        with pytest.raises(ServeClientError) as excinfo:
            client.submit("transmogrify", {})
        assert excinfo.value.status == 400

    def test_bad_params_is_400(self, live_server):
        _, client = live_server
        with pytest.raises(ServeClientError) as excinfo:
            client.submit("profile", {"bug": "no-such-bug"})
        assert excinfo.value.status == 400

    def test_unknown_job_is_404(self, live_server):
        _, client = live_server
        with pytest.raises(ServeClientError) as excinfo:
            client.job("j999999")
        assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, live_server):
        _, client = live_server
        with pytest.raises(ServeClientError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_quota_denial_is_structured_429(self, live_server):
        server, client = live_server
        server.quota.rate = 0.001
        server.quota.burst = 1.0
        try:
            greedy = ServeClient("http://127.0.0.1:%d" % server.port,
                                 client_id="greedy")
            greedy.submit("fuzz", {"cases": 1, "seed": 1})
            with pytest.raises(ServeClientError) as excinfo:
                greedy.submit("fuzz", {"cases": 1, "seed": 2})
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after > 0
        finally:
            server.quota.rate = 500.0
            server.quota.burst = 500.0

    def test_metrics_document(self, live_server):
        _, client = live_server
        client.run("fuzz", {"cases": 2, "seed": 5}, timeout=60.0)
        metrics = client.metrics()
        assert metrics["schema"] == "repro.serve-metrics/v1"
        assert metrics["jobs"]["done"] >= 1
        assert metrics["cache"]["hits"] >= 1
        assert metrics["pool"]["executions"] >= 1
        assert metrics["latency_ms"]["count"] >= 1
        assert metrics["latency_ms"]["p99"] >= metrics["latency_ms"]["p50"]
        names = {entry["name"] for entry in metrics["obs"]}
        assert "serve.jobs.done" in names

    def test_jobs_listing(self, live_server):
        _, client = live_server
        listed = client.jobs()
        assert listed
        assert all("result" not in summary for summary in listed)


# ---------------------------------------------------------------------------
# Client reconnects (flapping fake server)
# ---------------------------------------------------------------------------


class FlappingServer:
    """A TCP listener that resets the first *flaps* requests mid-poll,
    then answers like a healthy serve instance."""

    def __init__(self, flaps, body=b'{"status": "ok"}'):
        self.flaps = flaps
        self.body = body
        self.accepted = 0
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(16)
        self.port = self.sock.getsockname()[1]
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            self.accepted += 1
            try:
                conn.recv(65536)
                if self.accepted <= self.flaps:
                    # Connection reset with the request in flight.
                    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                    b"\x01\x00\x00\x00\x00\x00\x00\x00")
                    conn.close()
                    continue
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n"
                    % len(self.body) + self.body
                )
                conn.close()
            except OSError:
                pass

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


class TestClientReconnect:
    def test_get_reconnects_with_backoff_through_flaps(self):
        server = FlappingServer(flaps=2)
        try:
            client = ServeClient("http://127.0.0.1:%d" % server.port,
                                 max_retries=3, retry_backoff=0.01)
            assert client.health() == {"status": "ok"}
            assert client.reconnects == 2
        finally:
            server.close()

    def test_retry_budget_exhausted_reraises(self):
        server = FlappingServer(flaps=99)
        try:
            client = ServeClient("http://127.0.0.1:%d" % server.port,
                                 max_retries=2, retry_backoff=0.01)
            with pytest.raises(RETRYABLE_ERRORS):
                client.health()
            assert client.reconnects == 2  # budget fully spent
        finally:
            server.close()

    def test_default_client_fails_fast(self):
        server = FlappingServer(flaps=99)
        try:
            client = ServeClient("http://127.0.0.1:%d" % server.port)
            with pytest.raises(RETRYABLE_ERRORS):
                client.health()
            assert client.reconnects == 0
        finally:
            server.close()

    def test_post_never_retries(self):
        """A retried POST /jobs could enqueue the campaign twice; only
        idempotent GETs get the reconnect budget."""
        server = FlappingServer(flaps=99)
        try:
            client = ServeClient("http://127.0.0.1:%d" % server.port,
                                 max_retries=5, retry_backoff=0.01)
            with pytest.raises(RETRYABLE_ERRORS):
                client.submit("check", {})
            assert client.reconnects == 0
            assert server.accepted == 1  # one attempt, no replays
        finally:
            server.close()


# ---------------------------------------------------------------------------
# Chaos acceptance: kill workers, hang jobs, corrupt the cache, truncate
# the journal, SIGKILL the server halfway — and still converge.
# ---------------------------------------------------------------------------


def serve_command(tmp, name, resume=False, report="report.json"):
    argv = [
        sys.executable, "-u", "-m", "repro", "serve",
        "--port", "0",
        "--workers", "3",
        # Generous enough that a legitimate fuzz job beats it even on a
        # loaded single-core box (the 30s injected hangs still trip it),
        # tight enough that the test doesn't crawl.
        "--watchdog", "2.5",
        "--retries", "5",
        "--backoff", "0.02",
        "--jitter", "0",
        "--quota-rate", "0",
        "--breaker-threshold", "0",
        "--cache-dir", os.path.join(tmp, name, "cache"),
        "--journal", os.path.join(tmp, name, "journal.jsonl"),
        "--report", os.path.join(tmp, name, report),
        "--chaos-seed", "42",
        "--chaos-kill-prob", "0.25",
        "--chaos-kill-delay", "0.02",
    ]
    if resume:
        argv.append("--resume")
    return argv


def boot_server(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, env=env)
    port = None
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        if line.startswith("serving on http://"):
            port = int(line.split(":")[2].split(" ")[0])
            break
    assert port is not None, "server never announced its port"
    return proc, port


def chaos_campaign():
    """50 mixed jobs: checks, fuzz runs, injected hangs, injected crashes."""
    jobs = []
    for index in range(36):
        source = TINY.replace("[3:0]", "[%d:0]" % (2 + index % 9))
        jobs.append(("check", check_params(source=source)))
    for seed in range(6):
        jobs.append(("fuzz", {"cases": 2, "seed": seed, "cycles": 16}))
    for index in range(4):  # duplicates: exercise the cache under chaos
        source = TINY.replace("[3:0]", "[%d:0]" % (2 + index))
        jobs.append(("check", check_params(source=source)))
    for index in range(2):  # hangs the watchdog must kill
        jobs.append(("check", check_params(
            source=TINY.replace("tiny", "hang%d" % index),
            _chaos_hang={"seconds": 30, "attempts": 1})))
    for index in range(2):  # hard crashes the pool must requeue
        jobs.append(("check", check_params(
            source=TINY.replace("tiny", "crash%d" % index),
            _chaos_exit={"attempts": 1})))
    assert len(jobs) == 50
    return jobs


def submit_all(client, jobs):
    ids = []
    for kind, params in jobs:
        summary = client.submit(kind, params)
        ids.append(summary["id"])
    return ids


def await_all_terminal(client, count, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        listed = client.jobs()
        terminal = [job for job in listed
                    if job["status"] in ("done", "failed", "timeout",
                                         "crashed", "quarantined")]
        if len(listed) >= count and len(terminal) == len(listed):
            return listed
        time.sleep(0.1)
    raise AssertionError("campaign did not converge in %.0fs" % timeout)


def reap(proc):
    """Kill *proc* if it still runs, then wait for it and close its pipe."""
    with proc:
        if proc.poll() is None:
            proc.kill()


def graceful_stop(proc, timeout=60.0):
    proc.send_signal(signal.SIGTERM)
    out = proc.stdout.read()
    proc.wait(timeout=timeout)
    return out


class TestChaosAcceptance:
    def test_campaign_survives_chaos_and_resume_is_byte_identical(
        self, tmp_path
    ):
        tmp = str(tmp_path)
        jobs = chaos_campaign()

        # -- Run A: chaos throughout, but the server itself survives. ----
        proc_a, port_a = boot_server(serve_command(tmp, "a"))
        try:
            client_a = ServeClient("http://127.0.0.1:%d" % port_a,
                                   client_id="chaos")
            ids_a = submit_all(client_a, jobs)
            assert len(set(ids_a)) == 50  # every submission distinct
            listed = await_all_terminal(client_a, 50)
            assert len(listed) == 50
            statuses_a = {job["id"]: job["status"] for job in listed}
            # Chaos kills and hangs were transient: everything landed.
            assert set(statuses_a.values()) == {"done"}
            out = graceful_stop(proc_a)
            assert proc_a.returncode == 0, out
            assert "drained cleanly" in out
        finally:
            reap(proc_a)
        report_a = os.path.join(tmp, "a", "report.json")
        assert os.path.exists(report_a)

        # -- Run B: same campaign, but SIGKILL the server mid-flight. ----
        proc_b, port_b = boot_server(serve_command(tmp, "b"))
        try:
            client_b = ServeClient("http://127.0.0.1:%d" % port_b,
                                   client_id="chaos")
            submit_all(client_b, jobs)  # all 50 journaled as submitted
            time.sleep(1.0)  # some done, some in flight, some queued
            proc_b.kill()  # SIGKILL: no drain, no report
            proc_b.wait(timeout=30.0)
        finally:
            reap(proc_b)
        assert not os.path.exists(os.path.join(tmp, "b", "report.json"))

        # Data-at-rest chaos while the server is down: corrupt one cache
        # entry and tear the journal's final line.
        cache_dir = os.path.join(tmp, "b", "cache")
        entries = sorted(os.listdir(cache_dir))
        if entries:
            victim = os.path.join(cache_dir, entries[0])
            with open(victim, "w") as handle:
                json.dump({"digest": "0" * 64, "payload": {"bad": 1}},
                          handle)
        journal = os.path.join(tmp, "b", "journal.jsonl")
        with open(journal, "a") as handle:
            handle.write('{"event": "done", "id": "j0')  # torn write

        # -- Run B, act two: --resume finishes the campaign. -------------
        proc_r, port_r = boot_server(serve_command(tmp, "b", resume=True))
        try:
            client_r = ServeClient("http://127.0.0.1:%d" % port_r,
                                   client_id="chaos")
            listed = await_all_terminal(client_r, 50)
            assert len(listed) == 50  # exactly once: no dupes, no losses
            assert len({job["id"] for job in listed}) == 50
            assert {job["status"] for job in listed} == {"done"}
            out = graceful_stop(proc_r)
            assert proc_r.returncode == 0, out
        finally:
            reap(proc_r)

        # -- The payoff: byte-identical final reports. --------------------
        report_b = os.path.join(tmp, "b", "report.json")
        bytes_a = read_bytes(report_a)
        bytes_b = read_bytes(report_b)
        assert bytes_a == bytes_b
        report = json.loads(bytes_a)
        assert report["counts"] == {"done": 50}
        assert len(report["jobs"]) == 50
