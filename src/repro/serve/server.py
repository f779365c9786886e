"""`repro serve`: the fault-tolerant debugging-as-a-service server.

Wires every robustness piece together around a stdlib-``asyncio``
JSON-over-HTTP front end:

* ``POST /jobs`` — submit ``{"kind": ..., "params": {...}}``; admission
  runs per-client token-bucket quotas (structured 429 + ``Retry-After``)
  and the content-addressed cache (a hit completes the job instantly);
  misses go to the worker transport (local pipe children, or TCP
  workers with ``--fabric-port``) with its per-dispatch deadline,
  requeue-on-death, and circuit breaker;
* ``GET /jobs`` / ``GET /jobs/<id>`` — status and results;
* ``GET /metrics`` — queue depth, cache hit rate, retries, watchdog
  kills, breaker states, and p50/p99 job latency, fed by ``repro.obs``;
* ``GET /healthz`` — liveness.

Crash safety: every submission and completion rides the store's
``JsonlJournal``; ``--resume`` replays incomplete work after a kill.
Graceful degradation: SIGTERM/SIGINT stop admissions (503), drain
in-flight jobs (bounded by ``drain_timeout``), flush the journal, and
write the deterministic final report before exiting 0.
"""

from __future__ import annotations

import asyncio
import signal
import threading
import time

from .. import obs
from .breaker import CircuitBreaker
from .cache import ArtifactCache
from .chaos import ChaosConfig, ChaosMonkey
from .fabric import FabricPool
from .http import HttpError, json_response, parse_json_body, read_request
from .jobs import DONE, FAILED, JOB_KINDS, JobError, job_cache_key
from .lease import LeaseTable
from .quota import TokenBucketQuota
from .shard import SHARDABLE_KINDS, merge_shards, plan_shards, shard_count
from .store import JobStore


class ServeConfig:
    """Everything that shapes one server process."""

    def __init__(
        self,
        host="127.0.0.1",
        port=8731,
        workers=2,
        watchdog=30.0,
        retries=2,
        backoff=0.25,
        jitter=0.1,
        cache_dir="results/serve/cache",
        cache_mb=64,
        quota_rate=20.0,
        quota_burst=40.0,
        breaker_threshold=5,
        breaker_cooldown=30.0,
        journal_path="results/serve/journal.jsonl",
        resume=False,
        report_path=None,
        drain_timeout=30.0,
        chaos=None,
        fabric_port=None,
        fabric_token="",
        heartbeat_interval=2.0,
        heartbeat_misses=3,
        straggler_after=0.0,
    ):
        self.host = host
        self.port = port
        self.workers = workers
        self.watchdog = watchdog
        self.retries = retries
        self.backoff = backoff
        self.jitter = jitter
        self.cache_dir = cache_dir
        self.cache_mb = cache_mb
        self.quota_rate = quota_rate
        self.quota_burst = quota_burst
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.journal_path = journal_path
        self.resume = resume
        self.report_path = report_path
        self.drain_timeout = drain_timeout
        self.chaos = chaos or ChaosConfig()
        #: TCP fabric listener port (None opens no listener; 0 binds
        #: an ephemeral port). When set, jobs run on externally started
        #: ``repro worker --connect`` processes instead of ``workers``
        #: local children.
        self.fabric_port = fabric_port
        self.fabric_token = fabric_token
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_misses = heartbeat_misses
        #: Re-dispatch a shard child still running this many seconds
        #: after its first sibling finished (0 disables straggler
        #: mitigation). The loser's lease is fenced, so its late result
        #: can never double-apply.
        self.straggler_after = straggler_after


class ShardCoordinator:
    """Fan sharded campaign jobs out and merge them exactly once.

    Owns the parent/child bookkeeping: a parent job never reaches a
    worker — its children do — and the parent finalizes when the last
    child lands, with a payload byte-identical to the unsharded run
    (see :mod:`repro.serve.shard` for why). A child that fails
    terminally fails the parent. Stragglers: when siblings have
    finished and a child is still running ``straggler_after`` seconds
    later, the transport is kicked to fence and re-dispatch it —
    the slow attempt's result arrives stale and is dropped.
    """

    def __init__(self, server, straggler_after=0.0):
        self.server = server
        self.straggler_after = straggler_after
        self._lock = threading.Lock()
        self._parents = {}  # parent_id -> {"job", "children", "timer"}

    # -- registration --------------------------------------------------------

    def start(self, parent, child_params_list, resume_children=None):
        """Register *parent* and create/adopt its children.

        *resume_children* maps shard index -> existing child Job for
        ``--resume`` (children already journaled by the killed run);
        missing indexes are created fresh. Returns the child jobs that
        still need submission (non-terminal), in shard order.
        """
        server = self.server
        children = []
        to_submit = []
        for index, params in enumerate(child_params_list):
            child = (resume_children or {}).get(index)
            if child is None:
                child = server.store.create(
                    parent.kind, params, parent.client,
                    job_cache_key(parent.kind, params),
                    shard={"parent": parent.id, "index": index},
                )
                child.submitted_at = time.monotonic()
            children.append(child)
            if not child.terminal:
                to_submit.append(child)
        parent.shard = {"children": [child.id for child in children]}
        with self._lock:
            self._parents[parent.id] = {
                "job": parent,
                "children": children,
                "timer": None,
            }
        if not to_submit:
            self._maybe_finalize(parent.id)
        return to_submit

    # -- child completion ----------------------------------------------------

    def on_job_done(self, job):
        """Hook from the server's terminal-transition path."""
        if not job.shard_child:
            return
        parent_id = job.shard.get("parent")
        with self._lock:
            entry = self._parents.get(parent_id)
        if entry is None:
            return
        self._arm_straggler_timer(parent_id)
        self._maybe_finalize(parent_id)

    def _arm_straggler_timer(self, parent_id):
        if self.straggler_after <= 0:
            return
        with self._lock:
            entry = self._parents.get(parent_id)
            if entry is None:
                return
            running = [c for c in entry["children"] if not c.terminal]
            if entry["timer"] is not None:
                entry["timer"].cancel()
                entry["timer"] = None
            if not running:
                return
            timer = threading.Timer(
                self.straggler_after, self._kick_stragglers, (parent_id,)
            )
            timer.daemon = True
            entry["timer"] = timer
            timer.start()

    def _kick_stragglers(self, parent_id):
        with self._lock:
            entry = self._parents.get(parent_id)
            if entry is None:
                return
            stragglers = [c for c in entry["children"] if not c.terminal]
        for child in stragglers:
            if obs.enabled:
                obs.counter("serve.shard.straggler_kicked").inc()
            self.server.pool.kick(child)

    # -- parent finalization -------------------------------------------------

    def _maybe_finalize(self, parent_id):
        with self._lock:
            entry = self._parents.get(parent_id)
            if entry is None:
                return
            if any(not c.terminal for c in entry["children"]):
                return
            entry = self._parents.pop(parent_id)
            if entry["timer"] is not None:
                entry["timer"].cancel()
        parent, children = entry["job"], entry["children"]
        failed = [c for c in children if c.status != DONE]
        if failed:
            parent.status = FAILED
            parent.error = "shard %s %s did not complete" % (
                "child" if len(failed) == 1 else "children",
                ", ".join("%s (%s)" % (c.id, c.status) for c in failed),
            )
            parent.error_code = "shard-child-failed"
        else:
            try:
                parent.result = merge_shards(
                    parent.kind, parent.params,
                    [c.result for c in children],
                )
                parent.status = DONE
            except Exception as exc:  # noqa: BLE001 — fail the parent
                parent.status = FAILED
                parent.error = "shard merge failed: %s: %s" % (
                    type(exc).__name__, exc,
                )
                parent.error_code = "shard-merge-failed"
        if obs.enabled:
            obs.counter("serve.shard.parents_%s" % parent.status).inc()
        self.server._job_finished(parent)

    def pending(self):
        with self._lock:
            return len(self._parents)

    def close(self):
        with self._lock:
            for entry in self._parents.values():
                if entry["timer"] is not None:
                    entry["timer"].cancel()


class ReproServer:
    """One serve process: HTTP front end + robust job back end."""

    def __init__(self, config):
        self.config = config
        self.store = JobStore(journal_path=config.journal_path)
        self.cache = ArtifactCache(
            config.cache_dir, max_bytes=config.cache_mb * 1024 * 1024
        )
        self.quota = TokenBucketQuota(
            rate=config.quota_rate, burst=config.quota_burst
        )
        self.breaker = CircuitBreaker(
            threshold=config.breaker_threshold,
            cooldown=config.breaker_cooldown,
        )
        self.leases = LeaseTable()
        self.coordinator = ShardCoordinator(
            self, straggler_after=config.straggler_after
        )
        self.pool = FabricPool(
            workers=config.workers if config.fabric_port is None else 0,
            host=config.host,
            port=config.fabric_port,
            token=config.fabric_token,
            heartbeat_interval=config.heartbeat_interval,
            heartbeat_misses=config.heartbeat_misses,
            watchdog_seconds=config.watchdog,
            retries=config.retries,
            backoff=config.backoff,
            jitter=config.jitter,
            breaker=self.breaker,
            chaos=(
                ChaosMonkey(config.chaos) if config.chaos.active else None
            ),
            leases=self.leases,
            store=self.store,
            on_done=self._job_finished,
        )
        self.port = None
        self.draining = False
        self.started_at = time.monotonic()
        self._latencies = []  # bounded reservoir of job latencies (ms)
        self._latency_lock = threading.Lock()
        self._stop_event = None
        self._loop = None
        self._ready = threading.Event()
        self._thread = None
        self._exit_code = 0

    # -- job completion (transport loop thread) -----------------------------

    def _job_finished(self, job):
        """Terminal-transition hook: persist, cache, measure, coordinate."""
        if job.status == DONE and job.result is not None and not job.cached:
            self.cache.put(job.cache_key, job.result)
        self.store.record_done(job)
        if job.submitted_at:
            latency_ms = (time.monotonic() - job.submitted_at) * 1000.0
            with self._latency_lock:
                self._latencies.append(latency_ms)
                if len(self._latencies) > 10000:
                    del self._latencies[:5000]
            if obs.enabled:
                obs.histogram("serve.latency_ms").observe(int(latency_ms))
        self.coordinator.on_job_done(job)

    def _latency_percentiles(self):
        with self._latency_lock:
            values = sorted(self._latencies)
        if not values:
            return {"count": 0, "p50": None, "p99": None}

        def pick(q):
            index = min(
                len(values) - 1, max(0, int(round(q / 100.0 * len(values))) - 1)
            )
            return round(values[index], 3)

        return {"count": len(values), "p50": pick(50), "p99": pick(99)}

    # -- submission (asyncio thread) ----------------------------------------

    def submit(self, kind, params, client="anon"):
        """Admit one job; returns the Job. Raises HttpError on refusal."""
        if self.draining:
            raise HttpError(503, "server is draining; resubmit later")
        if kind not in JOB_KINDS:
            raise HttpError(
                400, "unknown job kind %r (known: %s)"
                     % (kind, ", ".join(JOB_KINDS))
            )
        allowed, retry_after = self.quota.admit(client)
        if not allowed:
            raise HttpError(
                429, "quota exceeded for client %r" % client,
                retry_after=retry_after, client=client,
            )
        try:
            cache_key = job_cache_key(kind, params)
            shards = shard_count(params)
            child_params_list = (
                plan_shards(kind, params, shards) if shards > 1 else None
            )
        except (JobError, KeyError, OSError, TypeError) as exc:
            raise HttpError(400, "bad job params: %s" % exc)
        job = self.store.create(kind, params, client, cache_key)
        job.submitted_at = time.monotonic()
        cached = self.cache.get(cache_key)
        if cached is not None:
            # ``_shards`` is excluded from the key, so a sharded parent
            # hits the cache entry its unsharded twin wrote (and vice
            # versa) — sound because merges are byte-identical.
            job.cached = True
            job.attempts = 0
            job.status = DONE
            job.result = cached
            if obs.enabled:
                obs.counter("serve.jobs.done").inc()
            self.store.record_done(job)
            return job
        if child_params_list is not None and len(child_params_list) > 1:
            if obs.enabled:
                obs.counter("serve.shard.parents").inc()
            for child in self.coordinator.start(job, child_params_list):
                self._submit_or_cache(child)
            return job
        self.pool.submit(job)
        return job

    def _submit_or_cache(self, job):
        """Route one runnable job: cache fast path or the transport."""
        cached = self.cache.get(job.cache_key)
        if cached is not None:
            job.cached = True
            job.status = DONE
            job.result = cached
            if obs.enabled:
                obs.counter("serve.jobs.done").inc()
            self._job_finished(job)
            return
        self.pool.submit(job)

    def _resume_jobs(self, resumed):
        """Re-enqueue journal-recovered work, rebuilding shard fan-outs.

        Parents register with the coordinator before any child is
        submitted, so a child finalizing instantly (cache hit) finds
        its parent waiting. Children the killed run already journaled
        are adopted by shard index; ones it never got to create are
        created now — shard planning is deterministic, so the re-plan
        reproduces the original fan-out exactly.
        """
        for job in resumed:
            job.submitted_at = time.monotonic()
        to_submit = []
        for job in resumed:
            if job.shard_child:
                continue  # submitted through its parent below
            if job.kind in SHARDABLE_KINDS:
                try:
                    shards = shard_count(job.params)
                    plan = (
                        plan_shards(job.kind, job.params, shards)
                        if shards > 1 else None
                    )
                except JobError:
                    plan = None  # was accepted once; run it unsharded
                if plan is not None and len(plan) > 1:
                    existing = {
                        child.shard.get("index"): child
                        for child in self.store.children_of(job.id)
                    }
                    to_submit.extend(self.coordinator.start(
                        job, plan, resume_children=existing
                    ))
                    continue
            to_submit.append(job)
        for job in to_submit:
            self._submit_or_cache(job)

    # -- metrics -------------------------------------------------------------

    def metrics(self):
        """The ``GET /metrics`` document."""
        return {
            "schema": "repro.serve-metrics/v1",
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
            "draining": self.draining,
            "transport": "local" if self.pool.port is None else "fabric",
            "workers": self.pool.workers(),
            "fabric_port": self.pool.port,
            "queue_depth": self.pool.queue_depth(),
            "outstanding": self.pool.outstanding(),
            "shard_parents_pending": self.coordinator.pending(),
            "jobs": self.store.counts(),
            "cache": self.cache.stats(),
            "quota": self.quota.snapshot(),
            "breaker": self.breaker.snapshot(),
            "lease": self.leases.snapshot(),
            "pool": self.pool.stats_snapshot(),
            "latency_ms": self._latency_percentiles(),
            "obs": obs.registry.snapshot() if obs.enabled else [],
        }

    # -- HTTP routing --------------------------------------------------------

    async def _handle(self, reader, writer):
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return
                method, path, headers, body = request
                status, payload, extra = self._route(
                    method, path, headers, body
                )
            except HttpError as exc:
                status, payload = exc.status, exc.payload
                extra = ()
                if status == 429 and "retry_after" in exc.payload:
                    extra = (("Retry-After",
                              "%d" % max(1, int(exc.payload["retry_after"]
                                                + 0.999))),)
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            except Exception as exc:  # noqa: BLE001 — 500, never a crash
                status, payload, extra = 500, {
                    "error": "%s: %s" % (type(exc).__name__, exc)
                }, ()
            writer.write(json_response(status, payload, headers=extra))
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
            except Exception:  # noqa: BLE001
                pass

    def _route(self, method, path, headers, body):
        if path == "/healthz" and method == "GET":
            return 200, {"status": "draining" if self.draining else "ok"}, ()
        if path == "/metrics" and method == "GET":
            return 200, self.metrics(), ()
        if path == "/jobs" and method == "POST":
            request = parse_json_body(body)
            kind = request.get("kind")
            params = request.get("params") or {}
            if not isinstance(params, dict):
                raise HttpError(400, "params must be a JSON object")
            client = request.get("client") or headers.get(
                "x-repro-client", "anon"
            )
            job = self.submit(kind, params, client=client)
            return 202, job.to_summary(), ()
        if path == "/jobs" and method == "GET":
            return 200, {
                "jobs": [job.to_summary() for job in self.store.jobs()]
            }, ()
        if path.startswith("/jobs/") and method == "GET":
            job = self.store.get(path[len("/jobs/"):])
            if job is None:
                raise HttpError(404, "no such job")
            return 200, job.to_detail(), ()
        if path == "/" and method == "GET":
            return 200, {
                "service": "repro serve",
                "schema": "repro.serve/v1",
                "kinds": list(JOB_KINDS),
                "endpoints": ["/jobs", "/jobs/<id>", "/metrics", "/healthz"],
            }, ()
        raise HttpError(404, "no route for %s %s" % (method, path))

    # -- lifecycle -----------------------------------------------------------

    async def _main(self):
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._stop_event = asyncio.Event()
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self._stop_event.set)
                except (NotImplementedError, RuntimeError):
                    pass
        server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )
        self.port = server.sockets[0].getsockname()[1]
        if self.config.resume:
            resumed = self.store.resume(leases=self.leases)
            self._resume_jobs(resumed)
            print(
                "resumed %d incomplete job%s from %s"
                % (len(resumed), "" if len(resumed) == 1 else "s",
                   self.config.journal_path),
                flush=True,
            )
        if self.config.fabric_port is not None:
            print(
                "fabric listening on %s:%d (token %s)"
                % (self.config.host, self.pool.port,
                   "required" if self.config.fabric_token else "disabled"),
                flush=True,
            )
        print(
            "serving on http://%s:%d (workers=%d, watchdog=%.1fs)"
            % (self.config.host, self.port, self.config.workers,
               self.config.watchdog),
            flush=True,
        )
        self._ready.set()
        await self._stop_event.wait()
        # Graceful drain: refuse new work, let in-flight work land,
        # flush everything, report, exit 0.
        self.draining = True
        print("draining (%d outstanding)..." % self.pool.outstanding(),
              flush=True)
        drained = await loop.run_in_executor(
            None, self.pool.drain, self.config.drain_timeout
        )
        # Parents finalize on the last child's completion callback,
        # which can land a beat after drain() unblocks.
        deadline = time.monotonic() + 5.0
        while self.coordinator.pending() and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        server.close()
        await server.wait_closed()
        self.coordinator.close()
        self.pool.close()
        if self.config.report_path:
            self.store.write_final_report(self.config.report_path)
            print("wrote %s" % self.config.report_path, flush=True)
        self.store.close()
        counts = self.store.counts()
        print(
            "drained %s — %s"
            % (
                "cleanly" if drained else "with %d jobs left for --resume"
                % self.pool.outstanding(),
                ", ".join("%d %s" % (counts[s], s) for s in sorted(counts)),
            ),
            flush=True,
        )
        return 0

    def run(self):
        """Run until SIGTERM/SIGINT; returns the process exit code."""
        obs.reset()
        with obs.observed():
            try:
                return asyncio.run(self._main())
            except KeyboardInterrupt:
                return 0

    # -- embedding (tests, benchmarks) --------------------------------------

    def start_background(self):
        """Run the server on a daemon thread; returns once it is bound."""

        def runner():
            obs.reset()
            with obs.observed():
                self._exit_code = asyncio.run(self._main())

        self._thread = threading.Thread(
            target=runner, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("server failed to start")
        return self

    def shutdown(self, timeout=60.0):
        """Trigger the drain path from any thread and wait for exit."""
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=timeout)
        return self._exit_code
