"""Subprocess worker transport: deadline kills, requeue, retry/backoff.

Each worker is a subprocess (``python -m repro.serve.worker``) owned by
one manager thread in the server. The manager feeds it one job at a
time over stdin and waits for the JSON result line; robustness comes
from what happens when that line never arrives:

* a :class:`~repro.serve.watchdog.DeadlineWatchdog` entry SIGKILLs the
  worker when the job's monotonic deadline passes (``SIGALRM``-based
  :func:`repro.runtime.time_limit` cannot arm off the main thread — the
  worker's *own* main thread still uses it for inner, finer-grained
  limits);
* a dead worker — killed by the watchdog, by the chaos monkey, or by a
  genuine crash — is detected as EOF; the in-flight job is requeued
  with exponential backoff + jitter while retry budget remains, and the
  worker is respawned for the next job;
* a job class that keeps failing fatally trips the
  :class:`~repro.serve.breaker.CircuitBreaker`, which quarantines that
  kind instead of letting it take the pool down.

Every dispatch holds a :class:`~repro.serve.lease.Lease`; results are
applied through :meth:`WorkerTransport.deliver`, so the exactly-once
guarantees (fenced stale results, deduplicated deliveries) are the same
here as over the TCP fabric — the pipes just make stale results rare.
"""

from __future__ import annotations

import json
import queue
import subprocess
import sys
import threading

from .jobs import CRASHED, RUNNING, TIMEOUT
from .transport import REASON_CHAOS, REASON_TIMEOUT, WorkerTransport

_SENTINEL = object()


class WorkerPool(WorkerTransport):
    """Fixed-size pool of subprocess workers with a shared job queue."""

    def __init__(self, workers=2, **kwargs):
        super().__init__(**kwargs)
        self._queue = queue.Queue()
        from .watchdog import DeadlineWatchdog

        self.watchdog = DeadlineWatchdog()
        self._workers = [
            _WorkerSlot(self, index) for index in range(max(1, workers))
        ]
        for slot in self._workers:
            slot.start()

    # -- transport interface -------------------------------------------------

    def _enqueue(self, job):
        self._queue.put(job)

    def queue_depth(self):
        return self._queue.qsize()

    def close(self):
        """Stop managers, kill workers. Non-terminal jobs stay journaled
        as incomplete for ``--resume``."""
        if not self._mark_closed():
            return
        for _ in self._workers:
            self._queue.put(_SENTINEL)
        for slot in self._workers:
            slot.kill()
        for slot in self._workers:
            slot.join(timeout=5.0)
        self.watchdog.close()


class _WorkerSlot:
    """One worker subprocess and the manager thread that babysits it."""

    def __init__(self, pool, index):
        self.pool = pool
        self.index = index
        self.proc = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-worker-%d" % index,
            daemon=True,
        )

    def start(self):
        self._thread.start()

    def join(self, timeout=None):
        self._thread.join(timeout=timeout)

    def kill(self):
        proc = self.proc
        if proc is not None and proc.poll() is None:
            proc.kill()

    def _spawn(self, respawn):
        """Start a worker and wait for its ready line, so the fresh
        interpreter's imports never run inside a job's watchdog window.
        Returns False when the worker exited before it was ready."""
        if respawn:
            self.pool._count("worker_restarts")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.serve.worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        return bool(self.proc.stdout.readline())

    def _run(self):
        pool = self.pool
        ever_spawned = False
        while True:
            job = pool._queue.get()
            if job is _SENTINEL or pool.closed:
                break
            pool._gauge_depth()
            ready = True
            if self.proc is None or self.proc.poll() is not None:
                ready = self._spawn(respawn=ever_spawned)
                ever_spawned = True
            proc = self.proc
            lease = pool.leases.grant(job.id)
            job.attempts += 1
            job.status = RUNNING
            pool._count("executions")
            token = lease.token

            def _kill(token, reason, proc=proc):
                if proc.poll() is None:
                    proc.kill()

            request = json.dumps({
                "id": job.id,
                "kind": job.kind,
                "params": job.params,
                "attempt": job.attempts,
                "epoch": lease.epoch,
            }, sort_keys=True)
            try:
                if not ready:
                    raise BrokenPipeError("worker exited before ready")
                proc.stdin.write(request + "\n")
                proc.stdin.flush()
            except (BrokenPipeError, OSError):
                # Worker died before or between jobs: burn no watchdog,
                # requeue.
                self.proc = None
                pool.abandon(job, lease.epoch)
                continue
            pool.watchdog.arm(
                token, pool.watchdog_seconds, _kill, REASON_TIMEOUT
            )
            if pool.chaos is not None:
                # Keyed by attempt, not epoch: the kill schedule for a
                # given seed must not shift with lease bookkeeping
                # (epochs advance by two per requeue, which would skew
                # the per-attempt kill probability stream).
                kill_after = pool.chaos.kill_after(job.id, job.attempts)
                if kill_after is not None:
                    pool.watchdog.arm(token, kill_after, _kill, REASON_CHAOS)
            line = proc.stdout.readline()
            pool.watchdog.disarm(token)
            reason = pool.watchdog.fired_reason(token)
            if pool.closed:
                break
            response = None
            if line:
                try:
                    response = json.loads(line)
                except ValueError:
                    response = None  # torn final line from a kill
            if response is not None:
                pool.deliver(
                    job,
                    int(response.get("epoch", lease.epoch)),
                    ok=bool(response.get("ok")),
                    payload=response.get("payload"),
                    error=response.get("error", "unknown error"),
                    error_code=response.get("error_code"),
                    transient=bool(response.get("transient")),
                )
                continue
            # No (intact) response: the worker is gone. Classify by who
            # pulled the trigger, then respawn lazily on the next job.
            proc.wait()
            self.proc = None
            if reason == REASON_TIMEOUT:
                pool._count("watchdog_kills")
                pool.abandon(
                    job, lease.epoch, status=TIMEOUT,
                    error="watchdog kill after %.1fs"
                          % pool.watchdog_seconds,
                )
            else:
                pool.abandon(
                    job, lease.epoch, status=CRASHED,
                    count="chaos_kills" if reason == REASON_CHAOS else None,
                )
