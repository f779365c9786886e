"""The robustness core of the worker transport.

The server hands jobs to :class:`~repro.serve.fabric.FabricPool` and
gets terminal transitions back; whether a job ran on a local pipe child
or on a TCP worker elsewhere is the pool's business. This base class
holds the part of the failure model that does not depend on links:

* **admission** — a kind quarantined by the circuit breaker never
  reaches a worker;
* **lease-fenced, idempotent result application** — every dispatch
  holds a :class:`~repro.serve.lease.Lease`; :meth:`deliver` applies a
  result only if its epoch is current (a partitioned worker's late echo
  is dropped and counted) and only once per ``(job_id, epoch)`` (a
  duplicated frame is a no-op);
* **requeue with backoff** — a transiently failed attempt goes back on
  the queue after exponential backoff + jitter while retry budget
  remains, then finalizes;
* **exactly-once finalization** — executions are at-least-once, but a
  job reaches a terminal status exactly once, which the journal's
  ``done`` records and ``--resume`` rely on.

The subclass provides ``_enqueue`` (accept one queued job),
``_requeue_after`` (re-enqueue after a delay, without blocking the
delivery path) and ``queue_depth``.
"""

from __future__ import annotations

import threading
import time

from ..runtime import backoff_delay
from .jobs import CRASHED, DONE, FAILED, QUEUED, QUARANTINED, TIMEOUT
from .lease import LeaseTable


class WorkerTransport:
    """Admission, lease fencing, retries and exactly-once finalization."""

    def __init__(
        self,
        watchdog_seconds=30.0,
        retries=2,
        backoff=0.25,
        jitter=0.1,
        breaker=None,
        chaos=None,
        leases=None,
        store=None,
        on_done=None,
    ):
        self.watchdog_seconds = watchdog_seconds
        self.retries = retries
        self.backoff = backoff
        self.jitter = jitter
        self.breaker = breaker
        self.chaos = chaos
        self.leases = leases if leases is not None else LeaseTable()
        self.store = store
        self.on_done = on_done or (lambda job: None)
        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        self._outstanding = 0
        self._closed = False
        #: Fallback first-application registry when no store is wired
        #: (standalone transports in tests and benchmarks).
        self._applied = set()
        self.stats = {
            "executions": 0,
            "retries": 0,
            "watchdog_kills": 0,
            "chaos_kills": 0,
            "worker_restarts": 0,
            "stale_rejected": 0,
            "duplicate_ignored": 0,
        }

    # -- submission / lifecycle --------------------------------------------

    def submit(self, job):
        """Queue *job* — or quarantine it instantly if its kind is open."""
        if self.breaker is not None and not self.breaker.allow(job.kind):
            with self._lock:
                self._outstanding += 1
            self._finalize(
                job, QUARANTINED,
                error="job kind %r quarantined by circuit breaker"
                      % job.kind,
            )
            return
        with self._lock:
            self._outstanding += 1
        job.status = QUEUED
        self._enqueue(job)
        self._gauge_depth()

    def outstanding(self):
        with self._lock:
            return self._outstanding

    def stats_snapshot(self):
        with self._lock:
            return dict(self.stats)

    def drain(self, timeout=None):
        """Block until every submitted job is terminal. True on success."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._drained:
            while self._outstanding > 0:
                remaining = None if deadline is None else (
                    deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._drained.wait(
                    0.5 if remaining is None else min(remaining, 0.5)
                )
        return True

    @property
    def closed(self):
        with self._lock:
            return self._closed

    def _mark_closed(self):
        """True if this call performed the open->closed transition."""
        with self._lock:
            if self._closed:
                return False
            self._closed = True
            return True

    # -- bookkeeping ---------------------------------------------------------

    def _gauge_depth(self):
        from .. import obs

        if obs.enabled:
            obs.gauge("serve.queue.depth").set(self.queue_depth())

    def _count(self, name):
        from .. import obs

        with self._lock:
            self.stats[name] = self.stats.get(name, 0) + 1
        if obs.enabled:
            obs.counter("serve.%s" % name).inc()

    # -- lease-fenced result application ------------------------------------

    def _first_application(self, job_id, epoch):
        if self.store is not None:
            return self.store.mark_applied(job_id, epoch)
        with self._lock:
            if (job_id, epoch) in self._applied:
                return False
            self._applied.add((job_id, epoch))
            return True

    def deliver(self, job, epoch, ok, payload=None, error="",
                error_code=None, transient=False):
        """Apply one attempt's result through the lease fence.

        Returns True if the result was applied (finalized or requeued),
        False if it was rejected as stale (fenced epoch) or as a
        duplicate delivery of an already-applied ``(job, epoch)``.
        """
        if not self.leases.is_current(job.id, epoch):
            self.leases.record_stale(job.id, epoch)
            self._count("stale_rejected")
            return False
        if not self._first_application(job.id, epoch):
            self._count("duplicate_ignored")
            from .. import obs

            if obs.enabled:
                obs.counter("serve.lease.duplicate_ignored").inc()
            return False
        if job.terminal:
            # Belt and braces: fencing should make this unreachable.
            self._count("duplicate_ignored")
            return False
        job.lease_epoch = epoch
        if ok:
            self._finalize(job, DONE, payload=payload)
        else:
            self._retry_or_finalize(
                job, FAILED, error=error, error_code=error_code,
                transient=transient,
            )
        return True

    def abandon(self, job, epoch, status=CRASHED, error="worker died",
                count=None):
        """Declare attempt *epoch* of *job* dead and requeue/finalize it.

        Fences the lease first, so a result the vanished worker still
        delivers is rejected; if the lease is no longer current the
        attempt was already handled and this is a no-op.
        """
        if not self.leases.is_current(job.id, epoch):
            return False
        self.leases.revoke(job.id)
        if count:
            self._count(count)
        self._retry_or_finalize(job, status, error=error)
        return True

    # -- terminal transitions ------------------------------------------------

    def _finalize(self, job, status, payload=None, error="",
                  error_code=None):
        from .. import obs

        assert not job.terminal, "job %s finalized twice" % job.id
        job.status = status
        job.result = payload
        job.error = error
        job.error_code = error_code
        if self.breaker is not None:
            if status == DONE:
                self.breaker.record_success(job.kind)
            elif status in (TIMEOUT, CRASHED):
                self.breaker.record_failure(job.kind)
        if obs.enabled:
            obs.counter("serve.jobs.%s" % status).inc()
        self.leases.forget(job.id)
        with self._drained:
            self._outstanding -= 1
            self._drained.notify_all()
        self.on_done(job)

    def _retry_or_finalize(self, job, status, error, error_code=None,
                           transient=True):
        """Requeue a transiently failed attempt, or make *status* final."""
        if transient and job.attempts <= self.retries and not self.closed:
            self._count("retries")
            delay = backoff_delay(
                job.attempts, base_delay=self.backoff, jitter=self.jitter
            )
            job.status = QUEUED
            self._requeue_after(job, delay)
            return
        self._finalize(job, status, error=error, error_code=error_code)
