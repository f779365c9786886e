"""Lease-based job ownership with epoch fencing.

A worker never *owns* a job — it holds a **lease** on one attempt of
it. Every dispatch grants a fresh lease whose epoch is one higher than
any lease that job has ever had; the epoch travels with the job frame
and must come back attached to the result. That single integer is what
makes the fabric safe under partitions:

* when the server declares a worker dead (missed heartbeats, a closed
  connection, a blown job deadline) and requeues the job, the *next*
  dispatch bumps the epoch — the dead worker's lease is implicitly
  **fenced**. If the worker was not dead at all, merely partitioned,
  and later delivers its result, the stale epoch identifies the result
  as an echo from a revoked owner and it is dropped
  (``serve.lease.stale_rejected``), never double-applied;
* a result frame duplicated in flight (retransmission, a chaos monkey
  with a packet mirror) carries the *current* epoch twice; the
  first-application registry in the :class:`~repro.serve.store.JobStore`
  makes the second copy a no-op (``serve.lease.duplicate_ignored``).

Epochs are per-job and monotonic for the life of the server process;
``--resume`` restarts them from the journal's high-water mark so a
resumed run can never re-issue an epoch an old result might still be
carrying.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass


@dataclass(frozen=True)
class Lease:
    """One granted (job, epoch) ownership token."""

    job_id: str
    epoch: int


class LeaseTable:
    """Per-job monotonic lease epochs (thread-safe)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._epochs = {}  # job_id -> highest epoch ever granted
        self.granted = 0
        self.stale_rejected = 0

    def grant(self, job_id):
        """Grant a fresh lease on *job_id*, fencing every earlier one."""
        with self._lock:
            epoch = self._epochs.get(job_id, 0) + 1
            self._epochs[job_id] = epoch
            self.granted += 1
        return Lease(job_id=job_id, epoch=epoch)

    def revoke(self, job_id):
        """Fence the current lease without granting a new one.

        Any in-flight result carrying the revoked epoch becomes stale
        immediately; the next :meth:`grant` continues the sequence.
        """
        with self._lock:
            if job_id in self._epochs:
                self._epochs[job_id] += 1

    def current(self, job_id):
        """The highest epoch granted for *job_id* (0 if never leased)."""
        with self._lock:
            return self._epochs.get(job_id, 0)

    def is_current(self, job_id, epoch):
        """Is *epoch* the live lease for *job_id*?"""
        with self._lock:
            return epoch == self._epochs.get(job_id, 0)

    def observe(self, job_id, epoch):
        """Fast-forward past *epoch* (journal replay during ``--resume``).

        Guarantees no future :meth:`grant` re-issues an epoch that a
        pre-crash worker might still deliver a result under.
        """
        with self._lock:
            if epoch > self._epochs.get(job_id, 0):
                self._epochs[job_id] = epoch

    def record_stale(self, job_id, epoch):
        """Count one fenced (stale-epoch) result rejection."""
        from .. import obs

        with self._lock:
            self.stale_rejected += 1
        if obs.enabled:
            obs.counter("serve.lease.stale_rejected").inc()

    def forget(self, job_id):
        """Drop a terminal job's entry (bounded memory on long runs)."""
        with self._lock:
            self._epochs.pop(job_id, None)

    def snapshot(self):
        """JSON-ready counters."""
        with self._lock:
            return {
                "granted": self.granted,
                "active_jobs": len(self._epochs),
                "stale_rejected": self.stale_rejected,
            }
