"""Shared runtime-resilience utilities for long-running campaigns.

The campaign runners (:mod:`repro.fuzz.runner`, :mod:`repro.faults.campaign`,
:mod:`repro.repair.search`) and the job server (:mod:`repro.serve`) all
execute work against designs that may hang, crash, or fail transiently.
This module concentrates the machinery they share:

* :func:`time_limit` — a wall-clock watchdog built on ``SIGALRM`` (a
  no-op on platforms without it, e.g. Windows). ``SIGALRM`` can only be
  armed on the main thread; off-main-thread callers get a clear
  :class:`RuntimeError` pointing them at a :mod:`repro.serve` worker
  process, whose deadline the server enforces by killing it, instead;
* :func:`retry_with_backoff` — bounded retries with exponential backoff
  and optional jitter for transiently failing work;
* :class:`JsonlJournal` — crash-safe incremental journaling: one JSON
  record per line, flushed and fsynced per append, tolerant of a torn
  final line (and of corrupt interior lines) when reloading after a
  crash.
"""

from __future__ import annotations

import json
import os
import random
import signal
import threading
import time
from contextlib import contextmanager


class TimeLimitExceeded(Exception):
    """Raised inside :func:`time_limit` when the wall-clock budget runs out."""


HAS_ALARM = hasattr(signal, "SIGALRM")


@contextmanager
def time_limit(seconds):
    """Raise :class:`TimeLimitExceeded` after *seconds* of wall clock.

    Uses ``setitimer``/``SIGALRM``, so it interrupts pure-Python loops
    (the simulator's settle loop, a runaway scenario) that a cooperative
    check would never reach. Nested limits restore the outer handler and
    remaining budget. A falsy *seconds* — or a platform without
    ``SIGALRM`` — disables the limit entirely.

    ``SIGALRM`` handlers can only be installed from the main thread, so
    arming a limit anywhere else raises :class:`RuntimeError` up front
    (instead of the cryptic ``ValueError`` ``signal`` would emit).
    Worker threads that need a wall-clock bound should run the work in
    a :mod:`repro.serve` worker process (submit it as a job to
    :class:`repro.serve.FabricPool`): the server SIGKILLs the process on
    a monotonic deadline, from any thread.
    """
    if not seconds or not HAS_ALARM:
        yield
        return
    if threading.current_thread() is not threading.main_thread():
        raise RuntimeError(
            "time_limit() arms SIGALRM and only works on the main thread; "
            "run the work in a repro.serve worker process "
            "(repro.serve.FabricPool), whose deadline kills it, instead"
        )

    def handler(signum, frame):
        raise TimeLimitExceeded("exceeded %.1fs wall-clock budget" % seconds)

    old_handler = signal.signal(signal.SIGALRM, handler)
    old_delay, old_interval = signal.setitimer(signal.ITIMER_REAL, seconds)
    started = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old_handler)
        if old_delay:
            remaining = max(0.001, old_delay - (time.monotonic() - started))
            signal.setitimer(signal.ITIMER_REAL, remaining, old_interval)


def retry_with_backoff(
    func,
    retries=2,
    base_delay=0.5,
    factor=2.0,
    jitter=0.0,
    retry_on=(TimeLimitExceeded,),
    sleep=time.sleep,
    on_retry=None,
    rng=None,
):
    """Call *func()* with up to *retries* retries on *retry_on* failures.

    Waits ``base_delay * factor**attempt`` seconds between attempts
    (exponential backoff). *jitter*, when non-zero, scales each wait by
    a uniform factor in ``[1, 1 + jitter]`` so a fleet of workers
    retrying the same hiccup does not thunder back in lockstep; *rng*
    (a zero-argument callable returning ``[0, 1)``) is injectable for
    deterministic tests and defaults to :func:`random.random`.
    *on_retry*, when given, is called with ``(attempt_number,
    exception)`` before each wait — campaign runners use it for
    progress lines and metrics. The final failure propagates.

    Returns ``(result, attempts)`` where *attempts* counts executions.
    """
    if rng is None:
        rng = random.random
    attempt = 0
    while True:
        attempt += 1
        try:
            return func(), attempt
        except retry_on as exc:
            if attempt > retries:
                raise
            if on_retry is not None:
                on_retry(attempt, exc)
            delay = base_delay * (factor ** (attempt - 1))
            if jitter:
                delay *= 1.0 + jitter * rng()
            sleep(delay)


def backoff_delay(attempt, base_delay=0.5, factor=2.0, jitter=0.0, rng=None):
    """The wait before retry number *attempt* (1-based), with jitter.

    The same schedule :func:`retry_with_backoff` uses, exposed for
    callers that requeue work instead of looping in place (the serve
    worker pool re-enqueues killed jobs rather than blocking a retry
    loop on one worker slot).
    """
    if rng is None:
        rng = random.random
    delay = base_delay * (factor ** (max(1, attempt) - 1))
    if jitter:
        delay *= 1.0 + jitter * rng()
    return delay


class JsonlJournal:
    """Append-only JSON-lines journal with crash-safe incremental writes.

    Every :meth:`append` writes one compact JSON record, flushes, and
    fsyncs, so an interrupted campaign loses at most the record being
    written when the process died. :meth:`load` tolerates the two ways a
    journal gets damaged in the field instead of raising
    ``json.JSONDecodeError``:

    * a *torn final line* (crash mid-append) is skipped and counted on
      the ``runtime.journal.truncated`` obs counter;
    * a *corrupt interior line* (bit rot, or two uncoordinated writers
      interleaving) is skipped — not silently discarding everything
      after it — and counted on ``runtime.journal.corrupt``.

    Appends are a single ``write`` on an ``O_APPEND`` handle, so
    multiple processes may safely append to one journal; reloads see
    every intact record.
    """

    def __init__(self, path):
        self.path = path
        self._handle = None
        self._lock = threading.Lock()

    def load(self, dedupe=None):
        """All intact records currently in the journal (oldest first).

        *dedupe*, when given, maps a record to a hashable key or None;
        a record whose key was already seen is dropped (first write
        wins) and counted on ``runtime.journal.duplicate``. Records
        keyed None are never deduplicated. A crashed writer that
        re-appends an event it already journaled — the double-``done``
        hazard ``--resume`` must survive — is thereby invisible to
        callers who declare the event's identity.
        """
        records = []
        if not os.path.exists(self.path):
            return records
        from . import obs

        with open(self.path, "r") as handle:
            lines = handle.readlines()
        last_index = len(lines) - 1
        seen = set()
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                if index == last_index:
                    # Torn write from a crash mid-append: drop the tail.
                    if obs.enabled:
                        obs.counter("runtime.journal.truncated").inc()
                else:
                    # Damaged interior record: skip it, keep the rest.
                    if obs.enabled:
                        obs.counter("runtime.journal.corrupt").inc()
                continue
            if dedupe is not None:
                key = dedupe(record)
                if key is not None:
                    if key in seen:
                        if obs.enabled:
                            obs.counter("runtime.journal.duplicate").inc()
                        continue
                    seen.add(key)
            records.append(record)
        return records

    def append(self, record):
        """Durably append one JSON-serializable *record* (thread-safe)."""
        with self._lock:
            if self._handle is None:
                directory = os.path.dirname(self.path)
                if directory:
                    os.makedirs(directory, exist_ok=True)
                self._handle = open(self.path, "a")
            self._handle.write(
                json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
            )
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self):
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
