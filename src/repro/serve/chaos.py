"""Seeded fault injection for the serve harness itself.

The rest of the repo injects faults into *designs*; this module injects
them into the *server* — the same philosophy turned inward. A
:class:`ChaosMonkey` decides, deterministically per ``(job, attempt)``,
whether to SIGKILL a local worker mid-job, and — on any link, local or
TCP — whether to drop, duplicate, or delay a result frame or stall a
worker's heartbeats past the miss window. Determinism matters: the chaos
acceptance test demands that a campaign run under chaos, killed halfway
and resumed, produce a final report byte-identical to an uninterrupted
chaos run — which only holds if the monkey's choices depend on job
identity, never on wall clock or arrival order.

Injected *hangs* ride on the job itself (``params["_chaos_hang"]``, see
:func:`repro.serve.jobs.execute_job`) because a hang is a property of
the work; kills are a property of the environment and live here.
Corrupted cache entries and truncated journals are injected directly by
the tests through :meth:`ArtifactCache.corrupt_entry` and file
truncation — they are data-at-rest faults with no scheduling component.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass


@dataclass
class ChaosConfig:
    """Knobs for harness-level fault injection (all off by default)."""

    seed: int = 0
    #: Probability that any given (job, attempt) execution gets its
    #: worker SIGKILLed partway through. Local workers only: a TCP
    #: worker is not the server's process to kill.
    kill_prob: float = 0.0
    #: Upper bound, in seconds, on how far into the attempt the kill
    #: lands (the actual delay is a deterministic fraction of this).
    kill_delay: float = 0.05
    #: Probability that a result frame is "lost" and the link that
    #: carried it dropped (seeded connection drop; a local child is
    #: killed).
    drop_prob: float = 0.0
    #: Probability that a worker's heartbeats go unheard
    #: for ``stall_duration`` seconds after a dispatch — long enough to
    #: trip the miss window and mark the worker suspect.
    stall_prob: float = 0.0
    stall_duration: float = 0.0
    #: Probability that a result frame is applied twice
    #: (duplicate delivery — must be a no-op thanks to the lease fence).
    dup_prob: float = 0.0
    #: Probability that a result frame is applied late, up
    #: to ``delay_max`` seconds after arrival.
    delay_prob: float = 0.0
    delay_max: float = 0.1

    @property
    def active(self):
        return (self.kill_prob > 0 or self.drop_prob > 0
                or self.stall_prob > 0 or self.dup_prob > 0
                or self.delay_prob > 0)


class ChaosMonkey:
    """Deterministic per-(job, attempt) fault decisions.

    Every roll is keyed ``(seed, job_id, attempt-or-epoch, salt)``, so a
    chaos campaign replays identically across runs and ``--resume`` —
    kills are keyed by the attempt number, frame faults by the lease
    epoch; both are per-execution identities.
    """

    def __init__(self, config):
        self.config = config
        self.kills_planned = 0
        self.drops_planned = 0
        self.stalls_planned = 0
        self.dups_planned = 0
        self.delays_planned = 0

    def _roll(self, job_id, attempt, salt):
        token = "%d:%s:%d:%s" % (self.config.seed, job_id, attempt, salt)
        return (zlib.crc32(token.encode("utf-8")) & 0xFFFFFFFF) / 2.0 ** 32

    def kill_after(self, job_id, attempt):
        """Seconds until this attempt's worker should be killed, or None."""
        if self.config.kill_prob <= 0:
            return None
        if self._roll(job_id, attempt, "kill") >= self.config.kill_prob:
            return None
        self.kills_planned += 1
        return self.config.kill_delay * self._roll(job_id, attempt, "delay")

    def drop_result(self, job_id, epoch):
        """Should this result frame be lost (and its connection cut)?"""
        if self.config.drop_prob <= 0:
            return False
        if self._roll(job_id, epoch, "drop") >= self.config.drop_prob:
            return False
        self.drops_planned += 1
        return True

    def stall_after(self, job_id, epoch):
        """Heartbeat-deafness duration for this dispatch, or None."""
        if self.config.stall_prob <= 0:
            return None
        if self._roll(job_id, epoch, "stall") >= self.config.stall_prob:
            return None
        self.stalls_planned += 1
        return self.config.stall_duration

    def duplicate_result(self, job_id, epoch):
        """Should this result frame be delivered twice?"""
        if self.config.dup_prob <= 0:
            return False
        if self._roll(job_id, epoch, "dup") >= self.config.dup_prob:
            return False
        self.dups_planned += 1
        return True

    def delay_result(self, job_id, epoch):
        """Late-application delay for this result frame, or None."""
        if self.config.delay_prob <= 0:
            return None
        if self._roll(job_id, epoch, "lag") >= self.config.delay_prob:
            return None
        self.delays_planned += 1
        return self.config.delay_max * self._roll(job_id, epoch, "lagdur")
