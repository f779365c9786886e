"""repro.serve: fault-tolerant debugging-as-a-service.

The paper argues debugging tools must survive hostile conditions —
hangs, lost data, partial observability. This package applies that
thesis to the serving layer itself: every subsystem (``check``,
``profile``, ``wavediff``, ``fuzz``, ``faults``, ``repair``) becomes an
asynchronously executed *job* behind a stdlib-``asyncio``
JSON-over-HTTP API, engineered for robustness end to end:

* :mod:`~repro.serve.fabric` — the one worker transport, one frame
  protocol over two link kinds: local ``python -m repro.serve.worker``
  children on their own pipes, and TCP workers (``python -m repro
  worker --connect``), on this host or another. Every dispatch carries
  a :mod:`~repro.serve.lease` epoch and one deadline; a hung attempt's
  worker is killed or cut off, a dead worker's job is requeued with
  backoff and jitter, a partitioned worker's stale result is fenced,
  never double-applied, and a circuit breaker
  (:mod:`~repro.serve.breaker`) quarantines a sick job class instead of
  taking the server down;
* :mod:`~repro.serve.cache` — content-addressed artifact cache keyed by
  source digest: bounded, LRU-evicted, verified on read (a corrupt
  entry costs a recompute, never a crash);
* :mod:`~repro.serve.store` — the job queue and results ride a
  crash-safe ``JsonlJournal``; ``repro serve --resume`` replays
  incomplete work, and graceful drain on SIGTERM flushes in-flight
  results and a deterministic final report;
* :mod:`~repro.serve.quota` — per-client token buckets with structured
  429s; :mod:`~repro.serve.chaos` — seeded harness-level fault
  injection (local worker SIGKILLs, dropped/stalled/duplicated/delayed
  frames on any link) used by the chaos acceptance tests;
* :mod:`~repro.serve.shard` — partition-tolerant campaign sharding:
  fuzz/faults/repair campaigns split into deterministic sub-ranges
  fanned across workers, merged byte-identical to the unsharded run.

Start one with ``python -m repro serve``; talk to it with
``python -m repro submit`` or :class:`~repro.serve.client.ServeClient`.
"""

from .breaker import CircuitBreaker
from .cache import ArtifactCache
from .chaos import ChaosConfig, ChaosMonkey
from .client import QuotaExceeded, ServeClient, ServeClientError
from .fabric import PROTO_VERSION, FabricPool, FrameError, encode_frame
from .jobs import (
    JOB_KINDS,
    TERMINAL_STATUSES,
    Job,
    JobError,
    execute_job,
    job_cache_key,
    payload_digest,
)
from .lease import LeaseTable
from .quota import TokenBucketQuota
from .server import ReproServer, ServeConfig, ShardCoordinator
from .shard import SHARDABLE_KINDS, merge_shards, plan_shards, shard_count
from .store import SCHEMA, JobStore
from .transport import WorkerTransport

__all__ = [
    "SCHEMA",
    "JOB_KINDS",
    "PROTO_VERSION",
    "SHARDABLE_KINDS",
    "TERMINAL_STATUSES",
    "Job",
    "JobError",
    "execute_job",
    "job_cache_key",
    "payload_digest",
    "ArtifactCache",
    "CircuitBreaker",
    "TokenBucketQuota",
    "WorkerTransport",
    "FabricPool",
    "FrameError",
    "encode_frame",
    "LeaseTable",
    "ChaosConfig",
    "ChaosMonkey",
    "JobStore",
    "ReproServer",
    "ServeConfig",
    "ShardCoordinator",
    "merge_shards",
    "plan_shards",
    "shard_count",
    "ServeClient",
    "ServeClientError",
    "QuotaExceeded",
]
