"""Content-addressed artifact cache with LRU eviction and verified reads.

Most serve traffic re-checks near-identical designs, so finished job
payloads are cached on disk under their content key (see
:func:`repro.serve.jobs.job_cache_key`). The cache is engineered for
hostile conditions, per the failure model the rest of the stack
assumes:

* **verified on read** — every entry stores the SHA-256 of its
  payload's canonical JSON; a mismatch (bit rot, torn write, a chaos
  monkey with a hex editor) is treated as a miss: the entry is deleted,
  the ``serve.cache.corrupt`` counter ticks, and the caller recomputes.
  Corruption can cost a recompute, never a crash and never a wrong
  answer;
* **bounded** — total bytes on disk stay under ``max_bytes``; inserts
  evict least-recently-used entries. Recency is an **explicit access
  counter** persisted in a sidecar index (``lru-index``), not file
  mtime: on fast filesystems consecutive accesses land in the same
  mtime granule, which made eviction order tie-dependent and therefore
  filesystem-dependent. The index survives restarts (warmth persists)
  and its loss is harmless — unindexed entries are merely treated as
  coldest, in stable name order;
* **crash-safe writes** — entries land via write-to-temp + atomic
  rename, so a crash mid-``put`` leaves either the old entry or none.
  The index is written the same way; a torn or corrupt index is
  discarded and rebuilt, never trusted.

Thread-safe: the server's asyncio thread checks for hits at submit
time while the worker transport's loop thread inserts finished results.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading

from .jobs import canonical_json


class ArtifactCache:
    """Disk-backed LRU cache of JSON payloads keyed by content digest."""

    def __init__(self, directory, max_bytes=64 * 1024 * 1024):
        self.directory = directory
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corrupt = 0
        os.makedirs(directory, exist_ok=True)
        self._index_path = os.path.join(directory, "lru-index")
        self._access = {}  # entry filename -> access sequence number
        self._access_seq = 0
        self._load_index()

    # -- internals ----------------------------------------------------------

    def _path(self, key):
        return os.path.join(self.directory, "%s.json" % key)

    def _load_index(self):
        """Restore the access-order index; tolerate loss or damage."""
        try:
            with open(self._index_path, "r") as handle:
                raw = json.load(handle)
            self._access = {
                str(name): int(seq) for name, seq in raw.items()
            }
        except (OSError, ValueError, TypeError, AttributeError):
            # Missing (fresh cache), torn, or corrupt: start cold.
            # Unindexed entries evict first, so correctness holds.
            self._access = {}
        self._access_seq = max(self._access.values(), default=0)

    def _save_index(self):
        temp = self._index_path + ".tmp"
        try:
            with open(temp, "w") as handle:
                json.dump(self._access, handle, separators=(",", ":"))
            os.replace(temp, self._index_path)
        except OSError:
            pass  # recency is an optimization; never fail the caller

    def _touch(self, path):
        """Mark *path* most-recently-used and persist the ordering."""
        self._access_seq += 1
        self._access[os.path.basename(path)] = self._access_seq
        self._save_index()

    def _drop_index(self, path):
        if self._access.pop(os.path.basename(path), None) is not None:
            self._save_index()

    def _entries(self):
        """``[(mtime, size, path)]`` of every entry currently on disk."""
        entries = []
        for name in os.listdir(self.directory):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.directory, name)
            try:
                stat = os.stat(path)
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        return entries

    def _record(self, field):
        from .. import obs

        setattr(self, field, getattr(self, field) + 1)
        if obs.enabled:
            obs.counter("serve.cache.%s" % field).inc()

    # -- public API ---------------------------------------------------------

    def get(self, key):
        """The cached payload for *key*, or ``None``.

        A present-but-corrupt entry is deleted and reported as a miss.
        """
        path = self._path(key)
        with self._lock:
            try:
                with open(path, "r") as handle:
                    entry = json.load(handle)
                payload = entry["payload"]
                digest = hashlib.sha256(
                    canonical_json(payload).encode("utf-8")
                ).hexdigest()
                if digest != entry["digest"]:
                    raise ValueError("digest mismatch")
            except FileNotFoundError:
                self._record("misses")
                return None
            except (ValueError, KeyError, TypeError, OSError):
                # Corrupt entry: recompute, never crash.
                self._record("corrupt")
                self._record("misses")
                try:
                    os.remove(path)
                except OSError:
                    pass
                self._drop_index(path)
                return None
            self._record("hits")
            self._touch(path)
            return payload

    def put(self, key, payload):
        """Insert *payload* under *key*, evicting LRU entries if needed."""
        body = json.dumps(
            {
                "digest": hashlib.sha256(
                    canonical_json(payload).encode("utf-8")
                ).hexdigest(),
                "payload": payload,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        path = self._path(key)
        with self._lock:
            temp = path + ".tmp"
            with open(temp, "w") as handle:
                handle.write(body)
            os.replace(temp, path)
            self._touch(path)
            self._evict(keep=path)

    def _evict(self, keep=None):
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        if total <= self.max_bytes:
            return
        # Strict LRU by access sequence; entries missing from the index
        # (a lost or pre-upgrade cache) are coldest, in stable name
        # order — never mtime, whose granularity ties on fast
        # filesystems made eviction order filesystem-dependent.
        ranked = sorted(
            entries,
            key=lambda entry: (
                self._access.get(os.path.basename(entry[2]), 0),
                os.path.basename(entry[2]),
            ),
        )
        dropped = False
        for _, size, path in ranked:
            if total <= self.max_bytes:
                break
            if path == keep:
                continue
            try:
                os.remove(path)
            except OSError:
                continue
            self._access.pop(os.path.basename(path), None)
            dropped = True
            total -= size
            self._record("evictions")
        if dropped:
            self._save_index()

    def __contains__(self, key):
        return os.path.exists(self._path(key))

    def __len__(self):
        return len(self._entries())

    def total_bytes(self):
        return sum(size for _, size, _ in self._entries())

    def corrupt_entry(self, key):
        """Deliberately damage *key*'s stored payload (chaos harness)."""
        path = self._path(key)
        with self._lock:
            with open(path, "r") as handle:
                entry = json.load(handle)
            entry["payload"] = {"tampered": True}
            with open(path, "w") as handle:
                json.dump(entry, handle)

    def stats(self):
        """JSON-ready counters plus the current footprint."""
        hits, misses = self.hits, self.misses
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "entries": len(self),
            "bytes": self.total_bytes(),
            "hit_rate": round(hits / lookups, 4) if lookups else None,
        }
