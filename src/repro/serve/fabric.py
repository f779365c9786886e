"""The worker transport: one frame protocol over two kinds of link.

Every job reaches a worker through :class:`FabricPool`, over one of two
link kinds that speak the same protocol and follow the same rules:

* a **local link** — with ``workers=N``, the pool keeps N slots, each
  holding one ``python -u -m repro.serve.worker`` child that it starts
  when a job first needs it and restarts on demand after it dies
  (``worker_restarts``); frames travel over the child's stdin/stdout,
  so no socket is opened and a child whose server is gone sees EOF;
* a **TCP link** — with a ``port`` (0 picks a free one), the pool also
  listens for workers started with ``python -m repro worker --connect
  HOST:PORT --token T``, on this host or any other. With ``port=None``
  no listener is opened at all.

The wire protocol is JSON frames with an 8-hex-digit length prefix
(:func:`encode_frame`), opened by a version-checked handshake (a TCP
worker must also present the token; a local child is the server's own
and needs none):

    worker -> {"type": "hello", "proto": 1, "token": T, "worker": W}
    server -> {"type": "welcome", "proto": 1, "heartbeat": H,
               "watchdog": D}

after which the server pushes ``job`` frames (carrying the job, the
attempt number, the **lease epoch** and a backstop ``deadline``) and
the worker returns ``result`` frames echoing that epoch. ``cancel``
tells a worker its lease was fenced (best effort — a busy worker sees
it late) and ``bye`` announces server shutdown. Nothing is sent to a
link before its hello, so interpreter start-up is never charged to a
job's deadline.

Robustness model (see :mod:`~repro.serve.lease` for the fencing story):

* **one deadline rule** — each dispatch gets ``watchdog_seconds``. When
  they pass, the lease is fenced, the attempt ends ``timeout``
  ("watchdog kill after N s", counted in ``watchdog_kills``) and the
  link goes: a local child is SIGKILLed, a TCP link closed. The job
  frame's ``deadline`` (``watchdog_seconds`` plus two heartbeat
  intervals) arms the worker's own ``SIGALRM`` limit as a backstop, so
  a remote worker whose link was cut still stops a runaway job;
* every worker heartbeats on a side thread; the server tracks a
  monotonic last-beat per link and declares a worker **suspect** after
  ``heartbeat_misses`` missed intervals — its in-flight job is
  requeued and its lease fenced, but the link stays open, because a
  partitioned worker is indistinguishable from a dead one. If it comes
  back, it rejoins the pool; the result it was holding arrives with a
  stale epoch and is rejected, never double-applied;
* a link that ends (crash, SIGKILL, network teardown) requeues its
  in-flight job through the shared backoff/breaker machinery;
* the :class:`~repro.serve.chaos.ChaosMonkey` SIGKILLs local children
  at seeded points and drops, stalls, duplicates and delays frames on
  any link — the acceptance tests run whole campaigns under them.

The pool runs its own asyncio loop on a daemon thread behind the
synchronous :class:`~repro.serve.transport.WorkerTransport` contract.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import threading
import time

from .jobs import CRASHED, QUEUED, RUNNING, TIMEOUT
from .transport import WorkerTransport

#: Protocol version; a mismatched worker is rejected at handshake.
PROTO_VERSION = 1

#: Largest accepted frame (a job's params, never a bitstream).
MAX_FRAME_BYTES = 16 * 1024 * 1024

_PREFIX_LEN = 8


class FrameError(Exception):
    """A malformed or oversized frame (protocol violation)."""


def encode_frame(obj):
    """One wire frame: 8-hex-digit body length, then the JSON line."""
    body = (json.dumps(obj, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError("frame of %d bytes exceeds limit" % len(body))
    return ("%08x" % len(body)).encode("ascii") + body


def _parse_length(prefix):
    try:
        length = int(prefix.decode("ascii"), 16)
    except (UnicodeDecodeError, ValueError):
        raise FrameError("bad frame length prefix %r" % prefix)
    if length <= 0 or length > MAX_FRAME_BYTES:
        raise FrameError("unacceptable frame length %d" % length)
    return length


def _parse_body(body):
    try:
        frame = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        raise FrameError("frame body is not valid JSON")
    if not isinstance(frame, dict):
        raise FrameError("frame must be a JSON object")
    return frame


async def read_frame(reader):
    """Read one frame from an asyncio reader; None on clean EOF."""
    try:
        prefix = await reader.readexactly(_PREFIX_LEN)
    except asyncio.IncompleteReadError:
        return None
    length = _parse_length(prefix)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        return None  # torn frame: the peer died mid-write
    return _parse_body(body)


def read_frame_blocking(stream):
    """Read one frame from a blocking binary stream; None on EOF."""
    prefix = stream.read(_PREFIX_LEN)
    if not prefix:
        return None
    if len(prefix) < _PREFIX_LEN:
        return None  # torn prefix
    length = _parse_length(prefix)
    body = stream.read(length)
    if body is None or len(body) < length:
        return None  # torn body
    return _parse_body(body)


class _Link:
    """Server-side state for one worker link (local child or TCP)."""

    def __init__(self, worker_id, writer=None, slot=None):
        self.writer = writer
        self.worker_id = worker_id
        #: Local slot index, or None for a TCP link.
        self.slot = slot
        self.proc = None  # the local child, once started
        #: True once the worker's hello was accepted; a TCP link is
        #: only created then, a local one at spawn.
        self.ready = writer is not None
        self.job = None  # in-flight (or, before hello, bound) Job
        self.epoch = 0
        self.timers = []  # deadline and chaos-kill handles
        self.last_beat = time.monotonic()
        #: Heartbeats received before this instant are ignored (chaos
        #: stall injection) — the server goes deaf to this worker.
        self.deaf_until = 0.0
        #: True once heartbeat misses fenced this worker; a later frame
        #: re-admits it (a partition healed).
        self.suspect = False
        self.closed = False

    @property
    def idle(self):
        return self.job is None and not self.suspect and not self.closed


class FabricPool(WorkerTransport):
    """The worker transport: local pipe children and/or TCP workers,
    with lease-fenced exactly-once results."""

    def __init__(self, workers=0, host="127.0.0.1", port=None, token="",
                 heartbeat_interval=2.0, heartbeat_misses=3, **kwargs):
        super().__init__(**kwargs)
        self.host = host
        self.token = token
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_misses = heartbeat_misses
        self._requested_port = port
        self.port = None  # bound port, known once the listener is up
        self.stats.update({
            "workers_seen": 0,
            "handshake_rejected": 0,
            "heartbeat_misses": 0,
            "disconnect_requeues": 0,
            "straggler_redispatches": 0,
            "chaos_drops": 0,
            "chaos_stalls": 0,
            "chaos_dups": 0,
            "chaos_delays": 0,
        })
        self._pending = []  # dispatch queue (loop thread only)
        self._by_id = {}  # job id -> Job, for frames about non-current work
        self._links = set()
        #: Local slots: the live link in each, and whether it ever
        #: started a child (a later start is a restart).
        self._slots = [None] * max(0, workers)
        self._started = [False] * len(self._slots)
        self._local_tasks = set()
        self._server = None
        self._loop = None
        self._ready = threading.Event()
        self._startup_error = None
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-serve-fabric", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0) or self._loop is None:
            self._startup_error = self._startup_error or "timeout"
        if self._startup_error is not None:
            raise RuntimeError(
                "worker transport failed to start: %s" % self._startup_error
            )

    # -- loop lifecycle ------------------------------------------------------

    def _run_loop(self):
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._start())
        except Exception as exc:  # noqa: BLE001 — surface via constructor
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
            except Exception:  # noqa: BLE001
                pass
            loop.close()

    async def _start(self):
        if self._requested_port is not None:
            self._server = await asyncio.start_server(
                self._handle_conn, self.host, self._requested_port
            )
            self.port = self._server.sockets[0].getsockname()[1]
        self._monitor_task = asyncio.get_event_loop().create_task(
            self._monitor()
        )

    def close(self):
        """Dismiss TCP workers, kill and reap local children. Non-terminal
        jobs stay journaled as incomplete for ``--resume``."""
        if not self._mark_closed():
            return
        if self._loop is None:
            return
        try:
            asyncio.run_coroutine_threadsafe(
                self._shutdown(), self._loop
            ).result(timeout=10.0)
        except TimeoutError:
            pass  # still stop the loop
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)

    async def _shutdown(self):
        for link in list(self._links):
            if link.slot is None:
                self._send(link, {"type": "bye"})
            self._close_conn(link)
        if self._server is not None:
            self._server.close()
        self._monitor_task.cancel()
        if self._local_tasks:
            # Every local link's task ends by reaping its child.
            await asyncio.wait(list(self._local_tasks), timeout=5.0)

    # -- transport interface -------------------------------------------------

    def _enqueue(self, job):
        if self._on_loop():
            self._admit(job)
        else:
            self._loop.call_soon_threadsafe(self._admit, job)

    def _on_loop(self):
        try:
            return asyncio.get_running_loop() is self._loop
        except RuntimeError:
            return False

    def _admit(self, job):
        self._by_id[job.id] = job
        self._pending.append(job)
        self._pump()

    def queue_depth(self):
        return len(self._pending)

    def workers(self):
        """Ready (handshaken, non-suspect) worker count — a metrics gauge."""
        return sum(
            1 for link in list(self._links)
            if link.ready and not link.closed and not link.suspect
        )

    def kick(self, job):
        """Straggler re-dispatch: fence the running attempt, requeue now.

        The shard coordinator calls this when a sub-shard outlives the
        straggler deadline: the current lease (if any) is revoked, a
        ``cancel`` frame tells the loser to stop caring, and the job
        goes straight back on the queue for another worker. Consumes no
        retry budget — a slow worker is not a failed attempt.
        """
        if self._loop is None:
            return
        self._loop.call_soon_threadsafe(self._kick, job)

    def _kick(self, job):
        if job.terminal or job in self._pending:
            return
        for link in self._links:
            if link.job is job:
                self._count("straggler_redispatches")
                self.leases.revoke(job.id)
                self._send(link, {"type": "cancel", "id": job.id,
                                  "epoch": link.epoch})
                self._clear_dispatch(link)
                job.status = QUEUED
                # Prefer a different worker — handing the job straight
                # back to the straggler would defeat the redispatch.
                other = next(
                    (c for c in self._links if c.idle and c is not link),
                    None,
                )
                if other is not None:
                    self._by_id[job.id] = job
                    self._dispatch(other, job)
                else:
                    self._admit(job)
                return

    def _requeue_after(self, job, delay):
        # Delivery paths run on the event loop: never sleep in place.
        def _requeue():
            if not self.closed:
                self._admit(job)

        if self._on_loop():
            self._loop.call_later(delay, _requeue)
        else:
            self._loop.call_soon_threadsafe(
                lambda: self._loop.call_later(delay, _requeue)
            )

    # -- local children (loop thread) ----------------------------------------

    def _spawn_local(self):
        """Start a child in a free local slot; None when none is free."""
        try:
            slot = self._slots.index(None)
        except ValueError:
            return None
        if self._started[slot]:
            self._count("worker_restarts")
        self._started[slot] = True
        link = _Link("local%d" % slot, slot=slot)
        self._slots[slot] = link
        self._links.add(link)
        task = self._loop.create_task(self._run_local(link))
        self._local_tasks.add(task)
        task.add_done_callback(self._local_tasks.discard)
        return link

    async def _run_local(self, link):
        try:
            proc = await asyncio.create_subprocess_exec(
                sys.executable, "-u", "-m", "repro.serve.worker",
                stdin=asyncio.subprocess.PIPE,
                stdout=asyncio.subprocess.PIPE,
            )
        except OSError:
            self._on_disconnect(link)
            return
        link.proc, link.writer = proc, proc.stdin
        if link.closed:  # the pool closed while the child started
            self._close_conn(link)
        try:
            await self._handle_conn(proc.stdout, proc.stdin, link)
        finally:
            await proc.wait()

    # -- connection handling (loop thread) -----------------------------------

    async def _handle_conn(self, reader, writer, link=None):
        """Serve one link: a TCP connection, or a local child's pipes
        (*link* is then the slot's link, created at spawn)."""
        try:
            hello = await read_frame(reader)
            if hello is None or (link is not None and link.closed):
                return  # gone (or cut) before its hello
            problem = self._vet_hello(hello, local=link is not None)
            if problem is not None:
                self._count("handshake_rejected")
                writer.write(encode_frame(
                    {"type": "reject", "error": problem}
                ))
                await writer.drain()
                return
            if link is None:
                link = _Link(hello.get("worker") or "anonymous", writer)
                self._links.add(link)
            link.ready = True
            link.last_beat = time.monotonic()
            self._count("workers_seen")
            writer.write(encode_frame({
                "type": "welcome",
                "proto": PROTO_VERSION,
                "heartbeat": self.heartbeat_interval,
                "watchdog": self.watchdog_seconds,
            }))
            await writer.drain()
            if link.job is not None:
                self._send_job(link)  # bound while the child started
            self._pump()
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                self._on_frame(link, frame)
        except (ConnectionError, OSError, FrameError):
            pass  # a dead peer or a protocol violation drops the link
        finally:
            if link is not None:
                self._on_disconnect(link)
            try:
                writer.close()
            except Exception:  # noqa: BLE001
                pass

    def _vet_hello(self, hello, local):
        if hello.get("type") != "hello":
            return "expected a hello frame"
        if hello.get("proto") != PROTO_VERSION:
            return (
                "protocol version mismatch: server speaks %d, worker %r"
                % (PROTO_VERSION, hello.get("proto"))
            )
        if not local and self.token and hello.get("token") != self.token:
            return "bad token"
        return None

    def _send(self, link, obj):
        if link.closed or not link.ready:
            return  # nothing goes to a link before its hello
        try:
            link.writer.write(encode_frame(obj))
        except (ConnectionError, OSError, RuntimeError):
            self._close_conn(link)

    def _close_conn(self, link):
        """Take *link* down: SIGKILL a local child, close a TCP socket."""
        link.closed = True
        if link.proc is not None and link.proc.returncode is None:
            # os.kill, not Process.kill: that polls, and a poll can reap
            # a child that just died behind the loop's child watcher.
            try:
                os.kill(link.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if link.writer is not None:
            try:
                link.writer.close()
            except Exception:  # noqa: BLE001
                pass

    def _on_disconnect(self, link):
        self._links.discard(link)
        if link.slot is not None:
            self._slots[link.slot] = None
        self._close_conn(link)
        job, epoch = link.job, link.epoch
        self._clear_dispatch(link)
        if job is not None and not job.terminal and not self.closed:
            error = ("worker died" if link.slot is not None
                     else "worker %r connection lost" % link.worker_id)
            if self.abandon(job, epoch, error=error):
                self._count("disconnect_requeues")
        self._pump()  # a local slot freed: respawn if work is waiting

    # -- frames from workers -------------------------------------------------

    def _on_frame(self, link, frame):
        now = time.monotonic()
        kind = frame.get("type")
        if kind == "heartbeat":
            if now < link.deaf_until:
                return  # chaos stall: the server has gone deaf
            link.last_beat = now
            self._rejoin(link)
            return
        if kind == "result":
            link.last_beat = now
            self._rejoin(link)
            self._on_result(link, frame)
            return
        # Unknown frame types are ignored (forward compatibility).

    def _rejoin(self, link):
        if link.suspect and not link.closed:
            link.suspect = False  # the partition healed
            self._pump()

    def _on_result(self, link, frame):
        job_id = frame.get("id")
        epoch = int(frame.get("epoch", 0))
        if self.chaos is not None and self.chaos.drop_result(job_id, epoch):
            # Seeded connection drop: the frame never "arrived" and the
            # link that carried it goes down with it — attempt and all,
            # so the disconnect requeues the job.
            self._count("chaos_drops")
            self._close_conn(link)
            return
        if link.job is not None and link.job.id == job_id \
                and link.epoch == epoch:
            self._clear_dispatch(link)
        job = self._by_id.get(job_id)
        if job is None:
            # Finished and forgotten: a very late echo. Count the fence.
            self.leases.record_stale(job_id, epoch)
            self._count("stale_rejected")
            self._pump()
            return
        deliveries, delay = 1, None
        if self.chaos is not None:
            if self.chaos.duplicate_result(job_id, epoch):
                self._count("chaos_dups")
                deliveries = 2
            delay = self.chaos.delay_result(job_id, epoch)

        def _apply():
            applied = self.deliver(
                job, epoch,
                ok=bool(frame.get("ok")),
                payload=frame.get("payload"),
                error=frame.get("error", "unknown error"),
                error_code=frame.get("error_code"),
                transient=bool(frame.get("transient")),
            )
            if applied and job.terminal:
                self._by_id.pop(job.id, None)

        for _ in range(deliveries):
            if delay is not None:
                self._count("chaos_delays")
                self._loop.call_later(delay, _apply)
            else:
                _apply()
        self._pump()

    # -- dispatch ------------------------------------------------------------

    def _pump(self):
        if self.closed:
            return
        while self._pending:
            link = next((c for c in self._links if c.idle), None)
            if link is None:
                link = self._spawn_local()
                if link is None:
                    break
            job = self._pending.pop(0)
            if job.terminal:
                continue
            self._dispatch(link, job)
        self._gauge_depth()

    def _dispatch(self, link, job):
        """Grant a lease and bind *job* to *link*; a link that has not
        said hello yet gets the frame when it does."""
        lease = self.leases.grant(job.id)
        job.attempts += 1
        job.status = RUNNING
        self._count("executions")
        link.job = job
        link.epoch = lease.epoch
        if link.ready:
            self._send_job(link)

    def _send_job(self, link):
        """Put the bound job on the wire and start its clocks."""
        job, epoch = link.job, link.epoch
        chaos = self.chaos
        if chaos is not None:
            stall = chaos.stall_after(job.id, epoch)
            if stall is not None:
                self._count("chaos_stalls")
                now = time.monotonic()
                link.deaf_until = now + stall
                # The stall must be able to out-age the miss window, or
                # it would be invisible; backdate the last beat so the
                # monitor sees a worker that just went quiet.
                link.last_beat = min(link.last_beat, now)
        self._send(link, {
            "type": "job",
            "id": job.id,
            "kind": job.kind,
            "params": job.params,
            "attempt": job.attempts,
            "epoch": epoch,
            "deadline": self.watchdog_seconds
                        + 2.0 * self.heartbeat_interval,
        })
        link.timers.append(self._loop.call_later(
            self.watchdog_seconds, self._cut, link, job, epoch,
            "watchdog_kills", TIMEOUT,
            "watchdog kill after %.1fs" % self.watchdog_seconds,
        ))
        if chaos is not None and link.proc is not None:
            # Keyed by attempt, not epoch: the kill schedule for a seed
            # must not shift with lease bookkeeping.
            kill_after = chaos.kill_after(job.id, job.attempts)
            if kill_after is not None:
                link.timers.append(self._loop.call_later(
                    kill_after, self._cut, link, job, epoch,
                    "chaos_kills", CRASHED, "worker died",
                ))

    def _clear_dispatch(self, link):
        link.job = None
        link.epoch = 0
        for timer in link.timers:
            timer.cancel()
        link.timers = []

    def _cut(self, link, job, epoch, counter, status, error):
        """A deadline or a chaos kill hit a dispatch: fence the attempt,
        take the link down, and requeue or finalize the job."""
        if link.job is not job or link.epoch != epoch:
            return
        self._count(counter)
        self._clear_dispatch(link)
        self._close_conn(link)
        self.abandon(job, epoch, status=status, error=error)

    # -- heartbeat monitor ---------------------------------------------------

    async def _monitor(self):
        period = max(0.05, self.heartbeat_interval / 2.0)
        window = self.heartbeat_interval * self.heartbeat_misses
        while True:
            await asyncio.sleep(period)
            now = time.monotonic()
            for link in list(self._links):
                if link.closed or link.suspect or not link.ready:
                    continue
                if now - link.last_beat <= window:
                    continue
                self._count("heartbeat_misses")
                link.suspect = True
                job, epoch = link.job, link.epoch
                self._clear_dispatch(link)
                if job is not None and not job.terminal:
                    self.abandon(
                        job, epoch, status=CRASHED,
                        error="worker %r missed %d heartbeats"
                              % (link.worker_id, self.heartbeat_misses),
                    )
            self._pump()
