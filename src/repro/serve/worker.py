"""Worker process: executes jobs for the pool or over the TCP fabric.

Two entry points share one execution core (:func:`run_one`):

* :func:`main` — spawned as ``python -m repro.serve.worker`` by the
  subprocess pool; it first writes one ``{"ready": true}`` line once
  its imports are done, so interpreter startup is never charged to a
  job's deadline, then one JSON object per line over stdin/stdout:

  request::

      {"id": "j000001", "kind": "check", "params": {...}, "attempt": 1,
       "epoch": 3}

  response::

      {"id": "j000001", "ok": true, "payload": {...}, "epoch": 3}
      {"id": "j000001", "ok": false, "error": "...", "error_code": "...",
       "transient": false, "epoch": 3}

  A worker that hangs simply produces no line; the pool's deadline
  watchdog SIGKILLs it and the manager thread sees EOF.

* :func:`main_tcp` — started by hand (or CI) as ``python -m repro
  worker --connect HOST:PORT --token T``; speaks the length-prefixed
  frame protocol of :mod:`~repro.serve.fabric`, heartbeats from a side
  thread, and reconnects with backoff when the server goes away. Here
  there is no babysitting manager, so the worker bounds *itself*: each
  job runs under the handshake-negotiated deadline via
  ``SIGALRM``-based :func:`repro.runtime.time_limit`, turning a hang
  into a transient error frame instead of a silent wedge. The server's
  own (longer) deadline still covers a worker too wedged to do even
  that.

Either way, jobs run on this process's *main* thread so the wrapped
subsystems' ``SIGALRM`` limits stay fully functional (repair candidate
watchdogs, campaign case timeouts).

``transient`` marks failures worth retrying (wall-clock limits blown by
a noisy neighbour); deterministic failures — parse errors, unknown
bugs — are final on the first attempt. The lease ``epoch`` is echoed
verbatim: the worker never interprets it, the server fences with it.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import threading
import time

from ..diag.model import error_code
from ..runtime import TimeLimitExceeded, time_limit
from .jobs import execute_job


def _respond(out, record):
    out.write(json.dumps(record, sort_keys=True) + "\n")
    out.flush()


def run_one(request, deadline=None):
    """Execute one job request; return the response record.

    ``deadline`` (seconds) arms a worker-side :func:`time_limit` around
    the job — the TCP fabric's self-bounding — so a wedged job becomes
    a transient error instead of a dead worker. Exits the process for
    the ``_chaos_exit`` harness fault, exactly like a segfault would.
    """
    job_id = request.get("id")
    attempt = int(request.get("attempt", 1))
    epoch = int(request.get("epoch", 0))
    params = request.get("params") or {}
    exit_chaos = params.get("_chaos_exit")
    if exit_chaos and attempt <= int(exit_chaos.get("attempts", 1)):
        # Simulated worker crash (chaos harness): die without a
        # response, exactly like a segfault would look.
        os._exit(57)
    # Self-bounding needs SIGALRM, which only the main thread may arm.
    # In-process test workers run on side threads; there the server's
    # own dispatch deadline is the (sole) safety net.
    arm = (deadline is not None and deadline > 0
           and threading.current_thread() is threading.main_thread())
    try:
        if arm:
            with time_limit(deadline):
                payload = execute_job(request.get("kind"), params,
                                      attempt=attempt)
        else:
            payload = execute_job(request.get("kind"), params,
                                  attempt=attempt)
        return {"id": job_id, "ok": True, "payload": payload,
                "epoch": epoch}
    except KeyboardInterrupt:
        raise
    except BaseException as exc:  # noqa: BLE001 — report, don't die
        return {
            "id": job_id,
            "ok": False,
            "error": "%s: %s" % (type(exc).__name__, str(exc)[:300]),
            "error_code": error_code(exc),
            "transient": isinstance(exc, TimeLimitExceeded),
            "epoch": epoch,
        }


def main(stdin=None, stdout=None):
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    _respond(stdout, {"ready": True})
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
        except ValueError:
            _respond(stdout, {"id": None, "ok": False,
                              "error": "malformed request",
                              "error_code": None, "transient": False})
            continue
        _respond(stdout, run_one(request))


# -- TCP fabric client --------------------------------------------------------


class _Heartbeat:
    """Side thread sending heartbeat frames every *interval* seconds.

    Shares the socket with the main thread's result writes through one
    lock — interleaved frames would tear the length-prefixed stream.
    """

    def __init__(self, sock, lock, interval):
        self._sock = sock
        self._lock = lock
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-worker-heartbeat", daemon=True
        )

    def start(self):
        self._thread.start()

    def stop(self):
        self._stop.set()

    def _run(self):
        from .fabric import encode_frame

        frame = encode_frame({"type": "heartbeat"})
        while not self._stop.wait(self._interval):
            try:
                with self._lock:
                    self._sock.sendall(frame)
            except OSError:
                return  # the main loop will notice on its next read


def _serve_connection(sock, token, worker_id, log):
    """One connected session: handshake, then jobs until EOF/bye."""
    from .fabric import PROTO_VERSION, encode_frame, read_frame_blocking

    reader = sock.makefile("rb")
    write_lock = threading.Lock()
    with write_lock:
        sock.sendall(encode_frame({
            "type": "hello",
            "proto": PROTO_VERSION,
            "token": token,
            "worker": worker_id,
        }))
    welcome = read_frame_blocking(reader)
    if welcome is None or welcome.get("type") == "reject":
        reason = (welcome or {}).get("error", "connection closed")
        log("handshake rejected: %s" % reason)
        return False  # fatal: reconnecting will not help
    if welcome.get("type") != "welcome":
        log("unexpected handshake frame %r" % welcome.get("type"))
        return False
    heartbeat = _Heartbeat(
        sock, write_lock, float(welcome.get("heartbeat", 2.0)) / 2.0
    )
    heartbeat.start()
    try:
        while True:
            frame = read_frame_blocking(reader)
            if frame is None:
                return True  # server went away: reconnect
            kind = frame.get("type")
            if kind == "bye":
                log("server said bye")
                return False
            if kind == "cancel":
                # Best effort: we only see this between jobs, where
                # there is nothing left to cancel. The lease fence on
                # the server makes acting on it optional.
                continue
            if kind != "job":
                continue
            response = run_one(frame, deadline=frame.get("deadline"))
            with write_lock:
                sock.sendall(encode_frame(dict(response, type="result")))
    finally:
        heartbeat.stop()


def main_tcp(host, port, token="", worker_id=None, max_reconnects=5,
             reconnect_delay=0.5, log=None):
    """Run a TCP fabric worker until the server dismisses it.

    Reconnects with linear backoff when the connection drops (a server
    restart, a chaos-cut link); gives up after *max_reconnects*
    consecutive failed attempts or when the server rejects the
    handshake / says bye. Returns an exit code.
    """
    log = log or (lambda msg: print(
        "[worker %s] %s" % (worker_id, msg), file=sys.stderr, flush=True
    ))
    worker_id = worker_id or ("pid%d" % os.getpid())
    failures = 0
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
        except OSError as exc:
            failures += 1
            if failures > max_reconnects:
                log("giving up after %d failed connects: %s"
                    % (failures, exc))
                return 1
            time.sleep(reconnect_delay * failures)
            continue
        failures = 0
        sock.settimeout(None)
        try:
            reconnect = _serve_connection(sock, token, worker_id, log)
        except OSError:
            reconnect = True  # connection died mid-session
        finally:
            try:
                sock.close()
            except OSError:
                pass
        if not reconnect:
            return 0
        time.sleep(reconnect_delay)


if __name__ == "__main__":
    main()
