"""Worker process: executes jobs sent over the frame protocol.

One session (:func:`_serve_connection`) serves both link kinds of
:mod:`~repro.serve.fabric`: it sends ``hello``, waits for ``welcome``,
then runs ``job`` frames and answers with ``result`` frames, while a
side thread sends heartbeats. Two entry points run it:

* :func:`main` — ``python -u -m repro.serve.worker``, a server's own
  local child. One session over stdin/stdout; it returns when the
  server closes the pipe (EOF) or says ``bye``, and never reconnects.
  The real stdout carries only frames: fd 1 and ``sys.stdout`` point at
  stderr, so nothing a job prints can tear one. If the server dies
  while a job runs, the next heartbeat write fails and the child exits
  at once, so no local worker outlives its server.
* :func:`main_tcp` — ``python -m repro worker --connect HOST:PORT
  --token T``, on this host or another. The same session over a
  socket, reconnecting with backoff when the link drops.

Each job runs on this process's *main* thread, so the wrapped
subsystems' ``SIGALRM`` limits stay fully functional (repair candidate
watchdogs, campaign case timeouts), under a
:func:`repro.runtime.time_limit` set to the frame's ``deadline``. That
deadline is a backstop a little longer than the server's own: the
server kills the child or cuts the link first, and a worker whose link
was cut still stops a runaway job.

``transient`` marks failures worth retrying (wall-clock limits blown by
a noisy neighbour); deterministic failures — parse errors, unknown
bugs — are final on the first attempt. The lease ``epoch`` is echoed
verbatim: the worker never interprets it, the server fences with it.
"""

from __future__ import annotations

import os
import socket
import sys
import threading
import time

from ..diag.model import error_code
from ..runtime import TimeLimitExceeded, time_limit
from .fabric import PROTO_VERSION, encode_frame, read_frame_blocking
from .jobs import execute_job


def run_one(request, deadline=None):
    """Execute one job request; return the response record.

    ``deadline`` (seconds) arms a worker-side :func:`time_limit` around
    the job, so a wedged job becomes a transient error instead of a
    dead worker. Exits the process for the ``_chaos_exit`` harness
    fault, exactly like a segfault would.
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


class _Heartbeat:
    """Side thread sending heartbeat frames every *interval* seconds.

    *send* is the session's locked frame writer — interleaved frames
    would tear the length-prefixed stream. When a write fails the link
    is gone: *on_lost* (if any) runs, and the thread ends.
    """

    def __init__(self, send, interval, on_lost=None):
        self._send = send
        self._interval = interval
        self._on_lost = on_lost
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-worker-heartbeat", daemon=True
        )

    def start(self):
        self._thread.start()

    def stop(self):
        self._stop.set()

    def _run(self):
        while not self._stop.wait(self._interval):
            try:
                self._send({"type": "heartbeat"})
            except OSError:
                if self._on_lost is not None:
                    self._on_lost()
                return  # the main loop will notice on its next read


def _serve_connection(reader, write, token, worker_id, log, on_lost=None):
    """One session over a link: handshake, then jobs until EOF or bye.

    *reader* is a blocking binary stream and *write* sends bytes.
    Returns True when the link ended (a TCP worker reconnects), False
    when the server dismissed the worker (rejected handshake, ``bye``).
    """
    lock = threading.Lock()

    def send(obj):
        frame = encode_frame(obj)
        with lock:
            write(frame)

    send({
        "type": "hello",
        "proto": PROTO_VERSION,
        "token": token,
        "worker": worker_id,
    })
    welcome = read_frame_blocking(reader)
    if welcome is None or welcome.get("type") == "reject":
        reason = (welcome or {}).get("error", "connection closed")
        log("handshake rejected: %s" % reason)
        return False  # fatal: reconnecting will not help
    if welcome.get("type") != "welcome":
        log("unexpected handshake frame %r" % welcome.get("type"))
        return False
    heartbeat = _Heartbeat(
        send, float(welcome.get("heartbeat", 2.0)) / 2.0, on_lost
    )
    heartbeat.start()
    try:
        while True:
            frame = read_frame_blocking(reader)
            if frame is None:
                return True  # the link ended
            kind = frame.get("type")
            if kind == "bye":
                log("server said bye")
                return False
            # A ``cancel`` arrives only between jobs, where there is
            # nothing left to cancel; the server's lease fence makes
            # acting on it optional.
            if kind == "job":
                response = run_one(frame, deadline=frame.get("deadline"))
                send(dict(response, type="result"))
    finally:
        heartbeat.stop()


def _stderr_log(worker_id):
    return lambda msg: print(
        "[worker %s] %s" % (worker_id, msg), file=sys.stderr, flush=True
    )


def main(stdin=None, stdout=None):
    """Serve the server that spawned this process over its pipes.

    *stdin*/*stdout* are binary streams; by default the process's own,
    with the protocol moved off fd 1 (see the module docstring) and an
    immediate exit when the server goes away mid-job. Returns 0 once
    the server closes the pipe or says bye.
    """
    on_lost = None
    if stdout is None:
        stdout = os.fdopen(os.dup(1), "wb")
        os.dup2(2, 1)
        sys.stdout = sys.stderr
        on_lost = lambda: os._exit(0)  # noqa: E731
    stdin = stdin or sys.stdin.buffer

    def write(frame):
        stdout.write(frame)
        stdout.flush()

    worker_id = "pid%d" % os.getpid()
    try:
        _serve_connection(stdin, write, "", worker_id,
                          _stderr_log(worker_id), on_lost)
    except OSError:
        pass  # the server went away mid-write
    return 0


def main_tcp(host, port, token="", worker_id=None, max_reconnects=5,
             reconnect_delay=0.5, log=None):
    """Run a TCP fabric worker until the server dismisses it.

    Reconnects with linear backoff when the connection drops (a server
    restart, a chaos-cut link, a blown deadline); gives up after
    *max_reconnects* consecutive failed attempts or when the server
    rejects the handshake / says bye. Returns an exit code.
    """
    worker_id = worker_id or ("pid%d" % os.getpid())
    log = log or _stderr_log(worker_id)
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
            reconnect = _serve_connection(
                sock.makefile("rb"), sock.sendall, token, worker_id, log
            )
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
    sys.exit(main())
