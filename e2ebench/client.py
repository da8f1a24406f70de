"""Closed-loop HTTP client for the ``service-mixed`` workload.

One server lifetime (:func:`lifetime`): spawn ``repro-sim serve`` with a
fresh cache and spool, wait for ``/healthz`` and one untimed warm-up job
(the set-up a server pays once, not per job), let :data:`CLIENTS` client
threads work through the seeded job sequence (each submits its next job
only after its previous one reached a terminal state, following
``/jobs/{id}/events`` until the stream ends), read ``/metrics``, then
SIGTERM the server and collect its peak RSS from ``wait4``.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import threading
import time
from pathlib import Path

#: concurrent closed-loop clients
CLIENTS = 2
#: ``repro-sim serve`` concurrency: two jobs at a time, each in-process
SERVE_FLAGS = ("--service-workers", "2", "--workers", "1")
#: give up on a server that has not answered /healthz by then
BOOT_TIMEOUT_S = 60.0
HTTP_TIMEOUT_S = 120.0


class Server:
    """A ``repro-sim serve`` subprocess on a free loopback port."""

    def __init__(self, cmd: list[str], env: dict, work: Path):
        self.log_path = work / "serve.log"
        cache = work / "cache"
        self.t_spawn = time.monotonic()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [*cmd, "--host", "127.0.0.1", "--port", "0",
                 "--cache-dir", str(cache), "--spool-dir", str(work / "spool"),
                 *SERVE_FLAGS],
                env=env, stdout=log, stderr=subprocess.STDOUT,
            )
        self.port = None
        self.peak_rss_mb = None

    def wait_ready(self) -> float:
        """Block until ``/healthz`` answers; returns seconds since spawn."""
        deadline = self.t_spawn + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: "
                    + self.log_path.read_text(errors="replace")[-2000:]
                )
            if self.port is None:
                self.port = self._port_from_log()
            if self.port is not None:
                try:
                    status, _ = request(self.port, "GET", "/healthz", timeout=2)
                    if status == 200:
                        return time.monotonic() - self.t_spawn
                except OSError:
                    pass
            time.sleep(0.005)
        raise RuntimeError("server did not answer /healthz in time")

    def _port_from_log(self):
        text = self.log_path.read_text(errors="replace")
        marker = "listening on http://127.0.0.1:"
        at = text.find(marker)
        if at < 0:
            return None
        digits = text[at + len(marker):].split(" ", 1)[0].strip()
        return int(digits) if digits.isdigit() else None

    def stop(self) -> None:
        """SIGTERM (graceful drain), reap, and record peak RSS."""
        if self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 60
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0


def request(port: int, method: str, path: str, body: dict | None = None,
            timeout: float = HTTP_TIMEOUT_S):
    """One HTTP exchange; returns ``(status, decoded body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        resp = conn.getresponse()
        data = resp.read()
        if resp.getheader("Content-Type", "").startswith("application/json"):
            return resp.status, json.loads(data)
        return resp.status, data.decode("utf-8", "replace")
    finally:
        conn.close()


def run_job(port: int, job: dict, rec=None) -> dict:
    """Submit one job and follow it to its terminal state.

    With a :class:`spans.Recorder`, each HTTP exchange is a span under
    one ``service.job`` span.
    """
    def call(name, *args):
        if rec is None:
            return request(port, *args)
        return rec.call(name, request, (port, *args), {})

    def follow():
        t0 = time.monotonic()
        status, doc = call(
            "service.post", "POST", "/jobs",
            {"specs": [s.to_dict() for s in job["specs"]]},
        )
        t_post = time.monotonic()
        if status != 202:
            return {"ok": False, "error": f"POST /jobs -> {status}: {doc}",
                    "latency_ms": None}
        call("service.events", "GET", f"/jobs/{doc['id']}/events")
        t_end = time.monotonic()
        wall_end = time.time()
        status, detail = call("service.get_job", "GET", f"/jobs/{doc['id']}")
        ok = status == 200 and detail.get("state") == "done"
        return {
            "ok": ok,
            "error": None if ok else f"job {doc['id']}: {detail}",
            "t_post": t0,
            "t_end": t_end,
            "latency_ms": (t_end - t0) * 1000.0,
            "post_ms": (t_post - t0) * 1000.0,
            "queue_wait_ms": _ms(detail.get("created"), detail.get("started")),
            "run_ms": _ms(detail.get("started"), detail.get("finished")),
            "notify_ms": _ms(detail.get("finished"), wall_end),
            "results": {r["key"]: r["stats"] for r in detail.get("runs", [])},
        }

    if rec is None:
        return follow()
    return rec.call("service.job", follow, (), {})


def _ms(a, b):
    return (b - a) * 1000.0 if a is not None and b is not None else None


def lifetime(cmd: list[str], env: dict, work: Path, warmup: dict,
             jobs: list[dict], rec=None) -> dict:
    """One server lifetime over the whole job sequence.

    Returns ``time.monotonic()`` readings: ``t_spawn``, ``t_setup`` (the
    ``warmup`` job has finished: set-up ends), ``t_start`` and ``t_stop``
    of the clients' phase and each job's ``t_post`` and ``t_end``; the
    raw durations ``setup_s`` and ``wall_s`` and each job's
    ``latency_ms`` are computed from them.
    """
    work.mkdir(parents=True, exist_ok=True)
    server = Server(cmd, env, work)
    try:
        server.wait_ready()
        first = run_job(server.port, warmup)
        if not first["ok"]:
            raise RuntimeError(f"warm-up job failed: {first['error']}")
        t_setup = time.monotonic()
        outcomes: list[dict | None] = [None] * len(jobs)
        lock = threading.Lock()
        cursor = iter(range(len(jobs)))
        errors: list[Exception] = []

        def client():
            try:
                while True:
                    with lock:
                        i = next(cursor, None)
                    if i is None:
                        return
                    try:
                        outcomes[i] = run_job(server.port, jobs[i], rec)
                    except OSError as exc:
                        outcomes[i] = {"ok": False, "error": repr(exc),
                                       "latency_ms": None}
            except Exception as exc:  # re-raised below, on the caller's thread
                errors.append(exc)

        t0 = time.monotonic()
        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        t_stop = time.monotonic()
        if errors:
            raise errors[0]
        _, metrics = request(server.port, "GET", "/metrics")
    finally:
        server.stop()
    return {
        "t_spawn": server.t_spawn,
        "t_setup": t_setup,
        "t_start": t0,
        "t_stop": t_stop,
        "setup_s": t_setup - server.t_spawn,
        "wall_s": t_stop - t0,
        "jobs": outcomes,
        "metrics": metrics,
        "peak_rss_mb": server.peak_rss_mb,
    }
