"""The served workload's side of the wire: a ``gpo serve`` daemon and a
small HTTP client built on the standard library only.

:class:`Daemon` starts ``python3 -m repro serve`` from the checkout's
``src/`` on a port the daemon picks itself, times its start until
``/healthz`` answers, and stops it with SIGINT (the daemon cancels its
workers on the way out).  :func:`ask` submits one question and follows
it to its verdict the way a client does: ``POST /v1/jobs`` (a result-cache
hit is answered in that response), otherwise the job's event stream
until it ends, then ``GET /v1/jobs/{id}``.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from workloads import ROOT, SHARDS, SRC

#: Worker processes of the daemon (``gpo serve --jobs``).
JOBS = 2
#: The daemon's default budget, which served questions run under.
MAX_STATES = 200_000
MAX_SECONDS = 30.0
#: What the daemon reports for a worker it reaped although the worker
#: had sent its result and exited normally (see README.md).
POOL_RACE = "worker died (exit code 0)"


class ServeError(RuntimeError):
    """An HTTP error, a rejected submission or a job that did not end
    with a verdict."""


class PoolRace(ServeError):
    """The daemon dropped a finished worker's result (:data:`POOL_RACE`)."""


def request(port: int, method: str, path: str, body: dict | None = None):
    """One request on its own connection; ``(status, raw body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _json(status: int, raw: bytes, path: str) -> dict:
    if status >= 300:
        raise ServeError(f"{path}: HTTP {status}: {raw[:200]!r}")
    return json.loads(raw.decode("utf-8"))


class Daemon:
    """One ``gpo serve`` process with its own cache directory."""

    def __init__(self, cache_dir: Path, log: Path) -> None:
        self.cache_dir = cache_dir
        self.log = log
        self.process: subprocess.Popen | None = None
        self.port = 0
        self.start_s = 0.0

    def start(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        t0 = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", str(JOBS), "--cache-dir", str(self.cache_dir),
             "--max-seconds", str(MAX_SECONDS)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=open(self.log, "ab"), text=True,
        )
        # "[serve] listening on http://127.0.0.1:PORT (...)"
        line = self.process.stdout.readline()
        if "listening on" not in line:
            raise ServeError(f"daemon did not start: {line!r}")
        self.port = int(line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])
        while True:
            try:
                status, _ = request(self.port, "GET", "/healthz")
            except OSError:
                status = 0
            if status == 200:
                break
            if time.perf_counter() - t0 > 60:
                raise ServeError("daemon did not answer /healthz within 60 s")
            time.sleep(0.002)
        self.start_s = time.perf_counter() - t0

    def peak_rss_mb(self) -> float:
        """The daemon's own peak RSS (``VmHWM``), read while it runs."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ServeError("no VmHWM in the daemon's /proc status")

    def stop(self) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.process = None


def submit_body(question, text: str) -> dict:
    body = {"net": text, "method": question.method, "tenant": "perfbench"}
    if question.query != "deadlock":
        body["property"] = question.query
    if question.method == "parallel":
        body["shards"] = SHARDS
    return body


def ask(port: int, question, text: str, span) -> tuple[dict, int]:
    """Submit one question and follow it to its verdict.

    Returns the final job body (with ``cached``) and the worker's peak
    RSS in KiB from the job's terminal event (0 for a cache hit).
    Raises :class:`ServeError` on an HTTP error or 429, and on a job
    that ends without a result.
    """
    with span("serve.submit"):
        status, raw = request(port, "POST", "/v1/jobs", submit_body(question, text))
    body = _json(status, raw, "POST /v1/jobs")
    worker_rss_kb = 0
    if status == 202:
        path = f"/v1/jobs/{body['id']}"
        with span("serve.wait"):
            status, raw = request(port, "GET", path + "/events")
        if status != 200:
            raise ServeError(f"{path}/events: HTTP {status}")
        for line in raw.decode("utf-8").splitlines():
            event = json.loads(line)
            worker_rss_kb = max(worker_rss_kb, event.get("peak_rss_kb") or 0)
        with span("serve.poll"):
            status, raw = request(port, "GET", path)
        cached = body["cached"]
        body = _json(status, raw, path)
        body["cached"] = cached
    if body.get("state") != "done" or "result" not in body:
        error = body.get("error")
        kind = PoolRace if error == POOL_RACE else ServeError
        raise kind(f"job ended {body.get('state')}: {error}")
    return body, worker_rss_kb
