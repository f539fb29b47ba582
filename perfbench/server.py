"""Lifecycle of one ``repro serve`` process for the served workloads.

The server runs in a child process started through
``launch_server.py``.  Its output goes to a log file, never to a pipe:
a pipe nobody reads fills up and stalls the server mid-run.  The bound
port is parsed from the log, and the server counts as up at its first
``ping`` reply.  Stopping sends SIGINT, escalates to SIGKILL after a
timeout, and reaps the child with ``os.wait4`` to read its peak RSS.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time

from repro.serve.client import ServeClient

HERE = os.path.dirname(os.path.abspath(__file__))
_PORT_RE = re.compile(r"serving on [^:\s]+:(\d+)")
#: Seconds from spawn to the first ping reply before giving up.
START_TIMEOUT_S = 60.0
#: Seconds after SIGINT before the server is killed.
STOP_TIMEOUT_S = 20.0


class ServerProcess:
    """One spawned ``repro serve --mode thread --workers 2`` process.

    Args:
        workdir: directory for the log and the result cache.
        tag: distinguishes this server's files from others in the run.
        spans: write traced spans to this file at shutdown (``None``:
            untraced).
    """

    def __init__(self, workdir: str, tag: str, spans: str | None = None):
        self.log_path = os.path.join(workdir, f"server-{tag}.log")
        self.cache_dir = os.path.join(workdir, f"cache-{tag}")
        self.port: int | None = None
        self.setup_s: float | None = None
        self.peak_rss_mb: float | None = None
        self.exit_code: int | None = None
        cmd = [sys.executable, "-u", os.path.join(HERE, "launch_server.py")]
        if spans:
            cmd += ["--spans", spans]
        cmd += ["--", "serve", "--host", "127.0.0.1", "--port", "0", "--mode", "thread",
                "--workers", "2", "--cache-dir", self.cache_dir]
        self._cmd = cmd
        self._proc: subprocess.Popen | None = None

    def start(self) -> ServerProcess:
        """Spawn the server and wait for its first ping reply.

        Sets :attr:`setup_s` to the time from spawn to that reply.

        Raises:
            RuntimeError: the server exited or did not answer in time.
        """
        env = dict(os.environ, REPRO_CACHE_DIR=self.cache_dir)
        started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self._proc = subprocess.Popen(
                self._cmd, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, env=env)
        try:
            deadline = started + START_TIMEOUT_S
            while self.port is None:
                self._check_alive(deadline)
                with open(self.log_path, errors="replace") as fh:
                    match = _PORT_RE.search(fh.read())
                if match:
                    self.port = int(match.group(1))
                else:
                    time.sleep(0.005)
            while not self._ping():
                self._check_alive(deadline)
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started
        return self

    def _check_alive(self, deadline: float) -> None:
        if self._proc.poll() is not None:
            raise RuntimeError(f"server exited early; see {self.log_path}")
        if time.perf_counter() > deadline:
            raise RuntimeError(f"server did not come up; see {self.log_path}")

    def _ping(self) -> bool:
        try:
            with ServeClient(port=self.port, timeout=2.0) as client:
                return client.send("ping", {"payload": 1}).ok
        except OSError:
            return False

    def stop(self) -> None:
        """SIGINT, then SIGKILL after a timeout; reap and read peak RSS."""
        proc = self._proc
        if proc is None or self.exit_code is not None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while True:
            try:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            except ChildProcessError:
                # Already reaped by Popen.poll(); no rusage left to read.
                self.exit_code = proc.returncode
                return
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                deadline = float("inf")
            time.sleep(0.02)
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB

