"""Fault injection for the fabric, and the scripted drill CI gates on.

Two primitives over a real multi-process cluster:

* :class:`ChaosWorker` — one subprocess worker (``python -m repro.cli
  worker``) that can be SIGKILLed and restarted under the same ring
  identity;
* :class:`ChaosCluster` — the assembled fleet: an in-process
  front-end (R-way replication), a TLS-capable cache peer federating
  results *and* compiled-program artifacts, and N subprocess workers
  that join, pre-warm, and heartbeat like production nodes.

On top of them, :func:`run_drill` scripts the failure story the
replication layer exists for, and **measures** it instead of assuming
it:

1. warm the fleet (every worker promotes the replica cache entries it
   stands behind; a program it misses loads from the peer, not a
   compile);
2. drive steady closed-loop load and SIGKILL a worker mid-pass;
3. assert **zero lost acked reads** (every request answered ok by a
   survivor) and **zero failover recompiles** (no survivor's
   program-cache miss counter moved — warmth, not luck);
4. restart the dead worker and assert it rejoins warm (again zero
   recompiles) and the ring rebalances back to full strength;
5. with TLS enabled and a rogue identity supplied, assert a wrong-CA
   client is refused at the handshake, *before* the HMAC layer ever
   sees a request.

``python -m repro.fabric.chaos`` runs the drill standalone and exits
non-zero on any violation — the CI ``chaos-smoke`` job is exactly that
invocation over the committed test certificates.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.fabric.tls import TLSConfig

#: Seconds a cluster waits for membership/warmth conditions by default.
WAIT_TIMEOUT = 60.0


# -- primitives --------------------------------------------------------


class ChaosWorker:
    """One subprocess fabric worker with kill/restart controls.

    Built by :class:`ChaosCluster`; the same ``worker_id`` and cache
    directory survive a :meth:`restart`, so a restarted worker models a
    rebooted node with its disk intact (it re-claims its ring range and
    loads the programs it misses from its local artifact store).
    """

    def __init__(self, index: int, worker_id: str, spawn, log_path: Path):
        self.index = index
        self.worker_id = worker_id
        self._spawn = spawn
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.restarts = 0

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def start(self) -> None:
        if self.alive:
            raise RuntimeError(f"worker {self.worker_id} already running")
        self.proc = self._spawn(self)

    def kill(self) -> None:
        """SIGKILL — no leave message, no flush; the crash case."""
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()

    def restart(self) -> None:
        """Kill (if needed) and respawn under the same identity."""
        self.kill()
        self.restarts += 1
        self.proc = self._spawn(self)


# -- the cluster -------------------------------------------------------


class ChaosCluster:
    """A replicated fabric under test: peer + front-end + N workers.

    Args:
        workers: subprocess worker count.
        replication: the front-end's R (replicas per key).
        secret: shared HMAC secret for every surface.
        tls: fleet TLS identity; ``None`` runs cleartext (the drill
            still proves routing, just not transport security).
        heartbeat_timeout: front-end eviction window — kept short so a
            SIGKILL is detected within a drill-friendly delay.
        prewarm_interval: workers' periodic replica pre-warm cadence.
        base_dir: scratch root (default: a fresh temp dir).

    Use as a context manager; :meth:`start` blocks until every worker
    has joined the ring.
    """

    def __init__(self, workers: int = 3, replication: int = 2,
                 secret: str | None = "chaos-drill-secret",
                 tls: TLSConfig | None = None,
                 heartbeat_timeout: float = 1.0,
                 prewarm_interval: float = 0.5,
                 worker_inflight_limit: int = 32,
                 base_dir: str | Path | None = None):
        from repro.fabric.frontend import FrontendConfig, FrontendHandle
        from repro.runtime.peer import CachePeer

        self.replication = replication
        self.secret = secret
        self.tls = tls
        self.prewarm_interval = prewarm_interval
        self._tmp = None
        if base_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
            base_dir = self._tmp.name
        self.base = Path(base_dir)
        self.peer = CachePeer(
            root=self.base / "peer", port=0, secret=secret, tls=tls)
        self.frontend = FrontendHandle(FrontendConfig(
            port=0, heartbeat_timeout=heartbeat_timeout,
            auth_secret=secret, replication=replication,
            worker_inflight_limit=worker_inflight_limit, tls=tls))
        self.workers = [
            ChaosWorker(i, f"chaos-w{i}", self._spawn, self.base / f"w{i}.log")
            for i in range(workers)]

    # -- lifecycle -----------------------------------------------------

    def start(self) -> ChaosCluster:
        self.peer.start()
        self.frontend.start()
        for worker in self.workers:
            worker.start()
        self.wait_for_fleet(len(self.workers))
        return self

    def stop(self) -> None:
        for worker in self.workers:
            worker.kill()
        self.frontend.stop()
        self.peer.stop()
        if self._tmp is not None:
            self._tmp.cleanup()

    def __enter__(self) -> ChaosCluster:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _spawn(self, worker: ChaosWorker) -> subprocess.Popen:
        import repro

        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        # The worker's HTTP peer tier signs with the *ambient* secret
        # (repro.fabric.auth.default_secret), so the env var — not just
        # the --secret flag — must carry it into the subprocess.
        if self.secret is not None:
            env["REPRO_FABRIC_SECRET"] = self.secret
        else:
            env.pop("REPRO_FABRIC_SECRET", None)
        cmd = [
            sys.executable, "-m", "repro.cli", "worker",
            "--join", f"127.0.0.1:{self.frontend.port}", "--port", "0",
            "--workers", "2", "--mode", "thread",
            "--worker-id", worker.worker_id,
            "--cache-dir", str(self.base / worker.worker_id / "cache"),
            "--remote-cache", self.peer.url,
            "--prewarm-programs",
            "--prewarm-interval", str(self.prewarm_interval),
        ]
        if self.secret is not None:
            cmd += ["--secret", self.secret]
        if self.tls is not None:
            cmd += ["--tls-cert", str(self.tls.certfile),
                    "--tls-key", str(self.tls.keyfile)]
            if self.tls.cafile:
                cmd += ["--tls-ca", str(self.tls.cafile)]
        log = open(worker.log_path, "ab")
        try:
            return subprocess.Popen(cmd, stdout=log, stderr=log, env=env)
        finally:
            log.close()

    # -- observation ---------------------------------------------------

    @property
    def port(self) -> int:
        """The front-end port clients (and the load generator) dial."""
        assert self.frontend.port is not None
        return self.frontend.port

    def live_workers(self) -> list[dict]:
        """The front-end's current member descriptions."""
        return self.frontend.frontend.membership.snapshot()["workers"]

    def wait_for_fleet(self, count: int, timeout: float = WAIT_TIMEOUT) -> None:
        """Block until exactly ``count`` workers are on the ring."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if len(self.frontend.frontend.membership) == count:
                return
            if not any(w.alive for w in self.workers) and count > 0:
                raise RuntimeError(
                    "every chaos worker died during startup; see "
                    + ", ".join(str(w.log_path) for w in self.workers))
            time.sleep(0.05)
        raise TimeoutError(
            f"fleet never reached {count} worker(s); see "
            + ", ".join(str(w.log_path) for w in self.workers))

    def worker_stats(self, worker_id: str) -> dict:
        """Dial one worker's serve socket directly and fetch ``_stats``.

        The front-end's member table supplies the address; the reply is
        the worker's own counters — including ``programs`` with the
        process-wide compile-miss count the drill gates on.
        """
        from repro.serve.client import ServeClient

        for member in self.live_workers():
            if member["worker_id"] == worker_id:
                with ServeClient(member["host"], member["port"],
                                 secret=self.secret, tls=self.tls) as client:
                    response = client.send("_stats", {})
                if not response.ok:
                    raise RuntimeError(
                        f"worker {worker_id} refused _stats: {response.error}")
                return response.value
        raise KeyError(f"worker {worker_id} is not on the ring")

    def program_misses(self) -> dict[str, int]:
        """Per-live-worker compiled-program cache misses (= compiles)."""
        return {
            member["worker_id"]:
                int(self.worker_stats(member["worker_id"])["programs"]["misses"])
            for member in self.live_workers()
        }

    def wait_for_warmth(self, timeout: float = WAIT_TIMEOUT,
                        only: set[str] | None = None) -> dict:
        """Block until every (selected) live worker reports full warmth.

        Warm means the worker's replica pre-warm has run and its latest
        report shows **zero absent entries**: every cataloged request
        this worker stands behind (as owner or replica) is resident in
        its local cache — held hot or just promoted from the peer — so
        a failover to it executes nothing and recompiles nothing.

        Returns the final per-worker report map.
        """
        deadline = time.monotonic() + timeout
        reports: dict = {}
        while time.monotonic() < deadline:
            reports = {
                member["worker_id"]:
                    self.worker_stats(member["worker_id"]).get("replica_prewarm", {})
                for member in self.live_workers()
                if only is None or member["worker_id"] in only}

            def _warm(report: dict) -> bool:
                last = report.get("last") or {}
                results = last.get("results")
                return (report.get("runs", 0) > 0 and "error" not in last
                        and results is not None and results.get("absent") == 0)

            if reports and all(_warm(r) for r in reports.values()):
                return reports
            time.sleep(0.1)
        raise TimeoutError(f"workers never reached replica warmth: {reports}")


# -- the drill ---------------------------------------------------------


@dataclass
class DrillReport:
    """Everything :func:`run_drill` measured, plus the verdict.

    ``violations`` is empty on a clean drill; each entry is one
    human-readable broken invariant (lost ack, failover recompile,
    wrong-CA accepted, ...).
    """

    workers: int
    replication: int
    tls: bool
    phases: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = [f"chaos drill: {self.workers} worker(s), "
                 f"R={self.replication}, TLS={'on' if self.tls else 'off'}"]
        for name, info in self.phases.items():
            lines.append(f"  {name}: " + ", ".join(
                f"{k}={v}" for k, v in info.items()))
        if self.violations:
            lines.append("VIOLATIONS:")
            lines.extend(f"  - {v}" for v in self.violations)
        else:
            lines.append("drill clean: zero lost acks, zero failover recompiles")
        return "\n".join(lines)


def _drill_mix(n: int) -> list[tuple]:
    """Read-only traffic sharing a handful of compiled program shapes.

    Distinct ``seed`` values spread the keys across the ring while the
    fixed layer geometry keeps the compiled-program population small
    and countable — exactly the shape the warmth gates need.
    """
    return [("network_forward",
             {"c": 4, "size": 8, "k1": 4, "k2": 4, "classes": 6, "u": 9,
              "batch": 1, "seed": i % 16},
             ("high", "normal")[i % 2])
            for i in range(n)]


def _load_summary(result) -> dict:
    lost = sum(1 for r in result.records if not r.ok and not r.shed)
    return {"requests": result.stats.requests, "lost": lost,
            "shed": result.stats.shed,
            "p99_ms": round(result.stats.p99_ms, 2)}


def run_drill(workers: int = 3, replication: int = 2,
              tls: TLSConfig | None = None, rogue: TLSConfig | None = None,
              secret: str | None = "chaos-drill-secret",
              requests: int = 48, duration: float = 4.0,
              kill_after: float = 1.0,
              base_dir: str | Path | None = None) -> DrillReport:
    """The scripted kill/restart drill; see the module docstring.

    Args:
        workers/replication: cluster shape (R=2 over 3 workers is the
            CI configuration).
        tls: fleet identity; with ``rogue`` also set, the drill proves
            a wrong-CA client dies at the handshake.
        requests: warm-up pass length.
        duration: seconds of sustained load during the kill phase.
        kill_after: seconds into the sustained pass the SIGKILL lands.
        base_dir: scratch root (default: fresh temp dir).

    Returns:
        a :class:`DrillReport`; ``report.ok`` is the CI gate.
    """
    from repro.serve.loadgen import run_load

    report = DrillReport(workers=workers, replication=replication,
                         tls=tls is not None)
    cluster = ChaosCluster(workers=workers, replication=replication,
                           secret=secret, tls=tls, base_dir=base_dir)
    with cluster:
        # Phase 1: warm the fleet.  The pass compiles each program shape
        # once somewhere and the artifact tier pushes it to the peer,
        # where any other worker that misses it loads it from.
        warmup = run_load("127.0.0.1", cluster.port, _drill_mix(requests),
                          concurrency=4, secret=secret, tls=tls)
        report.phases["warmup"] = _load_summary(warmup)
        if any(not r.ok for r in warmup.records):
            report.violations.append(
                f"warmup: {sum(1 for r in warmup.records if not r.ok)} "
                "request(s) failed before any fault was injected")
        warmth = cluster.wait_for_warmth()
        baseline = cluster.program_misses()
        report.phases["warmth"] = {
            "prewarm_runs": {w: r.get("runs") for w, r in warmth.items()},
            "compiles": dict(baseline)}

        # Phase 2: steady load, SIGKILL one worker mid-pass.
        victim = cluster.workers[0]
        killer = threading.Timer(kill_after, victim.kill)
        killer.start()
        storm = run_load("127.0.0.1", cluster.port, _drill_mix(requests),
                         concurrency=4, secret=secret, tls=tls,
                         duration=duration)
        killer.join()
        report.phases["kill"] = {"victim": victim.worker_id,
                                 **_load_summary(storm)}
        lost = [r for r in storm.records if not r.ok and not r.shed]
        if lost:
            report.violations.append(
                f"kill: {len(lost)} acked read(s) lost (first: "
                f"{lost[0].error})")
        cluster.wait_for_fleet(workers - 1,
                               timeout=20 * cluster.frontend.config.heartbeat_timeout)

        # Phase 3: survivors must have absorbed the reroute warm.
        survivors = cluster.program_misses()
        for worker_id, misses in survivors.items():
            delta = misses - baseline.get(worker_id, 0)
            if delta:
                report.violations.append(
                    f"failover: survivor {worker_id} recompiled {delta} "
                    "program(s) instead of loading them from artifacts")
        report.phases["survivors"] = {"compiles": dict(survivors)}

        # Phase 4: restart the victim; it must rejoin and load what it
        # misses (its artifacts are on disk and the peer has the rest).
        victim.restart()
        cluster.wait_for_fleet(workers)
        cluster.wait_for_warmth(only={victim.worker_id})
        rebalanced = run_load("127.0.0.1", cluster.port,
                              _drill_mix(requests // 2 or 1),
                              concurrency=4, secret=secret, tls=tls)
        report.phases["restart"] = _load_summary(rebalanced)
        if any(not r.ok and not r.shed for r in rebalanced.records):
            report.violations.append("restart: requests failed after rejoin")
        restarted = cluster.program_misses().get(victim.worker_id, 0)
        if restarted:
            report.violations.append(
                f"restart: {victim.worker_id} recompiled {restarted} "
                "program(s) instead of loading them from artifacts")
        ring = sorted(m["worker_id"] for m in cluster.live_workers())
        expected_ring = sorted(w.worker_id for w in cluster.workers)
        if ring != expected_ring:
            report.violations.append(
                f"restart: ring is {ring}, expected {expected_ring}")

        # Phase 5 (TLS only): a wrong-CA client must die in the
        # handshake — before the HMAC layer could even reject it.
        if tls is not None and rogue is not None:
            import ssl

            from repro.serve.client import ServeClient

            before = cluster.frontend.stats()["auth_rejected"]
            outcome = "accepted"
            try:
                with ServeClient("127.0.0.1", cluster.port, secret=secret,
                                 tls=rogue) as bad:
                    bad.send("ping", {})
            except (ssl.SSLError, ConnectionError, OSError):
                outcome = "handshake-refused"
            after = cluster.frontend.stats()["auth_rejected"]
            report.phases["wrong_ca"] = {"outcome": outcome,
                                         "auth_rejected_delta": after - before}
            if outcome != "handshake-refused":
                report.violations.append(
                    "wrong-CA client completed a request; TLS verification "
                    "is not actually gating the socket")
            if after != before:
                report.violations.append(
                    "wrong-CA client reached the HMAC layer "
                    "(auth_rejected moved) — it should die in the handshake")
    return report


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.fabric.chaos`` — run the drill, gate on it."""
    parser = argparse.ArgumentParser(
        prog="repro.fabric.chaos", description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=3)
    parser.add_argument("--replication", type=int, default=2)
    parser.add_argument("--requests", type=int, default=48,
                        help="warm-up pass length")
    parser.add_argument("--duration", type=float, default=4.0,
                        help="seconds of sustained load around the SIGKILL")
    parser.add_argument("--secret", default=None,
                        help="shared HMAC secret (default: "
                             "$REPRO_FABRIC_SECRET or a drill-local one)")
    parser.add_argument("--tls-cert", default=None, metavar="PEM")
    parser.add_argument("--tls-key", default=None, metavar="PEM")
    parser.add_argument("--tls-ca", default=None, metavar="PEM")
    parser.add_argument("--rogue-cert", default=None, metavar="PEM",
                        help="wrong-CA client certificate; enables the "
                             "handshake-rejection check")
    parser.add_argument("--rogue-key", default=None, metavar="PEM")
    parser.add_argument("--rogue-ca", default=None, metavar="PEM")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="also write the report as JSON")
    args = parser.parse_args(argv)

    tls = rogue = None
    if args.tls_cert:
        tls = TLSConfig(certfile=args.tls_cert, keyfile=args.tls_key,
                        cafile=args.tls_ca)
    if args.rogue_cert:
        rogue = TLSConfig(certfile=args.rogue_cert, keyfile=args.rogue_key,
                          cafile=args.rogue_ca)
    from repro.fabric.auth import default_secret

    secret = args.secret or default_secret() or "chaos-drill-secret"
    report = run_drill(workers=args.workers, replication=args.replication,
                       tls=tls, rogue=rogue, secret=secret,
                       requests=args.requests, duration=args.duration)
    print(report.render())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"workers": report.workers,
                       "replication": report.replication,
                       "tls": report.tls, "phases": report.phases,
                       "violations": report.violations,
                       "ok": report.ok}, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
