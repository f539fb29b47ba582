"""A fabric worker: a serve process that joins a front-end's fleet.

:class:`WorkerNode` wraps the existing :class:`repro.serve.ServerHandle`
— endpoints, micro-batching, shard pool, and tiered cache all reused
verbatim — and adds the *membership agent*: a daemon thread that joins
the front-end on start, heartbeats on a fraction of the front-end's
eviction timeout, re-joins when a heartbeat answer says the front-end
no longer knows it (evicted during a partition, or the front-end
restarted), and retries with a small backoff when the front-end itself
is unreachable.  The worker keeps serving its socket throughout — fleet
trouble never takes down local traffic.

Sequencing matters on the way up and the way down: the serve socket is
bound *before* the join (the front-end may route the moment a worker
appears on the ring), and ``_leave`` is sent *before* the socket closes
(so a graceful shutdown moves the ring range with zero failed
forwards).  With ``prewarm_programs`` in the config, the wrapped
server loads a program it misses from its local artifacts or the cache
peer before compiling, and pushes every program it compiles — so a
program any node has compiled is a load, not a compile, here (compile
once, execute everywhere).

Under R-way replication the agent also keeps this node warm for every
key range it *backs up*, not just the ranges it owns: whenever the
heartbeat reply reports a membership-version change (someone joined or
died, so replica placement moved), and on a slow periodic cadence
regardless, it walks the front-end's ``_assignments`` catalog,
promoting the cache entries of its replica keys into the local tier.
That steady background warmth is what makes failover free: when a
primary is SIGKILLed, the next replica already holds the results, so
rerouted traffic costs zero recompiles.

Heartbeat intervals carry ±20% jitter: after a mass restart (deploy,
power event) hundreds of workers would otherwise heartbeat in phase
forever, hammering the front-end in synchronized bursts.
"""

from __future__ import annotations

import random
import threading
import time

from repro.obs import Counters
from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, ServerHandle

#: Heartbeats sent per front-end eviction timeout (3 tries before
#: a worker can be declared dead by silence alone).
HEARTBEATS_PER_TIMEOUT = 3.0

#: Fractional jitter applied to every heartbeat interval (±20%).
HEARTBEAT_JITTER = 0.2

#: Seconds between reconnect attempts when the front-end is down.
RECONNECT_BACKOFF = 0.5

#: Default seconds between periodic replica pre-warm refreshes (also
#: triggered immediately by any membership-version change).
PREWARM_INTERVAL = 5.0


class WorkerNode:
    """One serve process registered with a fabric front-end.

    Args:
        config: the wrapped server's :class:`ServeConfig` (the worker
            authenticates its control channel with
            ``config.auth_secret``, same secret the front-end holds).
        frontend_host/frontend_port: the front-end's control address.
        worker_id: ring identity; defaults to ``worker-<host>:<port>``
            once the serve socket is bound, which makes a restarted
            worker re-claim its old ring range automatically.
        advertise_host: address the front-end should dial back, when
            the bind address is not routable from the front-end
            (``0.0.0.0`` binds).
        heartbeat_interval: seconds between heartbeats; default derives
            from the front-end's advertised timeout
            (timeout / :data:`HEARTBEATS_PER_TIMEOUT`).  Every actual
            wait is jittered by ±:data:`HEARTBEAT_JITTER`.
        prewarm_interval: seconds between periodic replica pre-warm
            refreshes (``None``: :data:`PREWARM_INTERVAL`; membership
            churn triggers a refresh immediately regardless).

    Use as a context manager, or :meth:`start` / :meth:`stop`.
    """

    def __init__(self, config: ServeConfig, frontend_host: str, frontend_port: int,
                 worker_id: str | None = None, advertise_host: str | None = None,
                 heartbeat_interval: float | None = None,
                 prewarm_interval: float | None = None):
        self.config = config
        self.frontend_host = frontend_host
        self.frontend_port = frontend_port
        self.worker_id = worker_id
        self.advertise_host = advertise_host or config.host
        self.heartbeat_interval = heartbeat_interval
        self.prewarm_interval = PREWARM_INTERVAL if prewarm_interval is None \
            else prewarm_interval
        self.handle = ServerHandle(config)
        self.port: int | None = None
        self._agent: threading.Thread | None = None
        self._stop = threading.Event()
        self._client: ServeClient | None = None
        self._client_lock = threading.Lock()
        self.counters = Counters("heartbeats_sent", "rejoins", "prewarms")
        self.replica_warmth: dict | None = None
        self._seen_version: int | None = None
        self._last_prewarm = 0.0
        self._prewarm_lock = threading.Lock()
        self._prewarm_thread: threading.Thread | None = None
        # Expose the agent's gauges over the serve-wire ``_stats``
        # endpoint: drills and ``repro frontend-status`` read warmth
        # remotely without a second control channel.
        self.handle.server.extra_stats = self._agent_stats

    # -- lifecycle -----------------------------------------------------

    def start(self) -> WorkerNode:
        """Bind the serve socket, join the fleet, start heartbeating.

        Raises:
            ConnectionError/OSError: if the front-end is unreachable or
                refuses the join (e.g. bad shared secret) — a worker
                that cannot join must fail loudly at startup, not limp
                along unrouted.
        """
        self.handle.start()
        self.port = self.handle.port
        if self.worker_id is None:
            self.worker_id = f"worker-{self.advertise_host}:{self.port}"
        try:
            reply = self._join()
        except BaseException:
            self.handle.stop()
            raise
        if self.heartbeat_interval is None:
            timeout = float(reply.get("heartbeat_timeout", 1.5))
            self.heartbeat_interval = timeout / HEARTBEATS_PER_TIMEOUT
        version = reply.get("version")
        if version is not None:
            self._seen_version = int(version)
        # Warm this node for its replica ranges right away: the ring
        # just changed by definition (we joined it).
        self._schedule_prewarm("join")
        self._agent = threading.Thread(
            target=self._agent_loop, name=f"repro-worker-agent-{self.worker_id}",
            daemon=True)
        self._agent.start()
        return self

    def stop(self) -> None:
        """Leave the fleet, stop the agent, stop serving (idempotent)."""
        if self._agent is not None:
            self._stop.set()
            self._agent.join()
            self._agent = None
        try:
            client = self._connect()
            client.send("_leave", {"worker_id": self.worker_id})
        except Exception:
            pass  # front-end gone: its reaper will evict us
        self._close_client()
        self.handle.stop()

    def _agent_stats(self) -> dict:
        """The membership agent's gauges (merged into ``_stats``)."""
        return {
            "replica_prewarm": {
                "runs": self.counters.snapshot()["prewarms"],
                "interval_s": self.prewarm_interval,
                "last": self.replica_warmth,
            },
        }

    def stats(self) -> dict:
        """The wrapped server's ``_stats`` reply: its counters (including
        the ``programs`` sub-dict) and this agent's replica-warmth report
        under ``replica_prewarm``."""
        return self.handle.stats()

    def __enter__(self) -> WorkerNode:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- membership agent ----------------------------------------------

    def _connect(self) -> ServeClient:
        with self._client_lock:
            if self._client is None:
                self._client = ServeClient(
                    self.frontend_host, self.frontend_port,
                    secret=self.config.auth_secret, tls=self.config.tls)
            return self._client

    def _close_client(self) -> None:
        with self._client_lock:
            if self._client is not None:
                try:
                    self._client.close()
                finally:
                    self._client = None

    def _join(self) -> dict:
        """One join round-trip; raises if the front-end refuses."""
        response = self._connect().send("_join", {
            "worker_id": self.worker_id,
            "host": self.advertise_host,
            "port": self.port,
        })
        if not response.ok:
            raise ConnectionError(
                f"front-end refused join for {self.worker_id!r}: {response.error}")
        return response.value or {}

    def _jittered_interval(self) -> float:
        """One heartbeat wait: the base interval ±20%.

        The jitter decorrelates heartbeat phases across a fleet that
        (re)started simultaneously — without it a mass restart produces
        synchronized heartbeat bursts at the front-end forever.
        """
        assert self.heartbeat_interval is not None
        return self.heartbeat_interval * random.uniform(
            1.0 - HEARTBEAT_JITTER, 1.0 + HEARTBEAT_JITTER)

    def _agent_loop(self) -> None:
        while not self._stop.wait(self._jittered_interval()):
            try:
                response = self._connect().send(
                    "_heartbeat", {"worker_id": self.worker_id})
                self.counters.inc("heartbeats_sent")
                value = response.value or {}
                if response.ok and not value.get("known", True):
                    # Evicted while we were alive (partition healed, or
                    # the front-end restarted): claim our range back.
                    reply = self._join()
                    self.counters.inc("rejoins")
                    value = {"version": reply.get("version", value.get("version"))}
                if response.ok:
                    self._maybe_prewarm(value.get("version"))
            except Exception:
                # Front-end unreachable: drop the link and retry after
                # a short backoff; the serve socket stays up regardless.
                self._close_client()
                if self._stop.wait(RECONNECT_BACKOFF):
                    return
                try:
                    self._join()
                    self.counters.inc("rejoins")
                except Exception:
                    pass  # still down; next tick tries again

    # -- replica pre-warm ----------------------------------------------

    def _maybe_prewarm(self, version) -> None:
        """Trigger a pre-warm on membership churn or the periodic cadence."""
        if version is not None and version != self._seen_version:
            self._seen_version = int(version)
            self._schedule_prewarm("membership")
        elif time.monotonic() - self._last_prewarm >= self.prewarm_interval:
            self._schedule_prewarm("periodic")

    def _schedule_prewarm(self, reason: str) -> None:
        """Run one pre-warm on a background thread, single-flighted.

        A refresh already in progress absorbs the trigger — the next
        periodic tick catches anything it raced past.
        """
        with self._prewarm_lock:
            if self._prewarm_thread is not None and self._prewarm_thread.is_alive():
                return
            self._last_prewarm = time.monotonic()
            self._prewarm_thread = threading.Thread(
                target=self._replica_prewarm, args=(reason,),
                name=f"repro-worker-prewarm-{self.worker_id}", daemon=True)
            self._prewarm_thread.start()

    def _replica_prewarm(self, reason: str) -> None:
        """Promote replica cache entries; never raises.

        Best-effort: re-push every result whose write-back push to the
        peer failed (so replicas can find it), then ask the front-end
        which cataloged requests this worker stands behind
        (``_assignments``) and read each one's cache key through the
        tiered path, promoting remote entries into the local tier.  A
        failure (front-end briefly down, peer unreachable) leaves an
        ``error`` in the report; the next refresh tries again.
        """
        from repro.runtime.cache import MISS
        from repro.runtime.tiers import TieredCache
        from repro.serve.endpoints import resolve

        report: dict = {"reason": reason}
        try:
            cache = self.handle.server.cache
            if isinstance(cache, TieredCache):
                cache.retry_pushes()
                # A dedicated connection: the agent thread may be mid-
                # heartbeat on the pooled one, and ServeClient is not
                # concurrency-safe.
                with ServeClient(self.frontend_host, self.frontend_port,
                                 secret=self.config.auth_secret,
                                 tls=self.config.tls) as client:
                    response = client.send(
                        "_assignments", {"worker_id": self.worker_id})
                entries = (response.value or {}).get("entries", []) \
                    if response.ok else []
                hot = promoted = absent = 0
                for entry in entries:
                    try:
                        fn = resolve(str(entry["endpoint"]))
                        key = cache.key_for(fn, dict(entry["kwargs"]))
                    except Exception:
                        continue  # unknown endpoint / malformed kwargs
                    if cache.get_local(key) is not MISS:
                        hot += 1
                    elif cache.get_remote(key) is not MISS:
                        promoted += 1
                    else:
                        absent += 1
                report["results"] = {"assigned": len(entries), "hot": hot,
                                     "promoted": promoted, "absent": absent}
        except Exception as exc:
            report["error"] = f"{type(exc).__name__}: {exc}"
        self.replica_warmth = report
        self.counters.inc("prewarms")
