"""The fabric front-end: one node that fans a fleet out of workers.

Speaks the exact same newline-delimited JSON protocol as a
:class:`repro.serve.Server`, through the same request loop
(:class:`repro.serve.server.LineServer`) — every existing client,
including the load generator, points at a front-end unchanged — but
instead of computing, it:

1. **authenticates** (when a shared secret is configured, every line —
   control or data — must carry a valid HMAC before anything happens);
2. **admits** data requests through :class:`~repro.fabric.admission.AdmissionController`
   (overload answers with a ``shed`` response instead of queueing);
3. **routes** by consistent hash over the live worker set — under
   R-way replication (``replication`` > 1) a key's first R entries in
   :meth:`~repro.fabric.ring.HashRing.preference` order are its replica
   set: the owner serves by default, load *spills* to the next replica
   when the owner is saturated (per-worker in-flight threshold) or
   sheds, and transport failures retry down the same order;
4. **forwards** over a pooled pipelined connection and relays the
   worker's response verbatim (plus the worker id).

Failure model: a forward that dies with a transport error *eagerly*
evicts the worker and moves down the key's preference list.  Whether
the request may be *re-sent* depends on the endpoint's declared
idempotence (:func:`repro.serve.endpoints.is_idempotent`): pure reads
replay freely on the next replica, while a non-idempotent request that
*may* have reached a worker is answered with an error instead of being
replayed — so an acked non-idempotent request is executed at most
once, and an ack (any ok response) is only ever sent after a worker
actually answered.  A connect failure (nothing was ever sent) is
always safe to retry.  A worker that dies silently between requests is
caught by the reaper sweeping heartbeats.

The front-end also keeps a bounded catalog of recently routed request
keys; the ``_assignments`` control endpoint replays it per worker so
replicas can pre-warm the cache entries of every key range they stand
behind (see :class:`repro.fabric.worker.WorkerNode`).

Control endpoints (worker-facing): ``_join``, ``_heartbeat``,
``_leave``, ``_assignments``; introspection: ``_members``, ``_stats``,
``ping``.  Wire details in ``docs/api.md``.  With a
:class:`~repro.fabric.tls.TLSConfig` configured, the listening socket
and every pooled worker connection speak TLS underneath the HMAC layer.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from repro.fabric.admission import AdmissionController
from repro.fabric.membership import Membership, WorkerInfo
from repro.fabric.tls import TLSConfig
from repro.serve.client import AsyncServeClient
from repro.serve.endpoints import is_idempotent
from repro.serve.protocol import ProtocolError
from repro.serve.server import LineServer, LoopThread

#: Control endpoints the front-end answers itself (never forwarded).
CONTROL_ENDPOINTS = (
    "_join", "_heartbeat", "_leave", "_assignments", "_members", "_stats", "ping")


@dataclass(frozen=True)
class FrontendConfig:
    """Everything a :class:`Frontend` needs to start.

    Attributes:
        host: bind address.
        port: bind port; 0 asks the OS for an ephemeral port.
        heartbeat_timeout: seconds of heartbeat silence before a worker
            is evicted (workers learn this value from the join reply
            and heartbeat at a fraction of it).
        max_inflight: admission ceiling on concurrently forwarded
            requests (the priority shed ladder scales from it).
        rates: optional per-priority token-bucket rates, e.g.
            ``{"low": 50.0}``.
        replicas: virtual ring points per worker.
        forward_timeout: seconds a single forward may take before the
            worker is presumed wedged (evicted, request retried).
        forward_retries: maximum distinct workers tried per request.
        auth_secret: shared fleet secret; ``None`` runs the fabric
            open (see :mod:`repro.fabric.auth` for the threat model).
        replication: R — how many replicas (owner included) each key's
            requests may land on.  1 keeps the single-owner routing of
            the pre-replication fabric.
        worker_inflight_limit: per-worker outstanding-forward threshold
            past which load spills to the key's next replica.
        catalog_size: bound on the routed-key catalog backing the
            ``_assignments`` pre-warm endpoint.
        tls: TLS identity for the listening socket *and* the pooled
            worker connections; ``None`` falls back to the
            ``REPRO_FABRIC_TLS_*`` environment, and with neither the
            fabric speaks cleartext.
    """

    host: str = "127.0.0.1"
    port: int = 8640
    heartbeat_timeout: float = 1.5
    max_inflight: int = 64
    rates: dict | None = None
    replicas: int = 64
    forward_timeout: float = 60.0
    forward_retries: int = 3
    auth_secret: str | None = None
    replication: int = 1
    worker_inflight_limit: int = 32
    catalog_size: int = 2048
    tls: TLSConfig | None = None

    def __post_init__(self):
        if self.forward_retries < 1:
            raise ValueError("forward_retries must be >= 1")
        if self.replication < 1:
            raise ValueError("replication must be >= 1")
        if self.worker_inflight_limit < 1:
            raise ValueError("worker_inflight_limit must be >= 1")


class Frontend(LineServer):
    """The asyncio front-end loop: auth -> admit -> route -> forward.

    Args:
        config: see :class:`FrontendConfig`.

    The line protocol, the auth gate and the error replies are
    :class:`~repro.serve.server.LineServer`'s; :meth:`dispatch` answers
    control endpoints and forwards the rest.  Use :meth:`start` +
    :meth:`serve_forever` from an event loop, or :class:`FrontendHandle`
    to run it on a background thread.
    """

    def __init__(self, config: FrontendConfig | None = None):
        self.config = config or FrontendConfig()
        super().__init__(self.config.host, self.config.port,
                         self.config.auth_secret, self.config.tls,
                         counters=("forwarded", "forward_errors", "retries", "spills",
                                   "not_replayed", "no_workers"))
        self.membership = Membership(
            heartbeat_timeout=self.config.heartbeat_timeout,
            replicas=self.config.replicas)
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight, rates=self.config.rates)
        self._clients: dict[str, AsyncServeClient] = {}
        self._client_locks: dict[str, asyncio.Lock] = {}
        self._reaper_task: asyncio.Task | None = None
        # Routed-key catalog: key -> (endpoint, kwargs), LRU-bounded.
        # Guarded by a plain lock: the event loop writes, stats readers
        # and the _assignments walk may come from other threads.
        self._catalog: OrderedDict[str, tuple[str, dict]] = OrderedDict()
        self._catalog_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Bind the socket (TLS when configured), start the reaper."""
        await super().start()
        self._reaper_task = asyncio.ensure_future(self._reap_loop())

    async def aclose(self) -> None:
        """Stop the reaper and accepting, drop connections, close worker links."""
        if self._reaper_task is not None:
            self._reaper_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._reaper_task
        await super().aclose()
        for client in list(self._clients.values()):
            await client.aclose()
        self._clients.clear()

    # -- introspection -------------------------------------------------

    def stats_snapshot(self) -> dict:
        """Routing + admission + membership counters, one dict."""
        with self._catalog_lock:
            catalog_size = len(self._catalog)
        snapshot = self.stats.snapshot()
        snapshot["routing"] = {
            "replication": self.config.replication,
            "worker_inflight_limit": self.config.worker_inflight_limit,
            "catalog": catalog_size,
        }
        snapshot["admission"] = self.admission.snapshot()
        snapshot["membership"] = self.membership.snapshot()
        return snapshot

    def assignments(self, worker_id: str | None = None) -> dict:
        """Replica assignments derived from the routed-key catalog.

        With ``worker_id``: every cataloged request whose top-R
        preference includes that worker, annotated with its replica
        ``rank`` (0 = owner) — the worker's pre-warm work list.
        Without: a per-worker ``{"primary": n, "replica": n}`` summary
        (the operator view behind ``repro frontend-status``).
        """
        with self._catalog_lock:
            catalog = list(self._catalog.items())
        want = max(1, self.config.replication)
        if worker_id is not None:
            entries = []
            for key, (endpoint, kwargs) in catalog:
                prefs = [w.worker_id for w in self.membership.preference(key, want)]
                if worker_id in prefs:
                    entries.append({"endpoint": endpoint, "kwargs": kwargs,
                                    "rank": prefs.index(worker_id)})
            return {"worker_id": worker_id, "version": self.membership.version,
                    "replication": want, "entries": entries}
        summary: dict[str, dict] = {
            w.worker_id: {"primary": 0, "replica": 0} for w in self.membership.workers()}
        for key, _ in catalog:
            for rank, info in enumerate(self.membership.preference(key, want)):
                slot = summary.get(info.worker_id)
                if slot is not None:
                    slot["primary" if rank == 0 else "replica"] += 1
        return {"version": self.membership.version, "replication": want,
                "catalog": len(catalog), "workers": summary}

    # -- request handling ----------------------------------------------

    async def dispatch(self, rid: int, name: str, kwargs: dict, message: dict,
                       started: float) -> dict:
        """Control endpoints inline, other ``_`` names refused, the rest forwarded."""
        if name in CONTROL_ENDPOINTS:
            return self._control(rid, name, kwargs, started)
        if name.startswith("_"):
            raise ProtocolError(f"unknown control endpoint {name!r}")
        return await self._forward(rid, name, kwargs, message.get("priority"), started)

    def _control(self, rid: int, name: str, kwargs: dict, started: float) -> dict:
        if name == "_join":
            info = self.membership.join(
                str(kwargs["worker_id"]), str(kwargs["host"]), int(kwargs["port"]))
            return self._ok(rid, {
                "worker_id": info.worker_id,
                "workers": len(self.membership),
                "heartbeat_timeout": self.membership.heartbeat_timeout,
                "version": self.membership.version,
                "replication": self.config.replication,
            }, started)
        if name == "_heartbeat":
            known = self.membership.heartbeat(str(kwargs["worker_id"]))
            # known=False tells an evicted-but-alive worker to re-join;
            # the version lets it detect churn and re-run its pre-warm.
            return self._ok(rid, {"known": known,
                                  "version": self.membership.version}, started)
        if name == "_assignments":
            worker_id = kwargs.get("worker_id")
            return self._ok(
                rid, self.assignments(None if worker_id is None else str(worker_id)),
                started)
        if name == "_leave":
            left = self.membership.leave(str(kwargs["worker_id"]))
            return self._ok(rid, {"left": left}, started)
        if name == "_members":
            return self._ok(rid, self.membership.snapshot(), started)
        if name == "_stats":
            return self._ok(rid, self.stats_snapshot(), started)
        # ping: inline, reflects front-end loop health alone.
        return self._ok(rid, {"pong": kwargs.get("payload")}, started)

    async def _forward(self, rid: int, name: str, kwargs: dict,
                       priority: str | None, started: float) -> dict:
        decision = self.admission.admit(priority)  # ValueError -> error reply
        if not decision.admitted:
            return {
                "id": rid, "ok": False, "shed": True, "status": 503,
                "error": f"shed: {decision.reason} (priority {decision.priority})",
                "elapsed_ms": (time.perf_counter() - started) * 1000.0,
            }
        try:
            key = name + ":" + json.dumps(kwargs, sort_keys=True, separators=(",", ":"))
            self._remember(key, name, kwargs)
            idempotent = is_idempotent(name)
            attempted: set[str] = set()
            shed_response = None
            for attempt in range(self.config.forward_retries):
                info, spilled = self._select(key, attempted)
                if info is None:
                    if not attempted:
                        self.stats.inc("no_workers")
                        return self._fail(rid, "no live workers in the fabric", started)
                    break  # every replica tried
                attempted.add(info.worker_id)
                if spilled:
                    self.stats.inc("spills")
                if not self.membership.begin_forward(info.worker_id, spilled=spilled):
                    continue  # vanished between selection and accounting
                try:
                    try:
                        client = await self._client_for(info)
                    except (ConnectionError, OSError, asyncio.TimeoutError):
                        # The dial itself failed: nothing was ever sent,
                        # so the next replica is safe for any endpoint.
                        self._note_dead(info, "connection", attempt)
                        await self._drop_client(info.worker_id)
                        continue
                    try:
                        response = await asyncio.wait_for(
                            client.send(name, kwargs, priority=priority),
                            timeout=self.config.forward_timeout)
                    except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                        # The request may have reached the worker before
                        # the transport died — replay is only safe for
                        # endpoints declared idempotent.
                        reason = ("timeout" if isinstance(exc, asyncio.TimeoutError)
                                  else "connection")
                        self._note_dead(info, reason, attempt)
                        await self._drop_client(info.worker_id)
                        if idempotent:
                            continue
                        self.stats.inc("not_replayed")
                        return self._fail(
                            rid,
                            f"worker {info.worker_id} failed mid-request ({reason}); "
                            f"{name!r} is not idempotent, so the request was not "
                            "replayed on another replica", started)
                finally:
                    self.membership.end_forward(info.worker_id)
                if response.shed and self.config.replication > 1:
                    # A worker-side shed was never executed, so the next
                    # replica may take it — idempotence is irrelevant.
                    shed_response = (response, info.worker_id)
                    self.stats.inc("spills")
                    continue
                return self._relay(rid, response, info.worker_id, started)
            if shed_response is not None:
                response, worker_id = shed_response
                return self._relay(rid, response, worker_id, started)
            return self._fail(
                rid, f"forward failed after {len(attempted) or 1} worker(s)", started)
        finally:
            self.admission.release()

    def _select(self, key: str, attempted: set[str]) -> tuple[WorkerInfo | None, bool]:
        """Choose the forwarding replica for ``key``.

        Walks ``preference(key, R)`` minus already-attempted workers:
        the first replica under the in-flight threshold wins; if every
        candidate is saturated the least-loaded one takes the request
        (admission control, not routing, bounds total load).  Returns
        ``(worker, spilled)`` where ``spilled`` means a live earlier
        replica was skipped because of load.
        """
        prefs = self.membership.preference(key, max(1, self.config.replication))
        candidates = [w for w in prefs if w.worker_id not in attempted]
        if not candidates:
            return None, False
        limit = self.config.worker_inflight_limit
        for index, info in enumerate(candidates):
            if info.inflight < limit:
                return info, index > 0
        return min(candidates, key=lambda w: w.inflight), False

    def _remember(self, key: str, name: str, kwargs: dict) -> None:
        """LRU-note one routed request for the ``_assignments`` catalog."""
        with self._catalog_lock:
            self._catalog[key] = (name, dict(kwargs))
            self._catalog.move_to_end(key)
            while len(self._catalog) > self.config.catalog_size:
                self._catalog.popitem(last=False)

    def _note_dead(self, info: WorkerInfo, reason: str, attempt: int) -> None:
        """Evict a worker after a transport failure; count the retry."""
        self.stats.inc("forward_errors")
        self.membership.evict(info.worker_id, reason)
        if attempt + 1 < self.config.forward_retries:
            self.stats.inc("retries")

    def _relay(self, rid: int, response, worker_id: str, started: float) -> dict:
        self.stats.inc("forwarded")
        payload = {
            "id": rid, "ok": response.ok, "value": response.value,
            "cached": response.cached, "coalesced": response.coalesced,
            "shard": response.shard, "worker": worker_id,
            "elapsed_ms": (time.perf_counter() - started) * 1000.0,
        }
        if response.shed:
            payload["shed"] = True
            payload["status"] = 503
        if response.error is not None:
            payload["error"] = response.error
        return payload

    def _fail(self, rid: int, error: str, started: float) -> dict:
        return {"id": rid, "ok": False, "status": 503, "error": error,
                "elapsed_ms": (time.perf_counter() - started) * 1000.0}

    async def _client_for(self, info: WorkerInfo) -> AsyncServeClient:
        """The pooled pipelined connection to one worker (dial once)."""
        lock = self._client_locks.setdefault(info.worker_id, asyncio.Lock())
        async with lock:
            client = self._clients.get(info.worker_id)
            if client is None:
                client = await AsyncServeClient.connect(
                    info.host, info.port, secret=self.config.auth_secret,
                    tls=self.config.tls)
                self._clients[info.worker_id] = client
            return client

    async def _drop_client(self, worker_id: str) -> None:
        client = self._clients.pop(worker_id, None)
        if client is not None:
            await client.aclose()

    async def _reap_loop(self) -> None:
        """Sweep stale heartbeats at twice the eviction resolution."""
        interval = self.config.heartbeat_timeout / 2.0
        while True:
            await asyncio.sleep(interval)
            for worker_id in self.membership.sweep():
                await self._drop_client(worker_id)

    def _ok(self, rid: int, value, started: float) -> dict:
        return {
            "id": rid, "ok": True, "value": value,
            "elapsed_ms": (time.perf_counter() - started) * 1000.0,
        }


class FrontendHandle(LoopThread):
    """Runs a :class:`Frontend` event loop on a daemon thread.

    The synchronous entry point tests, examples, and ``repro
    frontend`` use::

        with FrontendHandle(FrontendConfig(port=0)) as fe:
            client = ServeClient("127.0.0.1", fe.port)
            ...
    """

    def __init__(self, config: FrontendConfig | None = None):
        self.config = config or FrontendConfig()
        self.frontend = Frontend(self.config)
        super().__init__(self.frontend, "repro-frontend")
