"""Fabric membership: worker registry, heartbeats, ring rebalancing.

The front-end's view of its fleet.  Workers *register* (join) with
their serving address, then *heartbeat* on an interval; a worker whose
heartbeats stop — crash, SIGKILL, partition — is evicted after
``heartbeat_timeout`` seconds and its ring range flows to the
survivors.  The consistent-hash ring (:class:`~repro.fabric.ring.HashRing`)
is rebuilt on every membership change, so a join or leave moves only
~1/n of the key space and every other key keeps its warm worker.

Two eviction paths, deliberately:

* **lazy (heartbeat)** — :meth:`Membership.sweep`, run on the
  front-end's reaper tick, catches silent deaths within one heartbeat
  timeout even if no traffic touches the dead worker;
* **eager (connection failure)** — the front-end calls
  :meth:`Membership.evict` the moment a forward fails with a transport
  error, so under live traffic rerouting is immediate rather than
  waiting out the timeout.

All methods are thread-safe: joins and heartbeats arrive on the
front-end's event loop while stats snapshots come from other threads.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.fabric.ring import HashRing
from repro.obs import Counters


@dataclass
class WorkerInfo:
    """One registered worker, as the front-end tracks it.

    Attributes:
        worker_id: unique name on the ring.
        host/port: the worker's serve address (where forwards go).
        joined_at/last_heartbeat: monotonic timestamps.
        forwards: requests this worker has been handed (routing stat).
        inflight: forwards currently outstanding on this worker — the
            signal replica spill decisions key off.
        spills: forwards this worker received *because* an earlier
            replica in the preference order was saturated.
    """

    worker_id: str
    host: str
    port: int
    joined_at: float = 0.0
    last_heartbeat: float = 0.0
    forwards: int = 0
    inflight: int = 0
    spills: int = 0

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` forwarding target."""
        return (self.host, self.port)

    def describe(self) -> dict:
        """JSON-able summary for the ``_members`` endpoint."""
        return {
            "worker_id": self.worker_id, "host": self.host, "port": self.port,
            "age_s": round(time.monotonic() - self.joined_at, 3),
            "heartbeat_age_s": round(time.monotonic() - self.last_heartbeat, 3),
            "forwards": self.forwards,
            "inflight": self.inflight,
            "spills": self.spills,
        }


class Membership:
    """The worker registry + hash ring of one front-end.

    Args:
        heartbeat_timeout: seconds of heartbeat silence before a worker
            is evicted by :meth:`sweep`.
        replicas: virtual points per worker on the ring.
        clock: injectable time source (tests drive eviction without
            sleeping).
    """

    def __init__(self, heartbeat_timeout: float = 1.5, replicas: int = 64,
                 clock=time.monotonic):
        if heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive")
        self.heartbeat_timeout = heartbeat_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._workers: dict[str, WorkerInfo] = {}
        self._ring = HashRing(replicas=replicas)
        self._version = 0
        # Churn counters, bumped under _lock so a snapshot sees each
        # ring change together with its count.
        self.stats = Counters("joins", "rejoins", "leaves", "evictions",
                              keyed={"eviction_reasons": ()})

    @property
    def version(self) -> int:
        """Monotonic counter bumped whenever the ring composition changes.

        Join/heartbeat replies carry it, so workers detect membership
        churn (someone joined, someone died) without polling ``_members``
        and re-run their replica pre-warm exactly when placement moved.
        """
        with self._lock:
            return self._version

    # -- lifecycle -----------------------------------------------------

    def join(self, worker_id: str, host: str, port: int) -> WorkerInfo:
        """Register (or re-register) a worker and place it on the ring.

        Re-joining with the same id refreshes the address and heartbeat
        — a restarted worker reclaims its ring range with no extra key
        movement.
        """
        if not worker_id or not isinstance(worker_id, str):
            raise ValueError("worker_id must be a non-empty string")
        now = self._clock()
        with self._lock:
            existing = self._workers.get(worker_id)
            if existing is None:
                info = WorkerInfo(worker_id, str(host), int(port),
                                  joined_at=now, last_heartbeat=now)
                self._workers[worker_id] = info
                self._ring.add(worker_id)
                self._version += 1
                self.stats.inc("joins")
            else:
                existing.host, existing.port = str(host), int(port)
                existing.last_heartbeat = now
                info = existing
                self.stats.inc("rejoins")
            return info

    def heartbeat(self, worker_id: str) -> bool:
        """Refresh a worker's liveness; ``False`` for unknown workers.

        An unknown id means the worker was evicted (or never joined) —
        the agent reacts by re-joining, which is what makes eviction
        safe to be aggressive about.
        """
        with self._lock:
            info = self._workers.get(worker_id)
            if info is None:
                return False
            info.last_heartbeat = self._clock()
            return True

    def leave(self, worker_id: str) -> bool:
        """Graceful deregistration (worker shutdown)."""
        with self._lock:
            if self._workers.pop(worker_id, None) is None:
                return False
            self._ring.remove(worker_id)
            self._version += 1
            self.stats.inc("leaves")
            return True

    def evict(self, worker_id: str, reason: str = "unknown") -> bool:
        """Remove a worker the front-end has decided is dead."""
        with self._lock:
            if self._workers.pop(worker_id, None) is None:
                return False
            self._ring.remove(worker_id)
            self._version += 1
            self.stats.inc("evictions")
            self.stats.inc("eviction_reasons", reason)
            return True

    def sweep(self) -> list[str]:
        """Evict every worker whose heartbeat has gone stale.

        Returns:
            the evicted worker ids (callers drop pooled connections).
        """
        deadline = self._clock() - self.heartbeat_timeout
        with self._lock:
            stale = [w for w, info in self._workers.items()
                     if info.last_heartbeat < deadline]
            for worker_id in stale:
                del self._workers[worker_id]
                self._ring.remove(worker_id)
                self._version += 1
                self.stats.inc("evictions")
                self.stats.inc("eviction_reasons", "heartbeat")
        return stale

    # -- routing / introspection ---------------------------------------

    def route(self, key: str) -> WorkerInfo | None:
        """The live worker owning ``key`` (``None``: empty fleet)."""
        with self._lock:
            worker_id = self._ring.route(key)
            if worker_id is None:
                return None
            info = self._workers[worker_id]
            info.forwards += 1
            return info

    def preference(self, key: str, limit: int) -> list[WorkerInfo]:
        """The first ``limit`` distinct replicas for ``key``, ring order.

        Element 0 is the owner; the rest are the failover/spill targets
        in placement order.  Unlike :meth:`route` this bumps no
        counters — accounting happens in :meth:`begin_forward` once a
        replica is actually chosen.
        """
        with self._lock:
            return [self._workers[w] for w in self._ring.preference(key, limit)]

    def begin_forward(self, worker_id: str, spilled: bool = False) -> bool:
        """Account one forward starting on ``worker_id``.

        Args:
            worker_id: the chosen replica.
            spilled: the choice skipped a saturated earlier replica.

        Returns:
            ``False`` when the worker vanished between selection and
            accounting (caller re-selects).
        """
        with self._lock:
            info = self._workers.get(worker_id)
            if info is None:
                return False
            info.forwards += 1
            info.inflight += 1
            if spilled:
                info.spills += 1
            return True

    def end_forward(self, worker_id: str) -> None:
        """Account one forward finishing (worker may already be gone)."""
        with self._lock:
            info = self._workers.get(worker_id)
            if info is not None and info.inflight > 0:
                info.inflight -= 1

    def get(self, worker_id: str) -> WorkerInfo | None:
        """Look one worker up by id."""
        with self._lock:
            return self._workers.get(worker_id)

    def workers(self) -> list[WorkerInfo]:
        """All live workers, sorted by id."""
        with self._lock:
            return [self._workers[w] for w in sorted(self._workers)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._workers)

    def snapshot(self) -> dict:
        """JSON-able membership view for ``_members`` / ``_stats``."""
        with self._lock:
            return {
                "workers": [self._workers[w].describe() for w in sorted(self._workers)],
                "ring_nodes": list(self._ring.nodes),
                "replicas": self._ring.replicas,
                "version": self._version,
                "heartbeat_timeout": self.heartbeat_timeout,
                **self.stats.snapshot(),
            }
