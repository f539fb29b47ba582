"""Every stats output of the serving stack, pinned key for key.

Each test runs one scripted sequence and then asserts the literal key set
of every output it reads, nested dicts included, and the exact counts
the sequence leaves behind:

* the ``_stats`` reply of a thread-mode server over a tiered cache (its
  ``tier``, ``tier.remote`` and ``programs`` sub-dicts) and the cache
  peer's ``/stats`` behind it;
* the ``_stats`` replies of a front-end and of its one joined worker
  (``routing``, ``admission``, ``membership``, ``replica_prewarm``);
* ``ProgramStore.stats()``, ``ProgramArtifactTier.stats()`` and
  ``program_cache_info()`` across a compile with write-back, a
  read-through on a second node and a stale load on a third;
* ``Membership.snapshot()`` and ``AdmissionController.snapshot()``,
  driven in process on injected clocks.
"""

import json
import socket
import time

import numpy as np
import pytest

from repro.engine import clear_program_cache, compiled_layer_for, program_cache_info
from repro.engine.artifacts import ProgramArtifactTier, ProgramStore
from repro.engine.program import set_artifact_tier
from repro.fabric import (
    AdmissionController,
    FrontendConfig,
    FrontendHandle,
    Membership,
    WorkerNode,
)
from repro.fabric.auth import sign_message
from repro.runtime.peer import CachePeer
from repro.runtime.tiers import HTTPPeerTier
from repro.serve import ServeClient, ServeConfig, ServerHandle, register

SECRET = "stats-pin-secret"
POINT = dict(network="lenet", layer_index=0, group_size=2, density=0.5)

SERVER_KEYS = {"requests", "hits", "misses", "coalesced", "errors", "auth_rejected",
               "batches", "per_shard", "hit_rate", "programs"}
TIER_KEYS = {"remote_hits", "remote_misses", "remote_errors", "negative_hits",
             "coalesced_fetches", "promotions", "promotion_failures", "pushes",
             "push_failures", "negative_entries", "remote"}
PEER_TIER_KEYS = {"gets", "hits", "misses", "puts", "put_failures", "errors", "skipped",
                  "url", "breaker_open"}
PEER_KEYS = {"gets", "hits", "misses", "puts", "auth_rejected", "upstream_hits",
             "upstream_misses", "upstream_errors", "entries", "bytes", "root", "max_bytes"}
PROGRAM_CACHE_KEYS = {"entries", "hits", "misses", "artifact_hits", "inflight", "max"}
FRONTEND_KEYS = {"requests", "forwarded", "forward_errors", "retries", "spills",
                 "not_replayed", "no_workers", "auth_rejected", "errors", "routing",
                 "admission", "membership"}
ROUTING_KEYS = {"replication", "worker_inflight_limit", "catalog"}
ADMISSION_KEYS = {"admitted", "shed", "shed_queue_depth", "shed_rate", "shed_total",
                  "shed_fraction", "inflight"}
MEMBERSHIP_KEYS = {"workers", "ring_nodes", "replicas", "version", "heartbeat_timeout",
                   "joins", "rejoins", "leaves", "evictions", "eviction_reasons"}
WORKER_INFO_KEYS = {"worker_id", "host", "port", "age_s", "heartbeat_age_s", "forwards",
                    "inflight", "spills"}
STORE_KEYS = {"saves", "save_rejected", "loads", "load_failures", "remote_loads",
              "root", "programs", "bytes", "engine_fingerprint", "stale"}
ARTIFACT_TIER_KEYS = {"fetch_hits", "fetch_misses", "offers", "stored", "store_failures",
                      "store"}
REPLICA_PREWARM_KEYS = {"runs", "interval_s", "last"}


@register("stats_pin_sleep")
def stats_pin_sleep(seconds: float = 0.5, tag: int = 0) -> int:
    """Test endpoint: a miss slow enough for its twin request to coalesce."""
    time.sleep(seconds)
    return tag


@pytest.fixture(autouse=True)
def open_peers(monkeypatch):
    """Cache peers and their clients sign nothing unless a test says so."""
    monkeypatch.delenv("REPRO_FABRIC_SECRET", raising=False)


def line(rid: int, endpoint: str, kwargs: dict, secret: str | None = SECRET,
         **extra) -> bytes:
    """One wire request line, signed with ``secret`` unless it is ``None``."""
    message = {"id": rid, "endpoint": endpoint, "kwargs": kwargs, **extra}
    return json.dumps(sign_message(secret, message)).encode() + b"\n"


def exchange(port: int, *lines: bytes) -> dict:
    """Write ``lines`` on one connection; the replies, keyed by id."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock, \
            sock.makefile("rb") as replies:
        sock.sendall(b"".join(lines))
        return {reply["id"]: reply
                for reply in (json.loads(replies.readline()) for _ in lines)}


def wire_stats(port: int) -> dict:
    with ServeClient(port=port, secret=SECRET) as client:
        return client.stats()


def as_wire(stats: dict) -> dict:
    """``stats`` as the ``_stats`` reply carries it (JSON turns int keys into strings)."""
    return json.loads(json.dumps(stats))


def split(stats: dict, *names: str) -> dict:
    """Pop ``names`` (values the script cannot fix, such as byte sizes) out of ``stats``."""
    return {name: stats.pop(name) for name in names}


def test_server_stats_over_a_tiered_cache(tmp_path):
    clear_program_cache()
    with CachePeer(root=tmp_path / "peer", port=0) as peer, \
            ServerHandle(ServeConfig(
                port=0, workers=1, mode="thread",
                cache_dir=str(tmp_path / "cache"), remote_cache=peer.url,
                auth_secret=SECRET, prewarm_programs=True)) as handle:
        with ServeClient(port=handle.port, secret=SECRET) as client:
            first = client.send("runtime_point", POINT)
            again = client.send("runtime_point", POINT)
        assert first.ok and not first.cached and again.cached
        replies = exchange(handle.port, line(7, "ping", {}, secret=None), b"{not json\n")
        assert replies[7]["status"] == 401 and replies[-1]["ok"] is False
        handle.server.cache.drain()  # the miss's push to the peer has landed
        wire = wire_stats(handle.port)
        local = handle.stats()
        peer_stats = HTTPPeerTier(peer.url).peer_stats()

    assert set(wire) == SERVER_KEYS | {"tier"}
    assert set(wire["tier"]) == TIER_KEYS
    assert set(wire["tier"]["remote"]) == PEER_TIER_KEYS
    assert set(wire["programs"]) == PROGRAM_CACHE_KEYS
    assert wire == {
        # two points, the unsigned ping, the bad line, and _stats itself
        "requests": 5, "hits": 1, "misses": 1, "coalesced": 0, "errors": 1,
        "auth_rejected": 1, "batches": 1, "per_shard": {"0": 1}, "hit_rate": 0.5,
        "tier": {
            "remote_hits": 0, "remote_misses": 1, "remote_errors": 0,
            "negative_hits": 0, "coalesced_fetches": 0, "promotions": 0,
            "promotion_failures": 0, "pushes": 1, "push_failures": 0,
            "negative_entries": 0,
            "remote": {"gets": 1, "hits": 0, "misses": 1, "puts": 1, "put_failures": 0,
                       "errors": 0, "skipped": 0, "url": peer.url,
                       "breaker_open": False},
        },
        "programs": {
            "entries": 0, "hits": 0, "misses": 0, "artifact_hits": 0, "inflight": 0,
            "max": 128,
        },
    }
    assert local["per_shard"] == {0: 1}
    assert as_wire(local) == wire

    assert set(peer_stats) == PEER_KEYS
    sized = split(peer_stats, "bytes", "root")
    assert sized["bytes"] > 0 and sized["root"] == str(tmp_path / "peer")
    # The point's remote lookup missed; its push is the one stored entry.
    assert peer_stats == {"gets": 1, "hits": 0, "misses": 1, "puts": 1, "auth_rejected": 0,
                          "upstream_hits": 0, "upstream_misses": 0, "upstream_errors": 0,
                          "entries": 1, "max_bytes": None}


def test_frontend_and_worker_stats(tmp_path):
    clear_program_cache()
    fe_config = FrontendConfig(port=0, auth_secret=SECRET, heartbeat_timeout=60.0,
                               rates={"low": 0.001})
    worker_config = ServeConfig(port=0, workers=1, mode="thread",
                                cache_dir=str(tmp_path / "w0"), auth_secret=SECRET)
    with FrontendHandle(fe_config) as fe, \
            WorkerNode(worker_config, "127.0.0.1", fe.port, worker_id="w0",
                       heartbeat_interval=60.0, prewarm_interval=60.0) as node:
        deadline = time.monotonic() + 10
        while node.counters.snapshot()["prewarms"] < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert node.counters.snapshot() == {"heartbeats_sent": 0, "rejoins": 0, "prewarms": 1}
        twin = {"seconds": 0.5, "tag": 1}
        replies = exchange(fe.port, line(1, "stats_pin_sleep", twin),
                           line(2, "stats_pin_sleep", twin))
        assert sorted(r["coalesced"] for r in replies.values()) == [False, True]
        replies = exchange(fe.port,
                           line(3, "runtime_point", POINT, priority="low"),
                           line(4, "runtime_point", POINT, priority="low"),
                           b"{not json\n", line(6, "ping", {}, secret=None))
        assert replies[3]["ok"] and replies[4]["shed"] and replies[6]["status"] == 401
        frontend = wire_stats(fe.port)
        frontend_local = fe.stats()
        worker = wire_stats(node.port)
        worker_local = node.stats()

    assert set(frontend) == FRONTEND_KEYS
    assert set(frontend["routing"]) == ROUTING_KEYS
    assert set(frontend["admission"]) == ADMISSION_KEYS
    assert set(frontend["membership"]) == MEMBERSHIP_KEYS
    (member,) = frontend["membership"]["workers"]
    assert set(member) == WORKER_INFO_KEYS
    ages = split(member, "age_s", "heartbeat_age_s")
    assert all(age >= 0 for age in ages.values())
    assert member == {"worker_id": "w0", "host": "127.0.0.1", "port": node.port,
                      "forwards": 3, "inflight": 0, "spills": 0}
    frontend_local = as_wire(frontend_local)
    split(frontend_local["membership"]["workers"][0], "age_s", "heartbeat_age_s")
    assert frontend_local == frontend
    del frontend["membership"]["workers"]
    assert frontend == {
        # _join, the twins, both low points, the bad line, the unsigned
        # ping and _stats itself
        "requests": 8, "forwarded": 3, "forward_errors": 0, "retries": 0, "spills": 0,
        "not_replayed": 0, "no_workers": 0, "auth_rejected": 1, "errors": 1,
        "routing": {"replication": 1, "worker_inflight_limit": 32, "catalog": 2},
        "admission": {"admitted": {"high": 0, "normal": 2, "low": 1},
                      "shed": {"high": 0, "normal": 0, "low": 1},
                      "shed_queue_depth": 0, "shed_rate": 1, "shed_total": 1,
                      "shed_fraction": 0.25, "inflight": 0},
        "membership": {"ring_nodes": ["w0"], "replicas": 64, "version": 1,
                       "heartbeat_timeout": 60.0, "joins": 1, "rejoins": 0, "leaves": 0,
                       "evictions": 0, "eviction_reasons": {}},
    }

    assert set(worker) == SERVER_KEYS | {"replica_prewarm"}
    assert set(worker["programs"]) == PROGRAM_CACHE_KEYS
    assert set(worker["replica_prewarm"]) == REPLICA_PREWARM_KEYS
    assert as_wire(worker_local) == worker
    assert worker == {
        # the twins, the admitted low point and _stats itself
        "requests": 4, "hits": 0, "misses": 2, "coalesced": 1, "errors": 0,
        "auth_rejected": 0, "batches": 2, "per_shard": {"0": 2}, "hit_rate": 0.0,
        "programs": {"entries": 0, "hits": 0, "misses": 0, "artifact_hits": 0,
                     "inflight": 0, "max": 128},
        "replica_prewarm": {"runs": 1, "interval_s": 60.0, "last": {"reason": "join"}},
    }


def test_program_store_and_artifact_tier_stats(tmp_path):
    weights = np.random.default_rng(3).integers(-4, 5, size=(6, 18))
    with CachePeer(root=tmp_path / "peer", port=0) as peer:
        # Node A compiles once, writes the program back and pushes it.
        clear_program_cache()
        store_a = ProgramStore(root=tmp_path / "a", remote=peer.url)
        tier_a = ProgramArtifactTier(store_a)
        previous = set_artifact_tier(tier_a)
        try:
            key = compiled_layer_for(weights, group_size=2).key
            compiled_layer_for(weights, group_size=2)
            tier_a.drain()
            assert not store_a.save("net:bad", object())
            info_a = program_cache_info()
            stats_a = tier_a.stats()
        finally:
            set_artifact_tier(previous)
            tier_a.close()
        # Node B reads the program through from the peer: no compile.
        clear_program_cache()
        store_b = ProgramStore(root=tmp_path / "b", remote=peer.url)
        tier_b = ProgramArtifactTier(store_b)
        previous = set_artifact_tier(tier_b)
        try:
            compiled_layer_for(weights, group_size=2)
            info_b = program_cache_info()
            stats_b = tier_b.stats()
        finally:
            set_artifact_tier(previous)
            tier_b.close()
        # Node C runs another engine build: the fleet's artifact is stale to it.
        store_c = ProgramStore(root=tmp_path / "c", remote=peer.url,
                               fingerprint="0" * 16)
        assert store_c.load(key) is None
        stats_c = store_c.stats()
        peer_stats = peer.stats_payload()
    clear_program_cache()

    assert set(info_a) == set(info_b) == PROGRAM_CACHE_KEYS
    assert info_a == {"entries": 1, "hits": 1, "misses": 1, "artifact_hits": 0,
                      "inflight": 0, "max": 128}
    assert info_b == {"entries": 1, "hits": 0, "misses": 0, "artifact_hits": 1,
                      "inflight": 0, "max": 128}

    assert set(stats_a) == set(stats_b) == ARTIFACT_TIER_KEYS
    assert set(stats_a["store"]) == set(stats_b["store"]) == set(stats_c) == STORE_KEYS
    fingerprint = stats_a["store"]["engine_fingerprint"]
    sizes = [split(stats["store"], "bytes")["bytes"] for stats in (stats_a, stats_b)]
    assert sizes[0] == sizes[1] > 0
    assert stats_a == {
        "fetch_hits": 0, "fetch_misses": 1, "offers": 1, "stored": 1, "store_failures": 0,
        "store": {"saves": 1, "save_rejected": 1, "loads": 1, "load_failures": 0,
                  "remote_loads": 0, "root": str(tmp_path / "a"),
                  "programs": 1, "engine_fingerprint": fingerprint, "stale": 0},
    }
    assert stats_b == {
        "fetch_hits": 1, "fetch_misses": 0, "offers": 0, "stored": 0, "store_failures": 0,
        "store": {"saves": 0, "save_rejected": 0, "loads": 1, "load_failures": 0,
                  "remote_loads": 1, "root": str(tmp_path / "b"),
                  "programs": 1, "engine_fingerprint": fingerprint, "stale": 0},
    }
    assert stats_c == {
        "saves": 0, "save_rejected": 0, "loads": 1, "load_failures": 1, "remote_loads": 0,
        "root": str(tmp_path / "c"), "programs": 0, "bytes": 0,
        "engine_fingerprint": "0" * 16, "stale": 0,
    }

    assert set(peer_stats) == PEER_KEYS
    split(peer_stats, "bytes", "root")
    # A: the blob get (missing) and the blob put; B and C: one blob get each.
    assert peer_stats == {"gets": 3, "hits": 2, "misses": 1, "puts": 1, "auth_rejected": 0,
                          "upstream_hits": 0, "upstream_misses": 0, "upstream_errors": 0,
                          "entries": 1, "max_bytes": None}


def test_membership_snapshot():
    now = [0.0]
    members = Membership(heartbeat_timeout=1.0, replicas=4, clock=lambda: now[0])
    members.join("a", "h", 1)
    members.join("b", "h", 2)
    members.join("a", "h", 1)  # a rejoin
    members.leave("b")
    members.join("c", "h", 3)
    members.evict("c", "connection")
    members.join("d", "h", 4)
    now[0] = 5.0
    members.heartbeat("a")
    assert members.sweep() == ["d"]
    snapshot = members.snapshot()

    assert set(snapshot) == MEMBERSHIP_KEYS
    (member,) = snapshot.pop("workers")
    assert set(member) == WORKER_INFO_KEYS
    assert snapshot == {"ring_nodes": ["a"], "replicas": 4, "version": 7,
                        "heartbeat_timeout": 1.0, "joins": 4, "rejoins": 1, "leaves": 1,
                        "evictions": 2,
                        "eviction_reasons": {"connection": 1, "heartbeat": 1}}


def test_admission_snapshot():
    gate = AdmissionController(max_inflight=2, rates={"low": 0.001}, clock=lambda: 0.0)
    assert gate.admit("high").admitted
    assert gate.admit("low").reason == "queue-depth"  # low sheds at half of 2
    assert gate.admit("low").reason == "rate"  # its one token went above
    assert gate.admit("normal").admitted
    assert gate.admit("normal").reason == "queue-depth"
    gate.release()
    snapshot = gate.snapshot()

    assert set(snapshot) == ADMISSION_KEYS
    assert snapshot == {"admitted": {"high": 1, "normal": 1, "low": 0},
                        "shed": {"high": 0, "normal": 1, "low": 2},
                        "shed_queue_depth": 2, "shed_rate": 1, "shed_total": 3,
                        "shed_fraction": 0.6, "inflight": 1}
