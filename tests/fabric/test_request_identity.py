"""One request identity from front-end to cache.

A request is bound to its endpoint's signature once
(:func:`repro.serve.endpoints.bind`: unknown names refused, defaults
filled in), and its identity then drives everything that asks "is this
the same request?": the front-end's ring and catalog, the server's
shard router and single-flight, and the cache key.  These tests pin
what follows: a request with its defaults spelled out and one without
are one request everywhere; a request no worker could run is refused at
the first hop without being counted, forwarded or cataloged; and a code
edit rotates the cache key but moves no request to another shard or
worker.
"""

import asyncio

import pytest

import repro.runtime.cache as cache_mod
from repro.fabric import Frontend, FrontendConfig, FrontendHandle, WorkerNode
from repro.runtime import CachePeer, ResultCache, cache_key, request_identity
from repro.serve import (
    AsyncServeClient,
    ServeClient,
    ServeConfig,
    ServerHandle,
    ShardRouter,
    bind,
    register,
    resolve,
)
from repro.serve.endpoints import network_forward, runtime_point

SECRET = "request-identity-secret"

#: network_forward with its defaults left out, and with one spelled out.
SPELLINGS = ({}, {"seed": 0})

#: A misspelled kwarg and an endpoint that does not exist.
REFUSED = (("network_forward", {"sed": 1}, "sed"),
           ("no_such_endpoint", {}, "unknown endpoint"))


@register("identity_needs_x")
def needs_x(x: int, y: int = 2) -> int:
    """Test endpoint with a required parameter."""
    return x + y


def serve_config(tmp_path, name: str = "cache", **overrides) -> ServeConfig:
    defaults = dict(port=0, workers=2, mode="thread",
                    cache_dir=str(tmp_path / name), auth_secret=SECRET)
    defaults.update(overrides)
    return ServeConfig(**defaults)


def send_together(port: int, requests) -> list:
    """Pipeline ``(endpoint, kwargs)`` requests on one connection at once."""
    async def scenario():
        client = await AsyncServeClient.connect(port=port, secret=SECRET)
        try:
            return await asyncio.wait_for(asyncio.gather(
                *(client.send(name, kwargs) for name, kwargs in requests)), 60.0)
        finally:
            await client.aclose()

    return asyncio.run(scenario())


@pytest.fixture
def fleet(tmp_path):
    """A front-end and two workers; yields ``(fe, workers)``."""
    fe = FrontendHandle(FrontendConfig(port=0, heartbeat_timeout=5.0,
                                       auth_secret=SECRET)).start()
    workers = []
    try:
        for i in range(2):
            workers.append(WorkerNode(serve_config(tmp_path, f"w{i}"), "127.0.0.1",
                                      fe.port, worker_id=f"w{i}").start())
        yield fe, workers
    finally:
        for worker in workers:
            worker.stop()
        fe.stop()


class TestBind:
    def test_defaults_spelled_out_or_not_bind_to_one_request(self):
        bare, spelled = (bind("network_forward", kwargs) for kwargs in SPELLINGS)
        assert bare.fn is spelled.fn is network_forward
        assert bare.kwargs == spelled.kwargs
        assert bare.kwargs["seed"] == 0 and bare.kwargs["batch"] == 4
        assert bare.identity == spelled.identity
        assert bare.identity == request_identity(network_forward, {})

    def test_a_different_value_is_a_different_request(self):
        assert bind("network_forward", {"seed": 1}).identity != \
            bind("network_forward", {}).identity

    def test_refuses_unknown_and_missing_names(self):
        with pytest.raises(KeyError, match="unknown endpoint"):
            bind("no_such_endpoint", {})
        with pytest.raises(TypeError, match="sed"):
            bind("network_forward", {"sed": 1})
        with pytest.raises(TypeError, match="missing"):
            bind("identity_needs_x", {"y": 3})
        assert bind("identity_needs_x", {"x": 1}).kwargs == {"x": 1, "y": 2}

    def test_sweeps_and_served_requests_share_one_key(self):
        kwargs = {"network": "lenet", "density": 0.5}
        served = bind("runtime_point", kwargs)
        assert cache_key(runtime_point, kwargs, fingerprint="v") == \
            ResultCache(fingerprint="v").key_for_identity(served.identity)


class TestServerIdentity:
    @pytest.mark.parametrize("cache_enabled", (True, False))
    def test_both_spellings_compute_once_on_one_shard(self, tmp_path, cache_enabled):
        """Concurrent network_forward() and network_forward(seed=0): one
        miss and one coalesced reply, with or without a cache."""
        config = serve_config(tmp_path, cache_enabled=cache_enabled)
        with ServerHandle(config) as handle:
            replies = send_together(
                handle.port, [("network_forward", kwargs) for kwargs in SPELLINGS])
            stats = handle.stats()
        assert all(r.ok for r in replies)
        assert replies[0].value == replies[1].value
        assert [r.coalesced for r in replies] == [False, True]
        shard = ShardRouter(config.workers).route(bind("network_forward", {}).identity)
        assert replies[0].shard == shard
        assert (stats["misses"], stats["coalesced"], stats["hits"]) == (1, 1, 0)
        assert stats["per_shard"] == {shard: 1}

    def test_requests_no_endpoint_can_run_are_refused_before_a_shard(self, tmp_path):
        with ServerHandle(serve_config(tmp_path)) as handle:
            with ServeClient(port=handle.port, secret=SECRET) as client:
                for name, kwargs, error in REFUSED:
                    response = client.send(name, kwargs)
                    assert not response.ok and error in response.error
            stats = handle.stats()
        assert stats["misses"] == 0 and stats["per_shard"] == {}
        assert stats["errors"] == len(REFUSED)

    def test_a_code_edit_rotates_the_key_but_moves_no_request(self, tmp_path, monkeypatch):
        """Patching code_fingerprint rotates every cache key, while each
        request keeps its identity, its shard and its ring preference."""
        requests = [("runtime_point", {"layer_index": i % 3, "num_unique": 17 + i})
                    for i in range(8)]
        membership = Frontend(FrontendConfig(port=0)).membership
        for i in range(3):
            membership.join(f"w{i}", "127.0.0.1", 1 + i)
        placements = {}
        for version in ("before", "after"):
            monkeypatch.setattr(cache_mod, "code_fingerprint", lambda v=version: v)
            config = serve_config(tmp_path, version, workers=4)
            with ServerHandle(config) as handle:
                with ServeClient(port=handle.port, secret=SECRET) as client:
                    replies = [client.send(name, kwargs) for name, kwargs in requests]
            assert all(r.ok and not r.cached for r in replies)
            identities = [bind(name, kwargs).identity for name, kwargs in requests]
            placements[version] = {
                "identities": identities,
                "keys": [cache_key(resolve(name), kwargs) for name, kwargs in requests],
                "shards": [r.shard for r in replies],
                "preference": [[w.worker_id for w in membership.preference(i, 2)]
                               for i in identities],
            }
        before, after = placements["before"], placements["after"]
        assert not set(before["keys"]) & set(after["keys"])
        assert before["identities"] == after["identities"]
        assert before["shards"] == after["shards"]
        assert len(set(before["shards"])) > 1
        assert before["preference"] == after["preference"]


class TestFrontendIdentity:
    def test_both_spellings_reach_one_worker_and_one_catalog_entry(self, fleet):
        fe, _ = fleet
        with ServeClient(port=fe.port, secret=SECRET) as client:
            replies = [client.send("network_forward", kwargs) for kwargs in SPELLINGS]
        assert all(r.ok for r in replies)
        assert replies[0].worker == replies[1].worker
        assert [r.cached for r in replies] == [False, True]
        assert fe.stats()["routing"]["catalog"] == 1

    def test_requests_no_endpoint_can_run_are_refused_at_the_front(self, fleet):
        fe, workers = fleet
        with ServeClient(port=fe.port, secret=SECRET) as client:
            for name, kwargs, error in REFUSED:
                response = client.send(name, kwargs)
                assert not response.ok and error in response.error
                assert response.worker is None
        stats = fe.stats()
        assert stats["forwarded"] == 0 and stats["routing"]["catalog"] == 0
        assert stats["errors"] == len(REFUSED)
        assert sum(w.stats()["misses"] for w in workers) == 0


class TestCatalog:
    def test_only_answered_requests_are_prewarmed(self, tmp_path):
        """A request the worker fails, and one the front-end refuses,
        never reach the catalog, so the pre-warm reads ``absent: 0``."""
        with CachePeer(root=tmp_path / "peer") as peer:
            fe = FrontendHandle(FrontendConfig(port=0, heartbeat_timeout=5.0,
                                               auth_secret=SECRET)).start()
            worker = None
            try:
                config = serve_config(tmp_path, "w0", remote_cache=peer.url)
                worker = WorkerNode(config, "127.0.0.1", fe.port, worker_id="w0",
                                    prewarm_interval=3600.0).start()
                worker._prewarm_thread.join()  # the join-time pre-warm
                with ServeClient(port=fe.port, secret=SECRET) as client:
                    assert client.send("runtime_point", {"density": 0.4}).ok
                    assert not client.send("simulate", {"design": "tpu"}).ok
                    assert not client.send("runtime_point", {"densty": 0.4}).ok
                assert fe.stats()["routing"]["catalog"] == 1
                worker._replica_prewarm("test")
                assert worker.replica_warmth["results"] == {
                    "assigned": 1, "hot": 1, "promoted": 0, "absent": 0}
            finally:
                if worker is not None:
                    worker.stop()
                fe.stop()
