"""End-to-end serving tests: parity, caching, coalescing, robustness.

These run a real TCP server (thread-mode shards unless a test says
otherwise, ephemeral port) and talk to it with the real clients, so they
cover the wire protocol, the router, the shard pool, and the cache fast
path together.
"""

import json
import os
import time

import pytest

from repro.serve import (
    ServeClient,
    ServeConfig,
    ServeError,
    ServerHandle,
    default_mix,
    register,
    resolve,
    run_load,
)
from repro.serve.protocol import to_jsonable


@register("slow_echo")
def slow_echo(value: float = 1.0, seconds: float = 0.05) -> float:
    """Test endpoint: sleep, then echo (exercises single-flight)."""
    time.sleep(seconds)
    return value


@register("bad_payload")
def bad_payload() -> bytes:
    """Test endpoint returning something JSON cannot encode."""
    return b"\x00raw bytes"


@register("exit_worker")
def exit_worker() -> None:
    """Test endpoint that kills the process running it."""
    os._exit(1)


def make_config(tmp_path, **overrides) -> ServeConfig:
    defaults = dict(port=0, workers=2, mode="thread",
                    cache_dir=str(tmp_path / "cache"))
    defaults.update(overrides)
    return ServeConfig(**defaults)


def direct_value(endpoint: str, kwargs: dict):
    """What the server should answer: direct call, JSON round-tripped."""
    value = resolve(endpoint)(**kwargs)
    return json.loads(json.dumps(to_jsonable(value)))


@pytest.fixture
def server(tmp_path):
    with ServerHandle(make_config(tmp_path)) as handle:
        yield handle


class TestBasics:
    def test_ping(self, server):
        with ServeClient(port=server.port) as client:
            assert client.value("ping", payload=42) == {"pong": 42}

    def test_unknown_endpoint_is_an_error_not_a_hangup(self, server):
        with ServeClient(port=server.port) as client:
            with pytest.raises(ServeError, match="unknown endpoint"):
                client.request("no_such_endpoint")
            # The connection survives the error.
            assert client.value("ping") == {"pong": None}

    def test_endpoint_exception_reported(self, server):
        with ServeClient(port=server.port) as client:
            with pytest.raises(ServeError, match="unknown design"):
                client.request("simulate", design="tpu")

    def test_unencodable_return_value_is_an_error_response(self, server):
        """A bad custom endpoint must not leave its request unanswered."""
        with ServeClient(port=server.port) as client:
            with pytest.raises(ServeError, match="not JSON-serializable"):
                client.request("bad_payload")
            assert client.value("ping") == {"pong": None}

    def test_cache_write_failure_does_not_hang_clients(self, tmp_path):
        """put() failing (full disk, bad perms) must still resolve requests."""
        from repro.runtime import ResultCache

        class BrokenPutCache(ResultCache):
            def put(self, key, value, fn="", label=""):
                raise OSError("disk full")

        config = make_config(tmp_path)
        broken = BrokenPutCache(root=tmp_path / "cache")
        with ServerHandle(config, cache=broken) as handle:
            with ServeClient(port=handle.port, timeout=10.0) as client:
                kwargs = {"network": "lenet", "group_size": 2, "density": 0.55}
                response = client.request("runtime_point", **kwargs)
        assert response.ok and not response.cached
        assert response.value == direct_value("runtime_point", kwargs)

    def test_meta_endpoints(self, server):
        with ServeClient(port=server.port) as client:
            names = client.value("_endpoints")
            assert "runtime_point" in names and "simulate" in names
            stats = client.stats()
            assert stats["requests"] >= 1


class TestParity:
    """Acceptance: served responses bit-identical to direct execution."""

    def test_runtime_point_matches_direct(self, server):
        kwargs = {"network": "lenet", "layer_index": 1, "group_size": 2, "density": 0.6}
        with ServeClient(port=server.port) as client:
            response = client.request("runtime_point", **kwargs)
        assert response.value == direct_value("runtime_point", kwargs)
        assert isinstance(response.value, float)

    def test_factorize_dict_matches_direct(self, server):
        kwargs = {"k": 4, "c": 8, "u": 5, "group_size": 2, "density": 0.7}
        with ServeClient(port=server.port) as client:
            value = client.value("factorize", **kwargs)
        assert value == direct_value("factorize", kwargs)
        assert value["engine"]["parity"] is True

    def test_engine_forward_matches_direct_and_dense(self, server):
        kwargs = {"k": 4, "c": 8, "u": 5, "group_size": 2, "size": 6}
        with ServeClient(port=server.port) as client:
            value = client.value("engine_forward", **kwargs)
        assert value == direct_value("engine_forward", kwargs)
        assert value["parity"] is True

    def test_cached_hit_returns_identical_value(self, server):
        kwargs = {"network": "lenet", "group_size": 4, "density": 0.3}
        with ServeClient(port=server.port) as client:
            first = client.request("runtime_point", **kwargs)
            second = client.request("runtime_point", **kwargs)
        assert not first.cached and second.cached
        assert first.value == second.value == direct_value("runtime_point", kwargs)
        assert second.shard is None  # hits never touch a worker

    def test_mixed_load_full_parity(self, server):
        mix = default_mix(30)
        result = run_load("127.0.0.1", server.port, mix, concurrency=4)
        assert result.stats.errors == 0
        for (endpoint, kwargs), record in zip(mix, result.records):
            assert record.value == direct_value(endpoint, kwargs), endpoint


class TestDurationLoad:
    def test_duration_mode_cycles_the_mix_until_the_deadline(self, server):
        """``duration=`` turns the fixed list into a sustained closed
        loop: the mix repeats until time is up, every issued request is
        answered, and records map back to mix slots by index order."""
        mix = default_mix(5)
        result = run_load("127.0.0.1", server.port, mix, concurrency=4,
                          duration=1.0)
        assert result.stats.errors == 0
        assert result.stats.requests > len(mix)  # it cycled
        # Endpoints are pure: one direct value per mix slot serves every cycle.
        expected = [direct_value(endpoint, kwargs) for endpoint, kwargs in mix]
        for i, record in enumerate(result.records):
            assert record.value == expected[i % len(mix)]

    def test_duration_zero_issues_nothing(self, server):
        result = run_load("127.0.0.1", server.port, default_mix(5),
                          concurrency=4, duration=0.0)
        assert result.stats.requests == 0

    def test_empty_mix_is_rejected(self, server):
        with pytest.raises(ValueError):
            run_load("127.0.0.1", server.port, [], duration=1.0)


class TestCacheBehaviour:
    def test_warm_pass_is_all_hits(self, server):
        mix = default_mix(20)
        run_load("127.0.0.1", server.port, mix, concurrency=4)
        warm = run_load("127.0.0.1", server.port, mix, concurrency=4)
        assert warm.stats.hit_rate == 1.0
        assert warm.stats.errors == 0

    def test_cache_survives_server_restart(self, tmp_path):
        kwargs = {"network": "lenet", "group_size": 2, "density": 0.5}
        with ServerHandle(make_config(tmp_path)) as first:
            with ServeClient(port=first.port) as client:
                cold = client.request("runtime_point", **kwargs)
        with ServerHandle(make_config(tmp_path)) as second:
            with ServeClient(port=second.port) as client:
                warm = client.request("runtime_point", **kwargs)
        assert not cold.cached and warm.cached
        assert warm.value == cold.value

    def test_no_cache_mode_always_computes(self, tmp_path):
        config = make_config(tmp_path, cache_enabled=False)
        kwargs = {"network": "lenet", "group_size": 1, "density": 0.4}
        with ServerHandle(config) as handle:
            with ServeClient(port=handle.port) as client:
                first = client.request("runtime_point", **kwargs)
                second = client.request("runtime_point", **kwargs)
        assert not first.cached and not second.cached
        assert first.value == second.value

    def test_batched_error_does_not_poison_neighbors(self, tmp_path):
        """One failing request must not fail another in flight on its shard."""
        import asyncio

        from repro.serve import AsyncServeClient

        config = make_config(tmp_path, workers=1)

        async def scenario(port):
            good_client = await AsyncServeClient.connect(port=port)
            bad_client = await AsyncServeClient.connect(port=port)
            try:
                good_task = asyncio.ensure_future(
                    good_client.request("slow_echo", value=3.0, seconds=0.01))
                bad_task = asyncio.ensure_future(
                    bad_client.request("simulate", design="tpu"))
                good = await asyncio.wait_for(good_task, timeout=10.0)
                with pytest.raises(ServeError, match="unknown design"):
                    await asyncio.wait_for(bad_task, timeout=10.0)
                return good
            finally:
                await good_client.aclose()
                await bad_client.aclose()

        with ServerHandle(config) as handle:
            good = asyncio.run(scenario(handle.port))
        assert good.ok and good.value == 3.0

    def test_coalesced_request_survives_owner_disconnect(self, tmp_path):
        """The first requester hanging up must not starve coalesced twins."""
        import asyncio

        from repro.serve import AsyncServeClient

        config = make_config(tmp_path, workers=1)

        async def scenario(port):
            owner = await AsyncServeClient.connect(port=port)
            kwargs = {"value": 11.0, "seconds": 0.4}
            owner_task = asyncio.ensure_future(owner.request("slow_echo", **kwargs))
            await asyncio.sleep(0.1)
            twin = await AsyncServeClient.connect(port=port)
            twin_task = asyncio.ensure_future(twin.request("slow_echo", **kwargs))
            await asyncio.sleep(0.1)
            owner_task.cancel()
            await owner.aclose()  # owner hangs up mid-compute
            try:
                response = await asyncio.wait_for(twin_task, timeout=5.0)
            finally:
                await twin.aclose()
            return response

        with ServerHandle(config) as handle:
            response = asyncio.run(scenario(handle.port))
        assert response.ok and response.value == 11.0

    def test_single_flight_coalesces_identical_misses(self, tmp_path):
        """Concurrent identical cold requests compute once, not N times."""
        config = make_config(tmp_path, workers=1)
        mix = [("slow_echo", {"value": 7.0, "seconds": 0.2})] * 6
        with ServerHandle(config) as handle:
            result = run_load("127.0.0.1", handle.port, mix, concurrency=6)
            stats = handle.stats()
        assert result.stats.errors == 0
        assert all(r.value == 7.0 for r in result.records)
        # One request computed; the rest either coalesced onto it or hit
        # the cache after it landed — never a second worker execution.
        assert stats["misses"] == 1
        assert stats["coalesced"] + stats["hits"] == 5


class TestMissPath:
    def test_each_miss_replies_when_its_own_call_ends(self, tmp_path):
        """A fast miss does not wait for a slow one queued behind it on its shard."""
        import asyncio

        from repro.serve import AsyncServeClient

        async def scenario(port):
            client = await AsyncServeClient.connect(port=port)
            try:
                # Pipelined on one connection, fast first: both misses
                # land on the one shard, the slow call behind the fast one.
                fast = asyncio.ensure_future(
                    client.request("slow_echo", value=1.0, seconds=0.0))
                slow = asyncio.ensure_future(
                    client.request("slow_echo", value=2.0, seconds=0.5))
                fast_reply = await asyncio.wait_for(fast, timeout=10.0)
                fast_at = time.perf_counter()
                slow_reply = await asyncio.wait_for(slow, timeout=10.0)
                return fast_reply, slow_reply, time.perf_counter() - fast_at
            finally:
                await client.aclose()

        with ServerHandle(make_config(tmp_path, workers=1)) as handle:
            fast, slow, gap = asyncio.run(scenario(handle.port))
        assert (fast.value, slow.value) == (1.0, 2.0)
        assert fast.shard == slow.shard == 0
        assert gap > 0.25, f"fast reply arrived only {gap * 1000:.0f} ms before the slow one"

    def test_dead_shard_process_is_replaced(self, tmp_path):
        """A request that kills its shard process fails; the next one runs on a fresh process."""
        kwargs = {"network": "lenet", "group_size": 2, "density": 0.45}
        with ServerHandle(make_config(tmp_path, workers=1, mode="process")) as handle:
            with ServeClient(port=handle.port, timeout=30.0) as client:
                with pytest.raises(ServeError, match="BrokenProcessPool"):
                    client.request("exit_worker")
                response = client.request("runtime_point", **kwargs)
        assert response.ok and not response.cached
        assert response.value == direct_value("runtime_point", kwargs)

    def test_stop_finishes_an_in_flight_miss(self, tmp_path):
        """Stopping drops the requester but lets its running miss land in the cache."""
        import asyncio

        from repro.runtime import ResultCache
        from repro.serve import AsyncServeClient

        kwargs = {"value": 5.0, "seconds": 0.5}
        handle = ServerHandle(make_config(tmp_path, workers=1)).start()

        async def dispatched():
            while handle.stats()["misses"] < 1:
                await asyncio.sleep(0.01)

        async def scenario():
            client = await AsyncServeClient.connect(port=handle.port)
            try:
                request = asyncio.ensure_future(client.request("slow_echo", **kwargs))
                await asyncio.wait_for(dispatched(), timeout=10.0)
                await asyncio.to_thread(handle.stop)  # drops open connections
                with pytest.raises(ConnectionError):
                    await asyncio.wait_for(request, timeout=10.0)
            finally:
                await client.aclose()

        try:
            asyncio.run(scenario())
        finally:
            handle.stop()
        cache = ResultCache(root=tmp_path / "cache")
        assert cache.get(cache.key_for(resolve("slow_echo"), kwargs)) == 5.0


class TestConfig:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="workers"):
            ServeConfig(workers=0)
        with pytest.raises(ValueError, match="mode"):
            ServeConfig(mode="fork")


class TestAsyncClient:
    def test_send_after_the_server_hung_up_fails_fast(self, tmp_path):
        """Once the client has read EOF, ``send`` raises instead of hanging.

        Nothing reads replies after EOF, so a request written then would
        wait forever; a fabric front-end pooling this client would stall
        each forward to a dead worker until its timeout.
        """
        import asyncio

        from repro.serve import AsyncServeClient

        handle = ServerHandle(make_config(tmp_path)).start()

        async def scenario():
            client = await AsyncServeClient.connect(port=handle.port)
            try:
                assert (await client.request("ping")).value == {"pong": None}
                await asyncio.to_thread(handle.stop)  # drops open connections
                await asyncio.wait_for(client._reader_task, timeout=5.0)  # EOF seen
                with pytest.raises(ConnectionError):
                    await asyncio.wait_for(client.send("ping"), timeout=1.0)
            finally:
                await client.aclose()

        try:
            asyncio.run(scenario())
        finally:
            handle.stop()

    def test_requests_in_flight_at_hang_up_fail(self):
        """A reply the server will never send fails its awaiter at EOF."""
        import asyncio

        from repro.serve import AsyncServeClient

        async def read_one_line_then_hang_up(reader, writer):
            await reader.readline()
            writer.close()

        async def scenario():
            server = await asyncio.start_server(read_one_line_then_hang_up, "127.0.0.1", 0)
            client = await AsyncServeClient.connect(port=server.sockets[0].getsockname()[1])
            try:
                with pytest.raises(ConnectionError):
                    await asyncio.wait_for(client.send("ping"), timeout=5.0)
                assert client._pending == {}
            finally:
                await client.aclose()
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_send_after_aclose_fails_fast(self, server):
        import asyncio

        from repro.serve import AsyncServeClient

        async def scenario():
            client = await AsyncServeClient.connect(port=server.port)
            assert (await client.request("ping")).value == {"pong": None}
            await client.aclose()
            with pytest.raises(ConnectionError):
                await asyncio.wait_for(client.send("ping"), timeout=1.0)
            assert client._pending == {}

        asyncio.run(scenario())


class TestStats:
    def test_counters_add_up(self, server):
        mix = default_mix(25)
        run_load("127.0.0.1", server.port, mix, concurrency=4)
        stats = server.stats()
        assert stats["requests"] == 25
        assert stats["hits"] + stats["misses"] + stats["coalesced"] == 25
        assert stats["misses"] >= 1
        assert sum(stats["per_shard"].values()) == stats["misses"]


class TestProgramPrewarm:
    def test_prewarmed_server_serves_with_zero_compiles(self, tmp_path):
        """Warm-start proof at the serve layer: read artifacts through, 0 misses."""
        from repro.engine import clear_program_cache
        from repro.engine.artifacts import ProgramArtifactTier, ProgramStore
        from repro.engine.program import set_artifact_tier
        from repro.serve.endpoints import network_forward

        # "Node A": compile into the artifact dir via the tier.
        store = ProgramStore(root=tmp_path / "cache")
        tier = ProgramArtifactTier(store)
        previous = set_artifact_tier(tier)
        try:
            clear_program_cache()
            ref = network_forward(seed=21, batch=2)
            tier.drain()
        finally:
            set_artifact_tier(previous)
            tier.close()
        clear_program_cache()

        # "Node B": same artifact dir, fresh program cache, prewarm on.
        config = make_config(tmp_path, workers=1, prewarm_programs=True)
        with ServerHandle(config) as handle:
            with ServeClient(port=handle.port) as client:
                response = client.send("network_forward", {"seed": 21, "batch": 2})
            stats = handle.stats()
        assert response.ok, response.error
        assert response.value["out_checksum"] == ref["out_checksum"]
        programs = stats["programs"]
        assert programs["artifact_hits"] >= 1
        assert programs["misses"] == 0, f"prewarmed server compiled: {programs}"

    def test_nothing_loads_before_traffic(self, tmp_path):
        """More stored artifacts than the program cache holds: none load eagerly."""
        import numpy as np

        from repro.engine import clear_program_cache, compiled_layer_for, program_cache_info
        from repro.engine.artifacts import ProgramStore

        store = ProgramStore(root=tmp_path / "cache")
        rng = np.random.default_rng(5)
        for _ in range(program_cache_info()["max"] + 2):
            layer = compiled_layer_for(rng.integers(-3, 4, size=(2, 4)), group_size=2)
            assert store.save(layer.key, layer)
        clear_program_cache()
        with ServerHandle(make_config(tmp_path, workers=1, prewarm_programs=True)) as handle:
            programs = handle.stats()["programs"]
        assert programs["entries"] == 0 and programs["artifact_hits"] == 0

    def test_hung_peer_opens_the_breaker(self, tmp_path):
        """Program loads share the server's peer client: once its breaker opens they skip."""
        import socket

        from repro.engine.program import get_artifact_tier

        with socket.socket() as hung:
            hung.bind(("127.0.0.1", 0))
            hung.listen(16)
            config = make_config(
                tmp_path, workers=1, prewarm_programs=True, remote_timeout=0.2,
                remote_cache=f"http://127.0.0.1:{hung.getsockname()[1]}")
            with ServerHandle(config) as handle:
                tier = get_artifact_tier()
                assert tier.store.remote is handle.server.cache.remote
                waits = []
                for i in range(6):
                    started = time.monotonic()
                    assert tier.fetch(f"layer:g1:m16:c1:{i:064x}") is None
                    waits.append(time.monotonic() - started)
                remote = handle.stats()["tier"]["remote"]
        assert remote["errors"] == 3 and remote["skipped"] == 3 and remote["breaker_open"]
        assert max(waits[3:]) < 0.15 <= min(waits[:3])

    def test_stats_always_carry_programs_block(self, server):
        stats = server.stats()
        assert "programs" in stats
        assert set(stats["programs"]) >= {"entries", "hits", "misses", "artifact_hits"}
