"""Tests for fabric membership: joins, heartbeats, eviction, routing."""

import pytest

from repro.fabric import Membership


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make(timeout: float = 1.5) -> tuple[Membership, FakeClock]:
    clock = FakeClock()
    return Membership(heartbeat_timeout=timeout, clock=clock), clock


class TestLifecycle:
    def test_join_heartbeat_leave(self):
        members, _ = make()
        info = members.join("w1", "10.0.0.1", 9000)
        assert info.address == ("10.0.0.1", 9000)
        assert members.heartbeat("w1")
        assert members.leave("w1")
        assert not members.leave("w1")
        assert len(members) == 0

    def test_heartbeat_unknown_worker_says_rejoin(self):
        members, _ = make()
        assert not members.heartbeat("ghost")

    def test_rejoin_refreshes_address_without_churn(self):
        members, _ = make()
        members.join("w1", "10.0.0.1", 9000)
        info = members.join("w1", "10.0.0.2", 9001)  # restarted elsewhere
        assert info.address == ("10.0.0.2", 9001)
        snapshot = members.snapshot()
        assert snapshot["joins"] == 1 and snapshot["rejoins"] == 1
        assert len(members) == 1

    def test_rejects_bad_ids(self):
        members, _ = make()
        with pytest.raises(ValueError):
            members.join("", "h", 1)

    def test_rejects_bad_timeout(self):
        with pytest.raises(ValueError):
            Membership(heartbeat_timeout=0)


class TestEviction:
    def test_sweep_evicts_only_stale(self):
        members, clock = make(timeout=1.5)
        members.join("stale", "h", 1)
        clock.advance(1.0)
        members.join("fresh", "h", 2)
        clock.advance(1.0)  # stale: 2.0s silent; fresh: 1.0s
        assert members.sweep() == ["stale"]
        assert [w.worker_id for w in members.workers()] == ["fresh"]
        assert members.snapshot()["eviction_reasons"] == {"heartbeat": 1}

    def test_heartbeat_defers_sweep(self):
        members, clock = make(timeout=1.5)
        members.join("w1", "h", 1)
        for _ in range(5):
            clock.advance(1.0)
            members.heartbeat("w1")
        assert members.sweep() == []

    def test_eager_evict(self):
        members, _ = make()
        members.join("w1", "h", 1)
        assert members.evict("w1", "connection")
        assert not members.evict("w1", "connection")
        assert members.snapshot()["eviction_reasons"] == {"connection": 1}

    def test_evicted_worker_can_rejoin(self):
        members, _ = make()
        members.join("w1", "h", 1)
        members.evict("w1", "connection")
        members.join("w1", "h", 1)
        assert members.heartbeat("w1")


class TestRouting:
    def test_route_empty_fleet(self):
        members, _ = make()
        assert members.route("key") is None

    def test_route_is_stable_and_counts_forwards(self):
        members, _ = make()
        members.join("w1", "h", 1)
        members.join("w2", "h", 2)
        owner = members.route("some-key").worker_id
        for _ in range(5):
            assert members.route("some-key").worker_id == owner
        assert members.get(owner).forwards == 6

    def test_eviction_reroutes_only_the_dead_workers_keys(self):
        members, _ = make()
        for i in range(4):
            members.join(f"w{i}", "h", i)
        keys = [f"key-{i}" for i in range(300)]
        before = {k: members.route(k).worker_id for k in keys}
        members.evict("w0", "connection")
        for k in keys:
            owner = members.route(k).worker_id
            if before[k] != "w0":
                assert owner == before[k]
            else:
                assert owner != "w0"

    def test_snapshot_shape(self):
        members, _ = make()
        members.join("w1", "h", 1)
        snap = members.snapshot()
        assert snap["ring_nodes"] == ["w1"]
        assert snap["workers"][0]["worker_id"] == "w1"
        assert snap["joins"] == 1
