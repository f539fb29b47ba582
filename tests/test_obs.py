"""Unit tests for :class:`repro.obs.Counters`, the one event-counter type."""

import sys
import threading

import pytest

from repro.obs import Counters


def test_starts_at_zero_with_every_declared_name():
    counters = Counters("hits", "misses", keyed={"per_shard": ()})
    assert counters.snapshot() == {"hits": 0, "misses": 0, "per_shard": {}}


def test_inc_counts_plain_and_keyed_events():
    counters = Counters("hits", keyed={"per_shard": ()})
    counters.inc("hits")
    counters.inc("hits")
    counters.inc("per_shard", 1)
    counters.inc("per_shard", 0)
    counters.inc("per_shard", 1)
    assert counters.snapshot() == {"hits": 2, "per_shard": {1: 2, 0: 1}}


def test_an_undeclared_name_raises_key_error():
    counters = Counters("hits", keyed={"shed": ("low",)})
    with pytest.raises(KeyError):
        counters.inc("hit")
    with pytest.raises(KeyError):
        counters.inc("shedd", "low")
    with pytest.raises(KeyError):
        counters.inc("hits", "low")  # a plain counter takes no key
    with pytest.raises(KeyError):
        counters.inc("shed")  # a keyed counter needs one
    assert counters.snapshot() == {"hits": 0, "shed": {"low": 0}}


def test_pre_seeded_keys_appear_as_zeros():
    counters = Counters(keyed={"admitted": ("high", "normal", "low")})
    counters.inc("admitted", "low")
    counters.inc("admitted", "urgent")  # an unseeded key joins on first use
    assert counters.snapshot() == {
        "admitted": {"high": 0, "normal": 0, "low": 1, "urgent": 1}}


def test_a_snapshot_is_a_copy():
    counters = Counters("hits", keyed={"per_shard": (0,)})
    snapshot = counters.snapshot()
    snapshot["hits"] = 99
    snapshot["per_shard"][0] = 99
    snapshot["per_shard"][7] = 1
    assert counters.snapshot() == {"hits": 0, "per_shard": {0: 0}}
    counters.inc("hits")
    counters.inc("per_shard", 0)
    assert snapshot == {"hits": 99, "per_shard": {0: 99, 7: 1}}


def test_reset_zeroes_everything():
    counters = Counters("hits", keyed={"shed": ("low",), "per_shard": ()})
    counters.inc("hits")
    counters.inc("shed", "low")
    counters.inc("shed", "high")
    counters.inc("per_shard", 3)
    counters.reset()
    assert counters.snapshot() == {"hits": 0, "shed": {"low": 0}, "per_shard": {}}
    counters.inc("hits")
    assert counters.snapshot()["hits"] == 1


def test_concurrent_incs_sum_exactly():
    threads, per_thread = 8, 10_000
    counters = Counters("events", keyed={"by_thread": ()})
    start = threading.Barrier(threads)

    def hammer(index: int) -> None:
        start.wait()
        for _ in range(per_thread):
            counters.inc("events")
            counters.inc("by_thread", index % 2)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        workers = [threading.Thread(target=hammer, args=(i,)) for i in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    half = threads // 2 * per_thread
    assert counters.snapshot() == {"events": threads * per_thread,
                                   "by_thread": {0: half, 1: half}}
