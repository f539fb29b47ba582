"""Replicated-routing tests: spill, idempotence-gated replay, catalog.

In-process fleets (FrontendHandle + thread-mode WorkerNodes) with
``replication=2`` pin the three behaviors the R-way tentpole added to
the forward path:

* load **spills** to the key's next replica when the owner is past the
  per-worker in-flight threshold;
* a transport failure mid-request **replays** on the next replica only
  for endpoints declared idempotent — a non-idempotent request is
  answered with an error instead (``not_replayed``), so it executes at
  most once;
* the front-end's routed-key **catalog** drives ``_assignments``,
  giving every replica its pre-warm work list.
"""

import json
import threading
import time

import pytest

from repro.fabric import FrontendConfig, FrontendHandle, WorkerNode
from repro.serve import ServeClient, ServeConfig, register

SECRET = "replication-test-secret"

#: Calls seen by repl_slow_once, shared across both thread-mode workers
#: (same process): the first caller sleeps past the forward timeout,
#: the replay answers instantly.
_SLOW_ONCE_CALLS: list[float] = []


@register("repl_hold")
def repl_hold(seconds: float = 0.5, tag: int = 0) -> int:
    """Test endpoint: occupy the owner's forward slot for a while."""
    time.sleep(seconds)
    return tag


@register("repl_write", idempotent=False)
def repl_write(seconds: float = 0.0, tag: int = 0) -> int:
    """Test endpoint registered non-idempotent (a 'write')."""
    time.sleep(seconds)
    return tag


@register("repl_slow_once")
def repl_slow_once(seconds: float = 1.0, tag: int = 0) -> int:
    """Test endpoint: only the FIRST call (per process) is slow."""
    _SLOW_ONCE_CALLS.append(time.monotonic())
    if len(_SLOW_ONCE_CALLS) == 1:
        time.sleep(seconds)
    return tag


def routing_key(endpoint: str, kwargs: dict) -> str:
    """The exact key string Frontend._forward hashes for routing."""
    return endpoint + ":" + json.dumps(kwargs, sort_keys=True, separators=(",", ":"))


def make_cluster(tmp_path, **frontend_overrides):
    """1 front-end + 2 workers at replication=2; caller stops both."""
    defaults = dict(port=0, heartbeat_timeout=5.0, auth_secret=SECRET,
                    replication=2)
    defaults.update(frontend_overrides)
    fe = FrontendHandle(FrontendConfig(**defaults)).start()
    workers = []
    for i in range(2):
        config = ServeConfig(
            port=0, workers=2, mode="thread",
            cache_dir=str(tmp_path / f"w{i}" / "cache"), auth_secret=SECRET)
        workers.append(WorkerNode(config, "127.0.0.1", fe.port,
                                  worker_id=f"w{i}").start())
    return fe, workers


def stop_cluster(fe, workers) -> None:
    for worker in workers:
        try:
            worker.stop()
        except Exception:
            pass
    fe.stop()


@pytest.fixture
def cluster(tmp_path):
    fe, workers = make_cluster(tmp_path)
    try:
        yield fe, workers
    finally:
        stop_cluster(fe, workers)


def owner_of(fe, endpoint: str, kwargs: dict) -> str:
    prefs = fe.frontend.membership.preference(routing_key(endpoint, kwargs), 2)
    return prefs[0].worker_id


def keys_owned_by(fe, worker_id: str, endpoint: str, count: int = 2) -> list[dict]:
    """kwargs variants (distinct tags) whose routing owner is worker_id."""
    out = []
    for tag in range(200):
        kwargs = {"seconds": 0.01, "tag": tag}
        if owner_of(fe, endpoint, kwargs) == worker_id:
            out.append(kwargs)
            if len(out) == count:
                return out
    pytest.fail(f"no {count} keys owned by {worker_id} in 200 tags")


class TestSpill:
    def test_saturated_owner_spills_to_replica(self, tmp_path):
        """With the owner at its in-flight threshold, the same key range
        is served by its replica — no queueing behind the slow node."""
        fe, workers = make_cluster(tmp_path, worker_inflight_limit=1)
        try:
            owner = workers[0].worker_id
            hold_kwargs, probe_kwargs = keys_owned_by(fe, owner, "repl_hold")
            hold_kwargs = dict(hold_kwargs, seconds=1.5)

            def hold() -> None:
                with ServeClient("127.0.0.1", fe.port, secret=SECRET) as client:
                    client.send("repl_hold", hold_kwargs)

            holder = threading.Thread(target=hold)
            holder.start()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                info = fe.frontend.membership.get(owner)
                if info is not None and info.inflight >= 1:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("holder never reached the owner")

            with ServeClient("127.0.0.1", fe.port, secret=SECRET) as client:
                probe = client.send("repl_hold", probe_kwargs)
            holder.join()
            assert probe.ok and probe.value == probe_kwargs["tag"]
            assert probe.worker == workers[1].worker_id  # the replica
            stats = fe.stats()
            assert stats["spills"] >= 1
            by_id = {w["worker_id"]: w for w in stats["membership"]["workers"]}
            # The spill is accounted on the replica that ABSORBED it.
            assert by_id[workers[1].worker_id]["spills"] >= 1
        finally:
            stop_cluster(fe, workers)


class TestIdempotenceGate:
    def test_idempotent_timeout_replays_on_the_next_replica(self, tmp_path):
        """A read that times out mid-request is retried down the
        preference list and still answers ok."""
        _SLOW_ONCE_CALLS.clear()
        fe, workers = make_cluster(tmp_path, forward_timeout=0.3)
        try:
            with ServeClient("127.0.0.1", fe.port, secret=SECRET) as client:
                response = client.send(
                    "repl_slow_once", {"seconds": 2.0, "tag": 7})
            assert response.ok and response.value == 7
            stats = fe.stats()
            assert stats["retries"] >= 1
            assert stats["forward_errors"] >= 1
            assert stats["not_replayed"] == 0
            assert len(_SLOW_ONCE_CALLS) == 2  # original + one replay
        finally:
            stop_cluster(fe, workers)

    def test_non_idempotent_timeout_is_never_replayed(self, tmp_path):
        """The same mid-request death on a declared write answers 503
        instead of replaying — at-most-once execution."""
        fe, workers = make_cluster(tmp_path, forward_timeout=0.3)
        try:
            with ServeClient("127.0.0.1", fe.port, secret=SECRET) as client:
                response = client.send("repl_write", {"seconds": 2.0, "tag": 8})
            assert not response.ok and response.status == 503
            assert "not idempotent" in response.error
            assert "not" in response.error and "replayed" in response.error
            stats = fe.stats()
            assert stats["not_replayed"] == 1
            # The timed-out worker was still evicted — failing fast is
            # allowed; silently re-executing the write is not.
            assert stats["forward_errors"] >= 1
        finally:
            stop_cluster(fe, workers)


class TestAssignments:
    def test_catalog_feeds_per_worker_prewarm_lists(self, cluster):
        """Every routed key shows up in BOTH workers' assignment lists
        at R=2 with two workers — rank 0 on the owner, 1 on the
        replica — and the summary view balances."""
        fe, workers = cluster
        mixes = [{"network": "lenet", "layer_index": i % 3, "group_size": 2,
                  "density": 0.5, "num_unique": 17 + i} for i in range(6)]
        with ServeClient("127.0.0.1", fe.port, secret=SECRET) as client:
            for kwargs in mixes:
                assert client.send("runtime_point", kwargs).ok
            summary = client.send("_assignments", {}).value
            per_worker = {
                w.worker_id: client.send(
                    "_assignments", {"worker_id": w.worker_id}).value
                for w in workers}
        assert summary["replication"] == 2
        assert summary["catalog"] == len(mixes)
        assert set(summary["workers"]) == {"w0", "w1"}
        for worker_id, view in per_worker.items():
            assert view["worker_id"] == worker_id
            assert len(view["entries"]) == len(mixes)  # replica of every key
            assert {e["rank"] for e in view["entries"]} <= {0, 1}
            counted = summary["workers"][worker_id]
            primaries = sum(1 for e in view["entries"] if e["rank"] == 0)
            assert counted["primary"] == primaries
            assert counted["replica"] == len(mixes) - primaries
        # Each key has exactly one owner across the fleet.
        total_primary = sum(v["primary"] for v in summary["workers"].values())
        assert total_primary == len(mixes)

    def test_join_reply_advertises_replication(self, cluster):
        fe, _ = cluster
        with ServeClient("127.0.0.1", fe.port, secret=SECRET) as client:
            stats = client.send("_stats", {}).value
        assert stats["routing"]["replication"] == 2
        assert stats["routing"]["worker_inflight_limit"] == 32
