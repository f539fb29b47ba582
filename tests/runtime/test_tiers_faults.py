"""Fault injection for the tiered cache.

A subsystem that can lose its peer mid-request needs more than
happy-path parity checks.  Two instruments here:

* :class:`FlakyTier` — wraps any tier and misbehaves *below* the
  read-through layer (raises, lies, corrupts), proving ``TieredCache``
  itself contains every failure;
* a misbehaving HTTP peer — a real socket server that drops
  connections, returns 500s, truncates payloads, serves corrupt bytes,
  or hangs past the client timeout, proving ``HTTPPeerTier`` contains
  every *wire* failure.

The invariant under test throughout: whatever the remote tier does,
every lookup degrades to a recorded local miss, the sweep completes,
and the results are bit-identical to pure-local compute.  No exception
from the remote leg may ever reach a caller.
"""

import hashlib
import itertools
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from repro.runtime import CachePeer, HTTPPeerTier, Runtime, TieredCache, WorkItem
from repro.runtime.cache import MISS
from repro.runtime.tiers import CHECKSUM_HEADER


def _point(x: int) -> dict:
    return {"arr": np.arange(x) * 3, "cube": x ** 3}


def _items(n: int = 6) -> list[WorkItem]:
    return [WorkItem(fn=_point, kwargs={"x": i}, label=f"p{i}") for i in range(n)]


def _assert_bit_identical(results: list) -> None:
    for i, value in enumerate(results):
        expected = _point(i)
        assert value["cube"] == expected["cube"]
        assert np.array_equal(value["arr"], expected["arr"])
        assert value["arr"].dtype == expected["arr"].dtype


class FlakyTier:
    """Tier wrapper that misbehaves on a per-call schedule.

    ``script`` yields one action per protocol call: ``"ok"`` delegates
    to the wrapped tier, ``"raise"`` raises ``ConnectionError``,
    ``"none"`` reports a miss/failed put, ``"corrupt"`` returns garbage
    bytes.  The schedule repeats forever.
    """

    def __init__(self, inner, script=("ok",)):
        self.inner = inner
        self._script = itertools.cycle(script)
        self._lock = threading.Lock()
        self.calls = 0

    def _next(self) -> str:
        with self._lock:
            self.calls += 1
            return next(self._script)

    def get_blob(self, key):
        action = self._next()
        if action == "raise":
            raise ConnectionError("injected: connection reset by peer")
        if action == "none":
            return None
        if action == "corrupt":
            return b"\x80\x05garbage that is not a pickle"
        return self.inner.get_blob(key)

    def put_blob(self, key, blob):
        action = self._next()
        if action == "raise":
            raise ConnectionError("injected: broken pipe")
        if action in ("none", "corrupt"):
            return False
        return self.inner.put_blob(key, blob)

    def contains(self, key):
        action = self._next()
        if action == "raise":
            raise ConnectionError("injected")
        if action in ("none", "corrupt"):
            return False
        return self.inner.contains(key)


class _MemoryTier:
    """Plain dict-backed tier (the well-behaved inner for FlakyTier)."""

    def __init__(self):
        self.blobs = {}

    def get_blob(self, key):
        return self.blobs.get(key)

    def put_blob(self, key, blob):
        self.blobs[key] = blob
        return True

    def contains(self, key):
        return key in self.blobs


class TestFlakyTier:
    @pytest.mark.parametrize("script", [
        ("raise",),
        ("none",),
        ("corrupt",),
        ("raise", "corrupt", "none"),
        ("ok", "raise", "corrupt"),
    ])
    def test_sweep_completes_bit_identically(self, tmp_path, script):
        flaky = FlakyTier(_MemoryTier(), script=script)
        cache = TieredCache(remote=flaky, root=tmp_path, fingerprint="t",
                            negative_ttl=0.0)
        runtime = Runtime(cache=cache)
        results = runtime.execute(_items())
        cache.close()
        _assert_bit_identical(results)
        assert len(runtime.last_report.outcomes) == 6

    def test_always_raising_tier_records_errors_not_exceptions(self, tmp_path):
        flaky = FlakyTier(_MemoryTier(), script=("raise",))
        cache = TieredCache(remote=flaky, root=tmp_path, fingerprint="t")
        key = cache.key_for(_point, {"x": 1})
        assert cache.get(key) is MISS
        cache.put(key, _point(1))
        cache.drain()
        stats = cache.tier_stats()
        assert stats["remote_errors"] == 1  # the raising get
        assert stats["remote_misses"] == 0  # ... counted ONCE, not as a miss too
        assert stats["push_failures"] == 1  # the raising put
        assert cache.get(key)["cube"] == 1  # local path unaffected
        cache.close()

    def test_failed_push_is_retried(self, tmp_path):
        inner = _MemoryTier()
        cache = TieredCache(remote=FlakyTier(inner, script=("none", "ok")), root=tmp_path,
                            fingerprint="t")
        key = cache.key_for(_point, {"x": 1})
        cache.put(key, _point(1))
        cache.drain()
        assert key not in inner.blobs  # the one scheduled push was lost
        assert cache.retry_pushes() == 1
        cache.drain()
        assert key in inner.blobs
        stats = cache.tier_stats()
        assert (stats["push_failures"], stats["pushes"]) == (1, 1)
        assert cache.retry_pushes() == 0  # a pushed key is forgotten
        cache.close()

    def test_failed_pushes_are_remembered_boundedly(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.runtime.tiers._MAX_REMEMBERED", 2)
        inner = _MemoryTier()
        cache = TieredCache(remote=FlakyTier(inner, script=("raise",)), root=tmp_path,
                            fingerprint="t")
        keys = [cache.key_for(_point, {"x": x}) for x in range(3)]
        for x, key in enumerate(keys):
            cache.put(key, _point(x))
        cache.drain()
        cache.remote = inner  # the peer recovers
        assert cache.retry_pushes() == 2  # the oldest failure was dropped
        cache.drain()
        assert sorted(inner.blobs) == sorted(keys[1:])
        cache.close()

    def test_racing_puts_and_retries_lose_no_key(self, tmp_path):
        """Four threads put and retry while pushes fail; once the peer
        recovers, one more retry gets every key there."""
        inner = _MemoryTier()
        cache = TieredCache(remote=FlakyTier(inner, script=("none", "ok", "raise")),
                            root=tmp_path, fingerprint="t")
        keys = [cache.key_for(_point, {"x": x}) for x in range(40)]

        def worker(xs):
            for x in xs:
                cache.put(keys[x], _point(x))
                cache.retry_pushes()

        threads = [threading.Thread(target=worker, args=(range(i, 40, 4),)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads)
            cache.drain()
        finally:
            sys.setswitchinterval(interval)
        cache.remote = inner  # the peer recovers
        cache.retry_pushes()
        cache.drain()
        assert sorted(inner.blobs) == sorted(keys)
        cache.close()

    def test_corrupt_blob_is_rejected_then_recomputed(self, tmp_path):
        flaky = FlakyTier(_MemoryTier(), script=("corrupt",))
        cache = TieredCache(remote=flaky, root=tmp_path, fingerprint="t")
        runtime = Runtime(cache=cache)
        value = runtime.submit(_point, x=3)
        cache.close()
        assert value["cube"] == 27
        assert cache.tier_stats()["remote_errors"] >= 1
        assert runtime.last_report.misses == 1  # recomputed, never trusted


# ---------------------------------------------------------------------------
# Misbehaving wire peer
# ---------------------------------------------------------------------------


class _MisbehavingHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def _serve(self) -> None:
        mode = self.server.mode
        if mode == "drop":
            # Hang up without writing a single byte of response.
            self.connection.close()
            return
        if mode == "hang":
            time.sleep(self.server.hang_seconds)
            # The client gave up long ago; writing to the dead socket
            # raises BrokenPipeError, which is exactly the point.
            import contextlib

            with contextlib.suppress(OSError):
                self.send_error(504)
            self.close_connection = True
            return
        if mode == "500":
            self.send_response(500)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        key = self.path.rsplit("/", 1)[-1]
        blob = self.server.blobs.get(key)
        if blob is None:
            self.send_response(404)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        if mode in ("truncate", "truncate_bare"):
            # Advertise the full length, send half, hang up: the client's
            # read returns short, caught by its Content-Length comparison
            # (read(amt) returns the short body rather than raising).
            # "truncate_bare" omits the checksum header, so the length
            # check is the ONLY thing standing between the short body
            # and the unpickler.
            self.send_response(200)
            self.send_header("Content-Length", str(len(blob)))
            if mode == "truncate":
                self.send_header(CHECKSUM_HEADER, hashlib.sha256(blob).hexdigest())
            self.end_headers()
            self.wfile.write(blob[: len(blob) // 2])
            self.wfile.flush()
            self.connection.close()
            return
        if mode == "corrupt":
            # Full-length body of garbage under the true checksum: only
            # the checksum comparison can catch this.
            body = bytes(b ^ 0xFF for b in blob)
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.send_header(CHECKSUM_HEADER, hashlib.sha256(blob).hexdigest())
            self.end_headers()
            self.wfile.write(body)
            return
        if mode == "badpickle":
            # Internally consistent (checksum matches) but not a pickle:
            # passes the wire layer, must die in TieredCache's decode.
            body = b"not a pickle at all"
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.send_header(CHECKSUM_HEADER, hashlib.sha256(body).hexdigest())
            self.end_headers()
            self.wfile.write(body)
            return
        self.send_response(200)
        self.send_header("Content-Length", str(len(blob)))
        self.send_header(CHECKSUM_HEADER, hashlib.sha256(blob).hexdigest())
        self.end_headers()
        self.wfile.write(blob)

    do_GET = _serve
    do_HEAD = _serve
    do_PUT = _serve

    def log_message(self, format, *args):  # noqa: A002
        pass


class MisbehavingPeer:
    """An HTTP cache peer with a switchable failure mode."""

    def __init__(self, hang_seconds: float = 1.0):
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _MisbehavingHandler)
        self._server.mode = "ok"
        self._server.blobs = {}
        self._server.hang_seconds = hang_seconds
        self.url = f"http://127.0.0.1:{self._server.server_address[1]}"
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.05}, daemon=True)

    @property
    def blobs(self):
        return self._server.blobs

    def set_mode(self, mode: str) -> None:
        self._server.mode = mode

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._server.shutdown()
        self._thread.join()
        self._server.server_close()


@pytest.fixture
def misbehaving():
    with MisbehavingPeer(hang_seconds=1.0) as peer:
        yield peer


def _seeded_blobs(tmp_path) -> dict:
    """The on-disk blobs of a fully computed cache, keyed for reuse."""
    seed = TieredCache(remote=_MemoryTier(), root=tmp_path / "seed", fingerprint="t")
    Runtime(cache=seed).execute(_items())
    seed.close()
    return {key: seed.get_blob(key) for key in seed.iter_keys()}


class TestMisbehavingPeer:
    @pytest.mark.parametrize("mode", ["drop", "500", "truncate", "truncate_bare",
                                      "corrupt", "badpickle", "hang"])
    def test_every_wire_failure_degrades_to_local_compute(self, tmp_path, misbehaving, mode):
        misbehaving.blobs.update(_seeded_blobs(tmp_path))
        misbehaving.set_mode(mode)
        cache = TieredCache(remote=HTTPPeerTier(misbehaving.url, timeout=0.25),
                            root=tmp_path / "node", fingerprint="t")
        runtime = Runtime(cache=cache)
        results = runtime.execute(_items())
        cache.close()
        _assert_bit_identical(results)
        # Nothing was trusted from the sick peer: every point ran locally
        # (the breaker may have skipped some calls entirely).
        assert runtime.last_report.misses == 6
        stats = cache.tier_stats()
        assert stats["remote_hits"] == 0
        assert stats["remote_errors"] + stats["remote_misses"] == 6

    def test_healthy_mode_control(self, tmp_path, misbehaving):
        """The fixture itself serves correctly in 'ok' mode (control arm)."""
        misbehaving.blobs.update(_seeded_blobs(tmp_path))
        cache = TieredCache(remote=HTTPPeerTier(misbehaving.url, timeout=2.0),
                            root=tmp_path / "node", fingerprint="t")
        runtime = Runtime(cache=cache)
        results = runtime.execute(_items())
        cache.close()
        _assert_bit_identical(results)
        assert runtime.last_report.misses == 0
        assert cache.tier_stats()["remote_hits"] == 6

    def test_hang_respects_client_timeout(self, tmp_path, misbehaving):
        """A hanging peer costs at most ~timeout per admitted call."""
        from repro.runtime import TierUnavailable

        misbehaving.blobs.update(_seeded_blobs(tmp_path))
        misbehaving.set_mode("hang")
        tier = HTTPPeerTier(misbehaving.url, timeout=0.2, failure_threshold=100)
        started = time.perf_counter()
        with pytest.raises(TierUnavailable):
            tier.get_blob("0" * 64)
        elapsed = time.perf_counter() - started
        assert elapsed < 0.9  # bounded by the timeout, not the 1s hang

    def test_breaker_opens_and_skips(self, tmp_path, misbehaving):
        from repro.runtime import TierUnavailable

        misbehaving.set_mode("500")
        tier = HTTPPeerTier(misbehaving.url, timeout=0.5,
                            failure_threshold=3, cooldown=30.0)
        for _ in range(5):
            with pytest.raises(TierUnavailable):
                tier.get_blob("1" * 64)
        stats = tier.stats()
        assert stats["breaker_open"]
        assert stats["errors"] == 3  # threshold trips after 3 real calls
        assert stats["skipped"] == 2  # the rest never touched the wire

    def test_breaker_closes_after_cooldown(self, tmp_path, misbehaving):
        from repro.runtime import TierUnavailable

        key, blob = next(iter(_seeded_blobs(tmp_path).items()))
        misbehaving.blobs[key] = blob
        misbehaving.set_mode("500")
        tier = HTTPPeerTier(misbehaving.url, timeout=0.5,
                            failure_threshold=2, cooldown=0.1)
        for _ in range(3):
            with pytest.raises(TierUnavailable):
                tier.get_blob(key)
        assert tier.stats()["breaker_open"]
        misbehaving.set_mode("ok")  # peer recovers
        time.sleep(0.15)
        assert tier.get_blob(key) == blob
        assert not tier.stats()["breaker_open"]

    def test_transient_failure_is_not_negative_memoized(self, tmp_path, misbehaving):
        """A key the peer HAS must be fetched once the peer recovers —
        a blip must not poison the key for negative_ttl seconds."""
        blobs = _seeded_blobs(tmp_path)
        misbehaving.blobs.update(blobs)
        misbehaving.set_mode("500")  # the blip
        cache = TieredCache(
            remote=HTTPPeerTier(misbehaving.url, timeout=0.5,
                                failure_threshold=2, cooldown=0.05),
            root=tmp_path / "node", fingerprint="t", negative_ttl=300.0)
        key = next(iter(blobs))
        assert cache.get(key) is MISS  # error: counted, NOT memoized
        assert cache.tier_stats()["remote_errors"] == 1
        assert cache.tier_stats()["remote_misses"] == 0
        misbehaving.set_mode("ok")  # peer recovers
        time.sleep(0.1)  # let the breaker cooldown lapse
        value = cache.get(key)  # retried immediately despite negative_ttl=300
        assert value is not MISS
        assert cache.tier_stats()["remote_hits"] == 1
        cache.close()


class TestPeerDeathMidSweep:
    """The acceptance scenario's second half: kill the peer mid-sweep."""

    def test_sweep_completes_after_peer_dies(self, tmp_path):
        items = _items(8)
        peer = CachePeer(root=tmp_path / "peer")
        peer.start()
        # Machine A computes everything and seeds the peer.
        cache_a = TieredCache(remote=peer.url, root=tmp_path / "a", fingerprint="t")
        Runtime(cache=cache_a).execute(items)
        cache_a.close()

        # Machine B starts its sweep against the live peer; after the
        # first peer-served point lands, the peer is killed mid-sweep.
        cache_b = TieredCache(
            remote=HTTPPeerTier(peer.url, timeout=0.25, cooldown=0.05),
            root=tmp_path / "b", fingerprint="t")
        seen = []

        def kill_after_first_hit(event: str, label: str) -> None:
            seen.append((event, label))
            if event == "hit" and peer._thread is not None:
                peer.stop()  # the peer dies mid-sweep

        runtime_b = Runtime(cache=cache_b, progress=kill_after_first_hit)
        results = runtime_b.execute(items)
        cache_b.close()

        # The sweep completed, with correct (bit-identical) results: the
        # first point came from the peer, the rest were computed locally
        # once the peer vanished.
        _assert_bit_identical(results)
        stats = cache_b.tier_stats()
        assert stats["remote_hits"] >= 1
        assert runtime_b.last_report.misses >= 1
        assert runtime_b.last_report.hits + runtime_b.last_report.misses == 8

    def test_node_restart_after_peer_death_serves_locally(self, tmp_path):
        """Promoted entries outlive the peer: local warmth is durable."""
        with CachePeer(root=tmp_path / "peer") as peer:
            url = peer.url
            cache_a = TieredCache(remote=url, root=tmp_path / "a", fingerprint="t")
            key = cache_a.key_for(_point, {"x": 5})
            cache_a.put(key, _point(5))
            cache_a.close()
            cache_b = TieredCache(remote=url, root=tmp_path / "b", fingerprint="t")
            assert cache_b.get(key)["cube"] == 125  # peer hit + promotion
            cache_b.drain()
            cache_b.close()
        # Peer gone; a fresh TieredCache on B's directory still hits.
        revived = TieredCache(remote=HTTPPeerTier(url, timeout=0.2),
                              root=tmp_path / "b", fingerprint="t")
        assert revived.get(key)["cube"] == 125
        assert revived.tier_stats()["remote_hits"] == 0  # purely local
        revived.close()
