"""Tests for cache-peer federation: a site peer tiered onto an upstream peer.

A ``GET`` the site peer misses locally falls through to its upstream;
the upstream's blob is stored at the site and served as is.  Every
upstream failure reads as a plain 404 to the site's client, counted by
kind in the site's ``upstream_*`` counters.
"""

import pickle

import pytest

from repro.runtime import CachePeer, HTTPPeerTier
from repro.runtime.cache import CacheEntry

KEY = "a" * 64


def _entry_blob(value: object) -> bytes:
    return pickle.dumps(CacheEntry(value=value), protocol=pickle.HIGHEST_PROTOCOL)


@pytest.fixture
def upstream(tmp_path):
    peer = CachePeer(root=tmp_path / "upstream").start()
    yield peer
    peer.stop()


def _upstream_counters(site: CachePeer) -> dict:
    stats = site.stats_payload()
    return {name: stats[name] for name in ("upstream_hits", "upstream_misses",
                                           "upstream_errors")}


def test_site_serves_and_stores_an_upstream_blob(upstream, tmp_path):
    blob = _entry_blob({"x": 1})
    assert HTTPPeerTier(upstream.url).put_blob(KEY, blob)
    with CachePeer(root=tmp_path / "site", upstream=upstream.url) as site:
        client = HTTPPeerTier(site.url)
        assert client.get_blob(KEY) == blob
        assert _upstream_counters(site) == {
            "upstream_hits": 1, "upstream_misses": 0, "upstream_errors": 0}
        upstream.stop()
        assert client.get_blob(KEY) == blob  # a local hit now
        assert _upstream_counters(site)["upstream_hits"] == 1
        assert site.stats_payload()["hits"] == 2
    assert site.cache.get_blob(KEY) == blob


def test_key_neither_peer_holds_is_a_404(upstream, tmp_path):
    with CachePeer(root=tmp_path / "site", upstream=upstream.url) as site:
        assert HTTPPeerTier(site.url).get_blob(KEY) is None
        assert _upstream_counters(site) == {
            "upstream_hits": 0, "upstream_misses": 1, "upstream_errors": 0}
        assert site.stats_payload()["misses"] == 1


def test_stopped_upstream_reads_as_a_404(upstream, tmp_path):
    with CachePeer(root=tmp_path / "site", upstream=upstream.url) as site:
        upstream.stop()
        assert HTTPPeerTier(site.url).get_blob(KEY) is None
        assert _upstream_counters(site) == {
            "upstream_hits": 0, "upstream_misses": 0, "upstream_errors": 1}


def test_upstream_refuses_a_fetch_signed_with_another_secret(tmp_path):
    with CachePeer(root=tmp_path / "upstream", secret="upstream-secret") as up:
        assert HTTPPeerTier(up.url, secret="upstream-secret").put_blob(
            KEY, _entry_blob(1))
        with CachePeer(root=tmp_path / "site", secret="site-secret",
                       upstream=up.url) as site:
            assert HTTPPeerTier(site.url, secret="site-secret").get_blob(KEY) is None
            assert _upstream_counters(site)["upstream_errors"] == 1
            assert site.stats_payload()["auth_rejected"] == 0
        assert up.stats_payload()["auth_rejected"] == 1
