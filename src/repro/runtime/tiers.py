"""Tiered result cache: local disk backed by a remote cache peer.

The cross-machine story of the runtime cache.  A :class:`TieredCache`
*is* a :class:`~repro.runtime.cache.ResultCache` (same root, same key
schema, same eviction budget) that consults a second, remote tier on
local misses and shares its own results back:

* **read-through** — a local miss asks the remote tier for the entry's
  raw blob; a remote hit is returned to the caller immediately and
  *promoted* into the local tier asynchronously (write-back), so the
  next lookup is a plain local hit;
* **single-flight** — concurrent misses on one key trigger one remote
  fetch; the rest wait on it instead of stampeding the peer;
* **negative-lookup memoization** — a key the peer did not have is
  remembered for ``negative_ttl`` seconds, so sweeps over cold key
  spaces do not pay one round-trip per point per retry;
* **push retry** — a key whose write-back push failed is remembered
  (bounded) until :meth:`TieredCache.retry_pushes` pushes it again;
* **fail-open** — every remote failure mode (timeout, connection
  refused, 5xx, corrupt payload, truncated body) degrades to a recorded
  local miss.  The caller recomputes; it never sees an exception from
  the remote tier.

Tiers exchange entries as *opaque blobs* — the pickled
:class:`~repro.runtime.cache.CacheEntry` bytes exactly as they sit on
disk — addressed by the content key of ``docs/api.md``.  The *peer*
never unpickles what it stores, so it can hold results for functions
it cannot import.  A *client*, however, does unpickle the blobs it
fetches: pointing ``--remote-cache`` at a peer extends it exactly the
trust you would extend a shared cache directory (a hostile peer could
ship a malicious pickle).  Because of that, peer traffic participates
in the fabric's shared-secret HMAC auth (:mod:`repro.fabric.auth`):
with ``REPRO_FABRIC_SECRET`` set, every request this tier sends is
signed and an authenticated peer refuses unsigned ones — so only fleet
members can feed blobs into a cache that will unpickle them.  The
signature authenticates membership and integrity, not confidentiality;
for hostile networks add TLS in front.

Not every blob is a pickle: compiled-program artifacts
(:mod:`repro.engine.artifacts` — self-validating envelopes, no pickle
at all) travel through the same tiers under the same 64-hex key
schema.  Neither the tiers nor the peer can tell the difference, which
is the point: one federation surface, one auth story, for results and
programs alike.

The wire peer itself lives in :mod:`repro.runtime.peer`; this module
holds the client-side tiers and the read-through composition.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pickle
import re
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import repro
from repro.fabric.auth import default_secret, http_auth_header
from repro.fabric.tls import TLSConfig, client_context_for
from repro.obs import Counters
from repro.runtime.cache import MISS, CacheEntry, ResultCache

#: The only key shape any tier accepts: 64 lowercase hex chars (a
#: SHA-256).  Everything else — notably path-traversal attempts in a
#: peer's ``/keys`` listing — is rejected before touching the disk.
KEY_RE = re.compile(r"^[0-9a-f]{64}$")

#: Response/request header carrying the SHA-256 of the blob, so a
#: truncated or bit-flipped transfer is detected before use.
CHECKSUM_HEADER = "X-Repro-Checksum"

#: Largest blob a tier will ship (matches the peer's PUT cap).
MAX_BLOB_BYTES = 64 * 1024 * 1024

#: Opener that ignores ``http_proxy``/``https_proxy`` environment
#: variables: peer traffic is intra-fleet by definition, and a corporate
#: proxy silently swallowing it would read as "peer always misses"
#: (fail-open hides the misconfiguration completely).
_DIRECT_OPENER = urllib.request.build_opener(urllib.request.ProxyHandler({}))


class TierUnavailable(ConnectionError):
    """A tier failed to answer (distinct from a clean "key absent" miss).

    Raised by ``get_blob`` so the read-through layer can account
    failures separately from misses: a miss is a fact about the key
    (worth negative-memoizing), a failure is a fact about the tier
    (the breaker's business, and retryable as soon as it recovers).
    """


@runtime_checkable
class CacheTier(Protocol):
    """One storage level of the result cache.

    A tier stores opaque entry blobs under content-addressed keys.
    Implementations must be thread-safe.  ``get_blob`` distinguishes a
    clean miss (``None``) from a failed tier (:class:`TierUnavailable`);
    ``put_blob``/``contains`` must *never raise* for availability
    reasons — they report a failed put / absent key instead.  The
    read-through layer additionally defends against tiers that raise
    anything anywhere.
    """

    def get_blob(self, key: str) -> bytes | None:
        """The entry's raw bytes, or ``None`` on a clean miss.

        Raises:
            TierUnavailable: when the tier could not answer.
        """
        ...

    def put_blob(self, key: str, blob: bytes) -> bool:
        """Store raw bytes; ``True`` on success, ``False`` on failure."""
        ...

    def contains(self, key: str) -> bool:
        """Whether the tier currently holds ``key`` (best effort)."""
        ...


@dataclass
class LocalTier:
    """The on-disk :class:`ResultCache` presented through the tier protocol.

    Thin by design — :class:`ResultCache` already exposes the blob
    surface — but it is the named local level of the hierarchy, and
    what fault tests wrap to inject failures below the read-through
    layer.
    """

    cache: ResultCache
    name: str = "local"

    def get_blob(self, key: str) -> bytes | None:
        return self.cache.get_blob(key)

    def put_blob(self, key: str, blob: bytes) -> bool:
        try:
            self.cache.put_blob(key, blob)
        except OSError:
            return False
        return True

    def contains(self, key: str) -> bool:
        return self.cache.contains(key)


class HTTPPeerTier:
    """Client for a :mod:`repro.runtime.peer` cache peer over HTTP.

    Speaks the peer wire format of ``docs/api.md``: ``GET``/``HEAD``/
    ``PUT /cache/<key>`` plus ``GET /stats`` and ``GET /keys``, all via
    the stdlib ``urllib`` with a hard timeout per operation.

    Failure policy — the tier *never raises* from the tier protocol:

    * a 404 is a clean miss (does not count against the peer);
    * everything else (timeout, refused/dropped connection, 5xx,
      checksum mismatch, truncated body) is a recorded failure and
      reads as a miss / failed put;
    * after ``failure_threshold`` *consecutive* failures the circuit
      opens: remote calls are skipped (counted, not attempted) for
      ``cooldown`` seconds, so a dead peer costs one timeout per
      cooldown window instead of one per lookup.

    Every request carries a ``repro/<version>`` User-Agent (so peer
    access logs can tell fleet traffic from strays) and, when a shared
    secret is configured, an HMAC ``Authorization`` header
    (:mod:`repro.fabric.auth`).  Every :class:`TierUnavailable` this
    tier raises names the peer URL — with several tiers in play, an
    error that doesn't say *which* peer is useless.

    Args:
        url: peer base URL, e.g. ``http://10.0.0.7:8601``.
        timeout: per-operation socket timeout in seconds.
        failure_threshold: consecutive failures that open the circuit.
        cooldown: seconds the circuit stays open.
        secret: shared HMAC secret for request signing (default: the
            ``REPRO_FABRIC_SECRET`` environment variable; ``None``
            sends unsigned requests).
        tls: a :class:`repro.fabric.tls.TLSConfig` for ``https://``
            peers (default: the ``REPRO_FABRIC_TLS_*`` environment; a
            bare ``https://`` URL with no fleet TLS config anywhere
            verifies against system trust).
    """

    name = "peer"

    def __init__(self, url: str, timeout: float = 2.0,
                 failure_threshold: int = 3, cooldown: float = 5.0,
                 secret: str | None = None, tls: TLSConfig | None = None):
        self.url = url.rstrip("/")
        self.secret = secret if secret is not None else default_secret()
        if self.url.startswith("https"):
            context = client_context_for(tls, self.url)
            self._opener = urllib.request.build_opener(
                urllib.request.ProxyHandler({}),
                urllib.request.HTTPSHandler(context=context))
        else:
            self._opener = _DIRECT_OPENER
        self.timeout = timeout
        self.failure_threshold = max(1, failure_threshold)
        self.cooldown = cooldown
        self._lock = threading.Lock()
        self._consecutive_failures = 0
        self._open_until = 0.0
        self._counters = Counters(
            "gets", "hits", "misses", "puts", "put_failures", "errors", "skipped")

    @classmethod
    def for_bulk(cls, url: str, timeout: float = 10.0,
                 secret: str | None = None,
                 tls: TLSConfig | None = None) -> HTTPPeerTier:
        """A tier tuned for one-shot bulk sync (``repro cache push/pull``).

        The serving defaults are wrong for bulk transfers: a 2 s
        timeout truncates big blobs and a 3-failure breaker silently
        skips the tail of a sync.  This variant uses a generous timeout
        and disables the breaker so every key is honestly attempted and
        every failure is reported, not swallowed.
        """
        return cls(url, timeout=timeout, failure_threshold=1 << 30, secret=secret,
                   tls=tls)

    # -- tier protocol -------------------------------------------------

    def _unavailable(self, reason: str) -> TierUnavailable:
        """A :class:`TierUnavailable` that always names this peer."""
        return TierUnavailable(f"cache peer {self.url}: {reason}")

    def get_blob(self, key: str) -> bytes | None:
        if not self._admit():
            raise self._unavailable("circuit breaker open")
        self._counters.inc("gets")
        try:
            with self._open("GET", f"/cache/{key}") as resp:
                blob = resp.read(MAX_BLOB_BYTES + 1)
                checksum = resp.headers.get(CHECKSUM_HEADER)
                advertised = resp.headers.get("Content-Length")
        except urllib.error.HTTPError as exc:
            exc.close()
            if exc.code == 404:
                self._success()
                self._counters.inc("misses")
                return None  # the one clean miss: the peer answered "absent"
            self._failure()
            raise self._unavailable(f"HTTP {exc.code}") from exc
        except Exception as exc:
            # URLError, socket.timeout, ConnectionError, BadStatusLine
            # (dropped connection), ... — all degrade.
            self._failure()
            raise self._unavailable(str(exc)) from exc
        if len(blob) > MAX_BLOB_BYTES:
            self._failure()
            raise self._unavailable("blob over the size cap")
        if advertised is not None and advertised.isdigit() and len(blob) != int(advertised):
            # Truncated body: read(amt) returns short instead of raising,
            # so the length check is what catches a mid-body hangup.
            self._failure()
            raise self._unavailable("truncated body")
        if checksum and hashlib.sha256(blob).hexdigest() != checksum:
            # Corrupt or truncated payload: worse than a miss, because a
            # healthy peer should never send one — count it against the
            # breaker and let the caller recompute.
            self._failure()
            raise self._unavailable("checksum mismatch")
        self._success()
        self._counters.inc("hits")
        return blob

    def put_blob(self, key: str, blob: bytes) -> bool:
        if len(blob) > MAX_BLOB_BYTES or not self._admit():
            return False
        self._counters.inc("puts")
        headers = {
            "Content-Type": "application/octet-stream",
            CHECKSUM_HEADER: hashlib.sha256(blob).hexdigest(),
        }
        try:
            with self._open("PUT", f"/cache/{key}", body=blob, headers=headers):
                pass
        except Exception:
            self._failure()
            self._counters.inc("put_failures")
            return False
        self._success()
        return True

    def contains(self, key: str) -> bool:
        if not self._admit():
            return False
        try:
            with self._open("HEAD", f"/cache/{key}"):
                pass
        except urllib.error.HTTPError as exc:
            exc.close()
            if exc.code == 404:
                self._success()
                return False
            self._failure()
            return False
        except Exception:
            self._failure()
            return False
        self._success()
        return True

    # -- bulk / introspection ------------------------------------------

    def keys(self) -> list[str]:
        """Every key the peer holds.

        Unlike the tier protocol this *raises* on failure — bulk sync
        (``repro cache push/pull``) wants a hard error for an
        unreachable peer, not a silent empty sync.
        """
        try:
            with self._open("GET", "/keys") as resp:
                return list(json.loads(resp.read().decode()))
        except Exception as exc:
            raise ConnectionError(f"cache peer {self.url} unreachable: {exc}") from exc

    def peer_stats(self) -> dict | None:
        """The peer's ``/stats`` JSON, or ``None`` if unreachable."""
        try:
            with self._open("GET", "/stats") as resp:
                return json.loads(resp.read().decode())
        except Exception:
            return None

    def stats(self) -> dict:
        """Client-side counters plus breaker state."""
        out = self._counters.snapshot()
        out["url"] = self.url
        with self._lock:
            out["breaker_open"] = time.monotonic() < self._open_until
        return out

    # -- internals -----------------------------------------------------

    def _open(self, method: str, path: str, body: bytes | None = None,
              headers: dict | None = None):
        headers = dict(headers or {})
        headers.setdefault("User-Agent", f"repro/{repro.__version__}")
        if self.secret is not None:
            headers["Authorization"] = http_auth_header(
                self.secret, method, path, body or b"")
        request = urllib.request.Request(
            self.url + path, data=body, method=method, headers=headers)
        return self._opener.open(request, timeout=self.timeout)  # noqa: S310

    def _admit(self) -> bool:
        with self._lock:
            if time.monotonic() < self._open_until:
                self._counters.inc("skipped")
                return False
        return True

    def _success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0

    def _failure(self) -> None:
        self._counters.inc("errors")
        with self._lock:
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.failure_threshold:
                self._open_until = time.monotonic() + self.cooldown


#: Keys a :class:`TieredCache` remembers per memo (negative lookups,
#: failed pushes) before it drops old ones.
_MAX_REMEMBERED = 4096


class TieredCache(ResultCache):
    """A :class:`ResultCache` with a remote tier behind it.

    Drop-in for ``ResultCache`` everywhere a cache is accepted — the
    runtime scheduler and the serve layer use it unchanged.  Local
    behaviour (keys, eviction, stats, clear) is inherited; only the
    miss path and the write path grow a remote leg:

    * :meth:`get_entry` — local first; on miss, a single-flight remote
      fetch.  A remote hit returns immediately and is promoted into the
      local tier by a background write-back thread.  A remote miss is
      memoized for ``negative_ttl`` seconds.
    * :meth:`put` — local write as always, then an asynchronous
      best-effort push of the blob to the remote tier, so peers warm
      each other without blocking the compute path.  A key whose push
      fails is remembered until :meth:`retry_pushes` runs.

    Every remote failure degrades to local-only (see
    :class:`HTTPPeerTier`); the per-path counters are on
    :meth:`tier_stats`.  Call :meth:`drain` to wait for pending
    write-backs (tests, end-of-sweep) and :meth:`close` when done.

    Args:
        remote: a :class:`CacheTier`, or a peer URL string (constructs
            an :class:`HTTPPeerTier` with ``remote_timeout``).
        negative_ttl: seconds a remote miss is remembered.
        remote_timeout: per-operation timeout when ``remote`` is a URL.
        tls: TLS config for an ``https://`` peer URL (see
            :class:`HTTPPeerTier`); ignored for pre-built tiers.
        (remaining args as :class:`ResultCache`.)
    """

    def __init__(self, remote: CacheTier | str, root=None, fingerprint=None,
                 max_bytes=None, sweep_every: int = 32,
                 negative_ttl: float = 30.0, remote_timeout: float = 2.0,
                 tls: TLSConfig | None = None):
        super().__init__(root=root, fingerprint=fingerprint,
                         max_bytes=max_bytes, sweep_every=sweep_every)
        self.remote: CacheTier = (
            HTTPPeerTier(remote, timeout=remote_timeout, tls=tls)
            if isinstance(remote, str) else remote)
        self.negative_ttl = negative_ttl
        self._tier_lock = threading.Lock()
        self._negative: dict[str, float] = {}
        #: Keys whose last push failed, oldest first (values unused).
        self._unpushed: dict[str, None] = {}
        self._fetching: dict[str, Future] = {}
        # One write-back worker: promotions and pushes are small and
        # rare relative to compute, and a single worker makes drain() a
        # true barrier.
        self._writeback = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-tier-wb")
        self._tier_counters = Counters(
            "remote_hits", "remote_misses", "remote_errors", "negative_hits",
            "coalesced_fetches", "promotions", "promotion_failures", "pushes",
            "push_failures")

    # -- read path -----------------------------------------------------

    def get_entry(self, key: str) -> object:
        entry = super().get_entry(key)
        if entry is not MISS:
            return entry
        return self._remote_lookup(key)

    def get_local(self, key: str) -> object:
        """Local-tier-only lookup: the value, or :data:`MISS`.

        Never touches the remote tier — the serve loop uses this for
        the cheap on-loop probe and dispatches :meth:`get_remote` to an
        executor only on a local miss.
        """
        entry = ResultCache.get_entry(self, key)
        return entry.value if isinstance(entry, CacheEntry) else entry

    def get_remote(self, key: str) -> object:
        """Remote-leg-only lookup (single-flight, promoting): value or MISS.

        May block for up to the remote timeout; callers on an event
        loop must run it off-loop.
        """
        entry = self._remote_lookup(key)
        return entry.value if isinstance(entry, CacheEntry) else entry

    def _remote_lookup(self, key: str) -> object:
        with self._tier_lock:
            until = self._negative.get(key)
            if until is not None:
                if time.monotonic() < until:
                    self._tier_counters.inc("negative_hits")
                    return MISS
                del self._negative[key]
            fetch = self._fetching.get(key)
            owner = fetch is None
            if owner:
                fetch = self._fetching[key] = Future()
            else:
                self._tier_counters.inc("coalesced_fetches")
        if not owner:
            # Single-flight follower: the owner resolves the future with
            # the fetched entry (or MISS) — generously bounded so a
            # wedged owner can never wedge us too.
            try:
                return fetch.result(timeout=60.0)
            except Exception:
                return MISS
        entry, blob = self._fetch(key)
        fetch.set_result(entry)
        if blob is not None:
            # Async write-back promotion; the in-flight slot lives until
            # the local write lands, so lookups in the window between
            # "fetched" and "promoted" reuse the resolved future instead
            # of re-fetching from the peer.
            self._schedule(self._promote_blob, key, blob,
                           done=lambda _f: self._drop_fetch(key, fetch))
        else:
            self._drop_fetch(key, fetch)
        return entry

    def _fetch(self, key: str) -> tuple[object, bytes | None]:
        """One remote round-trip: (CacheEntry | MISS, raw blob | None)."""
        try:
            blob = self.remote.get_blob(key)
        except Exception:
            # TierUnavailable (or anything a misbehaving tier throws):
            # a fact about the *tier*, not the key — counted as an
            # error, NOT negative-memoized, so the key is retried as
            # soon as the tier recovers (the breaker throttles retries
            # in the meantime).
            self._tier_counters.inc("remote_errors")
            return MISS, None
        if blob is None:
            # A clean miss is a fact about the key: memoize it.
            self._tier_counters.inc("remote_misses")
            self._memoize_negative(key)
            return MISS, None
        try:
            loaded = pickle.loads(blob)
        except Exception:
            # The peer's stored blob is bad content; it won't improve
            # within the TTL — memoize like a miss.
            self._tier_counters.inc("remote_errors")
            self._memoize_negative(key)
            return MISS, None
        self._tier_counters.inc("remote_hits")
        entry = loaded if isinstance(loaded, CacheEntry) else CacheEntry(value=loaded)
        return entry, blob

    # -- write path ----------------------------------------------------

    def put(self, key: str, value: object, fn: str = "", label: str = "") -> None:
        super().put(key, value, fn=fn, label=label)
        with self._tier_lock:
            self._negative.pop(key, None)
        self._schedule(self._push, key)

    def _promote_blob(self, key: str, blob: bytes) -> None:
        try:
            self.put_blob(key, blob)
        except Exception:
            self._tier_counters.inc("promotion_failures")
        else:
            self._tier_counters.inc("promotions")

    def _push(self, key: str) -> None:
        blob = self.get_blob(key)
        if blob is None:
            return  # evicted between put and push; nothing to share
        try:
            ok = self.remote.put_blob(key, blob)
        except Exception:
            ok = False
        self._tier_counters.inc("pushes" if ok else "push_failures")
        with self._tier_lock:
            self._unpushed.pop(key, None)
            if not ok:
                if len(self._unpushed) >= _MAX_REMEMBERED:
                    del self._unpushed[next(iter(self._unpushed))]  # oldest first
                self._unpushed[key] = None

    def retry_pushes(self) -> int:
        """Queue one more push of every key whose last push failed.

        Each retry counts on the ``pushes``/``push_failures`` counters,
        and a key that fails again stays remembered for the next call.
        Returns the number of pushes queued.
        """
        with self._tier_lock:
            keys, self._unpushed = list(self._unpushed), {}
        for key in keys:
            self._schedule(self._push, key)
        return len(keys)

    # -- lifecycle / stats ---------------------------------------------

    def drain(self, timeout: float = 30.0) -> None:
        """Block until every queued write-back (promotion/push) has run."""
        try:
            barrier = self._writeback.submit(lambda: None)
        except RuntimeError:
            return  # closed: nothing pending
        barrier.result(timeout=timeout)

    def close(self) -> None:
        """Flush pending write-backs and stop the background worker."""
        self._writeback.shutdown(wait=True)

    def __enter__(self) -> TieredCache:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def tier_stats(self) -> dict:
        """Counters for every tier leg, plus the remote tier's own view."""
        out = self._tier_counters.snapshot()
        with self._tier_lock:
            out["negative_entries"] = len(self._negative)
        remote_stats = getattr(self.remote, "stats", None)
        if callable(remote_stats):
            with contextlib.suppress(Exception):
                out["remote"] = remote_stats()
        return out

    # -- internals -----------------------------------------------------

    def _schedule(self, fn, *args, done=None) -> None:
        try:
            future = self._writeback.submit(fn, *args)
        except RuntimeError:
            # Closed: write-backs are best-effort; skip silently.
            if done is not None:
                done(None)
            return
        if done is not None:
            future.add_done_callback(done)

    def _drop_fetch(self, key: str, fetch: Future) -> None:
        with self._tier_lock:
            if self._fetching.get(key) is fetch:
                del self._fetching[key]

    def _memoize_negative(self, key: str) -> None:
        if self.negative_ttl <= 0:
            return
        now = time.monotonic()
        with self._tier_lock:
            if len(self._negative) >= _MAX_REMEMBERED:
                # Bounded: drop expired entries first, everything if none.
                live = {k: t for k, t in self._negative.items() if t > now}
                self._negative = live if len(live) < _MAX_REMEMBERED else {}
            self._negative[key] = now + self.negative_ttl


@dataclass(frozen=True)
class SyncReport:
    """Outcome of one bulk ``push``/``pull``: entry counts per fate."""

    copied: int = 0
    skipped: int = 0
    failed: int = 0

    def summary(self) -> str:
        """One-line human summary."""
        return f"{self.copied} copied, {self.skipped} already present, {self.failed} failed"


def push_all(cache: ResultCache, tier: CacheTier) -> SyncReport:
    """Seed a tier with every local entry it does not already hold.

    When the tier exposes a ``keys()`` manifest (the HTTP peer does),
    presence is checked against one bulk snapshot instead of one
    round-trip per key — seeding a mostly-warm peer costs a single
    request plus the missing PUTs.
    """
    keys_fn = getattr(tier, "keys", None)
    known = set(keys_fn()) if callable(keys_fn) else None
    copied = skipped = failed = 0
    for key in cache.iter_keys():
        present = (key in known) if known is not None else tier.contains(key)
        if present:
            skipped += 1
            continue
        # touch=False: walking the whole cache must not refresh every
        # entry's mtime, or the sync would flatten the LRU ordering
        # eviction depends on.
        blob = cache.get_blob(key, touch=False)
        if blob is None:  # evicted mid-walk
            continue
        if tier.put_blob(key, blob):
            copied += 1
        else:
            failed += 1
    return SyncReport(copied=copied, skipped=skipped, failed=failed)


def pull_all(cache: ResultCache, tier: HTTPPeerTier) -> SyncReport:
    """Copy every entry a peer holds into the local cache.

    Keys are validated against :data:`KEY_RE` before any disk write —
    a hostile or broken peer listing ``../``-style "keys" must never
    steer ``path_for`` outside the cache root.  Invalid keys count as
    failures.
    """
    copied = skipped = failed = 0
    for key in tier.keys():
        if not KEY_RE.fullmatch(str(key)):
            failed += 1
            continue
        if cache.contains(key):
            skipped += 1
            continue
        try:
            blob = tier.get_blob(key)
        except TierUnavailable:
            failed += 1
            continue
        if blob is None:
            failed += 1
            continue
        try:
            cache.put_blob(key, blob)
        except OSError:
            failed += 1
        else:
            copied += 1
    return SyncReport(copied=copied, skipped=skipped, failed=failed)
