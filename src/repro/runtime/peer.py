"""The cache peer: an HTTP server sharing result-cache blobs.

``repro cache-peer`` runs one of these next to a fleet of sweep runners
and serve nodes.  Peers store and serve *opaque* entry blobs (the
pickled ``CacheEntry`` bytes, exactly as they sit in a local cache
directory) under the content-addressed keys of ``docs/api.md`` — the
peer never unpickles anything, so it can hold results for code it
cannot import and a malicious blob cannot execute on it.

Wire format (stdlib ``http.server``, threaded):

===========================  =============================================
request                      response
===========================  =============================================
``GET /cache/<key>``         ``200`` blob (``X-Repro-Checksum``: sha256) /
                             ``404`` absent / ``400`` malformed key
``HEAD /cache/<key>``        ``200`` present / ``404`` absent
``PUT /cache/<key>``         ``204`` stored / ``400`` key or checksum bad /
                             ``413`` blob over the 64 MiB cap
``GET /stats``               ``200`` JSON: served counters + cache stats
``GET /keys``                ``200`` JSON list of stored keys
===========================  =============================================

Any request may additionally be refused ``401`` when the peer runs
with a shared HMAC secret (:mod:`repro.fabric.auth`) and the request's
``Authorization`` header is missing or wrong — checked before the
store is touched, so unauthenticated callers can neither read blobs
(that *they* would unpickle) nor plant blobs (that fleet members
would).

Storage reuses :class:`~repro.runtime.cache.ResultCache` wholesale —
same sharded layout, same atomic writes, same LRU byte-budget eviction
(``--max-bytes``) — so a peer directory is interchangeable with any
other cache directory (it can be seeded by pointing a sweep at it, or
rsynced outright).

**Federation** (``--upstream URL``): a peer can itself tier onto
another peer.  A local ``GET`` miss is re-fetched from the upstream as
a raw blob — passthrough only, never unpickled — stored, and served.
This is how a fabric worker's cache reaches the front-end's: worker →
its local peer → the front-end's peer, each hop authenticated with the
same fleet secret.

Compiled-program artifacts ride this exact surface: a serve node's
artifact tier and ``repro cache push|pull`` move
:mod:`repro.engine.artifacts` envelopes through the same
``/cache/<key>`` routes under the same auth — to the peer they are just
more opaque bytes.  One node compiles and pushes here; every other node
that misses the program loads it from here instead of compiling.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import re
import ssl
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.fabric.auth import default_secret, verify_http
from repro.fabric.tls import TLSConfig, default_tls
from repro.obs import Counters
from repro.runtime.cache import ResultCache
from repro.runtime.tiers import CHECKSUM_HEADER, MAX_BLOB_BYTES, HTTPPeerTier

_KEY_RE = re.compile(r"^/cache/([0-9a-f]{64})$")


class _PeerHandler(BaseHTTPRequestHandler):
    """Request handler; state lives on the server (cache + counters)."""

    server_version = "repro-cache-peer/1.0"
    protocol_version = "HTTP/1.1"
    # Bounds every socket read/write: a client that stalls mid-body (or
    # connects and never speaks) times out instead of pinning one of the
    # server's handler threads forever.
    timeout = 30.0

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if not self._authorized():
            return
        if self.path == "/stats":
            self._send_json(200, self.server.peer.stats_payload())
            return
        if self.path == "/keys":
            self._send_json(200, list(self.server.peer.cache.iter_keys()))
            return
        key = self._key()
        if key is None:
            return
        self.server.peer.counters.inc("gets")
        blob = self.server.peer.cache.get_blob(key)
        if blob is None:
            blob = self.server.peer.fetch_upstream(key)
        if blob is None:
            self.server.peer.counters.inc("misses")
            self._send_empty(404)
            return
        self.server.peer.counters.inc("hits")
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(blob)))
        self.send_header(CHECKSUM_HEADER, hashlib.sha256(blob).hexdigest())
        self.end_headers()
        self.wfile.write(blob)

    def do_HEAD(self) -> None:  # noqa: N802
        if not self._authorized():
            return
        key = self._key()
        if key is None:
            return
        self._send_empty(200 if self.server.peer.cache.contains(key) else 404)

    def do_PUT(self) -> None:  # noqa: N802
        # Any refusal before the body is consumed desyncs a keep-alive
        # connection (the unread bytes would parse as the next request),
        # so every early exit below also hangs up (Connection: close).
        key = self._key(close=True)
        if key is None:
            return
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            length = -1
        if length < 0:
            self._send_empty(400, close=True)
            return
        if length > MAX_BLOB_BYTES:
            self._send_empty(413, close=True)
            return
        blob = self.rfile.read(length)
        if len(blob) != length:
            self._send_empty(400, close=True)  # truncated upload
            return
        if not self._authorized(body=blob):
            # The HMAC covers the body digest, so the body had to be
            # read first; the store is still untouched — an outsider
            # cannot plant a blob a fleet member would later unpickle.
            return
        checksum = self.headers.get(CHECKSUM_HEADER)
        if checksum and hashlib.sha256(blob).hexdigest() != checksum:
            self._send_empty(400)  # corrupted in transit: refuse to store
            return
        try:
            self.server.peer.cache.put_blob(key, blob)
        except OSError:
            self._send_empty(500)
            return
        self.server.peer.counters.inc("puts")  # only successful stores count
        self._send_empty(204)

    def _authorized(self, body: bytes = b"") -> bool:
        """HMAC gate, ahead of any store access (no-op when open)."""
        secret = self.server.peer.secret
        if secret is None:
            return True
        if verify_http(secret, self.command, self.path, body,
                       self.headers.get("Authorization")):
            return True
        self.server.peer.counters.inc("auth_rejected")
        self._send_empty(401, close=True)
        return False

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # quiet by default; counters carry the signal

    def _key(self, close: bool = False) -> str | None:
        match = _KEY_RE.match(self.path)
        if match is None:
            self._send_empty(400 if self.path.startswith("/cache/") else 404,
                             close=close)
            return None
        return match.group(1)

    def _send_json(self, status: int, payload: object) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_empty(self, status: int, close: bool = False) -> None:
        self.send_response(status)
        self.send_header("Content-Length", "0")
        if close:
            # Also flips self.close_connection, ending this handler's
            # keep-alive loop after the response is written.
            self.send_header("Connection", "close")
        self.end_headers()


class _PeerServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that stays quiet about routine client churn."""

    def handle_error(self, request, client_address) -> None:
        exc = sys.exc_info()[1]
        if isinstance(exc, (ConnectionError, TimeoutError, ssl.SSLError)):
            # A client hanging up mid-transfer (its timeout, its crash)
            # is fleet-normal, not a peer fault — no traceback spam on a
            # long-lived peer's stderr.  Same for TLS handshake refusals:
            # a wrong-CA or plaintext client is *supposed* to be dropped
            # here, quietly.
            return
        super().handle_error(request, client_address)


class CachePeer:
    """A running (or startable) cache peer.

    Args:
        root: blob directory (a normal cache directory; defaults to the
            standard cache-dir resolution).
        host: bind address.
        port: bind port; 0 picks an ephemeral port (read it back from
            :attr:`port`).
        max_bytes: LRU byte budget for the peer's store (``None`` =
            unbounded) — the same eviction the local cache uses.
        upstream: base URL of a peer to federate onto; local ``GET``
            misses are re-fetched from it as raw blobs (never
            unpickled), stored, and served.  ``None`` = standalone.
        secret: shared HMAC secret; when set, every request must carry
            a valid ``Authorization`` header, and upstream fetches are
            signed with the same secret (default: the
            ``REPRO_FABRIC_SECRET`` environment variable).
        tls: a :class:`repro.fabric.tls.TLSConfig`; when it resolves
            (explicitly or from ``REPRO_FABRIC_TLS_*``), the listening
            socket speaks HTTPS — a wrong-CA client is dropped in the
            handshake, before the HMAC header is even read — and
            :attr:`url` advertises ``https://``.  Upstream fetches use
            the same identity.

    Use as a context manager or via :meth:`start` / :meth:`stop`; the
    listening socket is bound at construction, so :attr:`port` is valid
    before :meth:`start`.
    """

    def __init__(self, root: str | Path | None = None, host: str = "127.0.0.1",
                 port: int = 0, max_bytes: int | None = None,
                 upstream: str | None = None, secret: str | None = None,
                 tls: TLSConfig | None = None):
        self.cache = ResultCache(root=root, max_bytes=max_bytes, sweep_every=8)
        self.secret = secret if secret is not None else default_secret()
        self.tls = default_tls(tls)
        self.upstream: HTTPPeerTier | None = (
            HTTPPeerTier(upstream, secret=self.secret, tls=self.tls)
            if upstream is not None else None)
        self._server = _PeerServer((host, port), _PeerHandler)
        if self.tls is not None:
            # Wrap the *listening* socket: every accepted connection is
            # handshaken before BaseHTTPRequestHandler reads a byte.
            self._server.socket = self.tls.server_context().wrap_socket(
                self._server.socket, server_side=True)
        self._server.peer = self
        self.host = host
        self.port = self._server.server_address[1]
        self._thread: threading.Thread | None = None
        self._serving = False
        self._lock = threading.Lock()
        #: Served-request counters; the handler threads bump them.
        self.counters = Counters(
            "gets", "hits", "misses", "puts", "auth_rejected",
            "upstream_hits", "upstream_misses", "upstream_errors")
        self._stats_cache: tuple[float, dict] | None = None

    @property
    def url(self) -> str:
        """Base URL clients pass as ``--remote-cache``."""
        scheme = "https" if self.tls is not None else "http"
        return f"{scheme}://{self.host}:{self.port}"

    def start(self) -> CachePeer:
        """Serve on a daemon thread; returns immediately."""
        if self._thread is not None:
            raise RuntimeError("peer already started")
        self._serving = True
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-cache-peer",
            kwargs={"poll_interval": 0.05}, daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` (the CLI path)."""
        self._serving = True
        self._server.serve_forever(poll_interval=0.2)

    def stop(self) -> None:
        """Stop serving and close the socket (idempotent).

        Safe to call whether or not the serve loop ever ran —
        ``shutdown()`` would block forever on a never-started server.
        """
        if self._serving:
            self._server.shutdown()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        with contextlib.suppress(OSError):
            self._server.server_close()

    def fetch_upstream(self, key: str) -> bytes | None:
        """Re-fetch a locally missing blob from the upstream peer.

        Blob passthrough only: the bytes are stored and served exactly
        as received, never unpickled here.  Every upstream failure mode
        degrades to a plain local miss (the upstream tier's circuit
        breaker throttles retries against a dead upstream).
        """
        if self.upstream is None:
            return None
        try:
            blob = self.upstream.get_blob(key)
        except Exception:
            self.counters.inc("upstream_errors")
            return None
        if blob is None:
            self.counters.inc("upstream_misses")
            return None
        with contextlib.suppress(OSError):
            self.cache.put_blob(key, blob)
        self.counters.inc("upstream_hits")
        return blob

    #: How long a ``/stats`` store-size snapshot may be reused.  Sizing
    #: the store walks every entry (O(entries) stat calls); a liveness
    #: probe polling ``/stats`` must not pay that per request.
    STATS_TTL = 1.0

    def stats_payload(self) -> dict:
        """The ``/stats`` JSON: served counters + store size.

        Counters are always exact; the entries/bytes walk is cached for
        :data:`STATS_TTL` seconds so frequent polling stays cheap.
        """
        now = time.monotonic()
        with self._lock:
            cached = self._stats_cache
        if cached is not None and now - cached[0] < self.STATS_TTL:
            sized = cached[1]
        else:
            stats = self.cache.stats()
            sized = {"entries": stats.entries, "bytes": stats.bytes,
                     "root": stats.root, "max_bytes": self.cache.max_bytes}
            with self._lock:
                self._stats_cache = (now, sized)
        payload = self.counters.snapshot()
        payload.update(sized)
        return payload

    def __enter__(self) -> CachePeer:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
