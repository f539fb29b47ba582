"""Async JSON-over-TCP server on top of the runtime cache.

Request lifecycle (see ``docs/architecture.md`` for the full diagram)::

    client line -> decode -> resolve endpoint -> cache key
        cache hit  -> respond immediately (no worker touched)
        in flight  -> await the existing computation (single-flight)
        cache miss -> consistent-hash shard -> worker -> cache.put
                      -> respond

Every connection is handled concurrently, and each request line spawns
its own task, so one slow design point never blocks cache hits queued
behind it on the same connection.

The line-protocol front (bind, read lines, decode, check the envelope
and its signature, map failures to error replies) is :class:`LineServer`,
and the daemon-thread runner is :class:`LoopThread`; the fabric
front-end (:class:`repro.fabric.frontend.Frontend`) shares both and
differs only in what its :meth:`~LineServer.dispatch` does.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from dataclasses import dataclass
from functools import partial

from repro.fabric.auth import verify_message
from repro.fabric.tls import TLSConfig, default_tls
from repro.obs import Counters
from repro.runtime.cache import MISS, ResultCache, fn_identity
from repro.runtime.tiers import TieredCache
from repro.serve import endpoints as endpoints_mod
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_message,
    encode_message,
    to_jsonable,
)
from repro.serve.router import ShardRouter
from repro.serve.shards import MODES, ShardPool


@dataclass(frozen=True)
class ServeConfig:
    """Everything a :class:`Server` needs to start.

    Attributes:
        host: bind address.
        port: bind port; 0 asks the OS for an ephemeral port (the bound
            port is on ``Server.port`` / ``ServerHandle.port``).
        workers: shard count — one single-worker executor per shard.
        mode: ``"process"`` or ``"thread"`` shard workers.
        cache_dir: result-cache directory (``None`` = the default cache
            resolution of :func:`repro.runtime.cache.default_cache_dir`).
        cache_enabled: disable to force every request through a worker.
        cache_max_bytes: LRU byte budget for the cache (``None`` =
            unbounded).
        remote_cache: cache-peer URL to tier behind the local cache
            (``None`` = local-only).  Remote failures degrade to local
            misses; they never surface to clients.
        remote_timeout: per-operation timeout for the remote tier, in
            seconds — bounds how long a local miss can stall on a sick
            peer before falling through to compute.
        auth_secret: shared fabric secret (:mod:`repro.fabric.auth`).
            When set, every request must carry a valid HMAC ``auth``
            field — checked before the endpoint is even resolved.
            ``None`` keeps the server open (the pre-fabric behaviour).
        prewarm_programs: share compiled programs through the artifact
            store: install :class:`~repro.engine.artifacts.ProgramArtifactTier`
            over a store on ``cache_dir``.  A program-cache miss then
            loads the program from this node's artifacts, then from the
            ``remote_cache`` peer (through the tiered result cache's own
            client, so its timeout and breaker apply), before compiling,
            and every fresh compile is written back and pushed.  Nothing
            loads before traffic.  The program cache lives in the
            serving process: ``"thread"`` shard workers share it
            directly; ``"process"`` shards keep per-process caches.
        tls: TLS identity (:class:`repro.fabric.tls.TLSConfig`) for the
            listening socket *and* the remote-cache client; ``None``
            falls back to the ``REPRO_FABRIC_TLS_*`` environment, and
            with neither the server speaks cleartext.
    """

    host: str = "127.0.0.1"
    port: int = 8537
    workers: int = 2
    mode: str = "process"
    cache_dir: str | None = None
    cache_enabled: bool = True
    cache_max_bytes: int | None = None
    remote_cache: str | None = None
    remote_timeout: float = 2.0
    auth_secret: str | None = None
    prewarm_programs: bool = False
    tls: TLSConfig | None = None

    def __post_init__(self):
        """Reject a shard count below 1 or an unknown shard mode."""
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


class LineServer:
    """The newline-JSON request loop of :class:`Server` and the fabric front-end.

    Binds one socket (TLS per ``tls``, else the ``REPRO_FABRIC_TLS_*``
    environment; port 0 asks the OS, and the bound port lands on
    :attr:`port`), and runs each request line as its own task: count it,
    decode it, check ``endpoint`` and ``kwargs``, refuse a bad HMAC
    signature (when ``auth_secret`` is set) with a 401, then ``await``
    :meth:`dispatch`.  An exception becomes an ``ok: false`` reply.
    At EOF the connection's requests still in flight are answered before
    it closes, so a client may half-close once it has written its lines.

    :attr:`stats` (a :class:`~repro.obs.Counters`) counts ``requests``,
    ``auth_rejected`` and ``errors`` here, plus the subclass's own
    ``counters`` and ``keyed`` counters.  Subclasses define
    :meth:`dispatch` and ``stats_snapshot()``.
    """

    def __init__(self, host: str, port: int, auth_secret: str | None = None,
                 tls: TLSConfig | None = None, counters: tuple[str, ...] = (),
                 keyed: dict | None = None):
        """Record the bind address and build the counters; binds nothing."""
        self._address = (host, port)
        self._auth_secret = auth_secret
        self._tls = tls
        self.stats = Counters("requests", *counters, "auth_rejected", "errors",
                              keyed=keyed)
        self.port: int | None = None
        self._server: asyncio.base_events.Server | None = None
        self._conn_tasks: set[asyncio.Task] = set()

    async def dispatch(self, rid, name: str, kwargs: dict, message: dict,
                       started: float) -> dict:
        """The reply to one decoded, authenticated request."""
        raise NotImplementedError

    async def start(self) -> None:
        """Bind the listening socket; fills in :attr:`port`."""
        tls = default_tls(self._tls)
        self._server = await asyncio.start_server(
            self._handle_connection, *self._address, limit=MAX_LINE_BYTES,
            ssl=tls.server_context() if tls is not None else None)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Accept connections until cancelled (call :meth:`start` first)."""
        assert self._server is not None, "call start() before serve_forever()"
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting and drop the open connections."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        conn_task = asyncio.current_task()
        if conn_task is not None:
            self._conn_tasks.add(conn_task)
            conn_task.add_done_callback(self._conn_tasks.discard)
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._write(writer, write_lock, {
                        "id": -1, "ok": False, "error": "request line too long"})
                    break
                if not line:
                    break
                task = asyncio.ensure_future(
                    self._serve_line(line, writer, write_lock))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            # The client is done writing, not necessarily reading: answer
            # what it sent before closing.
            await asyncio.gather(*tasks, return_exceptions=True)
        except asyncio.CancelledError:
            pass  # server shutdown: close the connection and exit cleanly
        finally:
            if tasks:
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def _serve_line(self, line: bytes, writer: asyncio.StreamWriter,
                          write_lock: asyncio.Lock) -> None:
        response = await self._handle_request(line)
        await self._write(writer, write_lock, response)

    async def _write(self, writer: asyncio.StreamWriter, lock: asyncio.Lock,
                     payload: dict) -> None:
        try:
            data = encode_message(payload)
        except (TypeError, ValueError):
            # A custom endpoint returned something json can't encode;
            # the client must still get *a* response for this id.
            self.stats.inc("errors")
            data = encode_message({
                "id": payload.get("id", -1), "ok": False,
                "error": "endpoint returned a value that is not JSON-serializable"})
        async with lock:
            writer.write(data)
            with contextlib.suppress(ConnectionError):
                await writer.drain()

    async def _handle_request(self, line: bytes) -> dict:
        started = time.perf_counter()
        self.stats.inc("requests")
        rid = -1
        try:
            message = decode_message(line)
            rid = message.get("id", -1)
            name = message.get("endpoint")
            kwargs = message.get("kwargs") or {}
            if not isinstance(name, str):
                raise ProtocolError("missing 'endpoint'")
            if not isinstance(kwargs, dict):
                raise ProtocolError("'kwargs' must be an object")
            if self._auth_secret is not None and not verify_message(
                    self._auth_secret, message):
                # Before dispatch touches a cache, the membership or a
                # worker: an unauthenticated caller gets one refusal
                # line and nothing else.
                self.stats.inc("auth_rejected")
                return {"id": rid, "ok": False, "status": 401,
                        "error": "unauthenticated: missing or bad 'auth' signature"}
            return await self.dispatch(rid, name, kwargs, message, started)
        except (ProtocolError, KeyError, TypeError, ValueError) as exc:
            self.stats.inc("errors")
            return {"id": rid, "ok": False,
                    "error": str(exc.args[0]) if exc.args else repr(exc)}
        except Exception as exc:  # dispatch raised: report, don't crash
            self.stats.inc("errors")
            return {"id": rid, "ok": False, "error": f"{type(exc).__name__}: {exc}"}


class Server(LineServer):
    """The asyncio serving loop: sockets, cache fast path, shard fan-out.

    Args:
        config: see :class:`ServeConfig`.
        cache: inject a pre-built :class:`ResultCache` (tests use this);
            by default one is constructed from the config.

    Use :meth:`start` + :meth:`serve_forever` from an event loop, or
    :class:`ServerHandle` to run the whole loop on a background thread.
    """

    def __init__(self, config: ServeConfig | None = None, cache: ResultCache | None = None):
        """Build the cache, router and shard pool; binds nothing until :meth:`start`."""
        self.config = config or ServeConfig()
        super().__init__(self.config.host, self.config.port,
                         self.config.auth_secret, self.config.tls,
                         counters=("hits", "misses", "coalesced", "batches"),
                         keyed={"per_shard": ()})
        self._owns_cache = cache is None
        if cache is not None:
            self.cache = cache
        elif not self.config.cache_enabled:
            self.cache = None
        elif self.config.remote_cache:
            self.cache = TieredCache(
                remote=self.config.remote_cache, root=self.config.cache_dir,
                max_bytes=self.config.cache_max_bytes,
                remote_timeout=self.config.remote_timeout,
                tls=self.config.tls)
        else:
            self.cache = ResultCache(
                root=self.config.cache_dir, max_bytes=self.config.cache_max_bytes)
        self.router = ShardRouter(self.config.workers)
        self.pool = ShardPool(self.config.workers, mode=self.config.mode)
        # Optional callable merged into stats_snapshot(): a wrapper
        # (e.g. a fabric WorkerNode) exposes its own gauges over the
        # wire ``_stats`` endpoint without the server knowing about it.
        self.extra_stats = None
        self._program_tier = None
        self._inflight: dict[str, asyncio.Future] = {}
        # Strong references: the loop only weakly references tasks, so
        # an un-retained shard task could be garbage-collected mid-call
        # and leave its requester and every coalesced twin waiting.
        self._shard_tasks: set[asyncio.Task] = set()

    def stats_snapshot(self) -> dict:
        """The server counters and hit rate, plus the ``tier`` sub-dict when tiered.

        The one source for both the ``_stats`` wire endpoint and
        :meth:`ServerHandle.stats`.
        """
        snapshot = self.stats.snapshot()
        served = snapshot["hits"] + snapshot["misses"] + snapshot["coalesced"]
        snapshot["hit_rate"] = snapshot["hits"] / served if served else 0.0
        if isinstance(self.cache, TieredCache):
            snapshot["tier"] = self.cache.tier_stats()
        from repro.engine.program import program_cache_info
        snapshot["programs"] = program_cache_info()
        if self.extra_stats is not None:
            try:
                snapshot.update(self.extra_stats())
            except Exception:
                pass  # a broken gauge must not break _stats
        return snapshot

    async def start(self) -> None:
        """Bind the listening socket; fills in :attr:`port`.

        With :attr:`ServeConfig.prewarm_programs` set, first installs the
        program artifact tier (see there); it loads nothing eagerly.
        """
        if self.config.prewarm_programs:
            from repro.engine.artifacts import ProgramArtifactTier, ProgramStore
            from repro.engine.program import set_artifact_tier
            remote = self.cache.remote if isinstance(self.cache, TieredCache) else None
            self._program_tier = ProgramArtifactTier(
                ProgramStore(root=self.config.cache_dir, remote=remote))
            set_artifact_tier(self._program_tier)
        await super().start()

    async def aclose(self) -> None:
        """Stop accepting, drop open connections, finish shard calls, stop the pool."""
        await super().aclose()
        if self._shard_tasks:
            await asyncio.gather(*self._shard_tasks, return_exceptions=True)
        self.pool.shutdown()
        if self._owns_cache and isinstance(self.cache, TieredCache):
            # Drain pending write-backs off the loop (close blocks on
            # the write-back worker, which may be mid-HTTP-push).
            await asyncio.get_running_loop().run_in_executor(None, self.cache.close)
        if self._program_tier is not None:
            # Detach the process-global artifact tier only if it is
            # still ours (another server may have installed its own),
            # then flush its pending write-backs off the loop.
            from repro.engine.program import get_artifact_tier, set_artifact_tier
            if get_artifact_tier() is self._program_tier:
                set_artifact_tier(None)
            await asyncio.get_running_loop().run_in_executor(
                None, self._program_tier.close)
            self._program_tier = None

    async def dispatch(self, rid: int, name: str, kwargs: dict, message: dict,
                       started: float) -> dict:
        """Meta endpoints inline; everything else through the cache."""
        if name == "_stats":
            return self._ok(rid, self.stats_snapshot(), started)
        if name == "_endpoints":
            return self._ok(rid, list(endpoints_mod.endpoint_names()), started)
        if name == "ping":
            # Liveness probe: answered inline so it reflects event-loop
            # health alone, never blocks on (or writes junk into) the
            # cache or a wedged shard pool.
            return self._ok(rid, {"pong": kwargs.get("payload")}, started)
        fn = endpoints_mod.resolve(name)
        return await self._serve_point(rid, name, fn, kwargs, started)

    async def _serve_point(self, rid: int, name: str, fn, kwargs: dict,
                           started: float) -> dict:
        key = None
        if self.cache is not None:
            key = self.cache.key_for(fn, kwargs)
            if isinstance(self.cache, TieredCache):
                # Local probe on-loop (one small pickle beats a thread
                # handoff — the warm steady state must stay cheap); only
                # the remote leg, which can block on HTTP for up to
                # remote_timeout, goes through the executor.  2s of
                # frozen event loop would be 2s of frozen *server*.
                value = self.cache.get_local(key)
                if value is MISS:
                    value = await asyncio.get_running_loop().run_in_executor(
                        None, self.cache.get_remote, key)
            else:
                value = self.cache.get(key)
            if value is not MISS:
                self.stats.inc("hits")
                return self._ok(rid, to_jsonable(value), started, cached=True)
            existing = self._inflight.get(key)
            if existing is not None:
                value = await asyncio.shield(existing)
                self.stats.inc("coalesced")
                return self._ok(rid, to_jsonable(value), started, coalesced=True)
        shard = self.router.route(key or repr((name, sorted(kwargs.items()))))
        self.stats.inc("misses")
        self.stats.inc("per_shard", shard)
        self.stats.inc("batches")
        # The call runs in its own retained task, which is also the
        # in-flight future twins coalesce onto.  Both live until the
        # computation resolves — NOT until this requester stops waiting:
        # one that disconnects mid-compute (hence the shield) cancels
        # nothing its twins await, and later identical requests still
        # coalesce onto the running computation instead of launching a twin.
        task = asyncio.ensure_future(self._run_on_shard(shard, fn, kwargs, key))
        self._shard_tasks.add(task)
        if key is not None:
            self._inflight[key] = task
        task.add_done_callback(partial(self._shard_task_done, key))
        value = await asyncio.shield(task)
        return self._ok(rid, to_jsonable(value), started, shard=shard)

    def _shard_task_done(self, key: str | None, task: asyncio.Task) -> None:
        """Forget a finished shard task and its in-flight entry."""
        self._shard_tasks.discard(task)
        if key is not None and self._inflight.get(key) is task:
            del self._inflight[key]
        if not task.cancelled():
            # Retrieve a failure even when every requester has hung up
            # (waiters read their own shield-copies), so the loop doesn't
            # log "exception was never retrieved".
            task.exception()

    async def _run_on_shard(self, shard: int, fn, kwargs: dict, key: str | None):
        """Run one miss on its shard, write the result to the cache, return it."""
        [(ok, value)] = await self.pool.run_on_shard(shard, [(fn, kwargs)])
        if not ok:
            raise value
        if key is not None:
            # The write-back runs off the loop (disk I/O, and possibly an
            # LRU eviction sweep) *before* the result is returned, so an
            # immediate repeat request is a guaranteed hit.  A failure is
            # tolerated: the cache is a memo, not the source of truth.
            with contextlib.suppress(Exception):
                await asyncio.get_running_loop().run_in_executor(
                    None, partial(self.cache.put, key, value, fn=fn_identity(fn)))
        return value

    def _ok(self, rid: int, value, started: float, cached: bool = False,
            coalesced: bool = False, shard: int | None = None) -> dict:
        return {
            "id": rid, "ok": True, "value": value, "cached": cached,
            "coalesced": coalesced, "shard": shard,
            "elapsed_ms": (time.perf_counter() - started) * 1000.0,
        }


class LoopThread:
    """Runs a :class:`LineServer` on its own event loop in a daemon thread.

    :meth:`start` blocks until the socket is bound and sets :attr:`port`;
    :meth:`stop` closes the server and joins the thread.  A start that
    fails (a port in use, say) re-raises the error and leaves the handle
    as it was, so :meth:`stop` is a no-op and :meth:`start` may be retried.
    """

    def __init__(self, server: LineServer, name: str):
        """Wrap ``server``; ``name`` names the loop thread.  Starts nothing."""
        self.server = server
        self.port: int | None = None
        self._name = name
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._startup_error: BaseException | None = None

    def start(self) -> LoopThread:
        """Start the loop thread; blocks until the socket is bound.

        Raises:
            RuntimeError: if already started.
            OSError: if the bind fails (re-raised from the loop thread).
        """
        if self._thread is not None:
            raise RuntimeError(f"{self._name} already started")
        self._ready.clear()
        self._thread = threading.Thread(target=self._run, name=self._name, daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            error = self._startup_error
            self._thread.join()
            self._thread = self._loop = self._stop = self._startup_error = None
            raise error
        return self

    def stop(self) -> None:
        """Signal shutdown and join the loop thread (idempotent)."""
        if self._thread is None:
            return
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join()
        self._thread = None

    def stats(self) -> dict:
        """The server's :meth:`~LineServer.stats_snapshot` (thread-safe read)."""
        return self.server.stats_snapshot()

    def __enter__(self) -> LoopThread:
        """:meth:`start`, returning the started handle."""
        return self.start()

    def __exit__(self, *exc_info) -> None:
        """:meth:`stop`."""
        self.stop()

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self.port = self.server.port
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await self.server.aclose()


class ServerHandle(LoopThread):
    """Runs a :class:`Server` event loop on a daemon thread.

    The synchronous entry point examples, tests, and ``repro
    bench-serve`` use::

        with ServerHandle(ServeConfig(port=0, mode="thread")) as handle:
            client = ServeClient("127.0.0.1", handle.port)
            ...

    ``stats()`` includes the ``tier`` sub-dict when the server runs a
    :class:`~repro.runtime.tiers.TieredCache`.
    """

    def __init__(self, config: ServeConfig | None = None, cache: ResultCache | None = None):
        """Build the :class:`Server` (see there for the arguments); starts nothing."""
        self.config = config or ServeConfig()
        super().__init__(Server(self.config, cache=cache), "repro-serve")
