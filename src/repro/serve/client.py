"""Clients for the serve wire protocol (sync and asyncio).

:class:`ServeClient` is the simple blocking client — one request in
flight at a time, right for scripts and the CLI.  :class:`AsyncServeClient`
pipelines: many requests may be outstanding on one connection, matched
back to their callers by request id, which is what the load generator
and high-concurrency callers want.

Both speak the fabric extensions of the wire format transparently:
constructed with a shared ``secret`` (default: the
``REPRO_FABRIC_SECRET`` environment variable) they HMAC-sign every
request, and a per-request ``priority`` rides along for admission
control on a fabric front-end.  Against a plain open server both fields
are inert, so one client class serves every topology.
"""

from __future__ import annotations

import asyncio
import socket

from repro.fabric.auth import default_secret, normalize_priority, sign_message
from repro.fabric.tls import TLSConfig, default_tls
from repro.serve.protocol import MAX_LINE_BYTES, Response, decode_message, encode_message


class ServeError(RuntimeError):
    """Raised by ``request(...)`` when the server reports a failure."""


def _wire_request(rid: int, endpoint: str, kwargs: dict,
                  priority: str | None, secret: str | None) -> bytes:
    """Build (and, secret permitting, sign) one request line."""
    message: dict = {"id": rid, "endpoint": endpoint, "kwargs": kwargs}
    if priority is not None:
        message["priority"] = normalize_priority(priority)
    return encode_message(sign_message(secret, message))


class ServeClient:
    """Blocking JSON-over-TCP client.

    Args:
        host: server address.
        port: server port.
        timeout: socket timeout in seconds for connect and replies.
        secret: shared fabric secret used to sign requests; defaults to
            ``REPRO_FABRIC_SECRET`` from the environment, ``None`` sends
            unsigned requests (fine against an open server).
        tls: a :class:`~repro.fabric.tls.TLSConfig` to wrap the
            connection; defaults to the ``REPRO_FABRIC_TLS_*``
            environment.  A server/CA mismatch raises ``ssl.SSLError``
            from the constructor — before any request is signed.

    Usable as a context manager; the connection persists across
    requests.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8537, timeout: float = 60.0,
                 secret: str | None = None, tls: TLSConfig | None = None):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        resolved = default_tls(tls)
        if resolved is not None:
            try:
                self._sock = resolved.client_context().wrap_socket(
                    self._sock, server_hostname=host)
            except BaseException:
                self._sock.close()
                raise
        self._file = self._sock.makefile("rwb")
        self._next_id = 0
        self._secret = secret if secret is not None else default_secret()

    def send(self, endpoint: str, kwargs: dict | None = None,
             priority: str | None = None) -> Response:
        """Issue one request and return the raw :class:`Response`.

        Unlike :meth:`request` this never raises on ``ok: false`` — the
        caller inspects ``response.ok`` / ``response.shed`` itself,
        which is what shed-aware fabric callers need (a shed is an
        expected outcome, not an exception).

        Raises:
            ConnectionError: if the server hung up mid-request.
        """
        self._next_id += 1
        rid = self._next_id
        self._file.write(_wire_request(rid, endpoint, kwargs or {}, priority, self._secret))
        self._file.flush()
        line = self._file.readline(MAX_LINE_BYTES)
        if not line:
            raise ConnectionError("server closed the connection")
        return Response.from_wire(decode_message(line))

    def request(self, endpoint: str, **kwargs) -> Response:
        """Issue one request and wait for its response.

        Raises:
            ServeError: if the server answered ``ok: false``.
            ConnectionError: if the server hung up mid-request.
        """
        response = self.send(endpoint, kwargs)
        if not response.ok:
            raise ServeError(response.error or "request failed")
        return response

    def value(self, endpoint: str, **kwargs):
        """Shorthand: the response's value alone."""
        return self.request(endpoint, **kwargs).value

    def stats(self) -> dict:
        """The server's ``_stats`` counters."""
        return self.request("_stats").value

    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> ServeClient:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class AsyncServeClient:
    """Pipelining asyncio client: build with :meth:`connect`.

    Responses are dispatched to awaiting callers by request id, so any
    number of :meth:`request` coroutines may be in flight on the one
    connection.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                 secret: str | None = None):
        self._reader = reader
        self._writer = writer
        self._secret = secret if secret is not None else default_secret()
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._write_lock = asyncio.Lock()
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(cls, host: str = "127.0.0.1", port: int = 8537,
                      secret: str | None = None,
                      tls: TLSConfig | None = None) -> AsyncServeClient:
        """Open a connection and start the response dispatcher.

        Args:
            host/port: the server to dial.
            secret: shared fabric secret for request signing; defaults
                to ``REPRO_FABRIC_SECRET`` from the environment.
            tls: TLS wrap for the connection; defaults to the
                ``REPRO_FABRIC_TLS_*`` environment.
        """
        resolved = default_tls(tls)
        context = resolved.client_context() if resolved is not None else None
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_LINE_BYTES, ssl=context,
            server_hostname=host if context is not None else None)
        return cls(reader, writer, secret=secret)

    async def send(self, endpoint: str, kwargs: dict | None = None,
                   priority: str | None = None) -> Response:
        """Issue one request and return the raw :class:`Response`.

        The no-raise twin of :meth:`request` (see
        :meth:`ServeClient.send`); the fabric front-end forwards through
        this so a worker-side error travels back as a response rather
        than an exception.

        Raises:
            ConnectionError: if the connection dropped before the reply,
                or had already dropped: once the reply reader has stopped,
                nothing would resolve the reply, so nothing is written.
        """
        self._next_id += 1
        rid = self._next_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[rid] = future
        try:
            async with self._write_lock:
                if self._reader_task.done():
                    raise ConnectionError("connection closed before the request was sent")
                self._writer.write(
                    _wire_request(rid, endpoint, kwargs or {}, priority, self._secret))
                await self._writer.drain()
            response: Response = await future
        finally:
            self._pending.pop(rid, None)
        return response

    async def request(self, endpoint: str, **kwargs) -> Response:
        """Issue one request; other requests may overlap freely.

        Raises:
            ServeError: if the server answered ``ok: false``.
            ConnectionError: if the connection dropped before the reply.
        """
        response = await self.send(endpoint, kwargs)
        if not response.ok:
            raise ServeError(response.error or "request failed")
        return response

    async def aclose(self) -> None:
        """Stop the dispatcher and close the connection.

        Any still-pending :meth:`request` awaiters fail with
        ``ConnectionError`` rather than hanging.
        """
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        for future in self._pending.values():
            if not future.done():
                future.set_exception(ConnectionError("client closed"))
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except Exception:
            pass

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    raise ConnectionError("server closed the connection")
                response = Response.from_wire(decode_message(line))
                future = self._pending.get(response.id)
                if future is not None and not future.done():
                    future.set_result(response)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        exc if isinstance(exc, ConnectionError) else ConnectionError(str(exc)))
