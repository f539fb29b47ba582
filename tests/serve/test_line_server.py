"""The request loop both servers share, driven with raw socket lines.

``Server`` and the fabric ``Frontend`` run one ``LineServer`` front:
line framing, the envelope checks, the HMAC gate and the error replies.
Every test here runs once per server through its ``LoopThread`` handle,
writing bytes a well-behaved client never would.
"""

import contextlib
import json
import socket

import pytest

from repro.fabric import FrontendConfig, FrontendHandle
from repro.fabric.auth import sign_message
from repro.serve import ServeClient, ServeConfig, ServerHandle
from repro.serve.protocol import MAX_LINE_BYTES

SECRET = "line-server-secret"
KINDS = ["server", "frontend"]
POINT = dict(network="lenet", layer_index=0, group_size=2, density=0.5)


def make_handle(kind: str, tmp_path, port: int = 0, secret: str | None = None):
    if kind == "server":
        return ServerHandle(ServeConfig(
            port=port, workers=1, mode="thread", max_delay_ms=1.0,
            cache_dir=str(tmp_path / "cache"), auth_secret=secret))
    return FrontendHandle(FrontendConfig(port=port, auth_secret=secret))


def dispatched(kind: str, stats: dict) -> int:
    """Requests that got past the envelope checks and the auth gate.

    The server counts a computed point under ``misses``; the front-end,
    with no worker joined, counts a dispatched data request under
    ``no_workers`` (and would count ``forwarded`` with one).
    """
    if kind == "server":
        return stats["misses"] + stats["hits"]
    return stats["forwarded"] + stats["no_workers"]


class RawConnection:
    """One TCP connection that writes raw bytes and reads reply lines."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.replies = self.sock.makefile("rb")

    def ask(self, line: bytes) -> dict:
        self.sock.sendall(line)
        return json.loads(self.replies.readline())

    def closed_by_peer(self) -> bool:
        try:
            return self.replies.readline() == b""
        except ConnectionError:
            return True

    def close(self) -> None:
        self.replies.close()
        self.sock.close()


@pytest.fixture(params=KINDS)
def kind(request):
    return request.param


@pytest.fixture
def conn_to(kind, tmp_path):
    """Yields ``open(secret=None) -> (handle, conn)`` for a started ``kind``."""
    with contextlib.ExitStack() as stack:
        def open_(secret=None):
            handle = stack.enter_context(make_handle(kind, tmp_path, secret=secret))
            conn = RawConnection(handle.port)
            stack.callback(conn.close)
            return handle, conn

        yield open_


class TestPrologue:
    def test_oversize_line_gets_one_reply_then_the_connection_closes(self, conn_to):
        handle, conn = conn_to()
        # No newline: the server has read every byte by the time the line
        # overruns, so it closes with a FIN, never a reset.
        reply = conn.ask(b"x" * (MAX_LINE_BYTES + 1))
        assert reply == {"id": -1, "ok": False, "error": "request line too long"}
        assert conn.closed_by_peer()
        with ServeClient(port=handle.port) as client:
            assert client.value("ping", payload=3) == {"pong": 3}

    def test_bad_json_is_an_error_reply_with_id_minus_one(self, conn_to):
        handle, conn = conn_to()
        reply = conn.ask(b"{not json\n")
        assert reply["ok"] is False and reply["id"] == -1
        assert reply["error"].startswith("bad JSON")
        # The connection survives a bad line.
        assert conn.ask(b'{"id": 2, "endpoint": "ping"}\n')["ok"] is True
        assert handle.stats()["errors"] == 1

    def test_missing_endpoint_and_non_object_kwargs_are_error_replies(self, conn_to):
        handle, conn = conn_to()
        reply = conn.ask(b'{"id": 3, "kwargs": {}}\n')
        assert reply == {"id": 3, "ok": False, "error": "missing 'endpoint'"}
        reply = conn.ask(b'{"id": 4, "endpoint": "ping", "kwargs": [1]}\n')
        assert reply == {"id": 4, "ok": False, "error": "'kwargs' must be an object"}
        assert handle.stats()["errors"] == 2

    def test_unsigned_request_is_refused_before_dispatch(self, kind, conn_to):
        handle, conn = conn_to(secret=SECRET)
        before = handle.stats()
        unsigned = {"id": 5, "endpoint": "runtime_point", "kwargs": POINT}
        reply = conn.ask(json.dumps(unsigned).encode() + b"\n")
        assert reply["ok"] is False and reply["status"] == 401 and reply["id"] == 5
        forged = dict(unsigned, id=6, auth="0" * 64)
        assert conn.ask(json.dumps(forged).encode() + b"\n")["status"] == 401
        after = handle.stats()
        assert after["auth_rejected"] == before["auth_rejected"] + 2
        assert dispatched(kind, after) == dispatched(kind, before)
        signed = sign_message(SECRET, {"id": 7, "endpoint": "ping", "kwargs": {}})
        assert conn.ask(json.dumps(signed).encode() + b"\n")["ok"] is True

    def test_requests_counts_every_line(self, conn_to):
        handle, conn = conn_to()
        lines = [b"{not json\n", b'{"id": 1}\n', b'{"id": 2, "endpoint": "ping"}\n',
                 b'{"id": 3, "endpoint": "_stats"}\n', b"[1, 2]\n"]
        for line in lines:
            conn.ask(line)
        assert handle.stats()["requests"] == len(lines)

    @pytest.mark.parametrize("kind", ["frontend"])
    def test_frontend_refuses_unknown_control_endpoints(self, kind, conn_to):
        handle, conn = conn_to()
        reply = conn.ask(b'{"id": 8, "endpoint": "_nope"}\n')
        assert reply == {"id": 8, "ok": False,
                         "error": "unknown control endpoint '_nope'"}
        assert handle.stats()["forwarded"] == 0


@pytest.mark.parametrize("kind", KINDS)
def test_failed_start_leaves_the_handle_stoppable_and_restartable(kind, tmp_path):
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen()
    port = blocker.getsockname()[1]
    handle = make_handle(kind, tmp_path, port=port)
    try:
        with pytest.raises(OSError):
            handle.start()
        handle.stop()  # nothing runs: a no-op, not "Event loop is closed"
        blocker.close()
        handle.start()
        assert handle.port == port
        with ServeClient(port=port) as client:
            assert client.value("ping", payload=1) == {"pong": 1}
    finally:
        blocker.close()
        handle.stop()


def test_half_closed_client_gets_a_reply_to_every_line(tmp_path):
    """A client may write its lines, half-close, and then read: the EOF it
    sends must not cancel requests still being computed."""
    densities = {1: 0.3, 2: 0.4, 3: 0.6}  # three distinct cache misses
    lines = b"".join(
        json.dumps({"id": rid, "endpoint": "runtime_point",
                    "kwargs": dict(POINT, density=density)}).encode() + b"\n"
        for rid, density in densities.items())
    with make_handle("server", tmp_path) as handle:
        conn = RawConnection(handle.port)
        try:
            conn.sock.sendall(lines)
            conn.sock.shutdown(socket.SHUT_WR)
            replies = [json.loads(reply) for reply in conn.replies]
        finally:
            conn.close()
        assert handle.stats()["misses"] == 3
    assert sorted(reply["id"] for reply in replies) == [1, 2, 3]
    assert all(reply["ok"] and not reply["cached"] for reply in replies)
