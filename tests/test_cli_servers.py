"""``repro serve``, ``repro frontend`` and ``repro worker`` from banner to summary.

Each command starts its server, prints a banner, idles until Ctrl-C,
stops the server and prints a summary line.  ``time.sleep`` is patched
so that the CLI's idle wait pings the port its banner names and then
raises ``KeyboardInterrupt``, as Ctrl-C would; other sleeps pass
through.
"""

import re
import socket
import time

import pytest

from repro.cli import main
from repro.fabric import FrontendConfig, FrontendHandle
from repro.serve import ServeClient

IDLE_SECONDS = 3600


def banner_port(banner: str) -> int:
    return int(re.search(r" on 127\.0\.0\.1:(\d+)", banner).group(1))


def assert_port_closed(port: int) -> None:
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", port), timeout=2).close()


@pytest.fixture
def banners(monkeypatch, capsys):
    """Interrupt the CLI's idle wait after one ping; collects each banner."""
    monkeypatch.delenv("REPRO_FABRIC_SECRET", raising=False)
    seen = []
    real_sleep = time.sleep

    def sleep(seconds):
        if seconds != IDLE_SECONDS:
            return real_sleep(seconds)
        banner = capsys.readouterr().out
        seen.append(banner)
        with ServeClient(port=banner_port(banner)) as client:
            assert client.value("ping", payload=1) == {"pong": 1}
        raise KeyboardInterrupt

    monkeypatch.setattr(time, "sleep", sleep)
    return seen


def test_serve_prints_banner_and_summary_and_closes_its_port(banners, capsys, tmp_path):
    assert main(["serve", "--port", "0", "--workers", "1", "--mode", "thread",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    (banner,) = banners
    assert banner.startswith("serving on 127.0.0.1:") and "Ctrl-C to stop" in banner
    summary = capsys.readouterr().out
    assert re.search(r"^served 1 request\(s\): 0 hits, 0 ran, 0 coalesced, "
                     r"0 error\(s\)$", summary, re.M)
    assert_port_closed(banner_port(banner))


def test_frontend_prints_banner_and_summary_and_closes_its_port(banners, capsys):
    assert main(["frontend", "--port", "0"]) == 0
    (banner,) = banners
    assert banner.startswith("fabric front-end on 127.0.0.1:")
    summary = capsys.readouterr().out
    assert re.search(r"^routed 0 request\(s\) \(0 retried, 0 worker failure\(s\), "
                     r"0 shed, 0 auth-rejected\); 0 eviction\(s\)$", summary, re.M)
    assert_port_closed(banner_port(banner))


def test_worker_joins_then_leaves_on_interrupt(banners, capsys, tmp_path):
    with FrontendHandle(FrontendConfig(port=0)) as fe:
        assert main(["worker", "--join", f"127.0.0.1:{fe.port}", "--worker-id", "cli-w0",
                     "--workers", "1", "--mode", "thread",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        membership = fe.stats()["membership"]
    (banner,) = banners
    assert banner.startswith("fabric worker 'cli-w0' serving on 127.0.0.1:")
    assert f"joined 127.0.0.1:{fe.port}" in banner
    summary = capsys.readouterr().out
    assert re.search(r"^served 1 request\(s\): 0 hits, 0 ran, 0 coalesced, 0 error\(s\); "
                     r"\d+ heartbeat\(s\), 0 rejoin\(s\)$", summary, re.M)
    assert membership["joins"] == 1 and membership["leaves"] == 1
    assert membership["workers"] == []
    assert_port_closed(banner_port(banner))
