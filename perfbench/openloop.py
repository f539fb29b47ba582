"""Open-loop Poisson load generator for the served workloads.

Requests are sent on a schedule fixed before the run starts, whether or
not earlier replies have arrived, so a stalled server builds a queue
and the queueing shows up in latency (a closed loop would slow its own
sending instead).  Latency is measured from each request's *intended*
send time.  The generator records how late it actually sent each
request; a run whose generator fell behind measured the generator, not
the server, and is reported invalid.

One process drives at most two pipelined connections: requests go out
round-robin without waiting for replies, and replies are matched by id.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field

_now = time.perf_counter

#: Pipelined connections the requests are spread over, round-robin.
CONNECTIONS = 2
#: Seconds after the last scheduled send to wait for outstanding replies.
DRAIN_TIMEOUT_S = 15.0


def poisson_offsets(rate: float, seconds: float, rng: random.Random) -> list[float]:
    """Arrival offsets of a Poisson process with ``rate * seconds`` arrivals.

    A Poisson process conditioned on its arrival count places the
    arrivals uniformly over the window, so every run of the same
    length sends the same number of requests.
    """
    count = max(1, round(rate * seconds))
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))


@dataclass
class LoadResult:
    """What one open-loop run observed, request by request.

    Attributes:
        intended: scheduled send times (``perf_counter`` seconds).
        sent: actual send times.
        done: reply receipt times (``None``: no reply).
        replies: decoded replies (``None``: no reply).
        start: the schedule's time zero.
    """

    intended: list[float] = field(default_factory=list)
    sent: list[float] = field(default_factory=list)
    done: list[float | None] = field(default_factory=list)
    replies: list[dict | None] = field(default_factory=list)
    start: float = 0.0

    def latencies_ms(self) -> list[float | None]:
        """Per-request latency from intended send time (``None``: no reply)."""
        return [None if d is None else (d - i) * 1000.0 for i, d in zip(self.intended, self.done)]

    def lags_ms(self) -> list[float]:
        """How late the generator sent each request."""
        return [(s - i) * 1000.0 for i, s in zip(self.intended, self.sent)]


async def _run(port: int, offsets: list[float], payloads: list[dict]) -> LoadResult:
    result = LoadResult()
    n = len(offsets)
    result.sent = [0.0] * n
    result.done = [None] * n
    result.replies = [None] * n
    remaining = n
    all_done = asyncio.Event()
    conns = [await asyncio.open_connection("127.0.0.1", port, limit=4 * 1024 * 1024)
             for _ in range(CONNECTIONS)]

    async def read_replies(reader: asyncio.StreamReader) -> None:
        nonlocal remaining
        while True:
            line = await reader.readline()
            if not line:
                return
            stamp = _now()
            reply = json.loads(line)
            rid = reply.get("id")
            if isinstance(rid, int) and 0 <= rid < n and result.done[rid] is None:
                result.done[rid] = stamp
                result.replies[rid] = reply
                remaining -= 1
                if remaining == 0:
                    all_done.set()

    readers = [asyncio.ensure_future(read_replies(r)) for r, __ in conns]
    lines = [json.dumps(dict(p, id=i)).encode() + b"\n" for i, p in enumerate(payloads)]
    start = result.start = _now() + 0.05
    result.intended = [start + off for off in offsets]
    try:
        for i, due in enumerate(result.intended):
            delay = due - _now()
            if delay > 0.0005:
                await asyncio.sleep(delay)
            writer = conns[i % CONNECTIONS][1]
            writer.write(lines[i])
            result.sent[i] = _now()
            if writer.transport.get_write_buffer_size() > 1 << 16:
                await writer.drain()
        wait = result.intended[-1] + DRAIN_TIMEOUT_S - _now()
        if remaining:
            try:
                await asyncio.wait_for(all_done.wait(), max(0.0, wait))
            except asyncio.TimeoutError:
                pass  # unanswered requests stay None and count as failed
    finally:
        for __, writer in conns:
            writer.close()
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for __, writer in conns:
            try:
                await writer.wait_closed()
            except OSError:
                pass
    return result


def run_open_loop(port: int, offsets: list[float], payloads: list[dict]) -> LoadResult:
    """Send ``payloads[i]`` at ``offsets[i]`` seconds after start.

    Args:
        port: the server's loopback port.
        offsets: send times relative to the start, ascending.
        payloads: request bodies without ``id`` (the index becomes it).
    """
    return asyncio.run(_run(port, offsets, payloads))
