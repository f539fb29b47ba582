"""Closed-loop load generator for ``repro bench-serve``.

*Closed loop*: ``concurrency`` workers each keep exactly one request in
flight — a worker issues the next request only after the previous
response lands.  Offered load therefore follows server speed: while the
server stalls, no new requests go out, so the slow period is sampled by
only ``concurrency`` requests and the latency percentiles read low
(coordinated omission).  Use it for throughput, hit rate and parity;
for latency under offered load, use the open-loop Poisson generator in
``perfbench/openloop.py``.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import time
from dataclasses import dataclass

from repro.fabric.tls import TLSConfig
from repro.serve.client import AsyncServeClient


@dataclass(frozen=True)
class RequestRecord:
    """Outcome of one load-generator request."""

    endpoint: str
    index: int
    ok: bool
    cached: bool
    coalesced: bool
    latency_ms: float
    value: object = None
    error: str | None = None
    shed: bool = False
    priority: str = "normal"
    worker: str | None = None


@dataclass(frozen=True)
class LoadStats:
    """Aggregate metrics of one load-generator pass.

    Attributes:
        requests: total requests issued.
        errors: requests that genuinely failed (``ok: false`` and not
            shed, or dropped on a dead connection).
        shed: requests a fabric front-end refused under overload —
            counted apart from errors because a shed is the admission
            controller doing its job, not a fault.
        seconds: wall-clock duration of the pass.
        throughput_rps: requests per second over the pass.
        hit_rate: fraction of successful requests served from cache.
        coalesced_rate: fraction that piggybacked on an in-flight twin.
        p50_ms / p90_ms / p99_ms / max_ms: latency percentiles over
            completed (non-shed) requests — a shed answers in
            microseconds and would flatter the latency numbers.
        mean_ms: mean latency, same population.
    """

    requests: int
    errors: int
    shed: int
    seconds: float
    throughput_rps: float
    hit_rate: float
    coalesced_rate: float
    p50_ms: float
    p90_ms: float
    p99_ms: float
    max_ms: float
    mean_ms: float


@dataclass(frozen=True)
class LoadResult:
    """Stats plus the per-request records (parity checks read these)."""

    stats: LoadStats
    records: tuple[RequestRecord, ...]


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted list (q in [0, 100])."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def summarize(records: list[RequestRecord], seconds: float) -> LoadStats:
    """Fold request records into a :class:`LoadStats`."""
    latencies = sorted(r.latency_ms for r in records if not r.shed)
    good = [r for r in records if r.ok]
    shed = sum(1 for r in records if r.shed)
    return LoadStats(
        requests=len(records),
        errors=len(records) - len(good) - shed,
        shed=shed,
        seconds=seconds,
        throughput_rps=len(records) / seconds if seconds > 0 else 0.0,
        hit_rate=sum(1 for r in good if r.cached) / len(good) if good else 0.0,
        coalesced_rate=sum(1 for r in good if r.coalesced) / len(good) if good else 0.0,
        p50_ms=percentile(latencies, 50),
        p90_ms=percentile(latencies, 90),
        p99_ms=percentile(latencies, 99),
        max_ms=latencies[-1] if latencies else 0.0,
        mean_ms=sum(latencies) / len(latencies) if latencies else 0.0,
    )


async def run_load_async(
    host: str,
    port: int,
    requests: list[tuple],
    concurrency: int = 4,
    secret: str | None = None,
    tls: TLSConfig | None = None,
    duration: float | None = None,
) -> LoadResult:
    """Run one closed-loop pass from inside an event loop.

    Args:
        host/port: the server to load.
        requests: ``(endpoint, kwargs)`` or ``(endpoint, kwargs,
            priority)`` tuples, issued in order across the worker pool.
        concurrency: worker count; each holds one connection and keeps
            one request in flight.
        secret: shared fabric secret for request signing (default: the
            ``REPRO_FABRIC_SECRET`` environment variable).
        tls: TLS wrap for the connections (default: the
            ``REPRO_FABRIC_TLS_*`` environment).
        duration: when set, ignore the list's length and keep cycling
            it (still closed-loop) until this many seconds have
            elapsed — the sustained-load mode behind ``bench-serve
            --duration``.

    Returns:
        a :class:`LoadResult`; records keep request order indices so
        parity checks can line responses up with the request list.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    if not requests:
        raise ValueError("requests must be non-empty")
    counter = itertools.count()
    deadline = None if duration is None else time.perf_counter() + duration
    records: list[RequestRecord] = []

    def next_item() -> tuple | None:
        """The next (index, endpoint, kwargs, priority), or None: done.

        Single-threaded under the event loop, so the shared counter
        needs no lock.
        """
        index = next(counter)
        if deadline is None:
            if index >= len(requests):
                return None
        elif time.perf_counter() >= deadline:
            return None
        endpoint, kwargs = requests[index % len(requests)][:2]
        priority = requests[index % len(requests)][2] \
            if len(requests[index % len(requests)]) > 2 else None
        return index, endpoint, kwargs, priority

    async def worker() -> None:
        try:
            client = await AsyncServeClient.connect(host, port, secret=secret, tls=tls)
        except Exception as exc:
            # A dead/unreachable server is a *result* (error records),
            # not a crash of the whole pass: drain this worker's share.
            while True:
                item = next_item()
                if item is None:
                    return
                index, endpoint, kwargs, priority = item
                records.append(RequestRecord(
                    endpoint=endpoint, index=index, ok=False, cached=False,
                    coalesced=False, latency_ms=0.0, error=f"connect failed: {exc}",
                    priority=priority or "normal"))
        try:
            while True:
                item = next_item()
                if item is None:
                    return
                index, endpoint, kwargs, priority = item
                t0 = time.perf_counter()
                try:
                    response = await client.send(endpoint, kwargs, priority=priority)
                    records.append(RequestRecord(
                        endpoint=endpoint, index=index, ok=response.ok,
                        cached=response.cached, coalesced=response.coalesced,
                        latency_ms=(time.perf_counter() - t0) * 1000.0,
                        value=response.value, error=response.error,
                        shed=response.shed, priority=priority or "normal",
                        worker=response.worker))
                except Exception as exc:
                    records.append(RequestRecord(
                        endpoint=endpoint, index=index, ok=False, cached=False,
                        coalesced=False,
                        latency_ms=(time.perf_counter() - t0) * 1000.0,
                        error=str(exc), priority=priority or "normal"))
        finally:
            await client.aclose()

    started = time.perf_counter()
    workers = concurrency if duration is not None else min(concurrency, len(requests))
    await asyncio.gather(*(worker() for _ in range(workers)))
    seconds = time.perf_counter() - started
    records.sort(key=lambda r: r.index)
    return LoadResult(stats=summarize(records, seconds), records=tuple(records))


def run_load(
    host: str,
    port: int,
    requests: list[tuple],
    concurrency: int = 4,
    secret: str | None = None,
    tls: TLSConfig | None = None,
    duration: float | None = None,
) -> LoadResult:
    """Synchronous wrapper around :func:`run_load_async`.

    Call from a thread that is *not* running the server's event loop
    (the server runs on its own thread under :class:`ServerHandle`).
    """
    return asyncio.run(
        run_load_async(host, port, requests, concurrency=concurrency, secret=secret,
                       tls=tls, duration=duration))


def default_mix(n: int, scale: str = "smoke") -> list[tuple[str, dict]]:
    """A mixed request list with deliberate key repetition.

    Cycles through a base set of distinct design points, so any pass
    longer than the base set re-requests earlier keys (exercising the
    cache) while still spreading work across shards.

    Args:
        n: number of requests.
        scale: ``"smoke"`` (lenet-only, CI-cheap) or ``"full"`` (adds
            alexnet runtime points and a lenet simulation — heavier
            points that make the warm-vs-cold contrast sharper).

    Returns:
        ``n`` ``(endpoint, kwargs)`` pairs.
    """
    base: list[tuple[str, dict]] = []
    for density in (0.3, 0.5, 0.7, 0.9):
        for group_size in (1, 2, 4):
            base.append(("runtime_point", {
                "network": "lenet", "layer_index": 0,
                "group_size": group_size, "density": density}))
    base.append(("factorize", {"k": 4, "c": 16, "u": 9, "group_size": 2, "density": 0.8}))
    if scale == "full":
        for layer_index in (0, 2, 4):
            for density in (0.4, 0.8):
                base.append(("runtime_point", {
                    "network": "alexnet", "layer_index": layer_index,
                    "group_size": 2, "density": density}))
        base.append(("simulate", {"network": "lenet", "design": "ucnn-u17", "density": 0.5}))
    return [base[i % len(base)] for i in range(n)]
