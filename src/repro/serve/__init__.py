"""Async serving layer on top of the experiment runtime cache.

``repro.serve`` turns the batch reproduction into a long-lived service:
an asyncio JSON-over-TCP server accepts named design-point requests,
answers repeats straight from the content-addressed result cache of
:mod:`repro.runtime`, and sends each miss to one of a pool of worker
shards chosen by consistent-hashing its cache key — so a given key
always lands on the same worker and that worker's in-process memos stay
warm.

The pieces (each its own module):

* :mod:`repro.serve.protocol` — the newline-delimited JSON wire format;
* :mod:`repro.serve.endpoints` — named, JSON-friendly point functions;
* :mod:`repro.serve.router` — consistent-hash key -> shard routing;
* :mod:`repro.serve.shards` — per-shard single-worker executors;
* :mod:`repro.serve.server` — the event loop tying it all together;
* :mod:`repro.serve.client` — sync and pipelining asyncio clients;
* :mod:`repro.serve.loadgen` — the ``repro bench-serve`` load harness.

CLI surface: ``repro serve --workers N --port P`` and ``repro
bench-serve``; see ``docs/api.md`` for the public API and
``docs/architecture.md`` for the request lifecycle.
"""

from repro.serve.client import AsyncServeClient, ServeClient, ServeError
from repro.serve.endpoints import endpoint_names, register, resolve
from repro.serve.loadgen import (
    LoadResult,
    LoadStats,
    RequestRecord,
    default_mix,
    run_load,
    run_load_async,
)
from repro.serve.protocol import ProtocolError, Response, to_jsonable
from repro.serve.router import ShardRouter
from repro.serve.server import ServeConfig, Server, ServerHandle
from repro.serve.shards import ShardPool

__all__ = [
    "AsyncServeClient",
    "LoadResult",
    "LoadStats",
    "ProtocolError",
    "RequestRecord",
    "Response",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "Server",
    "ServerHandle",
    "ShardPool",
    "ShardRouter",
    "default_mix",
    "endpoint_names",
    "register",
    "resolve",
    "run_load",
    "run_load_async",
    "to_jsonable",
]
