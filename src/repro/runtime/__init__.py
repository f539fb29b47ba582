"""Parallel experiment runtime with content-addressed result caching.

Every experiment is decomposed into *design points* — pure, picklable
``(function, kwargs)`` pairs (:class:`WorkItem`) — and submitted through
a :class:`Runtime`, which fans points out across a process pool and
memoizes each point's result on disk under a content-addressed key
(code fingerprint + function identity + canonicalized kwargs).  Re-runs
and overlapping sweeps are therefore incremental: only never-seen points
execute.

The module-level :func:`execute` routes through a global runtime that
defaults to serial, uncached execution (bit-identical to the historical
inline loops); the CLI's ``repro sweep`` and the benchmark harness
configure workers and the cache via :func:`configure` /
:func:`using_runtime`.

The cache also tiers across machines: :class:`TieredCache` layers a
remote :class:`CacheTier` (usually an :class:`HTTPPeerTier` talking to
a ``repro cache-peer`` node, :class:`CachePeer`) behind the local disk,
with read-through promotion and asynchronous push-on-put — so a fleet
of sweep runners and serve nodes reuse each other's design points, and
every remote failure degrades to a recorded local miss.
"""

from repro.runtime.cache import (
    CacheEntry,
    CacheStats,
    GroupStats,
    ResultCache,
    cache_key,
    canonicalize,
    code_fingerprint,
    fn_identity,
    request_identity,
)
from repro.runtime.peer import CachePeer
from repro.runtime.scheduler import (
    Runtime,
    SweepReport,
    WorkItem,
    configure,
    execute,
    get_runtime,
    set_runtime,
    using_runtime,
)
from repro.runtime.tiers import (
    CacheTier,
    HTTPPeerTier,
    LocalTier,
    SyncReport,
    TieredCache,
    TierUnavailable,
    pull_all,
    push_all,
)

__all__ = [
    "CacheEntry",
    "CachePeer",
    "CacheStats",
    "CacheTier",
    "GroupStats",
    "HTTPPeerTier",
    "LocalTier",
    "ResultCache",
    "Runtime",
    "SweepReport",
    "SyncReport",
    "TierUnavailable",
    "TieredCache",
    "WorkItem",
    "cache_key",
    "canonicalize",
    "code_fingerprint",
    "configure",
    "execute",
    "fn_identity",
    "get_runtime",
    "pull_all",
    "push_all",
    "request_identity",
    "set_runtime",
    "using_runtime",
]
