"""Time/size-bounded micro-batching for the serve event loop.

Requests that miss the cache are not dispatched one by one: they queue
in a :class:`MicroBatcher`, which flushes either when ``max_batch``
items have accumulated (size trigger) or ``max_delay`` seconds after the
first queued item (time trigger) — whichever comes first.  Batching
amortizes the per-dispatch cost of crossing into a worker process over
every request in the flush, at a bounded latency cost of ``max_delay``.

The batcher is single-loop: every method must be called from the event
loop that created it, which is why no locks are needed — the pending
list only mutates between awaits.
"""

from __future__ import annotations

import asyncio
from collections.abc import Awaitable, Callable

from repro.obs import Counters


class MicroBatcher:
    """Coalesces submitted items into bounded batches.

    Args:
        flush: async callback receiving each flushed batch (a non-empty
            list of items, in submission order).
        max_batch: flush immediately once this many items are pending.
        max_delay: flush this many seconds after the first pending item,
            even if the batch is not full.

    Attributes:
        stats: a :class:`~repro.obs.Counters` of ``flushed_on_size``
            (batches flushed by the size trigger) and
            ``flushed_on_timeout`` (by the time trigger, or an explicit
            :meth:`flush_now`).
    """

    def __init__(
        self,
        flush: Callable[[list], Awaitable[None]],
        max_batch: int = 8,
        max_delay: float = 0.002,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_delay < 0:
            raise ValueError("max_delay must be >= 0")
        self._flush = flush
        self.max_batch = max_batch
        self.max_delay = max_delay
        self.stats = Counters("flushed_on_size", "flushed_on_timeout")
        self._pending: list = []
        self._timer: asyncio.Task | None = None

    def pending_count(self) -> int:
        """Items queued but not yet flushed."""
        return len(self._pending)

    async def submit(self, item: object) -> None:
        """Queue one item; may flush inline when the batch fills."""
        self._pending.append(item)
        if len(self._pending) >= self.max_batch:
            self.stats.inc("flushed_on_size")
            await self._drain()
        elif self._timer is None:
            self._timer = asyncio.ensure_future(self._delayed_flush())

    async def flush_now(self) -> None:
        """Flush whatever is pending without waiting for a trigger."""
        if self._pending:
            self.stats.inc("flushed_on_timeout")
            await self._drain()

    async def aclose(self) -> None:
        """Cancel the timer and flush any remaining items."""
        await self.flush_now()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    async def _delayed_flush(self) -> None:
        try:
            await asyncio.sleep(self.max_delay)
        except asyncio.CancelledError:
            return
        # The size trigger may have raced this timer and emptied the
        # queue; _drain() clears the timer handle either way.
        self._timer = None
        if self._pending:
            self.stats.inc("flushed_on_timeout")
            await self._drain()

    async def _drain(self) -> None:
        batch, self._pending = self._pending, []
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        await self._flush(batch)
