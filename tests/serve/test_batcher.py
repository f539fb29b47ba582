"""Tests for the micro-batcher: both flush triggers, plus bookkeeping."""

import asyncio

import pytest

from repro.serve import MicroBatcher


def run(coro):
    return asyncio.run(coro)


class TestSizeTrigger:
    def test_flushes_every_max_batch_items(self):
        async def scenario():
            batches = []

            async def flush(batch):
                batches.append(batch)

            batcher = MicroBatcher(flush, max_batch=3, max_delay=60.0)
            for i in range(7):
                await batcher.submit(i)
            full_batches = list(batches)
            leftover = batcher.pending_count()
            await batcher.aclose()
            return full_batches, leftover, batcher

        full_batches, leftover, batcher = run(scenario())
        assert full_batches == [[0, 1, 2], [3, 4, 5]]
        assert leftover == 1
        assert batcher.stats.snapshot()["flushed_on_size"] == 2

    def test_max_batch_one_flushes_immediately(self):
        async def scenario():
            batches = []

            async def flush(batch):
                batches.append(batch)

            batcher = MicroBatcher(flush, max_batch=1, max_delay=60.0)
            await batcher.submit("a")
            await batcher.submit("b")
            await batcher.aclose()
            return batches

        assert run(scenario()) == [["a"], ["b"]]


class TestTimeTrigger:
    def test_partial_batch_flushes_after_max_delay(self):
        async def scenario():
            batches = []

            async def flush(batch):
                batches.append(batch)

            batcher = MicroBatcher(flush, max_batch=100, max_delay=0.02)
            await batcher.submit("a")
            await batcher.submit("b")
            before_delay = list(batches)
            await asyncio.sleep(0.2)
            await batcher.aclose()
            return before_delay, batches, batcher

        before_delay, batches, batcher = run(scenario())
        assert before_delay == []
        assert batches == [["a", "b"]]
        assert batcher.stats.snapshot()["flushed_on_timeout"] == 1
        assert batcher.stats.snapshot()["flushed_on_size"] == 0

    def test_size_trigger_cancels_pending_timer(self):
        async def scenario():
            batches = []

            async def flush(batch):
                batches.append(batch)

            batcher = MicroBatcher(flush, max_batch=2, max_delay=0.02)
            await batcher.submit(1)  # starts the timer
            await batcher.submit(2)  # fills the batch -> size flush
            await asyncio.sleep(0.2)  # timer must not double-flush
            await batcher.aclose()
            return batches, batcher

        batches, batcher = run(scenario())
        assert batches == [[1, 2]]
        assert batcher.stats.snapshot()["flushed_on_size"] == 1
        assert batcher.stats.snapshot()["flushed_on_timeout"] == 0


class TestExplicitFlush:
    def test_flush_now_drains_pending(self):
        async def scenario():
            batches = []

            async def flush(batch):
                batches.append(batch)

            batcher = MicroBatcher(flush, max_batch=100, max_delay=60.0)
            await batcher.submit("x")
            await batcher.flush_now()
            emptied = batcher.pending_count()
            await batcher.flush_now()  # no-op on empty queue
            await batcher.aclose()
            return batches, emptied

        batches, emptied = run(scenario())
        assert batches == [["x"]]
        assert emptied == 0

    def test_aclose_flushes_leftovers(self):
        async def scenario():
            batches = []

            async def flush(batch):
                batches.append(batch)

            batcher = MicroBatcher(flush, max_batch=100, max_delay=60.0)
            await batcher.submit("tail")
            await batcher.aclose()
            return batches

        assert run(scenario()) == [["tail"]]


class TestValidation:
    def test_rejects_bad_bounds(self):
        async def noop(batch):
            pass

        with pytest.raises(ValueError):
            MicroBatcher(noop, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(noop, max_delay=-1.0)
