"""The shard pool: one single-worker executor per shard.

A *shard* is one worker with its own warm state.  Giving every shard a
dedicated single-worker executor (rather than one N-worker pool) is
what makes the consistent-hash routing meaningful: a key's call always
runs on the same OS process/thread, so per-process memos built
computing that key stay resident for the next request that hashes to
it.  A shard process that dies is replaced by a fresh one on the next
call (its memos start cold).

Two modes:

* ``"process"`` — one :class:`~concurrent.futures.ProcessPoolExecutor`
  per shard.  True parallelism; endpoint functions and kwargs must
  pickle.  The production default.
* ``"thread"`` — one :class:`~concurrent.futures.ThreadPoolExecutor`
  per shard.  No spawn cost and shared memos across shards; right for
  tests, demos, and workloads dominated by GIL-releasing numpy kernels.
"""

from __future__ import annotations

import asyncio
import signal
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

#: Accepted shard pool modes.
MODES = ("process", "thread")


def _ignore_sigint() -> None:
    """Process-shard initializer: Ctrl-C belongs to the server process.

    A foreground Ctrl-C is delivered to the whole process group; without
    this, every shard worker dies mid-call with a KeyboardInterrupt
    traceback instead of letting the pool shut down cleanly.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def run_batch(calls: Sequence[tuple[Callable, Mapping]]) -> list:
    """Execute ``(fn, kwargs)`` calls in order.

    Module-level so the calls pickle into a worker process as one
    submission.

    Returns:
        one ``(ok, value_or_exception)`` pair per call.  Failures are
        captured per call, so an endpoint's exception comes back as a
        value instead of failing the submission.
    """
    outcomes: list[tuple[bool, object]] = []
    for fn, kwargs in calls:
        try:
            outcomes.append((True, fn(**dict(kwargs))))
        except Exception as exc:
            outcomes.append((False, exc))
    return outcomes


class ShardPool:
    """A fixed set of single-worker executors, one per shard.

    Args:
        num_shards: shard count (>= 1).
        mode: ``"process"`` or ``"thread"`` (see module docstring).
    """

    def __init__(self, num_shards: int, mode: str = "process"):
        """Start one single-worker executor per shard.

        Raises:
            ValueError: on ``num_shards < 1`` or an unknown ``mode``.
        """
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.num_shards = num_shards
        self.mode = mode
        self._executors: list[Executor] = [self._new_executor(i) for i in range(num_shards)]

    def _new_executor(self, shard: int) -> Executor:
        if self.mode == "process":
            return ProcessPoolExecutor(max_workers=1, initializer=_ignore_sigint)
        return ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"shard-{shard}")

    async def run_on_shard(self, shard: int, calls: Sequence[tuple[Callable, Mapping]]) -> list:
        """Run ``calls`` on one shard.

        Returns:
            ``(ok, value_or_exception)`` pairs in call order (see
            :func:`run_batch`).

        Raises:
            BrokenProcessPool: the shard's worker process died (killed,
                or an endpoint exited it).  The shard gets a fresh
                process for the calls that follow; this one is not
                retried, since a call that kills its process would kill
                the next one too.
        """
        loop = asyncio.get_running_loop()
        executor = self._executors[shard]
        try:
            return await loop.run_in_executor(executor, run_batch, list(calls))
        except BrokenProcessPool:
            # Every call in flight on the dead process lands here; only
            # the first replaces the executor.
            if self._executors[shard] is executor:
                self._executors[shard] = self._new_executor(shard)
                executor.shutdown(wait=False)
            raise

    def shutdown(self) -> None:
        """Stop every shard executor (waits for in-flight calls)."""
        for executor in self._executors:
            executor.shutdown(wait=True)
