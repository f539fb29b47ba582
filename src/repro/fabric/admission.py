"""Admission control: per-priority token buckets + queue-depth shedding.

A front-end at millions-of-users load has exactly one graceful failure
mode: *shed early, shed cheap, shed the right traffic*.  Refusing a
request at admission costs one JSON line; accepting it costs a worker
round-trip, a slot in every queue along the way, and — under sustained
overload — the p99 of every request behind it.  This module is the
refusal machinery:

* a **token bucket per priority** bounds each class's sustained rate
  (bursts up to the bucket's capacity pass freely, so admission is
  invisible until a class actually exceeds its budget);
* a **queue-depth ladder** sheds by priority as the number of in-flight
  forwarded requests climbs: ``low`` traffic sheds first (at half the
  ceiling by default), then ``normal``, and ``high`` only at the hard
  ceiling — so background traffic degrades to protect interactive p99,
  which is the contract ``tests/fabric`` and ``bench_cluster`` pin.

A shed is reported with a machine-readable reason and surfaces on the
wire as a ``shed`` response (HTTP-503 semantics, ``docs/api.md``); the
client knows immediately that retrying later — not rerouting — is the
correct reaction.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.fabric.auth import PRIORITIES, normalize_priority
from repro.obs import Counters

#: Fraction of ``max_inflight`` at which each priority starts shedding.
DEPTH_LADDER = {"high": 1.0, "normal": 0.75, "low": 0.5}


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/s, ``burst`` capacity.

    Args:
        rate: sustained tokens per second; ``None`` disables the
            bucket (every take succeeds).
        burst: bucket capacity (defaults to one second's worth of
            tokens, minimum 1).

    Thread-safe; time is injectable for tests.
    """

    def __init__(self, rate: float | None, burst: float | None = None,
                 clock=time.monotonic):
        if rate is not None and rate <= 0:
            raise ValueError("rate must be positive (or None to disable)")
        self.rate = rate
        self.burst = max(1.0, burst if burst is not None else (rate or 1.0))
        self._clock = clock
        self._tokens = self.burst
        self._last = clock()
        self._lock = threading.Lock()

    def try_take(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; never blocks."""
        if self.rate is None:
            return True
        with self._lock:
            now = self._clock()
            self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
            self._last = now
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission attempt.

    Attributes:
        admitted: whether the request may proceed (the caller *must*
            pair an admitted request with one :meth:`~AdmissionController.release`).
        priority: the normalized priority the decision applied to.
        reason: shed reason (``"queue-depth"`` / ``"rate"``), ``None``
            when admitted.
    """

    admitted: bool
    priority: str
    reason: str | None = None


class AdmissionController:
    """Admission gate for a fabric front-end.

    Args:
        max_inflight: hard ceiling on concurrently forwarded requests;
            the depth ladder scales from it (``low`` sheds at 50%,
            ``normal`` at 75%, ``high`` at 100% by default).
        rates: optional per-priority token-bucket rates, e.g.
            ``{"low": 50.0}`` — priorities omitted are unmetered.
        depth_ladder: override of :data:`DEPTH_LADDER` fractions.
        clock: injectable time source for the buckets (tests).

    Usage::

        decision = controller.admit("low")
        if not decision.admitted:
            ...                 # answer with a shed response
        try:
            ...                 # forward the request
        finally:
            controller.release()
    """

    def __init__(self, max_inflight: int = 64,
                 rates: dict[str, float] | None = None,
                 depth_ladder: dict[str, float] | None = None,
                 clock=time.monotonic):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.max_inflight = max_inflight
        ladder = dict(DEPTH_LADDER)
        ladder.update(depth_ladder or {})
        self._thresholds = {
            p: max(1, int(round(max_inflight * ladder[p]))) for p in PRIORITIES}
        self._buckets = {
            p: TokenBucket(rate, clock=clock)
            for p, rate in (rates or {}).items() if p in PRIORITIES}
        self._lock = threading.Lock()
        self._inflight = 0
        # Bumped under _lock, so a snapshot's counts and gauge agree.
        self.stats = Counters("shed_queue_depth", "shed_rate",
                              keyed={"admitted": PRIORITIES, "shed": PRIORITIES})

    @property
    def inflight(self) -> int:
        """Currently admitted-but-unreleased requests."""
        with self._lock:
            return self._inflight

    def admit(self, priority: str | None = None) -> AdmissionDecision:
        """Decide one request; pair an admitted one with :meth:`release`."""
        level = normalize_priority(priority)
        bucket = self._buckets.get(level)
        if bucket is not None and not bucket.try_take():
            with self._lock:
                self.stats.inc("shed", level)
                self.stats.inc("shed_rate")
            return AdmissionDecision(False, level, "rate")
        with self._lock:
            if self._inflight >= self._thresholds[level]:
                self.stats.inc("shed", level)
                self.stats.inc("shed_queue_depth")
                return AdmissionDecision(False, level, "queue-depth")
            self._inflight += 1
            self.stats.inc("admitted", level)
        return AdmissionDecision(True, level)

    def release(self) -> None:
        """Return one admitted request's in-flight slot."""
        with self._lock:
            if self._inflight > 0:
                self._inflight -= 1

    def snapshot(self) -> dict:
        """Stats dict for ``_stats``: the counters, shed totals and the live gauge."""
        with self._lock:
            snapshot = self.stats.snapshot()
            snapshot["inflight"] = self._inflight
        shed = sum(snapshot["shed"].values())
        total = shed + sum(snapshot["admitted"].values())
        snapshot["shed_total"] = shed
        snapshot["shed_fraction"] = shed / total if total else 0.0
        return snapshot
