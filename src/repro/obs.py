"""Event counters: how every serving component counts what it did.

The serving stack reports its reuse as counted events (cache hits,
coalesced requests, program-cache hits, artifact loads, sheds,
evictions).  Each component keeps them in one :class:`Counters` and
builds its stats reply from :meth:`Counters.snapshot`, adding whatever it
derives (rates, totals) or reads live (gauges) itself.

This module imports nothing from :mod:`repro`, so any layer can use it.
"""

from __future__ import annotations

import threading
from collections.abc import Hashable, Iterable, Mapping


class Counters:
    """A fixed set of named event counts behind one lock.

    Args:
        *names: the plain counters, each starting at zero.
        keyed: counters broken down by a key (a shard, a priority, an
            eviction reason), each mapped to the keys it starts with at
            zero; any other key appears at its first :meth:`inc`.

    :meth:`inc` on a name not declared here raises :class:`KeyError`, so
    a misspelt counter fails at its first event instead of reading zero
    forever.
    """

    def __init__(self, *names: str, keyed: Mapping[str, Iterable[Hashable]] | None = None):
        """Declare the counters; every count starts at zero."""
        self._names = names
        self._keyed = {name: tuple(keys) for name, keys in (keyed or {}).items()}
        self._lock = threading.Lock()
        self.reset()

    def inc(self, name: str, key: Hashable | None = None) -> None:
        """Count one event: under ``name``, or under ``key`` of a keyed ``name``.

        Raises:
            KeyError: ``name`` is undeclared, or a key was given for a
                plain counter (or omitted for a keyed one).
        """
        with self._lock:
            if key is None:
                self._counts[name] += 1
            else:
                by_key = self._by_key[name]
                by_key[key] = by_key.get(key, 0) + 1

    def snapshot(self) -> dict:
        """A fresh plain dict: ``{name: count}``, keyed counters as ``{key: count}``."""
        with self._lock:
            out = dict(self._counts)
            out.update((name, dict(by_key)) for name, by_key in self._by_key.items())
        return out

    def reset(self) -> None:
        """Zero every count; keyed counters keep only their declared keys."""
        with self._lock:
            self._counts = dict.fromkeys(self._names, 0)
            self._by_key = {name: dict.fromkeys(keys, 0) for name, keys in self._keyed.items()}
