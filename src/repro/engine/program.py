"""Offline compiler: lowering factorized tables into flat table programs.

The per-entry walk of :meth:`FilterGroupTables.execute` is the *semantic*
ground truth for UCNN's datapath, but as a Python loop it is orders of
magnitude slower than the dense matmul it is meant to beat.  This module
lowers a layer's tables — offline, once per layer — into a **table
program**: the flat integer arrays that the segment-scan kernel
(:mod:`repro.engine.executor`) reads as it walks each filter group's
table over *all* windows of a layer.  A layer has exactly one program
(:attr:`CompiledLayer.program`), whatever runs it.

The lowering rests on one identity.  Let ``S[i]`` be the running sum of
a group's first ``i + 1`` gathered activations (the PE's accumulator,
restarted at each group).  Filter ``L``'s level-``L`` boundaries are the
entries ``e_0 < ... < e_m`` whose ``transitions[L]`` bit is set (``e_m``
is the group's last entry), and its weight over the segment ending at
``e_i`` is the constant ``w_i = filters[L, iit[e_i]]``, so the walk's
MAC-at-boundary structure telescopes:

    out[L] = sum_i w_i * (S[e_i] - S[e_{i-1}])
           = sum_i (w_i - w_{i+1}) * S[e_i]        (w_{m+1} = 0)

One *term* ``coefs[t] * S[cols[t]]`` per boundary whose weight differs
from the next one; a filter's terms form its *run*.  Innermost chunking
(``max_group_size``) and the skip-entry machinery only change *when*
partial sums are folded, never their value, so the program ignores
them.  The program holds exactly what the kernel reads:

* ``gather`` — the concatenated iiT address streams of the non-empty
  groups, with ``group_entries`` fenceposting each group's slice;
* ``cols`` / ``coefs`` — each term's prefix column and coefficient,
  ``run_starts`` fenceposting each run's terms, ``rows`` the output row
  of each run and ``group_runs`` fenceposting each group's runs.

Filters with no terms (all-zero filters, and every filter of a group
with no entries) are the program's :attr:`TableProgram.idle_rows`,
which execution writes as 0.

Compilation is pure bookkeeping: it never re-orders the tables and
reads no event accounting.  The op counts the simulators and the
regress digest report stay on :meth:`FilterGroupTables.stats`, which
the lowering never calls; the test suite pins that compiling a group
leaves them unchanged and that its terms stay within the walk's MACs.

Programs are memoized in a process-wide cache keyed by
``(weights fingerprint, G, max_group_size, layer_canonical)`` (schema in
``docs/api.md``), so sweeps that rebuild the same layer do not re-lower.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.activation_groups import canonical_weight_order
from repro.core.hierarchical import (
    DEFAULT_MAX_GROUP_SIZE,
    FilterGroupTables,
    build_filter_group_tables,
)
from repro.obs import Counters

#: The program arrays ``ucnn_scan`` reads, all cast to int64 on construction.
KERNEL_ARRAYS = ("gather", "cols", "coefs", "run_starts", "rows", "group_entries", "group_runs")


@dataclass(frozen=True)
class TableProgram:
    """A layer's filter groups compiled into the scan kernel's terms.

    Attributes:
        gather: concatenated iiT address streams (indices into a
            flattened window) of every non-empty group, traversal order.
        cols: column of its group's prefix ``S`` each term reads,
            ascending within each run.
        coefs: coefficient of each term.
        run_starts: fenceposts of each run's terms (one run per filter
            with terms).
        rows: output row written by each run, group after group.
        group_entries: fenceposts of each non-empty group's slice of
            ``gather``.
        group_runs: fenceposts of each non-empty group's runs.
        num_filters: total output rows K (sum of group sizes).
        filter_size: flattened window length N every group shares.
        num_groups: filter groups compiled into this program (empty
            ones included).
        key: program-cache key when the program came from the cache.

    Construction casts the seven arrays to int64 (the kernel reads
    8-byte words) and checks every index in them, so a program that
    exists, compiled or decoded, is safe for the unchecked kernel.
    """

    gather: np.ndarray
    cols: np.ndarray
    coefs: np.ndarray
    run_starts: np.ndarray
    rows: np.ndarray
    group_entries: np.ndarray
    group_runs: np.ndarray
    num_filters: int
    filter_size: int
    num_groups: int
    key: str | None = None

    def __post_init__(self):
        """Cast the kernel's arrays to int64 and bounds-check every index once."""
        for name in KERNEL_ARRAYS:
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
            object.__setattr__(self, name, arr)
        gather, entries = self.gather, self.group_entries
        if gather.size and not (0 <= gather.min() and gather.max() < self.filter_size):
            raise ValueError(f"gather indices fall outside [0, {self.filter_size})")
        _check_fenceposts("group_entries", entries, gather.size, strict=True)
        runs = self.rows.size
        if self.group_runs.size != entries.size:
            raise ValueError(
                f"group_runs has {self.group_runs.size} fenceposts, group_entries {entries.size}"
            )
        _check_fenceposts("group_runs", self.group_runs, runs, strict=False)
        if self.run_starts.size != runs + 1:
            raise ValueError(f"run_starts has {self.run_starts.size} fenceposts for {runs} run(s)")
        _check_fenceposts("run_starts", self.run_starts, self.cols.size, strict=True)
        if self.coefs.shape != self.cols.shape:
            raise ValueError(f"coefs has {self.coefs.size} terms, cols {self.cols.size}")
        if runs and not (0 <= self.rows.min() and self.rows.max() < self.num_filters):
            raise ValueError(f"rows fall outside [0, {self.num_filters})")
        group = np.repeat(np.arange(entries.size - 1), np.diff(self.group_runs))
        width = np.repeat(np.diff(entries)[group], np.diff(self.run_starts))
        outside = (self.cols < 0) | (self.cols >= width)
        if outside.any():
            t = int(np.flatnonzero(outside)[0])
            raise ValueError(
                f"term {t} reads column {self.cols[t]}, outside its group of {width[t]} entries"
            )

    @property
    def num_entries(self) -> int:
        """Total gathered entries per window (sum of group table sizes)."""
        return int(self.gather.size)

    @cached_property
    def idle_rows(self) -> np.ndarray:
        """Output rows no run writes; execution writes them as 0."""
        return np.setdiff1d(np.arange(self.num_filters), self.rows)

    def describe(self) -> str:
        """Human-readable one-glance summary (examples/debugging)."""
        return (
            f"TableProgram: {self.num_groups} group(s), {self.num_filters} filter(s), "
            f"{self.num_entries} gathered entries over windows of {self.filter_size}\n"
            f"  {self.rows.size} run(s) of {self.cols.size} term(s), "
            f"{self.idle_rows.size} idle row(s)"
        )


def _check_fenceposts(name: str, posts: np.ndarray, end: int, strict: bool) -> None:
    """Raise ``ValueError`` unless ``posts`` rises from 0 to ``end``."""
    steps = np.diff(posts)
    if not (
        posts.size and posts[0] == 0 and posts[-1] == end
        and (steps > 0 if strict else steps >= 0).all()
    ):
        rises = "rise strictly" if strict else "rise"
        raise ValueError(f"{name} must {rises} from 0 to {end}")


@dataclass(frozen=True)
class CompiledLayer:
    """A layer's filter-group tables, lowered into its program on first read.

    Attributes:
        groups: the hierarchical tables, one per filter group.
        canonical: the layer-wide canonical weight order (None when each
            group used its own values).
        key: the program-cache key this layer is stored under.
    """

    groups: tuple[FilterGroupTables, ...]
    canonical: np.ndarray | None
    key: str

    @cached_property
    def program(self) -> TableProgram:
        """The layer's one :class:`TableProgram`, over every group.

        Built on first read and kept on the object (never serialized):
        every driver runs it — fused network steps, ``FactorizedConv``
        and :func:`~repro.engine.executor.execute_program` callers — so
        every network lowered from this layer shares it.  Racing first
        callers build identical programs; either may win.
        """
        return compile_layer(self.groups, key=self.key)


def compile_layer(groups: Sequence[FilterGroupTables], key: str | None = None) -> TableProgram:
    """Lower a sequence of filter-group tables into one program.

    Each filter's run holds one term per level boundary whose weight
    differs from the next boundary's (the identity in the module
    docstring), its columns group-local and ascending.

    Args:
        groups: the layer's :class:`FilterGroupTables`, all built over
            the same flattened window length.
        key: optional cache key recorded on the program.

    Returns:
        a :class:`TableProgram` whose executor output row ``k`` is the
        dot product of the layer's ``k``-th filter (groups concatenated
        in order).

    Raises:
        ValueError: if the groups disagree on filter size.
    """
    groups = tuple(groups)
    if not groups:
        raise ValueError("compile_layer needs at least one filter group")
    filter_size = groups[0].filter_size
    for tables in groups:
        if tables.filter_size != filter_size:
            raise ValueError(
                f"filter size mismatch across groups: {tables.filter_size} != {filter_size}"
            )
    first_rows = np.cumsum([0] + [t.num_filters for t in groups])
    live = [(int(row), t) for row, t in zip(first_rows, groups) if t.num_entries]
    empty = np.zeros(0, dtype=np.int64)
    cols, coefs, rows = [empty], [empty], [empty]
    for first_row, tables in live:
        level, entry = np.nonzero(tables.transitions)  # filter by filter, entries ascending
        weight = tables.filters[level, tables.iit[entry]].astype(np.int64)
        following = np.append(weight[1:], 0)
        following[np.append(level[1:] != level[:-1], True)] = 0  # w_{m+1} = 0
        coef = weight - following
        keep = coef != 0
        cols.append(entry[keep])
        coefs.append(coef[keep])
        rows.append(level[keep] + first_row)
    term_rows = np.concatenate(rows)
    run_starts = np.append(np.flatnonzero(np.diff(term_rows, prepend=-1)), term_rows.size)
    run_rows = term_rows[run_starts[:-1]]
    run_group = np.searchsorted([row for row, __ in live], run_rows, side="right") - 1
    return TableProgram(
        gather=np.concatenate([empty] + [t.iit for __, t in live]),
        cols=np.concatenate(cols),
        coefs=np.concatenate(coefs),
        run_starts=run_starts,
        rows=run_rows,
        group_entries=np.cumsum([0] + [t.num_entries for __, t in live]),
        group_runs=np.searchsorted(run_group, np.arange(len(live) + 1)),
        num_filters=int(first_rows[-1]),
        filter_size=filter_size,
        num_groups=len(groups),
        key=key,
    )


# ----------------------------------------------------------------------
# Program cache
# ----------------------------------------------------------------------

_CACHE: OrderedDict[str, object] = OrderedDict()
_CACHE_LOCK = threading.RLock()
_MAX_CACHED_PROGRAMS = 128
_COUNTS = Counters("hits", "misses", "artifact_hits")

#: Read-through artifact tier (see ``repro.engine.artifacts``): an
#: object with ``fetch(key) -> program | None`` and ``offer(key,
#: program) -> None``.  Consulted by the single-flight owner before
#: compiling; offered every fresh build for background persistence.
#: ``None`` (the default) keeps the cache purely in-process.
_ARTIFACT_TIER = None


class _InFlight:
    """One in-progress build: waiters block on ``event``, owner fills it."""

    __slots__ = ("event", "value", "error")

    def __init__(self):
        self.event = threading.Event()
        self.value: object | None = None
        self.error: BaseException | None = None


_INFLIGHT: dict[str, _InFlight] = {}


def weights_fingerprint(weights: np.ndarray) -> str:
    """Content fingerprint of a weight tensor (cache key component).

    SHA-256 over the tensor's shape, dtype and bytes.
    """
    arr = np.ascontiguousarray(weights)
    digest = hashlib.sha256()
    digest.update(repr(arr.shape).encode())
    digest.update(str(arr.dtype).encode())
    digest.update(arr.tobytes())
    return digest.hexdigest()


def layer_program_key(
    weights: np.ndarray,
    group_size: int,
    max_group_size: int,
    layer_canonical: bool,
) -> str:
    """Cache key of a lowered layer: ``layer:g<G>:m<M>:c<0|1>:<sha256>``."""
    return (
        f"layer:g{group_size}:m{max_group_size}:c{int(layer_canonical)}:"
        f"{weights_fingerprint(weights)}"
    )


def _insert_locked(key: str, value: object) -> None:
    """Insert ``value`` under ``key`` and trim the LRU (lock held)."""
    _CACHE[key] = value
    _CACHE.move_to_end(key)
    while len(_CACHE) > _MAX_CACHED_PROGRAMS:
        _CACHE.popitem(last=False)


def _cached(key: str, build: Callable[[], object]) -> object:
    """Memoize ``build()`` under ``key``, single-flighted per key.

    Concurrent misses on the same key used to race past the lock and
    compile N times, handing different (if equivalent) objects to
    different callers — violating the ``compiled_layer_for`` contract
    that identical inputs return *the same object*.  Now exactly one
    caller (the owner) builds; the others wait on a per-key in-flight
    event and receive the owner's object, counted as hits.  ``misses``
    therefore equals the number of compiles actually performed.

    The owner builds outside the lock (builds recurse: a fused network
    build compiles its layers through this same function), consulting
    the artifact tier first — a deserialized artifact counts as an
    ``artifact_hit``, not a miss — and offering every fresh build back
    to the tier.  If the owner's build raises, its waiters wake, and
    one of them retries as the new owner.
    """
    while True:
        with _CACHE_LOCK:
            hit = _CACHE.get(key)
            if hit is not None:
                _CACHE.move_to_end(key)
                _COUNTS.inc("hits")
                return hit
            flight = _INFLIGHT.get(key)
            if flight is None:
                flight = _INFLIGHT[key] = _InFlight()
                owner = True
            else:
                owner = False
        if not owner:
            flight.event.wait()
            if flight.error is not None:
                continue  # owner failed; retry (possibly as the new owner)
            _COUNTS.inc("hits")
            return flight.value
        tier = _ARTIFACT_TIER
        try:
            value = tier.fetch(key) if tier is not None else None
            from_artifact = value is not None
            if not from_artifact:
                _COUNTS.inc("misses")  # committed to an actual compile
                value = build()
        except BaseException as exc:
            flight.error = exc
            with _CACHE_LOCK:
                _INFLIGHT.pop(key, None)
            flight.event.set()
            raise
        with _CACHE_LOCK:
            if from_artifact:
                _COUNTS.inc("artifact_hits")
            _insert_locked(key, value)
            _INFLIGHT.pop(key, None)
        flight.value = value
        flight.event.set()
        if tier is not None and not from_artifact:
            tier.offer(key, value)
        return value


def compiled_layer_for(
    weights: np.ndarray,
    group_size: int = 1,
    max_group_size: int = DEFAULT_MAX_GROUP_SIZE,
    layer_canonical: bool = True,
) -> CompiledLayer:
    """Factorize a whole layer into its filter-group tables, memoized.

    Args:
        weights: ``(K, C, R, S)`` or ``(K, N)`` integer weight tensor.
        group_size: G, filters per shared table.
        max_group_size: innermost chunk limit (Section IV-B).
        layer_canonical: key every group to the layer-wide canonical
            weight order (shared streamed weight buffer).

    Returns:
        the cached :class:`CompiledLayer` for this exact configuration;
        repeated calls with identical weights return the same object,
        so sweeps never re-lower a layer they have already seen.

    Raises:
        ValueError: on non-integer weights, bad shapes, or ``group_size
        < 1``.
    """
    weights = np.asarray(weights)
    if weights.dtype.kind not in "iu":
        raise ValueError(
            f"engine weights must be integers (got dtype {weights.dtype}); quantize first"
        )
    if weights.ndim == 4:
        flat = weights.reshape(weights.shape[0], -1)
    elif weights.ndim == 2:
        flat = weights
    else:
        raise ValueError("weights must be (K, C, R, S) or (K, N)")
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    flat = flat.astype(np.int64, copy=False)
    key = layer_program_key(flat, group_size, max_group_size, layer_canonical)

    def build() -> CompiledLayer:
        """Factorize the groups (cache-miss path); lowering waits for a reader."""
        canonical = canonical_weight_order(flat) if layer_canonical else None
        groups = tuple(
            build_filter_group_tables(
                flat[start : start + group_size],
                canonical=canonical,
                max_group_size=max_group_size,
            )
            for start in range(0, flat.shape[0], group_size)
        )
        return CompiledLayer(groups=groups, canonical=canonical, key=key)

    return _cached(key, build)


def set_artifact_tier(tier: object | None) -> object | None:
    """Install the read-through artifact tier; returns the previous one.

    ``tier`` must expose ``fetch(key) -> program | None`` and
    ``offer(key, program) -> None`` (see
    :class:`repro.engine.artifacts.ProgramArtifactTier`).  Pass ``None``
    to detach and return to a purely in-process cache.
    """
    global _ARTIFACT_TIER
    with _CACHE_LOCK:
        previous = _ARTIFACT_TIER
        _ARTIFACT_TIER = tier
    return previous


def get_artifact_tier() -> object | None:
    """The currently installed artifact tier (``None`` when detached)."""
    return _ARTIFACT_TIER


def cached_programs() -> dict[str, object]:
    """Snapshot of the process program cache (``key -> program``)."""
    with _CACHE_LOCK:
        return dict(_CACHE)


def program_cache_info() -> dict:
    """Program-cache counters.

    ``hits`` counts in-process cache hits (including single-flight
    waiters served the owner's build), ``misses`` counts actual
    compiles, ``artifact_hits`` counts misses satisfied by a
    deserialized artifact instead of a compile, and ``inflight`` is the
    number of builds currently executing.
    """
    with _CACHE_LOCK:
        return {
            "entries": len(_CACHE),
            **_COUNTS.snapshot(),
            "inflight": len(_INFLIGHT),
            "max": _MAX_CACHED_PROGRAMS,
        }


def clear_program_cache() -> None:
    """Drop every cached program and reset counters (tests / memory)."""
    with _CACHE_LOCK:
        _CACHE.clear()
        _COUNTS.reset()
