"""Offline compiler: lowering factorized tables into flat table programs.

The per-entry walk of :meth:`FilterGroupTables.execute` is the *semantic*
ground truth for UCNN's datapath, but as a Python loop it is orders of
magnitude slower than the dense matmul it is meant to beat.  This module
lowers each table — offline, once per layer — into a **table program**:
a handful of flat integer arrays that the segment-scan kernel
(:mod:`repro.engine.executor`) evaluates over *all* windows and *all*
filter groups of a layer, one group's table at a time.  A layer has
exactly one program (:attr:`CompiledLayer.program`), whatever runs it.

The lowering rests on one identity.  Within a level-``g`` segment of the
hierarchical traversal, filter ``g``'s weight is constant (the segment is
by construction a run of constant rank), so the walk's running-sum /
MAC-at-boundary structure collapses to

    out[g] = sum over level-g segments of  w_g(segment) * segment_sum

Innermost chunking (``max_group_size``) and the skip-entry machinery only
change *when* partial sums are folded, never their value, so the program
needs just:

* ``gather`` — the concatenated iiT address streams of every group
  (windows are gathered through it in one shot);
* per level, the **segment boundaries** (`seg_starts`) partitioning the
  gathered stream, the **weight schedule** (one weight per segment) and
  the **MAC mask** (segments whose weight is non-zero — the MACs the
  datapath actually dispatches; zero-weight segments multiply by zero and
  exist only so the partition stays exhaustive);
* per level, the **filter reduction boundaries** (`filter_starts`,
  `filter_ids`) that fold per-segment products into per-filter outputs.

Groups that do not reach a level (the ragged last group when ``K % G``)
are covered by *dead segments* — weight-zero segments spanning their
slice — so each level's partition covers the whole concatenated stream.

The executor never sums those partitions one by one: on first
execution a program derives its telescoped scan terms (cached on the
object, never serialized), which rewrite every level's segment sums as
weighted reads of one prefix sum per group of the gathered stream
(see :mod:`repro.engine.executor`).

Compilation is pure bookkeeping: it never re-orders the tables and
reads no event accounting.  The op counts the simulators and the
regress digest report stay on :meth:`FilterGroupTables.stats`, which
the lowering never calls; the test suite pins that compiling a group
leaves them unchanged and that the program's MAC schedule agrees with
them.

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
from typing import TYPE_CHECKING

import numpy as np

from repro.core.activation_groups import canonical_weight_order
from repro.core.hierarchical import FilterGroupTables, build_filter_group_tables
from repro.core.indirection import DEFAULT_MAX_GROUP_SIZE

if TYPE_CHECKING:
    from repro.engine.executor import ScanTerms


@dataclass(frozen=True)
class SegmentPass:
    """One level of the segment scan, fused across all groups.

    Attributes:
        level: hierarchy level g (0-based; level g serves filter g of
            each group that has one).
        seg_starts: segment start offsets into the program's gathered
            stream, strictly ascending, covering it exhaustively.
        weights: the weight MACed at the end of each segment (0 for dead
            coverage segments and zero-weight boundaries).
        mac_mask: ``weights != 0`` — the MACs the datapath dispatches.
        filter_starts: offsets into ``seg_starts`` where each output
            filter's run of segments begins.
        filter_ids: output row written by each filter run.
    """

    level: int
    seg_starts: np.ndarray
    weights: np.ndarray
    mac_mask: np.ndarray
    filter_starts: np.ndarray
    filter_ids: np.ndarray

    @property
    def num_segments(self) -> int:
        """Segments scanned in this pass (including dead coverage)."""
        return int(self.seg_starts.size)


@dataclass(frozen=True)
class TableProgram:
    """A compiled segment-scan program for one or more filter groups.

    Attributes:
        gather: concatenated iiT address streams (indices into a
            flattened window) of every group, traversal order.
        passes: one fused :class:`SegmentPass` per hierarchy level.
        num_filters: total output rows K (sum of group sizes).
        filter_size: flattened window length N every group shares.
        num_groups: filter groups fused into this program.
        key: program-cache key when the program came from the cache.
    """

    gather: np.ndarray
    passes: tuple[SegmentPass, ...]
    num_filters: int
    filter_size: int
    num_groups: int
    key: str | None = None

    def __post_init__(self):
        """Bounds-check every index array once, so execution need not."""
        entries = self.num_entries
        if self.gather.size and not (
            0 <= self.gather.min() and self.gather.max() < self.filter_size
        ):
            raise ValueError(f"gather indices fall outside [0, {self.filter_size})")
        for p in self.passes:
            starts = p.seg_starts
            if p.weights.shape != starts.shape or p.mac_mask.shape != starts.shape:
                raise ValueError(f"pass {p.level}: weights do not match its segments")
            if starts.size and not (
                starts[0] == 0 and starts[-1] < entries and np.all(starts[1:] > starts[:-1])
            ):
                raise ValueError(
                    f"pass {p.level}: seg_starts must rise strictly from 0 within [0, {entries})"
                )
            fs = p.filter_starts
            if fs.shape != p.filter_ids.shape:
                raise ValueError(f"pass {p.level}: filter_starts and filter_ids differ in size")
            if fs.size and not (
                0 <= fs[0] and fs[-1] < starts.size and np.all(fs[1:] > fs[:-1])
                and 0 <= p.filter_ids.min() and p.filter_ids.max() < self.num_filters
            ):
                raise ValueError(f"pass {p.level}: filter_starts or filter_ids out of range")

    @property
    def num_entries(self) -> int:
        """Total gathered entries per window (sum of group table sizes)."""
        return int(self.gather.size)

    @cached_property
    def terms(self) -> ScanTerms:
        """The kernel's telescoped :class:`~repro.engine.executor.ScanTerms`.

        Derived on first execution and kept on the object (never
        serialized); racing first callers compute identical arrays.
        """
        from repro.engine.executor import telescope

        return telescope(self)

    def run(self, windows: np.ndarray) -> np.ndarray:
        """Execute over ``(n, N)`` integer windows; returns ``(K, n)``."""
        from repro.engine.executor import execute_program

        return execute_program(self, windows)

    def run_window(self, window: np.ndarray) -> np.ndarray:
        """Execute over one flattened window; returns ``(K,)``."""
        from repro.engine.executor import execute_program

        window = np.asarray(window)
        return execute_program(self, window.reshape(1, -1))[:, 0]

    def describe(self) -> str:
        """Human-readable one-glance summary (examples/debugging)."""
        lines = [
            f"TableProgram: {self.num_groups} group(s), {self.num_filters} filter(s), "
            f"{self.num_entries} gathered entries over windows of {self.filter_size}"
        ]
        for p in self.passes:
            lines.append(
                f"  pass level {p.level}: {p.num_segments} segments, "
                f"{int(p.mac_mask.sum())} MACs, {p.filter_ids.size} filter(s)"
            )
        return "\n".join(lines)


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
        every network lowered from this layer shares it and its cached
        :attr:`TableProgram.terms`.  Racing first callers build
        identical programs; either may win.
        """
        return compile_layer(self.groups, key=self.key)


def _segment_starts(boundary_idx: np.ndarray) -> np.ndarray:
    """Segment start offsets from boundary (segment *end*) indices."""
    starts = np.empty(boundary_idx.size, dtype=np.int64)
    if boundary_idx.size:
        starts[0] = 0
        starts[1:] = boundary_idx[:-1] + 1
    return starts


def compile_layer(groups: Sequence[FilterGroupTables], key: str | None = None) -> TableProgram:
    """Lower a sequence of filter-group tables into one fused program.

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
    offsets = np.zeros(len(groups), dtype=np.int64)
    np.cumsum([t.num_entries for t in groups[:-1]], out=offsets[1:])
    filter_offsets = np.zeros(len(groups), dtype=np.int64)
    np.cumsum([t.num_filters for t in groups[:-1]], out=filter_offsets[1:])
    num_filters = int(sum(t.num_filters for t in groups))
    if any(t.num_entries for t in groups):
        gather = np.concatenate([t.iit for t in groups if t.num_entries]).astype(np.int64)
    else:
        gather = np.zeros(0, dtype=np.int64)

    passes: list[SegmentPass] = []
    max_levels = max(t.num_filters for t in groups)
    for level in range(max_levels):
        starts_parts: list[np.ndarray] = []
        weight_parts: list[np.ndarray] = []
        filter_starts: list[int] = []
        filter_ids: list[int] = []
        pos = 0
        for gi, tables in enumerate(groups):
            if tables.num_entries == 0:
                continue  # zero-width slice: nothing to cover, outputs stay 0
            off = int(offsets[gi])
            if tables.num_filters > level:
                boundary_idx = np.flatnonzero(tables.transitions[level])
                starts = _segment_starts(boundary_idx) + off
                weights = tables.filters[level, tables.iit[boundary_idx]].astype(np.int64)
                filter_starts.append(pos)
                filter_ids.append(int(filter_offsets[gi]) + level)
                starts_parts.append(starts)
                weight_parts.append(weights)
                pos += starts.size
            else:
                # Dead coverage: this group has no filter at this level,
                # but the reduceat partition must still span its slice.
                # Weight 0 makes its contribution vanish exactly.
                starts_parts.append(np.array([off], dtype=np.int64))
                weight_parts.append(np.zeros(1, dtype=np.int64))
                pos += 1
        if not filter_ids:
            continue
        weights = np.concatenate(weight_parts)
        passes.append(
            SegmentPass(
                level=level,
                seg_starts=np.concatenate(starts_parts),
                weights=weights,
                mac_mask=weights != 0,
                filter_starts=np.asarray(filter_starts, dtype=np.int64),
                filter_ids=np.asarray(filter_ids, dtype=np.int64),
            )
        )
    return TableProgram(
        gather=gather,
        passes=tuple(passes),
        num_filters=num_filters,
        filter_size=filter_size,
        num_groups=len(groups),
        key=key,
    )


def compile_tables(tables: FilterGroupTables, key: str | None = None) -> TableProgram:
    """Lower one filter group's tables into a program (rows = G)."""
    return compile_layer([tables], key=key)


# ----------------------------------------------------------------------
# Program cache
# ----------------------------------------------------------------------

_CACHE: OrderedDict[str, object] = OrderedDict()
_CACHE_LOCK = threading.RLock()
_MAX_CACHED_PROGRAMS = 128
_HITS = 0
_MISSES = 0
_ARTIFACT_HITS = 0

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


def _fingerprint(*arrays: np.ndarray) -> str:
    """SHA-256 over shape, dtype, and bytes of the given arrays."""
    digest = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        digest.update(repr(arr.shape).encode())
        digest.update(str(arr.dtype).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def weights_fingerprint(weights: np.ndarray) -> str:
    """Content fingerprint of a weight tensor (cache key component)."""
    return _fingerprint(np.asarray(weights))


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


def table_program_key(tables: FilterGroupTables) -> str:
    """Cache key of one group's program: ``tables:m<M>:<sha256>``."""
    return f"tables:m{tables.max_group_size}:{_fingerprint(tables.filters, tables.canonical)}"


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
    event and receive the owner's object, counted as hits.  ``_MISSES``
    therefore equals the number of compiles actually performed.

    The owner builds outside the lock (builds recurse: a fused network
    build compiles its layers through this same function), consulting
    the artifact tier first — a deserialized artifact counts as an
    ``artifact_hit``, not a miss — and offering every fresh build back
    to the tier.  If the owner's build raises, its waiters wake, and
    one of them retries as the new owner.
    """
    global _HITS, _MISSES, _ARTIFACT_HITS
    while True:
        with _CACHE_LOCK:
            hit = _CACHE.get(key)
            if hit is not None:
                _CACHE.move_to_end(key)
                _HITS += 1
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
            with _CACHE_LOCK:
                _HITS += 1
            return flight.value
        tier = _ARTIFACT_TIER
        try:
            value = tier.fetch(key) if tier is not None else None
            from_artifact = value is not None
            if not from_artifact:
                with _CACHE_LOCK:
                    _MISSES += 1  # committed to an actual compile
                value = build()
        except BaseException as exc:
            flight.error = exc
            with _CACHE_LOCK:
                _INFLIGHT.pop(key, None)
            flight.event.set()
            raise
        with _CACHE_LOCK:
            if from_artifact:
                _ARTIFACT_HITS += 1
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


def table_program_for(tables: FilterGroupTables) -> TableProgram:
    """The memoized compiled program of one filter group's tables."""
    key = table_program_key(tables)
    return _cached(key, lambda: compile_tables(tables, key=key))


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


def seed_program_cache(key: str, program: object) -> bool:
    """Install a deserialized program under ``key`` without counters.

    The warm-start path (:meth:`ProgramStore.prewarm`) uses this to
    preload the cache before traffic; subsequent lookups are plain
    hits.  Returns ``False`` when the key is already cached (the
    existing object wins, preserving identity for live callers).
    """
    with _CACHE_LOCK:
        if key in _CACHE:
            return False
        _insert_locked(key, program)
        return True


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
            "hits": _HITS,
            "misses": _MISSES,
            "artifact_hits": _ARTIFACT_HITS,
            "inflight": len(_INFLIGHT),
            "max": _MAX_CACHED_PROGRAMS,
        }


def clear_program_cache() -> None:
    """Drop every cached program and reset counters (tests / memory)."""
    global _HITS, _MISSES, _ARTIFACT_HITS
    with _CACHE_LOCK:
        _CACHE.clear()
        _HITS = 0
        _MISSES = 0
        _ARTIFACT_HITS = 0
