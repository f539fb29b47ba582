"""Vectorized whole-layer cycle/event model.

UCNN table statistics are counted from each table's *sorted present
keys* instead of materializing tables: for each group of G filters and
each channel tile, every stored position is summarized by the tuple of
its G canonical ranks, read as one key.  A table walks its distinct keys
in sorted order, so all counts the cycle/energy models need (entries,
boundaries, multiplies, chunk early-MACs, skip bubbles, multiplier
stalls) follow from the sorted distinct keys and how many positions hold
each.  A table has at most one key per stored position, so memory stays
linear in the layer's weights for any U and G.  This matches
:meth:`repro.core.hierarchical.FilterGroupTables.stats` exactly — the
test suite cross-validates the two on randomized layers.

Dense (DCNN / DCNN_sp) layers use closed-form counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.buffers import tile_plan
from repro.arch.config import DesignKind, HardwareConfig
from repro.core.activation_groups import canonical_weight_order, rank_by_canonical
from repro.core.hierarchical import INLINE_SKIP_CAPACITY
from repro.core.jump_encoding import min_pointer_bits
from repro.core.model_size import wit_bits_per_entry
from repro.nn.tensor import ConvShape
from repro.sim.events import EventCounts

#: Filters counted per batch (memory cap: a batch's arrays hold a few
#: int64 values per stored position).
_FILTER_BATCH = 128

#: Widest key span counted with one ``np.bincount``, unless the batch has
#: more than a quarter as many positions; wider spans sort.
_BINCOUNT_SPAN = 2**16


@dataclass(frozen=True)
class UcnnLayerAggregate:
    """Per-walk table statistics summed over a layer's tables.

    One "walk" evaluates every (filter-group, channel-tile) table once,
    producing G outputs per group for one spatial position vector.  The
    layer executes ``out_h * ceil(out_w / VW)`` walks.

    Attributes:
        entries: stored iiT entries (union non-zero positions).
        skip_bubbles: explicit skip entries (pipeline bubbles).
        mult_stalls: single-multiplier contention stalls.
        multiplies: MACs dispatched (all levels + chunk early-MACs).
        inner_completions: innermost chunk completions (merge events).
        adds_acc: accumulator adds (entries + (G-1) * inner_completions).
        num_tables: tables built ((K/G) * channel tiles).
        tile_entries: dense entries per full tile (pointer-width basis).
        num_unique: layer U (canonical order length).
        group_size: G.
    """

    entries: int
    skip_bubbles: int
    mult_stalls: int
    multiplies: int
    inner_completions: int
    adds_acc: int
    num_tables: int
    tile_entries: int
    num_unique: int
    group_size: int

    @property
    def cycles_per_walk_total(self) -> int:
        """Lane cycles summed over all tables for one walk."""
        return self.entries + self.skip_bubbles + self.mult_stalls

    @property
    def stored_table_entries(self) -> int:
        """iiT entries incl. skip entries (model-size basis)."""
        return self.entries + self.skip_bubbles


def _ceil_div(a: np.ndarray | int, b: int):
    return -(-a // b)


def _present_keys(
    ranks: np.ndarray, num_ranks: int, group_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct table keys of a batch, with their position counts.

    A stored position's key is ``table * U**G + r_1 * U**(G-1) + ... + r_G``:
    its table index followed by its G filters' canonical ranks as base-U
    digits, so the sorted keys list every table's innermost groups in walk
    order.  Each table's all-zero key (its largest) is dropped.  Spans up
    to ``max(_BINCOUNT_SPAN, 4 * positions)`` are counted with one
    ``np.bincount``; wider ones are sorted.

    Args:
        ranks: ``(F, T, n)`` canonical ranks (F divisible by group_size).
        num_ranks: rank alphabet size U (with the virtual zero slot).
        group_size: G.

    Returns:
        ``(keys, counts)``: sorted int64 keys and their counts.

    Raises:
        ValueError: if the span ``tables * U**G`` overflows int64.
    """
    f, t, n = ranks.shape
    groups = f // group_size
    bins = num_ranks**group_size
    span = groups * t * bins
    if span >= 2**63:
        raise ValueError(
            f"UCNN tables at G = {group_size} over U = {num_ranks} ranks need "
            f"{groups * t} x {num_ranks}**{group_size} keys, past int64")
    grouped = ranks.reshape(groups, group_size, t, n)
    tables = np.arange(groups * t, dtype=np.int64).reshape(groups, t, 1)
    keys = grouped[:, 0] + tables * num_ranks
    for g in range(1, group_size):
        keys *= num_ranks
        keys += grouped[:, g]
    keys = keys.reshape(-1)
    if span <= max(_BINCOUNT_SPAN, 4 * keys.size):
        counts = np.bincount(keys, minlength=span)
        counts[bins - 1 :: bins] = 0
        present = np.flatnonzero(counts)
        return present, counts[present]
    present, counts = np.unique(keys, return_counts=True)
    stored = present % bins != bins - 1
    return present[stored], counts[stored]


def _pointer_skips(children: np.ndarray, num_ranks: int) -> np.ndarray:
    """Weight-pointer skips of one filter level's groups.

    ``children``: the level's sorted distinct groups as keys
    ``parent * U + rank``.  Within a parent group the pointer visits the
    present ranks in increasing order, starting before rank 0, so a group
    of rank ``r`` skips ``r - previous - 1`` weights.  Zero-rank groups
    skip nothing (the "rest is zero" encoding).
    """
    parent, rank = np.divmod(children, num_ranks)
    previous = np.empty_like(rank)
    previous[:1] = -1
    previous[1:] = np.where(parent[1:] == parent[:-1], rank[:-1], -1)
    return np.where(rank != num_ranks - 1, rank - previous - 1, 0)


def _last_filter_bubbles(children: np.ndarray, num_ranks: int) -> int:
    """Skip-entry bubbles for the G-th filter (inline capacity 3).

    ``children``: the G-th filter's sorted distinct groups as keys
    ``parent * U + rank`` (see :func:`_pointer_skips`).  A skip past
    :data:`INLINE_SKIP_CAPACITY` needs ``ceil((skip - cap) / cap)`` extra
    entries.
    """
    over = np.maximum(0, _pointer_skips(children, num_ranks) - INLINE_SKIP_CAPACITY)
    return int(np.sum(_ceil_div(over, INLINE_SKIP_CAPACITY)))


def _batch_table_counts(
    ranks: np.ndarray,
    num_ranks: int,
    group_size: int,
    max_group_size: int,
    num_multipliers: int,
) -> tuple[int, int, int, int, int]:
    """(entries, multiplies, inner_completions, bubbles, stalls) for a batch.

    ``ranks``: (F, T, n) with the zero/virtual-zero rank at num_ranks-1.
    Filter g's groups are the runs of sorted keys sharing their table and
    first g ranks; each group closes (MACs, when its rank is non-zero) at
    its last key.
    """
    keys, counts = _present_keys(ranks, num_ranks, group_size)
    zero_rank = num_ranks - 1
    entries = int(counts.sum())

    # Innermost groups: ceil(size / max_group_size) chunks each; every
    # chunk completes, and MACs when the group's G-th rank is non-zero.
    chunks = _ceil_div(counts, max_group_size)
    inner_completions = int(chunks.sum())
    inner_nonzero = keys % num_ranks != zero_rank
    multiplies = int(chunks[inner_nonzero].sum())
    macs = inner_nonzero.astype(np.int64)  # boundary MACs at each key
    bubbles = _last_filter_bubbles(keys, num_ranks)

    for g in range(group_size - 1):  # outer filters 1..G-1
        prefix = keys // num_ranks ** (group_size - 1 - g)
        last = np.empty(prefix.size, dtype=bool)
        last[-1:] = True
        np.not_equal(prefix[1:], prefix[:-1], out=last[:-1])
        nonzero = prefix % num_ranks != zero_rank
        macs += last & nonzero
        groups = prefix[last]
        multiplies += int(np.count_nonzero(nonzero[last]))
        bubbles += int(_pointer_skips(groups, num_ranks).sum())

    stalls = int(np.maximum(0, macs - num_multipliers).sum())
    return entries, multiplies, inner_completions, bubbles, stalls


def ucnn_layer_aggregate(
    weights: np.ndarray,
    shape: ConvShape,
    config: HardwareConfig,
    canonical: np.ndarray | None = None,
) -> UcnnLayerAggregate:
    """Aggregate UCNN table statistics for one layer.

    Args:
        weights: ``(K, C, R, S)`` integer weight tensor.
        shape: the layer geometry (supplies tiling parameters).
        config: a UCNN design point.
        canonical: layer canonical weight order (derived if omitted).

    Returns:
        an :class:`UcnnLayerAggregate` of per-walk totals.
    """
    if not config.is_ucnn:
        raise ValueError("ucnn_layer_aggregate requires a UCNN config")
    weights = np.asarray(weights, dtype=np.int64)
    k, c, r, s = weights.shape
    if canonical is None:
        canonical = canonical_weight_order(weights)
    has_zero = bool(canonical.size and canonical[-1] == 0)
    num_ranks = int(canonical.size) + (0 if has_zero else 1)  # virtual zero slot
    zero_rank = num_ranks - 1

    plan = tile_plan(shape, config)
    ct, tiles = plan.channel_tile, plan.num_tiles
    g_size = config.group_size

    ranks = rank_by_canonical(weights, canonical)  # (K, C, R, S)
    if tiles * ct != c:  # pad the last channel tile with zero ranks
        pad = np.full((k, tiles * ct - c, r, s), zero_rank, dtype=np.int64)
        ranks = np.concatenate([ranks, pad], axis=1)
    # Tile over channels: (K, T, Ct*R*S) — intra-tile order is irrelevant
    # to the sorted-key statistics.
    ranks_tiled = ranks.reshape(k, tiles, ct * r * s)

    # A trailing partial group (K not divisible by G) is processed at its
    # true size so the deepest filter keeps the inline skip field, exactly
    # as FactorizedConv builds it.
    full = (k // g_size) * g_size
    segments: list[tuple[np.ndarray, int]] = []
    if full:
        segments.append((ranks_tiled[:full], g_size))
    if k > full:
        segments.append((ranks_tiled[full:], k - full))

    entries = multiplies = inner_completions = bubbles = stalls = adds_acc = 0
    for seg_ranks, seg_g in segments:
        batch = max(seg_g, (_FILTER_BATCH // seg_g) * seg_g)
        for start in range(0, seg_ranks.shape[0], batch):
            chunk = seg_ranks[start : start + batch]
            e, m, ic, b, st = _batch_table_counts(
                chunk, num_ranks, seg_g, config.max_group_size, config.num_multipliers
            )
            entries += e
            multiplies += m
            inner_completions += ic
            bubbles += b
            stalls += st
            adds_acc += e + (seg_g - 1) * ic

    return UcnnLayerAggregate(
        entries=entries,
        skip_bubbles=bubbles,
        mult_stalls=stalls,
        multiplies=multiplies,
        inner_completions=inner_completions,
        adds_acc=adds_acc,
        num_tables=_ceil_div(k, g_size) * tiles,
        tile_entries=plan.tile_entries,
        num_unique=int(canonical.size),
        group_size=g_size,
    )


def dense_layer_events(
    shape: ConvShape,
    config: HardwareConfig,
    weight_density: float,
    input_density: float,
) -> EventCounts:
    """Closed-form layer events for DCNN / DCNN_sp.

    DCNN_sp skips multiply energy when either operand is zero but spends
    the same cycles (Figure 11's flat DCNN_sp line).
    """
    positions = shape.out_h * shape.out_w
    filter_slots = _ceil_div(shape.k, config.vk)
    plan = tile_plan(shape, config)
    dense_macs = positions * shape.k * shape.filter_size
    cycles = _ceil_div(positions * filter_slots * shape.filter_size, config.num_pes)
    if config.kind is DesignKind.DCNN_SP:
        multiplies = int(round(dense_macs * weight_density * input_density))
    else:
        multiplies = dense_macs
    return EventCounts(
        cycles=int(cycles),
        multiplies=multiplies,
        adds_acc=0,
        adds_psum=multiplies,
        input_l1_reads=positions * filter_slots * shape.filter_size,
        weight_l1_reads=dense_macs,
        table_bits_read=0,
        psum_accesses=2 * positions * shape.k * plan.num_tiles,
    )


def ucnn_layer_events(
    shape: ConvShape,
    config: HardwareConfig,
    aggregate: UcnnLayerAggregate,
) -> EventCounts:
    """Layer events for a UCNN design from its table aggregate.

    Lane cycles per walk are the stored entries plus skip bubbles and
    multiplier stalls, plus the entries-proportional pipeline drain
    (``config.pipeline_overhead``; see the config docstring).
    """
    walks = shape.out_h * _ceil_div(shape.out_w, config.vw)
    drain = int(round(config.pipeline_overhead * aggregate.entries))
    per_walk_cycles = aggregate.cycles_per_walk_total + drain
    cycles = _ceil_div(walks * per_walk_cycles, config.num_pes)
    entry_bits = min_pointer_bits(aggregate.tile_entries) + wit_bits_per_entry(config.group_size)
    plan_tiles = aggregate.num_tables // max(1, _ceil_div(shape.k, config.group_size))
    return EventCounts(
        cycles=int(cycles),
        multiplies=walks * config.vw * aggregate.multiplies,
        adds_acc=walks * config.vw * aggregate.adds_acc,
        adds_psum=walks * config.vw * aggregate.multiplies,
        input_l1_reads=walks * config.vw * aggregate.entries,
        weight_l1_reads=walks * aggregate.multiplies,
        table_bits_read=walks * aggregate.stored_table_entries * entry_bits,
        psum_accesses=2 * walks * config.vw * shape.k * plan_tiles,
    )


def simulate_layer(
    shape: ConvShape,
    config: HardwareConfig,
    weights: np.ndarray | None = None,
    weight_density: float | None = None,
    input_density: float = 0.35,
    canonical: np.ndarray | None = None,
) -> tuple[EventCounts, UcnnLayerAggregate | None]:
    """Layer events for any design point.

    Args:
        shape: layer geometry.
        config: design point.
        weights: required for UCNN designs; used to derive density for
            dense designs when ``weight_density`` is not given.
        weight_density: non-zero weight fraction (dense designs).
        input_density: activation density (35% default, as in the paper).
        canonical: optional layer canonical order for UCNN tables.

    Returns:
        ``(events, aggregate)`` — aggregate is None for dense designs.
    """
    if config.is_ucnn:
        if weights is None:
            raise ValueError("UCNN simulation requires the weight tensor")
        agg = ucnn_layer_aggregate(weights, shape, config, canonical=canonical)
        return ucnn_layer_events(shape, config, agg), agg
    if weight_density is None:
        if weights is None:
            raise ValueError("dense simulation needs weights or weight_density")
        weights = np.asarray(weights)
        weight_density = float(np.count_nonzero(weights)) / weights.size
    return dense_layer_events(shape, config, weight_density, input_density), None
