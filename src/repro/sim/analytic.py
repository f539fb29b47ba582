"""Vectorized whole-layer cycle/event model.

UCNN table statistics are computed from *joint rank histograms* instead
of materializing tables: for each group of G filters and each channel
tile, every stored position is summarized by the tuple of its G canonical
ranks, and all counts the cycle/energy models need (entries, boundaries,
multiplies, chunk early-MACs, skip bubbles, multiplier stalls) are
derivable from the histogram of those tuples.  This matches
:meth:`repro.core.hierarchical.FilterGroupTables.stats` exactly — the
test suite cross-validates the two on randomized layers — while scaling
to ResNet-50-sized layers in milliseconds.

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

#: Filter chunk processed at once when building histograms (memory cap).
_FILTER_BATCH = 128


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


def _joint_histograms(ranks: np.ndarray, num_ranks: int, group_size: int) -> np.ndarray:
    """Histogram joint rank keys.

    Args:
        ranks: ``(F, T, n)`` canonical ranks (F divisible by group_size).
        num_ranks: rank alphabet size (U, with the virtual zero slot).
        group_size: G.

    Returns:
        ``(F/G, T, num_ranks**G)`` int64 histogram.
    """
    f, t, n = ranks.shape
    groups = f // group_size
    keys = np.zeros((groups, t, n), dtype=np.int64)
    grouped = ranks.reshape(groups, group_size, t, n)
    for g in range(group_size):
        keys = keys * num_ranks + grouped[:, g]
    bins = num_ranks**group_size
    offsets = (np.arange(groups * t, dtype=np.int64) * bins).reshape(groups, t, 1)
    flat = (keys + offsets).reshape(-1)
    hist = np.bincount(flat, minlength=groups * t * bins)
    return hist.reshape(groups, t, bins)


def _prefix_skips_closed_form(child_present: np.ndarray, zero_rank: int) -> int:
    """Total pointer skips for one filter level, closed form.

    ``child_present``: (..., U) presence of each child rank within each
    parent block.  Zero (rank U-1) boundaries are exempt, so the skips in
    a block are ``max_nonzero_present + 1 - count_nonzero_present``.
    """
    if zero_rank == 0:
        return 0  # all-zero alphabet: nothing to skip
    nz = child_present[..., :zero_rank]
    any_nz = nz.any(axis=-1)
    count = nz.sum(axis=-1)
    # Highest present non-zero rank per block (argmax over reversed axis).
    max_rank = zero_rank - 1 - np.argmax(nz[..., ::-1], axis=-1)
    skips = np.where(any_nz, max_rank + 1 - count, 0)
    return int(skips.sum())


def _last_filter_bubbles(present: np.ndarray, zero_rank: int) -> int:
    """Skip-entry bubbles for the G-th filter (inline capacity 3).

    ``present``: (..., B, U) presence of the G-th filter's child ranks
    within each (G-1)-prefix block; the zero rank is the last one.  Each
    present non-zero rank whose gap to the previous present rank in its
    block (ranks absent between them, or before it if it is the first)
    exceeds :data:`INLINE_SKIP_CAPACITY` needs ``ceil((gap - cap) / cap)``
    extra entries.
    """
    if zero_rank == 0:
        return 0  # all-zero alphabet: no non-zero rank to charge
    block, rank = np.nonzero(present[..., :zero_rank].reshape(-1, zero_rank))
    previous = np.empty_like(rank)
    previous[:1] = -1
    previous[1:] = np.where(block[1:] == block[:-1], rank[:-1], -1)
    over = np.maximum(0, rank - previous - 1 - INLINE_SKIP_CAPACITY)
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
    """
    zero_rank = num_ranks - 1
    hist = _joint_histograms(ranks, num_ranks, group_size)  # (grp, T, U^G)
    bins = num_ranks**group_size
    all_zero_key = zero_rank * (bins - 1) // (num_ranks - 1) if num_ranks > 1 else 0
    hist[..., all_zero_key] = 0  # positions dropped from the tables
    present = hist > 0

    entries = int(hist.sum())
    key_ranks = np.empty((group_size, bins), dtype=np.int64)
    rem = np.arange(bins, dtype=np.int64)
    for g in range(group_size - 1, -1, -1):
        key_ranks[g] = rem % num_ranks
        rem //= num_ranks

    # Innermost multiplies with chunking: ceil(size/16) per present key
    # whose G-th rank is non-zero; completions count all present keys.
    chunks = _ceil_div(hist, max_group_size)
    innermost_nonzero = key_ranks[group_size - 1] != zero_rank
    multiplies = int(chunks[..., innermost_nonzero].sum())
    inner_completions = int(chunks.sum())

    # Outer-level multiplies: distinct present g-prefixes with non-zero rank.
    macs = present.astype(np.int64) * innermost_nonzero  # per-key MACs at its last entry
    for g in range(group_size - 1):  # levels 1..G-1 (filter index g)
        suffix = num_ranks ** (group_size - 1 - g)
        blocks = present.reshape(present.shape[0], present.shape[1], -1, suffix)
        block_any = blocks.any(axis=-1)
        prefix_rank_nonzero = key_ranks[g].reshape(-1, suffix)[:, 0] != zero_rank
        prefix_rank_nonzero = prefix_rank_nonzero.reshape(block_any.shape[-1])
        multiplies += int((block_any & prefix_rank_nonzero).sum())
        # Level fires at the last present key of each prefix block.
        last_idx = suffix - 1 - np.argmax(blocks[..., ::-1], axis=-1)
        fires = np.zeros_like(blocks)
        grp_i, t_i, b_i = np.nonzero(block_any)
        fires[grp_i, t_i, b_i, last_idx[grp_i, t_i, b_i]] = True
        fires = fires.reshape(present.shape) & present
        macs += fires * prefix_rank_nonzero.repeat(suffix)

    stalls = int(np.maximum(0, macs[present] - num_multipliers).sum())

    # Skip accounting per filter level.
    bubbles = 0
    for g in range(group_size):
        suffix = num_ranks ** (group_size - 1 - g)
        child = present.reshape(present.shape[0], present.shape[1], -1, suffix)
        child_any = child.any(axis=-1)  # (grp, T, U^g * ... ) hmm: blocks x child
        child_any = child_any.reshape(present.shape[0], present.shape[1], -1, num_ranks)
        if g == group_size - 1:
            bubbles += _last_filter_bubbles(child_any, zero_rank)
        else:
            bubbles += _prefix_skips_closed_form(child_any, zero_rank)
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
    # to the histogram statistics.
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
