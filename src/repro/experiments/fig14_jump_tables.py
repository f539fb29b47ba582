"""Figure 14 — jump-encoded indirection tables: size vs perf overhead.

Section IV-C compresses the iiT by storing each entry "as a jump,
relative to the last activation sharing the same weight": inside an
activation group addresses ascend, so entries become small unsigned
forward jumps of ``w`` bits; the first entry of each (innermost) group
re-anchors with an absolute pointer.  Gaps wider than ``2^w - 1`` insert
hop entries — one pipeline bubble each — so narrowing ``w`` trades model
size against performance, the trade-off Figure 14 sweeps on the
INQ-trained ResNet for G in {1, 2}.

Anchor/hop statistics depend on the actual address sequences, so this
experiment *builds* tables on a deterministic sample of (filter group,
channel tile) tables per layer and scales the measured per-entry ratios
(documented sampled estimator; exact when the sample covers all tables).

Expected shape (paper): G=1 drops ~3 bits/weight (11 -> 8) for ~2%
overhead; G=2 drops ~1 bit (6 -> 5) at negligible cost; narrower widths
blow up quickly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.arch.buffers import tile_plan
from repro.core.activation_groups import canonical_weight_order
from repro.core.hierarchical import FilterGroupTables, build_filter_group_tables
from repro.core.jump_encoding import grouped_jump_stats, min_pointer_bits
from repro.core.model_size import ModelSizeBreakdown, ucnn_model_size, wit_bits_per_entry
from repro.core.seeding import stable_rng
from repro.experiments.common import (
    inq_weight_provider,
    network_shapes,
    ucnn_config_for_group,
)
from repro.runtime import WorkItem, execute
from repro.sim.analytic import ucnn_layer_aggregate

PAPER_JUMP_WIDTHS = (2, 3, 4, 5, 6, 8)


@dataclass(frozen=True)
class JumpPoint:
    """One (G, jump width) point of Figure 14.

    Attributes:
        group_size: G.
        jump_bits: provisioned jump width (None = absolute pointers).
        bits_per_weight: resulting model size.
        perf_overhead: cycles relative to the pointer-mode baseline
            (>= 1.0).
    """

    group_size: int
    jump_bits: int | None
    bits_per_weight: float
    perf_overhead: float


@dataclass(frozen=True)
class Figure14Result:
    """All sweep points."""

    points: tuple[JumpPoint, ...]

    def series(self, group_size: int) -> list[JumpPoint]:
        """Points for one G, pointer mode first then widest jumps."""
        pts = [p for p in self.points if p.group_size == group_size]
        return sorted(pts, key=lambda p: (p.jump_bits is not None, -(p.jump_bits or 99)))

    def format_rows(self) -> list[tuple]:
        """(G, jump bits, bits/weight, perf overhead) rows."""
        return [
            (p.group_size, p.jump_bits if p.jump_bits is not None else "ptr",
             p.bits_per_weight, p.perf_overhead)
            for p in self.points
        ]


#: Sampled (filter group, channel tile) tables per layer and G.
MAX_SAMPLED_TABLES = 12


def _sampled_tables(weights: np.ndarray, shape, config) -> tuple[FilterGroupTables, ...]:
    """A deterministic sample of one layer's non-empty tables, each checked once.

    Every sampled table is also *executed* — compiled through
    :mod:`repro.engine` and cross-checked against the dense reference on
    a seeded window — so the sampled estimator can never be skewed by a
    silently malformed table.  Built once per (layer, G); every jump
    width reuses the sample.
    """
    from repro.sim.functional import crosscheck_tables

    k, c, r, s = weights.shape
    plan = tile_plan(shape, config)
    ct, tiles = plan.channel_tile, plan.num_tiles
    wpad = np.zeros((k, ct * tiles, r, s), dtype=np.int64)
    wpad[:, :c] = weights
    tiled = wpad.reshape(k, tiles, ct * r * s)
    g = config.group_size
    groups = max(1, k // g)
    rng = stable_rng("fig14-sample", shape.name, g)
    pairs = [(gi, ti) for gi in range(groups) for ti in range(tiles)]
    if len(pairs) > MAX_SAMPLED_TABLES:
        chosen = rng.choice(len(pairs), size=MAX_SAMPLED_TABLES, replace=False)
        pairs = [pairs[i] for i in chosen]
    canonical = canonical_weight_order(weights)
    sampled = []
    for gi, ti in pairs:
        tables = build_filter_group_tables(tiled[gi * g : (gi + 1) * g, ti, :], canonical=canonical)
        if tables.num_entries == 0:
            continue
        crosscheck_tables(tables, rng.integers(-16, 17, size=tables.filter_size), lane=False)
        sampled.append(tables)
    return tuple(sampled)


def _jump_ratios(
    sampled: tuple[FilterGroupTables, ...], width_bits: int, pointer_bits: int
) -> tuple[float, float]:
    """Anchor and hop entries per real entry over a layer's sampled tables."""
    anchors = hops = entries = 0
    for tables in sampled:
        ends = tables.transitions[tables.num_filters - 1]
        stats = grouped_jump_stats(tables.iit, ends, width_bits, pointer_bits)
        anchors += stats.anchor_entries
        hops += stats.hop_entries
        entries += stats.anchor_entries + stats.jump_entries
    if entries == 0:
        return 0.0, 0.0
    return anchors / entries, hops / entries


def run(
    network: str = "resnet50",
    group_sizes: tuple[int, ...] = (1, 2),
    jump_widths: tuple[int, ...] = PAPER_JUMP_WIDTHS,
    density: float = 0.9,
    max_layers: int | None = None,
) -> Figure14Result:
    """Run the Figure 14 sweep on INQ-structured weights.

    Args:
        network: zoo network (paper: ResNet-50).
        group_sizes: UCNN G values.
        jump_widths: unsigned jump widths to sweep (pointer mode always
            included as the baseline point).
        density: INQ density (paper: ~90%).
        max_layers: optionally restrict to the first N conv layers
            (test-speed knob).

    Returns:
        a :class:`Figure14Result`.
    """
    cells: list[tuple[int, int | None]] = []
    for g in group_sizes:
        cells.append((g, None))
        cells.extend((g, width) for width in jump_widths)
    try:
        values = execute(
            WorkItem(
                fn=_jump_point,
                kwargs={"network": network, "max_layers": max_layers, "group_size": g,
                        "width": width, "density": density},
                label=f"fig14:G{g}:{'ptr' if width is None else width}",
            )
            for g, width in cells
        )
    finally:
        # The memo only needs to live across this run's points (serial
        # path; pool workers die with the pool) — don't pin the layer
        # aggregates for the rest of the process.
        _layer_data.cache_clear()
    points = [
        JumpPoint(group_size=g, jump_bits=width, bits_per_weight=bits, perf_overhead=overhead)
        for (g, width), (bits, overhead) in zip(cells, values)
    ]
    return Figure14Result(points=tuple(points))


@lru_cache(maxsize=8)
def _layer_data(network: str, max_layers: int | None, group_size: int, density: float):
    """Per-process memo of (shape, aggregate, sampled tables) for one G series."""
    shapes = network_shapes(network)
    if max_layers is not None:
        shapes = shapes[:max_layers]
    provider = inq_weight_provider(density=density, tag="fig14")
    config = ucnn_config_for_group(group_size, 16)
    data = []
    for shape in shapes:
        weights = provider(shape)
        agg = ucnn_layer_aggregate(weights, shape, config)
        data.append((shape, agg, _sampled_tables(weights, shape, config)))
    return tuple(data)


def _jump_point(
    network: str,
    max_layers: int | None,
    group_size: int,
    width: int | None,
    density: float,
) -> tuple[float, float]:
    """Design point: (bits/weight, perf overhead) of one (G, jump width).

    ``width=None`` is the absolute-pointer baseline (overhead 1.0 by
    definition).
    """
    g = group_size
    config = ucnn_config_for_group(g, 16)
    layer_data = _layer_data(network, max_layers, g, density)
    if width is None:
        pointer_model = None
        for shape, agg, __ in layer_data:
            model = ucnn_model_size(
                agg.entries, agg.skip_bubbles, shape.num_weights, g,
                agg.tile_entries, agg.num_unique, weight_bits=8,
            )
            pointer_model = model if pointer_model is None else pointer_model + model
        assert pointer_model is not None
        return pointer_model.bits_per_weight, 1.0
    base_cycles = sum(
        shape.out_h * (-(-shape.out_w // config.vw)) * agg.cycles_per_walk_total
        for shape, agg, __ in layer_data
    )
    cycles = 0
    total = None
    for shape, agg, sampled in layer_data:
        pointer_bits = min_pointer_bits(agg.tile_entries)
        anchors_per_entry, hops_per_entry = _jump_ratios(sampled, width, pointer_bits)
        anchor_entries = int(round(anchors_per_entry * agg.entries))
        hop_entries = int(round(hops_per_entry * agg.entries))
        jump_entries = agg.entries - anchor_entries
        iit_bits = (
            anchor_entries * pointer_bits
            + (jump_entries + hop_entries) * width
        )
        stored = agg.entries + agg.skip_bubbles + hop_entries
        model = ModelSizeBreakdown(
            iit_bits=iit_bits + agg.skip_bubbles * width,
            wit_bits=stored * wit_bits_per_entry(g),
            weight_bits=agg.num_unique * 8,
            dense_weights=shape.num_weights,
        )
        total = model if total is None else total + model
        walks = shape.out_h * (-(-shape.out_w // config.vw))
        cycles += walks * (agg.cycles_per_walk_total + hop_entries)
    assert total is not None
    return total.bits_per_weight, cycles / base_cycles
