"""Tests for the analytic layer model — incl. the functional cross-check.

The cross-validation here is the linchpin of the reproduction: the
vectorized histogram statistics must agree *exactly* with per-table
construction for every count the cycle/energy models consume.
"""

import numpy as np
import pytest

from repro.arch.buffers import tile_plan
from repro.arch.config import dcnn_config, dcnn_sp_config, ucnn_config
from repro.core.activation_groups import canonical_weight_order
from repro.core.hierarchical import INLINE_SKIP_CAPACITY, build_filter_group_tables
from repro.nn.tensor import ConvShape
from repro.quant.distributions import uniform_unique_weights
from repro.sim.analytic import (
    _last_filter_bubbles,
    dense_layer_events,
    simulate_layer,
    ucnn_layer_aggregate,
    ucnn_layer_events,
)


def functional_aggregate(weights, shape, config, canonical):
    """Slow reference: build every (group, tile) table and sum stats."""
    k, c, r, s = weights.shape
    plan = tile_plan(shape, config)
    ct, tiles = plan.channel_tile, plan.num_tiles
    wpad = np.zeros((k, ct * tiles, r, s), dtype=np.int64)
    wpad[:, :c] = weights
    tiled = wpad.reshape(k, tiles, ct * r * s)
    g = config.group_size
    totals = dict(entries=0, multiplies=0, bubbles=0, stalls=0, adds=0)
    for start in range(0, k, g):
        for t in range(tiles):
            tables = build_filter_group_tables(
                tiled[start : start + g, t, :], canonical=canonical,
                max_group_size=config.max_group_size)
            st = tables.stats(num_multipliers=config.num_multipliers)
            gg = tables.num_filters
            inner = st.boundaries_per_level[gg - 1] + tables._early_chunk_completions()
            totals["entries"] += st.num_entries
            totals["multiplies"] += st.multiplies
            totals["bubbles"] += st.skip_bubbles
            totals["stalls"] += st.mult_stalls
            totals["adds"] += st.num_entries + (gg - 1) * inner
    return totals


@pytest.mark.parametrize("u,density", [(3, 0.5), (17, 0.9), (17, 1.0), (64, 0.65)])
def test_analytic_matches_functional(u, density, rng):
    k, c, r = int(rng.integers(2, 9)), int(rng.integers(2, 24)), int(rng.choice([1, 3]))
    weights = uniform_unique_weights((k, c, r, r), u, density, rng).values
    shape = ConvShape(name="x", w=r + 3, h=r + 3, c=c, k=k, r=r, s=r)
    config = ucnn_config(u, 16)
    canonical = canonical_weight_order(weights)
    agg = ucnn_layer_aggregate(weights, shape, config, canonical=canonical)
    ref = functional_aggregate(weights, shape, config, canonical)
    assert agg.entries == ref["entries"]
    assert agg.multiplies == ref["multiplies"]
    assert agg.skip_bubbles == ref["bubbles"]
    assert agg.mult_stalls == ref["stalls"]
    assert agg.adds_acc == ref["adds"]


def test_analytic_matches_functional_partial_group(rng):
    """K not divisible by G: the tail group runs at its true size."""
    weights = uniform_unique_weights((5, 6, 3, 3), 3, 0.8, rng).values
    shape = ConvShape(name="x", w=6, h=6, c=6, k=5, r=3, s=3)
    config = ucnn_config(3, 16)  # G = 4, so one group of 4 and one of 1
    canonical = canonical_weight_order(weights)
    agg = ucnn_layer_aggregate(weights, shape, config, canonical=canonical)
    ref = functional_aggregate(weights, shape, config, canonical)
    assert agg.entries == ref["entries"]
    assert agg.multiplies == ref["multiplies"]
    assert agg.skip_bubbles == ref["bubbles"]
    assert agg.mult_stalls == ref["stalls"]


class TestAggregateProperties:
    def test_entries_equal_union_support(self, rng):
        weights = uniform_unique_weights((4, 8, 3, 3), 17, 0.5, rng).values
        shape = ConvShape(name="x", w=8, h=8, c=8, k=4, r=3, s=3)
        config = ucnn_config(64, 16)  # G = 1
        agg = ucnn_layer_aggregate(weights, shape, config)
        assert agg.entries == int(np.count_nonzero(weights))

    def test_denser_weights_more_entries(self, rng):
        shape = ConvShape(name="x", w=8, h=8, c=16, k=8, r=3, s=3)
        config = ucnn_config(17, 16)
        sparse = uniform_unique_weights(shape.weight_shape, 17, 0.3, rng).values
        dense = uniform_unique_weights(shape.weight_shape, 17, 0.9, rng).values
        a = ucnn_layer_aggregate(sparse, shape, config)
        b = ucnn_layer_aggregate(dense, shape, config)
        assert a.entries < b.entries

    def test_multiplies_far_below_dense(self, rng):
        weights = uniform_unique_weights((8, 32, 3, 3), 17, 0.9, rng).values
        shape = ConvShape(name="x", w=8, h=8, c=32, k=8, r=3, s=3)
        # G=1 (U=64 row): multiplies per filter-tile collapse to ~U.
        config = ucnn_config(64, 16)
        agg = ucnn_layer_aggregate(weights, shape, config)
        dense_macs_per_walk = weights.size
        assert agg.multiplies < dense_macs_per_walk / 4
        # G=2 shares tables but sub-groups are smaller: still a clear win.
        agg2 = ucnn_layer_aggregate(weights, shape, ucnn_config(17, 16))
        assert agg2.multiplies < dense_macs_per_walk / 2

    def test_requires_ucnn_config(self, rng):
        shape = ConvShape(name="x", w=4, h=4, c=2, k=2, r=3, s=3, padding=1)
        with pytest.raises(ValueError, match="UCNN config"):
            ucnn_layer_aggregate(np.zeros(shape.weight_shape, dtype=np.int64), shape, dcnn_config())


def loop_last_filter_bubbles(present, zero_rank):
    """Rank-by-rank walk keeping each block's absent-run length."""
    run = np.zeros(present.shape[:-1], dtype=np.int64)
    total = 0
    for r in range(present.shape[-1]):
        col = present[..., r]
        if r != zero_rank:
            over = np.maximum(0, run[col] - INLINE_SKIP_CAPACITY)
            total += int(np.sum(-(-over // INLINE_SKIP_CAPACITY)))
        run = np.where(col, 0, run + 1)
    return total


@pytest.mark.parametrize("num_ranks", [1, 2, 5, 17, 257])
def test_last_filter_bubbles_matches_the_rank_walk(num_ranks, rng):
    for density in (0.0, 0.05, 0.3, 0.9, 1.0):
        present = rng.random((3, 2, 4, num_ranks)) < density
        expected = loop_last_filter_bubbles(present, num_ranks - 1)
        assert _last_filter_bubbles(present, num_ranks - 1) == expected


class TestDenseEvents:
    def test_dcnn_multiplies_are_dense_macs(self):
        shape = ConvShape(name="x", w=8, h=8, c=4, k=8, r=3, s=3, padding=1)
        events = dense_layer_events(shape, dcnn_config(16), 0.5, 0.35)
        assert events.multiplies == shape.macs

    def test_dcnn_sp_gates_multiplies(self):
        shape = ConvShape(name="x", w=8, h=8, c=4, k=8, r=3, s=3, padding=1)
        dense = dense_layer_events(shape, dcnn_config(16), 0.5, 0.35)
        gated = dense_layer_events(shape, dcnn_sp_config(16), 0.5, 0.35)
        assert gated.cycles == dense.cycles
        assert gated.multiplies == int(round(dense.multiplies * 0.5 * 0.35))

    def test_vectorization_amortizes_input_reads(self):
        shape = ConvShape(name="x", w=8, h=8, c=4, k=8, r=3, s=3, padding=1)
        events = dense_layer_events(shape, dcnn_config(16), 1.0, 1.0)
        assert events.input_l1_reads == events.weight_l1_reads // 8


class TestUcnnEvents:
    def test_cycles_include_pipeline_drain(self, rng):
        import dataclasses
        shape = ConvShape(name="x", w=8, h=8, c=16, k=8, r=3, s=3)
        weights = uniform_unique_weights(shape.weight_shape, 17, 0.9, rng).values
        cfg = ucnn_config(17, 16)
        agg = ucnn_layer_aggregate(weights, shape, cfg)
        with_drain = ucnn_layer_events(shape, cfg, agg)
        no_drain = ucnn_layer_events(shape, dataclasses.replace(cfg, pipeline_overhead=0.0), agg)
        assert with_drain.cycles > no_drain.cycles

    def test_table_bits_scale_with_entries(self, rng):
        shape = ConvShape(name="x", w=8, h=8, c=16, k=8, r=3, s=3)
        cfg = ucnn_config(17, 16)
        sparse = uniform_unique_weights(shape.weight_shape, 17, 0.3, rng).values
        dense = uniform_unique_weights(shape.weight_shape, 17, 0.9, rng).values
        a = ucnn_layer_events(shape, cfg, ucnn_layer_aggregate(sparse, shape, cfg))
        b = ucnn_layer_events(shape, cfg, ucnn_layer_aggregate(dense, shape, cfg))
        assert a.table_bits_read < b.table_bits_read

    def test_simulate_layer_dispatch(self, rng):
        shape = ConvShape(name="x", w=8, h=8, c=8, k=4, r=3, s=3)
        weights = uniform_unique_weights(shape.weight_shape, 17, 0.9, rng).values
        events, agg = simulate_layer(shape, ucnn_config(17, 16), weights=weights)
        assert agg is not None and events.cycles > 0
        events2, agg2 = simulate_layer(shape, dcnn_config(16), weight_density=0.5)
        assert agg2 is None and events2.multiplies == shape.macs

    def test_simulate_layer_requires_inputs(self):
        shape = ConvShape(name="x", w=8, h=8, c=8, k=4, r=3, s=3)
        with pytest.raises(ValueError, match="weight tensor"):
            simulate_layer(shape, ucnn_config(17, 16))
        with pytest.raises(ValueError, match="weights or weight_density"):
            simulate_layer(shape, dcnn_config(16))
