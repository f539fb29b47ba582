"""Tests for the analytic layer model — incl. the functional cross-check.

The cross-validation here is the linchpin of the reproduction: the
vectorized sorted-key statistics must agree *exactly* with per-table
construction for every count the cycle/energy models consume.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.buffers import tile_plan
from repro.arch.config import dcnn_config, dcnn_sp_config, ucnn_config
from repro.core.activation_groups import canonical_weight_order
from repro.core.hierarchical import INLINE_SKIP_CAPACITY, build_filter_group_tables
from repro.experiments.common import network_shapes, ucnn_config_for_group, uniform_weight_provider
from repro.nn.tensor import ConvShape
from repro.quant.distributions import uniform_unique_weights
from repro.sim import analytic
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
    if canonical.size == 0 or canonical[-1] != 0:
        # Padded channels hold zeros: rank them last, as the analytic
        # model's virtual zero slot does.
        canonical = np.append(canonical, 0)
    g = config.group_size
    totals = dict(entries=0, multiplies=0, bubbles=0, stalls=0, adds=0, inner=0)
    for start in range(0, k, g):
        for t in range(tiles):
            tables = build_filter_group_tables(
                tiled[start : start + g, t, :], canonical=canonical,
                max_group_size=config.max_group_size)
            stats = tables.stats(num_multipliers=config.num_multipliers)
            gg = tables.num_filters
            inner = stats.boundaries_per_level[gg - 1] + tables._early_chunk_completions()
            totals["entries"] += stats.num_entries
            totals["multiplies"] += stats.multiplies
            totals["bubbles"] += stats.skip_bubbles
            totals["stalls"] += stats.mult_stalls
            totals["adds"] += stats.num_entries + (gg - 1) * inner
            totals["inner"] += inner
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
        # The present (block, rank) pairs as sorted keys block * U + rank.
        children = np.flatnonzero(present)
        assert _last_filter_bubbles(children, num_ranks) == expected


@st.composite
def small_layers(draw):
    """A random small layer and a UCNN config to count it under.

    G runs 1-4 on the config whatever U is (Table II pairs them), K may
    leave a ragged last group, some filters may be all zero, the
    alphabet may lack zero (the virtual zero slot), the channel tile may
    need padding, and small chunk limits and multiplier counts make
    early MACs and stalls fire.
    """
    g = draw(st.integers(1, 4))
    u = draw(st.just(17) | st.integers(1, 40))  # Figure 11 sweeps G at U = 17
    with_zero = draw(st.booleans())
    k = draw(st.integers(1, 9))
    c = draw(st.integers(1, 12))
    r = draw(st.sampled_from([1, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alphabet = rng.choice(np.r_[-60:0, 1:61], size=u, replace=False)
    if with_zero:
        alphabet[-1] = 0
    weights = rng.choice(alphabet, size=(k, c, r, r))
    if with_zero:
        weights[rng.random(weights.shape) > draw(st.sampled_from([0.2, 0.6, 1.0]))] = 0
        weights[rng.random(k) < 0.2] = 0  # all-zero filters
    shape = ConvShape(name="x", w=r + 3, h=r + 3, c=c, k=k, r=r, s=r)
    base = ucnn_config(17, 16)
    per_channel = r * (base.vw + r - 1) * base.act_bytes
    config = dataclasses.replace(
        base, group_size=g,
        max_group_size=draw(st.integers(1, 3)),
        num_multipliers=draw(st.integers(1, 2)),
        l1_input_bytes=draw(st.integers(1, c)) * per_channel)
    return weights.astype(np.int64), shape, config


def assert_matches_the_per_entry_tables(weights, shape, config):
    canonical = canonical_weight_order(weights)
    agg = ucnn_layer_aggregate(weights, shape, config, canonical=canonical)
    ref = functional_aggregate(weights, shape, config, canonical)
    assert (agg.entries, agg.multiplies, agg.skip_bubbles, agg.mult_stalls,
            agg.inner_completions, agg.adds_acc) == (
        ref["entries"], ref["multiplies"], ref["bubbles"], ref["stalls"],
        ref["inner"], ref["adds"])


@given(small_layers())
@settings(max_examples=80, deadline=None)
def test_sorted_key_counts_match_the_per_entry_tables(layer):
    assert_matches_the_per_entry_tables(*layer)


@pytest.mark.parametrize("group_size", [1, 2, 4])
def test_figure11_group_sweep_matches_the_per_entry_tables(group_size, rng):
    """Figure 11's G sweep at U = 17, on the configs it runs."""
    weights = uniform_unique_weights((8, 12, 3, 3), 17, 0.5, rng).values
    shape = ConvShape(name="x", w=6, h=6, c=12, k=8, r=3, s=3)
    assert_matches_the_per_entry_tables(weights, shape, ucnn_config_for_group(group_size))


def test_bincount_and_sort_routes_agree(monkeypatch, rng):
    """Figure 11's G = 4, U = 17 tables, counted by a sort and by a bincount."""
    ranks = np.where(rng.random((8, 2, 288)) < 0.4, rng.integers(0, 16, (8, 2, 288)), 16)
    keys = ranks.size // 4  # one key per position of a four-filter group
    span = 2 * 2 * 17**4  # tables x U**G
    assert span > max(analytic._BINCOUNT_SPAN, 4 * keys)  # so the default sorts
    bincount = np.bincount
    calls = []

    def counted_bincount(*args, **kwargs):
        calls.append(args)
        return bincount(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", counted_bincount)
    sorted_counts = analytic._batch_table_counts(ranks, 17, 4, 2, 1)
    assert not calls
    monkeypatch.setattr(analytic, "_BINCOUNT_SPAN", span)
    assert analytic._batch_table_counts(ranks, 17, 4, 2, 1) == sorted_counts
    assert len(calls) == 1
    assert min(sorted_counts) > 0  # every count is exercised


def test_served_g4_tables_stay_small():
    """LeNet conv1 at G = 4 over U = 32 weights: no U**G-sized arrays."""
    shape = network_shapes("lenet")[0]
    weights = uniform_weight_provider(32, 0.5, tag="serve")(shape)
    config = ucnn_config_for_group(4)
    tracemalloc.start()
    try:
        ucnn_layer_aggregate(weights, shape, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_key_span_past_int64_is_refused():
    """tables x U**G >= 2**63 would wrap the keys: refuse, naming G and U."""
    weights = np.arange(60000, dtype=np.int64).reshape(4, 15000, 1, 1)
    shape = ConvShape(name="x", w=4, h=4, c=15000, k=4, r=1, s=1)
    with pytest.raises(ValueError, match=r"G = 4 .*U = 60000"):
        ucnn_layer_aggregate(weights, shape, ucnn_config_for_group(4))


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
