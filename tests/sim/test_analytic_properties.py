"""Hypothesis-driven cross-validation of the analytic model.

The parametrized cross-check in test_analytic.py covers the paper's
design points; this file lets hypothesis roam the (K, C, R, U, density,
G) space of the Table II rows, asserting the analytic sorted-key
statistics equal the per-table functional construction *everywhere* —
the single most load-bearing invariant of the reproduction.
(test_analytic.py's property test also unpairs G from U.)
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.buffers import tile_plan
from repro.arch.config import ucnn_config
from repro.core.activation_groups import canonical_weight_order
from repro.core.hierarchical import build_filter_group_tables
from repro.nn.tensor import ConvShape
from repro.sim.analytic import ucnn_layer_aggregate


@st.composite
def layer_case(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    c = draw(st.integers(min_value=1, max_value=12))
    r = draw(st.sampled_from([1, 3]))
    u = draw(st.sampled_from([3, 5, 17]))
    density_pct = draw(st.integers(min_value=0, max_value=100))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    rng = np.random.default_rng(seed)
    from repro.quant.distributions import uniform_unique_weights

    weights = uniform_unique_weights((k, c, r, r), u, density_pct / 100, rng).values
    shape = ConvShape(name="h", w=r + 2, h=r + 2, c=c, k=k, r=r, s=r)
    return weights, shape, u


def functional_totals(weights, shape, config, canonical):
    k, c, r, s = weights.shape
    plan = tile_plan(shape, config)
    ct, tiles = plan.channel_tile, plan.num_tiles
    wpad = np.zeros((k, ct * tiles, r, s), dtype=np.int64)
    wpad[:, :c] = weights
    tiled = wpad.reshape(k, tiles, ct * r * s)
    g = config.group_size
    entries = multiplies = bubbles = stalls = 0
    for start in range(0, k, g):
        for t in range(tiles):
            tables = build_filter_group_tables(
                tiled[start : start + g, t, :], canonical=canonical,
                max_group_size=config.max_group_size)
            stats = tables.stats(num_multipliers=config.num_multipliers)
            entries += stats.num_entries
            multiplies += stats.multiplies
            bubbles += stats.skip_bubbles
            stalls += stats.mult_stalls
    return entries, multiplies, bubbles, stalls


@given(layer_case())
@settings(max_examples=40, deadline=None)
def test_analytic_equals_functional_everywhere(case):
    weights, shape, u = case
    config = ucnn_config(u, 16)
    canonical = canonical_weight_order(weights)
    agg = ucnn_layer_aggregate(weights, shape, config, canonical=canonical)
    entries, multiplies, bubbles, stalls = functional_totals(weights, shape, config, canonical)
    assert agg.entries == entries
    assert agg.multiplies == multiplies
    assert agg.skip_bubbles == bubbles
    assert agg.mult_stalls == stalls


@given(layer_case())
@settings(max_examples=25, deadline=None)
def test_entries_invariant_to_design_point(case):
    """Stored entries depend only on weights and G, not on tiling."""
    weights, shape, __ = case
    k = weights.shape[0]
    g1_small = ucnn_config(64, 16)  # G=1, large L1
    agg = ucnn_layer_aggregate(weights, shape, g1_small)
    assert agg.entries == int(np.count_nonzero(weights))
