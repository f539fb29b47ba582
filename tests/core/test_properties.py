"""Hypothesis property tests for the core invariants.

These are the load-bearing guarantees of the reproduction:

1. every factorized execution path is *bit-exact* against the dense
   integer reference, for any weights/inputs/G/chunk-cap;
2. indirection tables are permutations of the non-zero support;
3. jump encoding round-trips exactly at any width;
4. the banked layout is conflict-free for any geometry.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.banking import BankedLayout
from repro.core.activation_groups import canonical_weight_order, rank_by_canonical
from repro.core.hierarchical import build_filter_group_tables
from repro.core.jump_encoding import encode_jumps, jump_hop_count
from repro.quant.inq import quantize_inq
from repro.quant.ttq import quantize_ttq
from repro.quant.uniform import quantize_uniform

small_ints = st.integers(min_value=-6, max_value=6)


@st.composite
def filter_and_window(draw, max_len=64):
    n = draw(st.integers(min_value=1, max_value=max_len))
    filt = draw(st.lists(small_ints, min_size=n, max_size=n))
    window = draw(st.lists(st.integers(min_value=-100, max_value=100), min_size=n, max_size=n))
    return np.array(filt, dtype=np.int64), np.array(window, dtype=np.int64)


@st.composite
def filter_group_and_window(draw, max_g=4, max_len=48):
    g = draw(st.integers(min_value=1, max_value=max_g))
    n = draw(st.integers(min_value=1, max_value=max_len))
    filters = np.array(
        [draw(st.lists(small_ints, min_size=n, max_size=n)) for __ in range(g)],
        dtype=np.int64,
    )
    window = np.array(
        draw(st.lists(st.integers(min_value=-100, max_value=100), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    return filters, window


@given(filter_and_window(), st.integers(min_value=1, max_value=20))
@settings(max_examples=120, deadline=None)
def test_factorized_dot_product_bit_exact(fw, cap):
    filt, window = fw
    tables = build_filter_group_tables(filt[None], max_group_size=cap)
    assert list(tables.execute(window)) == [int(filt @ window)]


@given(filter_and_window())
@settings(max_examples=80, deadline=None)
def test_iit_is_permutation_of_nonzero_support(fw):
    filt, __ = fw
    tables = build_filter_group_tables(filt[None])
    assert sorted(tables.iit) == sorted(np.flatnonzero(filt))


@given(filter_and_window())
@settings(max_examples=80, deadline=None)
def test_transition_count_matches_unique_nonzero(fw):
    filt, __ = fw
    tables = build_filter_group_tables(filt[None])
    expected = np.unique(filt[filt != 0]).size
    assert int(tables.transitions[0].sum()) == expected


@given(filter_and_window(), st.integers(min_value=1, max_value=20))
@settings(max_examples=80, deadline=None)
def test_single_filter_multiplies_are_chunks_per_group(fw, cap):
    """At G = 1 each group of size gsz costs ceil(gsz / cap) multiplies."""
    filt, __ = fw
    tables = build_filter_group_tables(filt[None], max_group_size=cap)
    __, sizes = np.unique(filt[filt != 0], return_counts=True)
    assert tables.stats().multiplies == int(np.sum(-(-sizes // cap)))


@given(filter_group_and_window(), st.integers(min_value=1, max_value=20))
@settings(max_examples=120, deadline=None)
def test_hierarchical_execution_bit_exact(fg, cap):
    filters, window = fg
    tables = build_filter_group_tables(filters, max_group_size=cap)
    assert np.array_equal(tables.execute(window), filters @ window)


@given(filter_group_and_window())
@settings(max_examples=60, deadline=None)
def test_hierarchical_transitions_nested(fg):
    filters, __ = fg
    tables = build_filter_group_tables(filters)
    for g in range(tables.num_filters - 1):
        assert np.all(~tables.transitions[g] | tables.transitions[g + 1])


@given(filter_group_and_window())
@settings(max_examples=60, deadline=None)
def test_hierarchical_with_layer_canonical_bit_exact(fg):
    filters, window = fg
    canonical = canonical_weight_order(np.arange(-6, 7))
    tables = build_filter_group_tables(filters, canonical=canonical)
    assert np.array_equal(tables.execute(window), filters @ window)


@given(filter_and_window())
@settings(max_examples=60, deadline=None)
def test_rank_round_trip(fw):
    filt, __ = fw
    canonical = canonical_weight_order(filt)
    ranks = rank_by_canonical(filt, canonical)
    assert np.array_equal(canonical[ranks], filt)


@given(
    st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=80, unique=True),
    st.integers(min_value=2, max_value=12),
)
@settings(max_examples=100, deadline=None)
def test_jump_encoding_round_trip(addresses, width):
    addresses = np.array(addresses, dtype=np.int64)
    table = encode_jumps(addresses, width)
    assert np.array_equal(table.decode(), addresses)
    assert table.num_hops == jump_hop_count(addresses, width)


@given(
    st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=60, unique=True),
)
@settings(max_examples=60, deadline=None)
def test_wider_jumps_never_more_hops(addresses):
    addresses = np.array(addresses, dtype=np.int64)
    hops = [jump_hop_count(addresses, w) for w in range(2, 12)]
    assert all(a >= b for a, b in zip(hops, hops[1:]))


@given(
    st.integers(min_value=1, max_value=11),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=32),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=100, deadline=None)
def test_banked_layout_conflict_free(r, s, ct, vw):
    layout = BankedLayout(r=r, s=s, channel_tile=ct, vw=vw)
    assert layout.is_conflict_free()
    assert 0.0 <= layout.wasted_fraction < 0.5 or vw == 1


@given(st.lists(st.floats(min_value=-2, max_value=2, allow_nan=False), min_size=1, max_size=200))
@settings(max_examples=60, deadline=None)
def test_inq_values_are_pow2_grid(weights):
    q = quantize_inq(np.array(weights))
    mags = np.abs(q.values[q.values != 0])
    if mags.size:
        assert np.all((mags & (mags - 1)) == 0)  # powers of two
    assert q.num_unique <= 17


@given(st.lists(st.floats(min_value=-2, max_value=2, allow_nan=False), min_size=1, max_size=200))
@settings(max_examples=60, deadline=None)
def test_ttq_is_ternary(weights):
    q = quantize_ttq(np.array(weights))
    assert q.num_unique <= 3


@given(
    st.lists(st.floats(min_value=-2, max_value=2, allow_nan=False), min_size=1, max_size=200),
    st.integers(min_value=2, max_value=10),
)
@settings(max_examples=60, deadline=None)
def test_uniform_respects_bit_budget(weights, bits):
    q = quantize_uniform(np.array(weights), bits=bits)
    assert q.num_unique <= 2**bits
    assert q.values.max(initial=0) <= 2 ** (bits - 1) - 1
    assert q.values.min(initial=0) >= -(2 ** (bits - 1))
