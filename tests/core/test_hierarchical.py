"""Tests for hierarchical activation-group reuse tables (G >= 1)."""

import numpy as np
import pytest

from repro.core.activation_groups import canonical_weight_order, rank_by_canonical
from repro.core.hierarchical import (
    INLINE_SKIP_CAPACITY,
    build_filter_group_tables,
)
from repro.engine import compile_layer, execute_program


def dense(filters, window):
    return np.asarray(filters, dtype=np.int64) @ np.asarray(window, dtype=np.int64)


def ranks(t):
    """``(G, L)`` canonical rank of each filter's weight at each stored entry."""
    return rank_by_canonical(t.filters[:, t.iit], t.canonical)


class TestConstruction:
    def test_stored_entries_are_union_of_supports(self):
        filters = np.array([[1, 0, 0, 2], [0, 0, 3, 1]])
        t = build_filter_group_tables(filters)
        assert sorted(t.iit) == [0, 2, 3]

    def test_all_zero_positions_dropped(self):
        filters = np.array([[1, 0, 2], [1, 0, 2]])
        t = build_filter_group_tables(filters)
        assert 1 not in t.iit

    def test_hierarchical_order_primary_key_filter1(self):
        """Entries must be grouped contiguously by filter 1's rank."""
        rng = np.random.default_rng(3)
        filters = rng.integers(-2, 3, size=(2, 40))
        t = build_filter_group_tables(filters)
        r1 = ranks(t)[0]
        seen = set()
        prev = None
        for r in r1:
            if r != prev:
                assert r not in seen
                seen.add(r)
                prev = r

    def test_subgroups_contiguous_within_parent(self):
        rng = np.random.default_rng(4)
        filters = rng.integers(-2, 3, size=(3, 60))
        t = build_filter_group_tables(filters)
        # Within each level-1 run, level-2 ranks must be grouped too.
        keys = list(zip(*ranks(t)[:2]))
        seen = set()
        prev = None
        for k in keys:
            if k != prev:
                assert k not in seen
                seen.add(k)
                prev = k

    def test_transitions_nested(self):
        """A level-g boundary is also a boundary for all deeper levels."""
        rng = np.random.default_rng(5)
        filters = rng.integers(-2, 3, size=(3, 50))
        t = build_filter_group_tables(filters)
        for g in range(t.num_filters - 1):
            assert np.all(~t.transitions[g] | t.transitions[g + 1])

    def test_last_entry_is_boundary_for_all_levels(self):
        filters = np.array([[1, 2], [2, 1]])
        t = build_filter_group_tables(filters)
        assert np.all(t.transitions[:, -1])

    def test_g1_is_vanilla_factorization(self, rng):
        """G=1 tables are Section IV-B's: non-zero positions in canonical
        weight order (ascending within a group), one bit per group end."""
        for __ in range(10):
            n = int(rng.integers(1, 60))
            filt = rng.integers(-3, 4, size=n)
            t = build_filter_group_tables(filt.reshape(1, -1))
            rank = {int(v): i for i, v in enumerate(t.canonical)}
            order = sorted(np.flatnonzero(filt), key=lambda i: (rank[int(filt[i])], i))
            ends = [j == len(order) - 1 or filt[order[j]] != filt[order[j + 1]]
                    for j in range(len(order))]
            assert list(t.iit) == order
            assert list(t.transitions[0]) == ends

    def test_layer_canonical_accepted(self):
        filters = np.array([[1, 0], [0, 1]])
        canonical = canonical_weight_order(np.array([5, 1, -2, 0]))
        t = build_filter_group_tables(filters, canonical=canonical)
        assert t.num_unique == 4

    def test_duplicate_canonical_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_filter_group_tables(np.array([[1]]), canonical=np.array([1, 1, 0]))

    def test_zero_not_last_rejected(self):
        with pytest.raises(ValueError, match="zero last"):
            build_filter_group_tables(np.array([[1]]), canonical=np.array([0, 1]))

    def test_non_matrix_rejected(self):
        with pytest.raises(ValueError, match="matrix"):
            build_filter_group_tables(np.array([1, 2, 3]))


class TestExecution:
    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_bit_exact_vs_dense(self, g, rng):
        for __ in range(15):
            n = int(rng.integers(1, 50))
            filters = rng.integers(-3, 4, size=(g, n))
            window = rng.integers(-20, 21, size=n)
            t = build_filter_group_tables(filters)
            assert np.array_equal(t.execute(window), dense(filters, window))

    def test_bit_exact_with_chunking(self, rng):
        filters = np.concatenate([np.full((2, 30), 2), rng.integers(-2, 3, size=(2, 30))], axis=1)
        window = rng.integers(-9, 10, size=60)
        for cap in (1, 3, 16):
            t = build_filter_group_tables(filters, max_group_size=cap)
            assert np.array_equal(t.execute(window), dense(filters, window))

    def test_bit_exact_with_layer_canonical(self, rng):
        filters = rng.integers(-2, 3, size=(2, 30))
        canonical = canonical_weight_order(np.arange(-5, 6))
        window = rng.integers(-9, 10, size=30)
        t = build_filter_group_tables(filters, canonical=canonical)
        assert np.array_equal(t.execute(window), dense(filters, window))

    def test_sparse_filters(self, rng):
        filters = rng.integers(-1, 2, size=(3, 40))
        filters[rng.random(size=filters.shape) < 0.7] = 0
        window = rng.integers(-9, 10, size=40)
        t = build_filter_group_tables(filters)
        assert np.array_equal(t.execute(window), dense(filters, window))

    def test_empty_tables_execute(self):
        t = build_filter_group_tables(np.zeros((2, 5), dtype=np.int64))
        assert np.array_equal(t.execute(np.arange(5)), np.zeros(2))

    def test_vectorized_matches_dense(self, rng):
        filters = rng.integers(-3, 4, size=(2, 20))
        windows = rng.integers(-9, 10, size=(6, 20))
        t = build_filter_group_tables(filters)
        assert np.array_equal(execute_program(compile_layer([t]), windows), dense(filters, windows.T))

    def test_window_length_checked(self):
        t = build_filter_group_tables(np.array([[1, 2]]))
        with pytest.raises(ValueError, match="window length"):
            t.execute(np.arange(5))


class TestStats:
    def test_entries_count(self):
        filters = np.array([[1, 0, 2], [0, 0, 1]])
        t = build_filter_group_tables(filters)
        assert t.stats().num_entries == 2

    def test_boundaries_monotone_across_levels(self, rng):
        filters = rng.integers(-2, 3, size=(3, 60))
        t = build_filter_group_tables(filters)
        b = t.stats().boundaries_per_level
        assert b[0] <= b[1] <= b[2]

    def test_multiplies_skip_zero_groups(self):
        # Filter 1 is all-zero at stored positions: no MACs for it.
        filters = np.array([[0, 0, 0], [1, 2, 1]])
        t = build_filter_group_tables(filters)
        macs = t.macs_per_entry()
        assert int(macs.sum()) == t.stats().multiplies
        assert t.stats().multiplies == 2  # filter 2's two groups only

    def test_g2_multiplies_at_most_sum_of_group_counts(self, rng):
        filters = rng.integers(-2, 3, size=(2, 50))
        t = build_filter_group_tables(filters)
        st = t.stats()
        assert st.multiplies <= st.boundaries_per_level[0] + st.boundaries_per_level[1]

    def test_stall_requires_two_macs(self):
        # Both filters non-zero at the single entry: 2 MACs, 1 multiplier.
        filters = np.array([[3], [4]])
        t = build_filter_group_tables(filters)
        assert t.multiplier_stalls(num_multipliers=1) == 1
        assert t.multiplier_stalls(num_multipliers=2) == 0

    def test_cycles_formula(self, rng):
        filters = rng.integers(-2, 3, size=(2, 40))
        t = build_filter_group_tables(filters)
        st = t.stats()
        assert st.cycles == st.num_entries + st.skip_bubbles + st.mult_stalls

    def test_dense_cycles(self):
        filters = np.ones((2, 10), dtype=np.int64)
        assert build_filter_group_tables(filters).stats().dense_cycles == 20

    def test_innermost_group_sizes_sum_to_entries(self, rng):
        filters = rng.integers(-2, 3, size=(3, 70))
        t = build_filter_group_tables(filters)
        assert int(t.innermost_group_sizes().sum()) == t.num_entries

    def test_chunk_early_macs_zero_when_groups_small(self, rng):
        filters = rng.integers(-8, 9, size=(2, 20))  # many values -> tiny groups
        t = build_filter_group_tables(filters)
        assert t.chunk_early_macs() == 0

    def test_chunk_early_macs_counted(self):
        filters = np.full((1, 40), 7, dtype=np.int64)
        t = build_filter_group_tables(filters, max_group_size=16)
        assert t.chunk_early_macs() == 2  # ceil(40/16) - 1


class TestSkipAccounting:
    def test_no_skips_with_own_canonical_g1(self, rng):
        """G=1 keyed to its own values never skips (all values present)."""
        filt = rng.integers(-3, 4, size=60).reshape(1, -1)
        t = build_filter_group_tables(filt)
        assert t.skip_entry_bubbles() == 0

    def test_layer_canonical_can_cause_skips_g1(self):
        """A tile missing mid-order values needs pointer skips."""
        canonical = np.array([9, 8, 7, 6, 5, 1, 0])  # descending, zero last
        filt = np.array([[9, 1]])  # misses ranks 1..4 between 9 and 1
        t = build_filter_group_tables(filt, canonical=canonical)
        assert t.skip_needs[0].sum() == 4
        # 4 skips, inline capacity 3 -> 1 skip entry.
        assert t.skip_entry_bubbles() == 1

    def test_trailing_gap_free(self):
        """Values after the last present rank cost nothing (filter done)."""
        canonical = np.array([9, 8, 7, 0])
        filt = np.array([[9, 9]])
        t = build_filter_group_tables(filt, canonical=canonical)
        assert t.skip_entry_bubbles() == 0

    def test_zero_boundaries_free(self):
        """Transitions into the zero group never cost skips."""
        canonical = np.array([9, 8, 7, 6, 5, 0])
        filters = np.array([[9, 0, 0], [9, 5, 5]])
        t = build_filter_group_tables(filters, canonical=canonical)
        # Filter 1's zero group (entries 1, 2) ends in a zero boundary.
        assert t.skip_needs[0][ranks(t)[0] == 5].sum() == 0

    def test_g2_empty_subgroup_skips(self):
        """An absent middle sub-group forces a pointer skip for filter 2."""
        # canonical: 3, 2, 1 (no zero). Filter1 constant -> one group.
        canonical = np.array([3, 2, 1])
        filters = np.array([[3, 3], [3, 1]])  # filter2 present: ranks 0, 2
        t = build_filter_group_tables(filters, canonical=canonical)
        assert t.skip_needs[1].sum() == 1
        assert t.skip_entry_bubbles() == 0  # within inline capacity

    def test_inline_capacity_constant(self):
        assert INLINE_SKIP_CAPACITY == 3

    def test_pointer_resets_per_parent_group(self):
        """Filter 2's rank pointer restarts in each filter-1 group."""
        canonical = np.array([4, 3, 2, 1])
        # Two filter-1 groups; filter 2 uses rank 3 (value 1) in both.
        filters = np.array([[4, 4, 3, 3], [4, 1, 4, 1]])
        t = build_filter_group_tables(filters, canonical=canonical)
        # In each parent group: visit rank 0 then rank 3 -> skip 2 each.
        assert t.skip_needs[1].sum() == 4
