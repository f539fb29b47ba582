"""Tests for activation groups and the canonical weight order that keys them.

Activation groups (Section III-B) are not a type of their own: they are
the segments of a :class:`FilterGroupTables` iiT between transition
bits, so these tests read them off the tables.
"""

import numpy as np
import pytest

from repro.core.activation_groups import canonical_weight_order, rank_by_canonical
from repro.core.hierarchical import build_filter_group_tables


def table_groups(tables, level=0):
    """``(weight, positions)`` of each level-``level`` group, in traversal order."""
    ends = np.flatnonzero(tables.transitions[level])
    starts = np.concatenate([[0], ends[:-1] + 1])
    return [(int(tables.filters[level, tables.iit[e]]), tables.iit[s : e + 1])
            for s, e in zip(starts, ends)]


class TestCanonicalWeightOrder:
    def test_zero_sorted_last(self):
        order = canonical_weight_order(np.array([0, 3, -1, 2]))
        assert order[-1] == 0

    def test_descending_magnitude(self):
        order = canonical_weight_order(np.array([1, -4, 2, 8]))
        assert list(np.abs(order)) == sorted(np.abs(order), reverse=True)

    def test_positive_before_negative_on_tie(self):
        order = canonical_weight_order(np.array([-4, 4, -2, 2]))
        assert list(order) == [4, -4, 2, -2]

    def test_no_zero_when_absent(self):
        order = canonical_weight_order(np.array([5, -5, 1]))
        assert 0 not in order

    def test_duplicates_collapsed(self):
        order = canonical_weight_order(np.array([3, 3, 3, -1, -1]))
        assert order.size == 2

    def test_single_value(self):
        assert list(canonical_weight_order(np.array([7, 7]))) == [7]

    def test_all_zero(self):
        assert list(canonical_weight_order(np.zeros(4, dtype=np.int64))) == [0]

    def test_deterministic(self):
        values = np.array([4, -4, 0, 1, -3])
        a = canonical_weight_order(values)
        b = canonical_weight_order(values[::-1])
        assert np.array_equal(a, b)


class TestRankByCanonical:
    def test_ranks_match_positions(self):
        canonical = canonical_weight_order(np.array([0, 2, -1]))
        ranks = rank_by_canonical(np.array([2, -1, 0, 2]), canonical)
        assert list(ranks) == [0, 1, 2, 0]

    def test_shape_preserved(self):
        canonical = np.array([3, 1, 0])
        values = np.array([[1, 3], [0, 0]])
        assert rank_by_canonical(values, canonical).shape == (2, 2)

    def test_missing_value_raises(self):
        with pytest.raises(ValueError, match="not present"):
            rank_by_canonical(np.array([9]), np.array([1, 2, 0]))


class TestActivationGroupsInTables:
    def test_group_per_unique_nonzero(self):
        tables = build_filter_group_tables(np.array([[2, 2, -1, 0, -1, 2]]))
        assert [w for w, __ in table_groups(tables)] == [2, -1]

    def test_sizes_are_repetition_counts(self):
        tables = build_filter_group_tables(np.array([[2, 2, -1, 0, -1, 2]]))
        assert [p.size for __, p in table_groups(tables)] == [3, 2]
        assert list(tables.innermost_group_sizes()) == [3, 2]

    def test_group_sizes_follow_canonical_order(self):
        # Canonical order: -2 (larger magnitude) first, then 1.
        tables = build_filter_group_tables(np.array([[1, 1, 1, -2, 0]]))
        assert list(tables.innermost_group_sizes()) == [1, 3]

    def test_indices_point_at_weight(self):
        filt = np.array([5, 0, 5, -3])
        for weight, positions in table_groups(build_filter_group_tables(filt[None])):
            assert np.all(filt[positions] == weight)

    def test_zero_group_excluded_at_g1(self):
        tables = build_filter_group_tables(np.array([[0, 0, 1]]))
        assert [(w, list(p)) for w, p in table_groups(tables)] == [(1, [2])]

    def test_zero_group_stored_last_when_another_filter_needs_it(self):
        """Filter 1's zero group holds filter 2's positions, sorts last and never MACs."""
        tables = build_filter_group_tables(np.array([[0, 0, 1], [4, 4, 4]]))
        assert [(w, list(p)) for w, p in table_groups(tables)] == [(1, [2]), (0, [0, 1])]
        window = np.array([10, -3, 7])
        assert list(tables.execute(window)) == [7, 4 * 14]
        # Filter 1 MACs its one non-zero group; filter 2 MACs once per parent group.
        assert tables.stats().multiplies == 3

    def test_gather_sum_reconstructs_the_dot_product(self, rng):
        """Equation 2 read off the tables: sum over groups of weight x gathered inputs."""
        filt = rng.integers(-3, 4, size=40)
        window = rng.integers(-9, 10, size=40)
        tables = build_filter_group_tables(filt[None])
        factored = sum(w * int(window[p].sum()) for w, p in table_groups(tables))
        assert factored == int(tables.execute(window)[0]) == int(filt @ window)

    def test_layer_canonical_values_absent_from_filter_have_no_group(self):
        tables = build_filter_group_tables(np.array([[1, 5, 0, 1]]), canonical=np.array([9, 5, 1, 0]))
        assert [(w, p.size) for w, p in table_groups(tables)] == [(5, 1), (1, 2)]
