"""Tests for single-filter factorization tables (iiT / wiT).

Section IV-B's vanilla dot product factorization is the ``G = 1`` case
of :func:`build_filter_group_tables`.
"""

import numpy as np
import pytest

from repro.core.hierarchical import DEFAULT_MAX_GROUP_SIZE, build_filter_group_tables
from repro.engine import compile_layer, execute_program


def single(filt, max_group_size=DEFAULT_MAX_GROUP_SIZE):
    """The G = 1 tables of one flat filter."""
    return build_filter_group_tables(np.asarray(filt)[None], max_group_size=max_group_size)


class TestTableConstruction:
    def test_entries_are_nonzero_positions(self):
        filt = np.array([0, 3, 0, -1, 3])
        t = single(filt)
        assert sorted(t.iit) == sorted(np.flatnonzero(filt))

    def test_entries_grouped_by_value(self):
        filt = np.array([1, 2, 1, 2, 1])
        t = single(filt)
        values = filt[t.iit]
        # Once a value changes it must never reappear (group-contiguous).
        seen = set()
        prev = None
        for v in values:
            if v != prev:
                assert v not in seen
                seen.add(v)
                prev = v

    def test_addresses_ascend_within_group(self):
        filt = np.array([1, 2, 1, 2, 1, 0, 2])
        t = single(filt)
        boundaries = np.flatnonzero(t.transitions[0])
        start = 0
        for end in boundaries:
            segment = t.iit[start : end + 1]
            assert list(segment) == sorted(segment)
            start = end + 1

    def test_transition_bits_count_equals_groups(self):
        filt = np.array([1, -1, 2, 2, 1, 0])
        t = single(filt)
        assert int(np.sum(t.transitions[0])) == t.innermost_group_sizes().size == 3

    def test_last_entry_always_transition(self):
        t = single(np.array([4, 4, 1]))
        assert bool(t.transitions[0, -1])

    def test_weight_buffer_canonical_order_zero_excluded(self):
        filt = np.array([1, -8, 0, 2, -8])
        t = single(filt)
        assert list(filt[t.iit[t.transitions[0]]]) == [-8, 2, 1]
        assert list(t.canonical) == [-8, 2, 1, 0]

    def test_weight_buffer_alignment(self):
        """The i-th transition consumes the i-th non-zero canonical weight."""
        filt = np.array([3, 3, -2, 5, 0, 5])
        t = single(filt)
        weight_buffer = t.canonical[t.canonical != 0]
        boundaries = np.flatnonzero(t.transitions[0])
        for i, b in enumerate(boundaries):
            assert filt[t.iit[b]] == weight_buffer[i]

    def test_all_zero_filter_empty_tables(self):
        t = single(np.zeros(6, dtype=np.int64))
        assert t.num_entries == 0
        assert t.stats().boundaries_per_level == (0,)
        assert list(t.execute(np.arange(6))) == [0]

    def test_invalid_max_group_size(self):
        with pytest.raises(ValueError, match="max_group_size"):
            single(np.array([1]), max_group_size=0)

    def test_group_sizes_derived(self):
        t = single(np.array([1, 1, 2, 0, 2, 2]))
        assert sorted(t.innermost_group_sizes()) == [2, 3]


class TestExecution:
    def test_matches_dense_small(self):
        filt = np.array([2, -1, 2, 0, 3])
        window = np.array([5, 7, -2, 100, 1])
        assert list(single(filt).execute(window)) == [int(filt @ window)]

    def test_matches_dense_randomized(self, rng):
        for __ in range(30):
            n = int(rng.integers(1, 80))
            filt = rng.integers(-4, 5, size=n)
            window = rng.integers(-50, 51, size=n)
            expected = int(filt.astype(np.int64) @ window.astype(np.int64))
            assert list(single(filt).execute(window)) == [expected]

    def test_chunked_execution_bit_exact(self, rng):
        """Max-group-size chunking must not change the result."""
        filt = np.full(40, 3, dtype=np.int64)  # one giant group
        window = rng.integers(-9, 10, size=40)
        for cap in (1, 2, 7, 16, 100):
            assert list(single(filt, max_group_size=cap).execute(window)) == [int(filt @ window)]

    def test_vectorized_matches_scalar(self, rng):
        """The engine's batched G=1 program agrees with the scalar table walk."""
        filt = rng.integers(-3, 4, size=30)
        windows = rng.integers(-9, 10, size=(5, 30))
        t = single(filt)
        (vec,) = execute_program(compile_layer([t]), windows)
        assert list(vec) == [int(t.execute(w)[0]) for w in windows]

    def test_window_length_checked(self):
        with pytest.raises(ValueError, match="window length"):
            single(np.array([1, 2])).execute(np.array([1, 2, 3]))


class TestCounts:
    def test_multiplies_equal_groups_without_chunking(self):
        filt = np.array([1, 1, 2, 2, 3, 3, 0])
        assert single(filt).stats().multiplies == 3

    def test_chunking_adds_multiplies(self):
        filt = np.full(33, 5, dtype=np.int64)
        assert single(filt, max_group_size=16).stats().multiplies == 3  # ceil(33/16)

    def test_default_max_group_size_is_paper_value(self):
        assert DEFAULT_MAX_GROUP_SIZE == 16

    def test_adds_count(self):
        # 5 entries, 2 groups: one accumulator add per entry, plus the
        # accumulate half of each of the 2 MACs.
        filt = np.array([1, 1, 1, 2, 2])
        assert single(filt).stats().adds == 7

    def test_multiply_reduction_vs_dense(self):
        """The headline saving: multiplies drop from R*S*C to ~U."""
        rng = np.random.default_rng(0)
        filt = rng.choice([1, 2, 3, -1, -2, -3], size=900)
        multiplies = single(filt).stats().multiplies
        assert multiplies <= 6 * int(np.ceil(900 / 16 / 6) + 6)
        assert multiplies < 900 / 10
