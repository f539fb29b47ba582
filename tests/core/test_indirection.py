"""Tests for single-filter factorization tables (iiT / wiT)."""

import numpy as np
import pytest

from repro.core.hierarchical import build_filter_group_tables
from repro.core.indirection import DEFAULT_MAX_GROUP_SIZE, factorize_filter
from repro.engine import table_program_for


class TestTableConstruction:
    def test_entries_are_nonzero_positions(self):
        filt = np.array([0, 3, 0, -1, 3])
        ff = factorize_filter(filt)
        assert sorted(ff.iit) == sorted(np.flatnonzero(filt))

    def test_entries_grouped_by_value(self):
        filt = np.array([1, 2, 1, 2, 1])
        ff = factorize_filter(filt)
        values = filt[ff.iit]
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
        ff = factorize_filter(filt)
        boundaries = np.flatnonzero(ff.wit)
        start = 0
        for end in boundaries:
            segment = ff.iit[start : end + 1]
            assert list(segment) == sorted(segment)
            start = end + 1

    def test_transition_bits_count_equals_groups(self):
        filt = np.array([1, -1, 2, 2, 1, 0])
        ff = factorize_filter(filt)
        assert int(np.sum(ff.wit)) == ff.num_groups == 3

    def test_last_entry_always_transition(self):
        ff = factorize_filter(np.array([4, 4, 1]))
        assert bool(ff.wit[-1])

    def test_weight_buffer_canonical_order_zero_excluded(self):
        filt = np.array([1, -8, 0, 2, -8])
        ff = factorize_filter(filt)
        assert list(ff.weight_buffer) == [-8, 2, 1]

    def test_weight_buffer_alignment(self):
        """The i-th transition consumes the i-th weight-buffer entry."""
        filt = np.array([3, 3, -2, 5, 0, 5])
        ff = factorize_filter(filt)
        boundaries = np.flatnonzero(ff.wit)
        for i, b in enumerate(boundaries):
            assert filt[ff.iit[b]] == ff.weight_buffer[i]

    def test_all_zero_filter_empty_tables(self):
        ff = factorize_filter(np.zeros(6, dtype=np.int64))
        assert ff.num_entries == 0
        assert ff.num_groups == 0
        assert ff.execute(np.arange(6)) == 0

    def test_invalid_max_group_size(self):
        with pytest.raises(ValueError, match="max_group_size"):
            factorize_filter(np.array([1]), max_group_size=0)

    def test_group_sizes_derived(self):
        ff = factorize_filter(np.array([1, 1, 2, 0, 2, 2]))
        assert sorted(ff.group_sizes) == [2, 3]


class TestExecution:
    def test_matches_dense_small(self):
        filt = np.array([2, -1, 2, 0, 3])
        window = np.array([5, 7, -2, 100, 1])
        ff = factorize_filter(filt)
        assert ff.execute(window) == int(filt @ window)

    def test_matches_dense_randomized(self, rng):
        for __ in range(30):
            n = int(rng.integers(1, 80))
            filt = rng.integers(-4, 5, size=n)
            window = rng.integers(-50, 51, size=n)
            ff = factorize_filter(filt)
            assert ff.execute(window) == int(filt.astype(np.int64) @ window.astype(np.int64))

    def test_chunked_execution_bit_exact(self, rng):
        """Max-group-size chunking must not change the result."""
        filt = np.full(40, 3, dtype=np.int64)  # one giant group
        window = rng.integers(-9, 10, size=40)
        for cap in (1, 2, 7, 16, 100):
            ff = factorize_filter(filt, max_group_size=cap)
            assert ff.execute(window) == int(filt @ window)

    def test_vectorized_matches_scalar(self, rng):
        """The engine's batched G=1 program agrees with the scalar table walk."""
        filt = rng.integers(-3, 4, size=30)
        windows = rng.integers(-9, 10, size=(5, 30))
        ff = factorize_filter(filt)
        (vec,) = table_program_for(build_filter_group_tables(filt[None])).run(windows)
        assert list(vec) == [ff.execute(w) for w in windows]

    def test_window_length_checked(self):
        ff = factorize_filter(np.array([1, 2]))
        with pytest.raises(ValueError, match="window length"):
            ff.execute(np.array([1, 2, 3]))


class TestCounts:
    def test_multiplies_equal_groups_without_chunking(self):
        filt = np.array([1, 1, 2, 2, 3, 3, 0])
        ff = factorize_filter(filt)
        assert ff.num_multiplies == 3

    def test_chunking_adds_multiplies(self):
        filt = np.full(33, 5, dtype=np.int64)
        ff = factorize_filter(filt, max_group_size=16)
        assert ff.num_multiplies == 3  # ceil(33/16)

    def test_default_max_group_size_is_paper_value(self):
        assert DEFAULT_MAX_GROUP_SIZE == 16

    def test_adds_count(self):
        # 5 entries, 2 groups: 3 accumulator adds + 2 MAC adds.
        filt = np.array([1, 1, 1, 2, 2])
        ff = factorize_filter(filt)
        assert ff.num_adds == 5

    def test_multiply_reduction_vs_dense(self):
        """The headline saving: multiplies drop from R*S*C to ~U."""
        rng = np.random.default_rng(0)
        filt = rng.choice([1, 2, 3, -1, -2, -3], size=900)
        ff = factorize_filter(filt)
        assert ff.num_multiplies <= 6 * int(np.ceil(900 / 16 / 6) + 6)
        assert ff.num_multiplies < 900 / 10
