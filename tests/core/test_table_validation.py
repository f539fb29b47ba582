"""Failure-injection tests: malformed tables must be rejected loudly.

The offline table generator is trusted, but anything *loading* tables
(e.g. from a serialized model) must not silently compute garbage — the
dataclass validator is the guard rail, and the per-entry walk never
wraps an index that points outside its window.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.hierarchical import FilterGroupTables, build_filter_group_tables


class TestFilterGroupTablesValidation:
    def good(self):
        return build_filter_group_tables(np.array([[1, 1, 2, 0, 2]]))

    def test_length_mismatch_rejected(self):
        good = self.good()
        with pytest.raises(ValueError, match="transitions has shape"):
            dataclasses.replace(good, iit=good.iit[:-1])

    def test_missing_final_transition_rejected(self):
        good = self.good()
        transitions = good.transitions.copy()
        transitions[0, -1] = False
        with pytest.raises(ValueError, match="transition bit"):
            dataclasses.replace(good, transitions=transitions)

    def test_transition_rows_must_match_filters(self):
        """One wiT row per filter: a G = 1 table cannot carry a second level."""
        good = self.good()
        with pytest.raises(ValueError, match=r"expected \(G, L\) = \(1, 4\)"):
            dataclasses.replace(good, transitions=np.vstack([good.transitions] * 2))

    def test_group_sizes_recovered(self):
        good = self.good()
        rebuilt = FilterGroupTables(**{f.name: getattr(good, f.name)
                                       for f in dataclasses.fields(good)})
        assert np.array_equal(rebuilt.innermost_group_sizes(), good.innermost_group_sizes())
        assert rebuilt.stats() == good.stats()

    def test_empty_tables_valid(self):
        empty = FilterGroupTables(
            filters=np.zeros((1, 4), dtype=np.int64), canonical=np.zeros(1, dtype=np.int64),
            iit=np.zeros(0, dtype=np.int64), transitions=np.zeros((1, 0), dtype=bool))
        assert empty.num_entries == 0
        assert empty.stats().multiplies == 0
        assert list(empty.execute(np.arange(4))) == [0]


class TestCorruptedExecution:
    def test_out_of_range_window_index_raises(self):
        """A table pointing outside the tile must fail, not wrap."""
        good = build_filter_group_tables(np.array([[1, 2, 1]]))
        bad = dataclasses.replace(good, iit=np.array([0, 2, 5]))  # 5 is out of the 3-entry window
        with pytest.raises(IndexError):
            bad.execute(np.array([1, 2, 3]))

    def test_filter_size_guard(self):
        good = build_filter_group_tables(np.array([[1, 2, 1]]))
        with pytest.raises(ValueError, match="window length"):
            good.execute(np.array([1, 2, 3, 4]))
