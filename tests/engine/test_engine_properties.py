"""Hypothesis properties: engine ≡ per-entry walk ≡ dense reference.

The compiled segment scan must be *bit-identical* to both ground truths
for every table the builder can produce — across group sizes 1..8,
zero-heavy filters, empty (sub-)groups, chunking limits, and
layer-canonical orders whose absent values force pointer skips and skip
entries.  Compilation must also leave the tables' event accounting
(:class:`TableStats`) untouched: the engine changes how fast the walk
runs, never what the walk would have cost.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hierarchical import build_filter_group_tables
from repro.engine import compile_layer, execute_program

# Alphabets that exercise the interesting layouts: zero-heavy filters
# (most entries dropped), tiny alphabets (huge activation groups that
# trip chunking), and wider ones (many small groups).
_alphabets = st.sampled_from([
    (0, 0, 0, 1),            # extremely sparse
    (0, 0, 1, -1),           # zero-heavy ternary
    (-1, 0, 1, 2, -2),       # small signed
    (1, 2),                  # dense, no zeros, big groups
    (-3, -2, -1, 0, 1, 2, 3),
])


@st.composite
def _table_case(draw):
    g = draw(st.integers(min_value=1, max_value=8))
    n = draw(st.integers(min_value=1, max_value=48))
    alphabet = draw(_alphabets)
    filters = draw(
        st.lists(
            st.lists(st.sampled_from(alphabet), min_size=n, max_size=n),
            min_size=g,
            max_size=g,
        )
    )
    filters = np.asarray(filters, dtype=np.int64)
    max_group_size = draw(st.sampled_from([1, 2, 3, 16]))
    # Optionally key to a wider canonical order (absent mid-order values
    # induce the skip-entry layouts of Section IV-C).
    use_layer_canonical = draw(st.booleans())
    canonical = None
    if use_layer_canonical:
        extra = np.array([9, 8, 7, 6, 5, 4, 3, 2, 1, 0], dtype=np.int64)
        present = np.unique(np.abs(filters))
        values = np.unique(np.concatenate([np.unique(filters), extra[: 4 + present.size]]))
        # Descending magnitude with zero last, the canonical convention.
        nonzero = values[values != 0]
        order = nonzero[np.argsort(-np.abs(nonzero), kind="stable")]
        canonical = np.concatenate([order, [0]]) if (values == 0).any() else order
    num_windows = draw(st.integers(min_value=1, max_value=6))
    windows = draw(
        st.lists(
            st.lists(st.integers(min_value=-50, max_value=50), min_size=n, max_size=n),
            min_size=num_windows,
            max_size=num_windows,
        )
    )
    return filters, canonical, max_group_size, np.asarray(windows, dtype=np.int64)


@settings(max_examples=80, deadline=None)
@given(_table_case())
def test_engine_equals_walk_equals_dense(case):
    filters, canonical, max_group_size, windows = case
    tables = build_filter_group_tables(
        filters, canonical=canonical, max_group_size=max_group_size
    )
    program = compile_layer([tables])
    engine_out = execute_program(program, windows)
    dense = filters @ windows.T
    assert np.array_equal(engine_out, dense)
    for i in range(windows.shape[0]):
        assert np.array_equal(engine_out[:, i], tables.execute(windows[i]))


@settings(max_examples=40, deadline=None)
@given(_table_case())
def test_compilation_preserves_table_stats(case):
    filters, canonical, max_group_size, __ = case
    tables = build_filter_group_tables(
        filters, canonical=canonical, max_group_size=max_group_size
    )
    before = tables.stats()
    program = compile_layer([tables])
    assert tables.stats() == before
    # The program's terms stay within the walk's boundary MACs (chunk
    # early-MACs are accounted separately) plus one closing read per
    # stretch of non-zero weights.
    assert program.cols.size <= term_bound(tables)


def term_bound(tables):
    """Most terms a table compiles to: boundary MACs plus non-zero stretches.

    Filter ``L``'s terms sit at its level-``L`` boundaries where the
    weight changes; such a boundary either MACs a non-zero weight or
    ends a zero one just before a stretch of non-zero weights starts.
    """
    macs = tables.stats().multiplies - tables.chunk_early_macs()
    stretches = 0
    for level in range(tables.num_filters):
        nonzero = tables.filters[level, tables.iit[tables.transitions[level]]] != 0
        stretches += int(np.count_nonzero(nonzero[1:] & ~nonzero[:-1])) + int(nonzero[:1].sum())
    return macs + stretches
