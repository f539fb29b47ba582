"""Activation groups and the canonical weight order (Section III-A).

Given one filter (flattened over its ``R x S x C`` extent), the input
activations that will be multiplied by the same unique weight form an
*activation group*.  Factorized dot products sum each group first and
multiply the sum by the shared weight once, so

* the number of groups equals the number of unique weights in the filter;
* the size of a group equals that weight's repetition count;
* the multiply count per dot product drops from ``R*S*C`` to ``U``.

Every indirection table in this package is keyed to a single *canonical
order* of weight values: non-zero values sorted by descending magnitude
(positive before negative on ties) with **zero always last**.  Zero-last
is load-bearing: Section IV-B encodes "filter done" at the transition to
the zero group, which is how UCNN skips zero weights entirely.

The tables that sum each group are built by
:func:`repro.core.hierarchical.build_filter_group_tables` (``G = 1``
for a single filter).
"""

from __future__ import annotations

import numpy as np


#: Widest value span (``max - min``) ranked through a lookup table, unless
#: the tensor has more elements than that; wider spans sort.
_LOOKUP_SPAN = 2**16


def _lookup_bounds(flat: np.ndarray) -> tuple[int, int] | None:
    """``(min, max)`` of ``flat`` when a lookup table over them is small enough.

    Weights are small integers (U <= 256 fixed-point values in the paper),
    so a table with one slot per value in ``[min, max]`` replaces hashing
    and binary search.  Returns ``None`` for empty input or a span wider
    than ``max(_LOOKUP_SPAN, flat.size)``.
    """
    if flat.size == 0:
        return None
    lo, hi = int(flat.min()), int(flat.max())
    return (lo, hi) if hi - lo <= max(_LOOKUP_SPAN, flat.size) else None


def canonical_weight_order(values: np.ndarray) -> np.ndarray:
    """Canonical ordering of unique weight values.

    Non-zero values first, sorted by descending ``|v|`` (positive before
    negative on equal magnitude); zero last if present.

    Args:
        values: any integer tensor (duplicates allowed).

    Returns:
        1-D int64 array of the distinct values in canonical order.
    """
    flat = np.asarray(values, dtype=np.int64).reshape(-1)
    bounds = _lookup_bounds(flat)
    if bounds is None:
        unique = np.unique(flat)
    else:
        unique = np.flatnonzero(np.bincount(flat - bounds[0])) + bounds[0]
    nonzero = unique[unique != 0]
    # Sort by (-|v|, -v): magnitude descending, then positive before negative.
    order = np.lexsort((-nonzero, -np.abs(nonzero)))
    result = nonzero[order]
    if unique.size != nonzero.size:  # zero present
        result = np.concatenate([result, np.zeros(1, dtype=np.int64)])
    return result


def rank_by_canonical(values: np.ndarray, canonical: np.ndarray) -> np.ndarray:
    """Map each value to its index ("rank") in a canonical order.

    Args:
        values: integer tensor of weights.
        canonical: 1-D canonical order containing every distinct value.

    Returns:
        int64 tensor of ranks, same shape as ``values``.

    Raises:
        ValueError: if some value is missing from ``canonical``.
    """
    values = np.asarray(values, dtype=np.int64)
    canonical = np.asarray(canonical, dtype=np.int64)
    bounds = _lookup_bounds(values.reshape(-1))
    if bounds is None:  # empty input or a wide span: binary search
        sorter = np.argsort(canonical, kind="stable")
        sorted_canonical = canonical[sorter]
        pos = np.searchsorted(sorted_canonical, values)
        pos = np.clip(pos, 0, canonical.size - 1)
        found = np.all(sorted_canonical[pos] == values)
        ranks = sorter[pos].reshape(values.shape)
    else:
        lo, hi = bounds
        # One slot per value in [lo, hi]: its rank, or -1 if not in canonical.
        # Written in reverse so a repeated value keeps its first rank.
        table = np.full(hi - lo + 1, -1, dtype=np.int64)
        idx = np.flatnonzero((canonical >= lo) & (canonical <= hi))[::-1]
        table[canonical[idx] - lo] = idx
        ranks = table[values - lo]
        found = ranks.min() >= 0
    if not found:
        raise ValueError("values contain entries not present in the canonical order")
    return ranks
