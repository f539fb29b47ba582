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


def canonical_weight_order(values: np.ndarray) -> np.ndarray:
    """Canonical ordering of unique weight values.

    Non-zero values first, sorted by descending ``|v|`` (positive before
    negative on equal magnitude); zero last if present.

    Args:
        values: any integer tensor (duplicates allowed).

    Returns:
        1-D int64 array of the distinct values in canonical order.
    """
    unique = np.unique(np.asarray(values, dtype=np.int64))
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
    sorter = np.argsort(canonical, kind="stable")
    sorted_canonical = canonical[sorter]
    pos = np.searchsorted(sorted_canonical, values)
    pos = np.clip(pos, 0, canonical.size - 1)
    if not np.all(sorted_canonical[pos] == values):
        raise ValueError("values contain entries not present in the canonical order")
    return sorter[pos].reshape(values.shape)
