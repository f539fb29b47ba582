"""Single-filter factorization tables (vanilla dot product factorization).

This is the ``G = 1`` machinery of Section IV-B.  For one filter over an
``R*S*Ct`` input tile we build:

* an **input indirection table** ``iiT`` listing input-buffer addresses in
  activation-group order (sorted so the input buffer is read sequentially
  group by group);
* a **weight indirection table** ``wiT`` of *group-transition bits* — one
  bit per iiT entry, set on the last entry of each group — so the weight
  buffer is read once per group;
* a **weight buffer** holding the filter's unique non-zero values in
  canonical order.

Zero weights are sorted last and their entries are dropped from the
tables ("filter done" is encoded at the transition to zero), which is how
weight sparsity becomes a special case of weight repetition.

Large groups are *chunked* to a maximum size (default 16, Section IV-B's
arithmetic-bitwidth limit); each extra chunk triggers an early MAC with a
weight-buffer peek, costing one extra multiply.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.activation_groups import canonical_weight_order, rank_by_canonical

#: Section IV-B's maximum activation group size (4 extra multiplier bits).
DEFAULT_MAX_GROUP_SIZE = 16


@dataclass(frozen=True)
class FactorizedFilter:
    """Factorization tables for a single filter.

    Attributes:
        iit: input indirection table — indices into the flattened
            ``R*S*Ct`` input tile, in activation-group order.
        wit: group-transition bits aligned with ``iit`` (True on the last
            entry of each activation group).
        weight_buffer: unique non-zero weights, canonical order; the
            weight consumed at the i-th transition is ``weight_buffer[i]``.
        filter_size: flattened filter length ``R*S*Ct`` (for pointer-width
            and density accounting).
        max_group_size: chunk limit applied by the datapath.
    """

    iit: np.ndarray
    wit: np.ndarray
    weight_buffer: np.ndarray
    filter_size: int
    max_group_size: int = DEFAULT_MAX_GROUP_SIZE
    group_sizes: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.iit.shape != self.wit.shape:
            raise ValueError("iiT and wiT must be the same length")
        if self.iit.size:
            boundaries = np.flatnonzero(self.wit)
            if boundaries.size != self.weight_buffer.size or boundaries[-1] != self.iit.size - 1:
                raise ValueError("transition bits inconsistent with weight buffer")
            sizes = np.diff(np.concatenate([[-1], boundaries]))
        else:
            sizes = np.zeros(0, dtype=np.int64)
        object.__setattr__(self, "group_sizes", sizes.astype(np.int64))

    # -- derived counts used by the simulators ------------------------------

    @property
    def num_entries(self) -> int:
        """Stored iiT entries (= non-zero weight count of the filter)."""
        return int(self.iit.size)

    @property
    def num_groups(self) -> int:
        """Non-zero activation groups (= non-zero unique weights)."""
        return int(self.weight_buffer.size)

    @property
    def num_multiplies(self) -> int:
        """Multiplies per dot product, including chunk early-MACs.

        ``sum(ceil(gsz / max_group_size))`` over non-zero groups — equals
        ``num_groups`` when no group exceeds the chunk limit.
        """
        if self.num_entries == 0:
            return 0
        chunks = -(-self.group_sizes // self.max_group_size)
        return int(np.sum(chunks))

    @property
    def num_adds(self) -> int:
        """Adds per dot product: group accumulation + MAC accumulation.

        Each iiT entry after the first of its chunk costs one accumulator
        add; every multiply result is added into the partial sum.
        """
        return max(0, self.num_entries - self.num_multiplies) + self.num_multiplies

    def execute(self, window: np.ndarray) -> int:
        """Walk the tables over a flattened input window (Equation 2).

        Bit-exact against the dense dot product on integer inputs: walks
        iiT sequentially, accumulating activations; on each transition bit
        multiplies the group sum by the next weight-buffer entry.

        Args:
            window: flattened ``R*S*Ct`` integer input tile.

        Returns:
            the dot product value.
        """
        window = np.asarray(window, dtype=np.int64).reshape(-1)
        if window.size != self.filter_size:
            raise ValueError(f"window length {window.size} != filter size {self.filter_size}")
        psum = 0
        acc = 0
        weight_idx = 0
        chunk_count = 0
        for t in range(self.num_entries):
            acc += int(window[self.iit[t]])
            chunk_count += 1
            at_group_end = bool(self.wit[t])
            if chunk_count == self.max_group_size and not at_group_end:
                # Early MAC: peek at the current weight, don't advance.
                psum += int(self.weight_buffer[weight_idx]) * acc
                acc = 0
                chunk_count = 0
            if at_group_end:
                psum += int(self.weight_buffer[weight_idx]) * acc
                weight_idx += 1
                acc = 0
                chunk_count = 0
        return psum


def factorize_filter(
    filter_flat: np.ndarray,
    max_group_size: int = DEFAULT_MAX_GROUP_SIZE,
) -> FactorizedFilter:
    """Build single-filter factorization tables (offline step).

    The iiT is sorted in activation-group order keyed to the canonical
    weight order (zero last); zero-weight entries are dropped.

    Args:
        filter_flat: flattened integer filter of length ``R*S*Ct``.
        max_group_size: datapath chunk limit (Section IV-B, default 16).

    Returns:
        a :class:`FactorizedFilter`.
    """
    if max_group_size < 1:
        raise ValueError("max_group_size must be >= 1")
    filter_flat = np.asarray(filter_flat, dtype=np.int64).reshape(-1)
    canonical = canonical_weight_order(filter_flat)
    nonzero_canonical = canonical[canonical != 0]
    ranks = rank_by_canonical(filter_flat, canonical)
    nonzero_positions = np.flatnonzero(filter_flat != 0)
    # Stable sort by rank keeps addresses ascending within each group.
    order = np.argsort(ranks[nonzero_positions], kind="stable")
    iit = nonzero_positions[order].astype(np.int64)
    sorted_ranks = ranks[nonzero_positions][order]
    if iit.size:
        wit = np.empty(iit.size, dtype=bool)
        wit[:-1] = sorted_ranks[1:] != sorted_ranks[:-1]
        wit[-1] = True
    else:
        wit = np.zeros(0, dtype=bool)
    return FactorizedFilter(
        iit=iit,
        wit=wit,
        weight_buffer=nonzero_canonical.astype(np.int64),
        filter_size=int(filter_flat.size),
        max_group_size=max_group_size,
    )
