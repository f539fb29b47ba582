"""Model-size accounting (DRAM storage footprint; Section VI-D).

UCNN stores each layer as indirection tables plus a small unique-weight
list, instead of dense weights:

* iiT: one entry per stored (union-non-zero) position — an absolute
  pointer of ``ceil(log2 R*S*Ct)`` bits, or a jump of ``width_bits``;
* wiT: 1 bit per entry for filters 1..G-1 and 2 bits for the G-th filter
  (transition + inline skip), i.e. ``G + 1`` bits per entry;
* skip/hop entries enlarge the table and are included;
* the unique-weight list: ``U`` values per layer at the weight precision.

Effective *bits per weight* divides total storage by the dense weight
count ``R*S*C*K`` — the paper's normalization in Figures 13/14.  The
baselines follow the paper: DCNN_sp's 5-bit run-length encoding stores
(weight bits + 5) per *non-zero* weight; TTQ and INQ store 2- and 5-bit
codes per weight and "cannot reduce model size further due to weight
sparsity" (their codes are already below RLE metadata cost).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.jump_encoding import min_pointer_bits

#: wiT bits per stored entry for a group of G filters: 1 bit per filter
#: plus the extra inline-skip bit on the G-th filter (Section IV-C).
def wit_bits_per_entry(group_size: int) -> int:
    """Total wiT bits per table entry across a group of G filters."""
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    return group_size + 1


@dataclass(frozen=True)
class ModelSizeBreakdown:
    """Storage accounting for one layer (or network) under one scheme.

    Attributes:
        iit_bits: input indirection table bits (incl. skip/hop entries).
        wit_bits: weight indirection table bits (incl. skip entries).
        weight_bits: unique-weight list bits.
        dense_weights: dense weight count the totals are normalized by.
    """

    iit_bits: int
    wit_bits: int
    weight_bits: int
    dense_weights: int

    @property
    def total_bits(self) -> int:
        """Total storage in bits."""
        return self.iit_bits + self.wit_bits + self.weight_bits

    @property
    def bits_per_weight(self) -> float:
        """Total bits divided by the dense weight count."""
        return self.total_bits / self.dense_weights

    def __add__(self, other: "ModelSizeBreakdown") -> "ModelSizeBreakdown":
        """Component-wise sum of two breakdowns (e.g. two layers)."""
        return ModelSizeBreakdown(
            iit_bits=self.iit_bits + other.iit_bits,
            wit_bits=self.wit_bits + other.wit_bits,
            weight_bits=self.weight_bits + other.weight_bits,
            dense_weights=self.dense_weights + other.dense_weights,
        )


def ucnn_model_size(
    stored_entries: int,
    skip_entries: int,
    dense_weights: int,
    group_size: int,
    filter_size: int,
    num_unique: int,
    weight_bits: int,
    jump_bits: int | None = None,
) -> ModelSizeBreakdown:
    """UCNN table storage for one layer.

    Args:
        stored_entries: real iiT entries across all filter groups/tiles.
        skip_entries: inserted skip/hop entries (bubbles).
        dense_weights: dense weight count ``R*S*C*K``.
        group_size: G.
        filter_size: ``R*S*Ct`` (pointer width basis).
        num_unique: U (unique-weight list length).
        weight_bits: precision of a unique weight value.
        jump_bits: if given, iiT entries use this jump width instead of
            absolute pointers.

    Returns:
        a :class:`ModelSizeBreakdown`.
    """
    entry_bits = jump_bits if jump_bits is not None else min_pointer_bits(filter_size)
    total_entries = stored_entries + skip_entries
    return ModelSizeBreakdown(
        iit_bits=total_entries * entry_bits,
        wit_bits=total_entries * wit_bits_per_entry(group_size),
        weight_bits=num_unique * weight_bits,
        dense_weights=dense_weights,
    )


def model_size_bits(breakdown: ModelSizeBreakdown) -> int:
    """Total bits of a :class:`ModelSizeBreakdown` (convenience)."""
    return breakdown.total_bits


def bits_per_weight(breakdown: ModelSizeBreakdown) -> float:
    """Bits per dense weight of a breakdown (convenience)."""
    return breakdown.bits_per_weight


def dcnn_sp_model_size(
    nonzero_weights: int,
    dense_weights: int,
    weight_bits: int = 8,
    rle_bits: int = 5,
) -> ModelSizeBreakdown:
    """DCNN_sp run-length-encoded model size (Section VI-A).

    Each non-zero weight is stored at full precision plus a 5-bit run
    length; zeros cost nothing.
    """
    return ModelSizeBreakdown(
        iit_bits=nonzero_weights * rle_bits,
        wit_bits=0,
        weight_bits=nonzero_weights * weight_bits,
        dense_weights=dense_weights,
    )


def dense_model_size(dense_weights: int, weight_bits: int) -> ModelSizeBreakdown:
    """Uncompressed dense model size (DCNN)."""
    return ModelSizeBreakdown(
        iit_bits=0, wit_bits=0, weight_bits=dense_weights * weight_bits, dense_weights=dense_weights
    )


def ttq_model_size(dense_weights: int) -> ModelSizeBreakdown:
    """TTQ's 2-bit-per-weight representation (Figure 13 baseline)."""
    return ModelSizeBreakdown(iit_bits=0, wit_bits=0, weight_bits=2 * dense_weights, dense_weights=dense_weights)


def inq_model_size(dense_weights: int) -> ModelSizeBreakdown:
    """INQ's 5-bit-per-weight representation (Figure 13 baseline)."""
    return ModelSizeBreakdown(iit_bits=0, wit_bits=0, weight_bits=5 * dense_weights, dense_weights=dense_weights)
