"""The Figure 8 dataflow: loop nest, tiling, columns, halos, multicast.

The chip is *weight-stationary at the L2* and *output-stationary at the
PE*: weights stream from DRAM in Kc-filter chunks sized to fill the L2;
each PE owns a column of output (input columns overlap by R-1 — the
"halo"), keeps partial sums locally across all C input channels, and
writes finished outputs back to the L2.

This module turns that schedule into closed-form L2/L1 traffic and the
work-partitioning used by the simulators:

* the PE array is factored into ``pe_cols x pe_rows``; PEs in a row share
  a filter group (weights multicast across them), PEs in a column share
  an input column group (inputs multicast across them);
* an *output-column group* covers ``VW`` adjacent output columns for
  UCNN (one for dense designs) and reads ``R + VW - 1`` input columns;
* each (column group, filter slot) pair is one unit of PE work.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.buffers import TilePlan, tile_plan
from repro.arch.config import HardwareConfig
from repro.nn.tensor import ConvShape


@dataclass(frozen=True)
class WorkPartition:
    """How one layer's work maps onto the PE array.

    Attributes:
        col_groups: output-column groups (``ceil(out_w / VW)``).
        filter_slots: filter-group slots (``ceil(K / (VK or G))``).
        rounds: scheduling rounds over the PE array
            (``ceil(col_groups/pe_cols) * ceil(filter_slots/pe_rows)``).
        kc_chunks: DRAM weight chunks (Kc filters each) per Section V-A.
        tile: the channel tiling of the layer.
    """

    col_groups: int
    filter_slots: int
    rounds: int
    kc_chunks: int
    tile: TilePlan


def filters_per_slot(config: HardwareConfig) -> int:
    """Filters a PE finishes per work item (VK for dense, G for UCNN)."""
    return config.group_size if config.is_ucnn else config.vk


def kc_chunk_filters(shape: ConvShape, config: HardwareConfig) -> int:
    """Kc — filters whose weights fit the L2 weight partition at once."""
    filter_bits = shape.filter_size * config.weight_bits
    kc = max(1, (config.l2_weight_bytes * 8) // filter_bits)
    return min(kc, shape.k)


def partition_layer(shape: ConvShape, config: HardwareConfig) -> WorkPartition:
    """Partition one layer's work across the PE array."""
    per_slot = filters_per_slot(config)
    col_groups = -(-shape.out_w // config.vw)
    filter_slots = -(-shape.k // per_slot)
    rounds = (-(-col_groups // config.pe_cols)) * (-(-filter_slots // config.pe_rows))
    kc = kc_chunk_filters(shape, config)
    return WorkPartition(
        col_groups=col_groups,
        filter_slots=filter_slots,
        rounds=rounds,
        kc_chunks=-(-shape.k // kc),
        tile=tile_plan(shape, config),
    )


@dataclass(frozen=True)
class L2Traffic:
    """L2 (global buffer) access totals for one layer.

    All counts are in bits moved between the L2 and the PE array over
    the multicast buses.

    Attributes:
        weight_read_bits: weight/table bits read from L2 (each read is
            multicast to the ``pe_cols`` PEs sharing the filter slot).
        input_read_bits: input bits read from L2 (multicast to the
            ``pe_rows`` PEs sharing the column group).
        output_write_bits: finished outputs written back to the L2.
        weight_fill_bits: bits written into the L2 from DRAM.
        input_fill_bits: input bits written into the L2 (first layer /
            spills: from DRAM; otherwise they are already resident as
            the previous layer's outputs).
    """

    weight_read_bits: int
    input_read_bits: int
    output_write_bits: int
    weight_fill_bits: int
    input_fill_bits: int

    @property
    def total_access_bits(self) -> int:
        """All L2 port traffic (reads + writes)."""
        return (
            self.weight_read_bits
            + self.input_read_bits
            + self.output_write_bits
            + self.weight_fill_bits
            + self.input_fill_bits
        )


def layer_l2_traffic(
    shape: ConvShape,
    config: HardwareConfig,
    weight_stream_bits: int,
    first_layer: bool = False,
) -> L2Traffic:
    """L2 traffic for one layer under the Figure 8 schedule.

    Args:
        shape: layer geometry.
        config: design point.
        weight_stream_bits: the layer's weight representation size in
            bits (dense, RLE, or UCNN tables) — read out of the L2 once
            per column-group *batch* (multicast covers the ``pe_cols``
            PEs of a batch; ``ceil(col_groups / pe_cols)`` batches).
        first_layer: whether inputs are filled from DRAM.

    Returns:
        an :class:`L2Traffic`.
    """
    part = partition_layer(shape, config)
    col_batches = -(-part.col_groups // config.pe_cols)
    weight_read_bits = weight_stream_bits * col_batches

    # Input columns stream once per filter-slot batch (multicast across
    # the pe_rows PEs sharing a column); each column group reads
    # R + VW - 1 input columns of H x C activations (the halo overlap is
    # re-read, matching the paper's "input halos").
    slot_batches = -(-part.filter_slots // config.pe_rows)
    cols_read = part.col_groups * (shape.r + config.vw - 1)
    input_read_bits = cols_read * shape.h * shape.c * config.act_bits * slot_batches
    if shape.groups > 1:
        input_read_bits *= shape.groups

    output_write_bits = shape.num_outputs * config.act_bits
    weight_fill_bits = weight_stream_bits
    input_fill_bits = shape.num_inputs * config.act_bits if first_layer else 0
    return L2Traffic(
        weight_read_bits=weight_read_bits,
        input_read_bits=input_read_bits,
        output_write_bits=output_write_bits,
        weight_fill_bits=weight_fill_bits,
        input_fill_bits=input_fill_bits,
    )
