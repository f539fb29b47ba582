"""SRAM buffer capacity and channel-tiling helpers.

The PE works on an ``R x S x Ct`` tile of the filter at a time
(Section IV-A); ``Ct`` is chosen so the tile's input region fits the L1
input buffer.  With spatial vectorization the buffer must hold the
overlapping receptive fields of ``VW`` adjacent output columns:
``Ct * S * (VW + R - 1)`` activations (Section IV-D notes the capacity is
``O(Ct * S * (VW + R))`` thanks to slide overlap).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import HardwareConfig
from repro.nn.tensor import ConvShape


@dataclass(frozen=True)
class TilePlan:
    """Channel tiling of one layer on one design point.

    Attributes:
        channel_tile: Ct, channels per tile.
        num_tiles: ``ceil(C / Ct)``.
        tile_entries: flattened dense tile length ``R * S * Ct``.
        input_region_entries: activations resident for one tile walk
            (``Ct * S * (VW + R - 1)``).
    """

    channel_tile: int
    num_tiles: int
    tile_entries: int
    input_region_entries: int


def channel_tile(shape: ConvShape, config: HardwareConfig) -> int:
    """Largest Ct whose input region fits the design's L1 input buffer.

    Returns at least 1 even when a single channel's region overflows the
    buffer (the dataflow then spills; this matches how the paper sizes
    Table II to its networks, where this never occurs).
    """
    capacity = config.l1_input_bytes // config.act_bytes
    width = config.vw + shape.r - 1
    per_channel = shape.s * width
    return max(1, min(shape.c, capacity // per_channel))


def tile_plan(shape: ConvShape, config: HardwareConfig) -> TilePlan:
    """Channel tiling for a layer under a design point."""
    ct = channel_tile(shape, config)
    num_tiles = -(-shape.c // ct)
    return TilePlan(
        channel_tile=ct,
        num_tiles=num_tiles,
        tile_entries=shape.r * shape.s * ct,
        input_region_entries=ct * shape.s * (config.vw + shape.r - 1),
    )


def weight_buffer_entries(config: HardwareConfig) -> int:
    """Unique-weight list capacity of the UCNN PE's F buffer."""
    if not config.is_ucnn:
        return config.l1_weight_bytes // config.weight_bytes
    assert config.num_unique is not None
    return config.num_unique


def inputs_fit_on_chip(shape: ConvShape, config: HardwareConfig) -> bool:
    """Whether a layer's input activations fit the L2 input partition.

    The paper's fit criterion (footnote 2: "all but several ResNet-50
    layers can fit inputs on chip with 256 KB of storage and 8 bit
    activations"); outputs double-buffer in their own partition.  When
    inputs do not fit, the layer is spatially tiled and weights are
    re-fetched per tile.
    """
    return shape.num_inputs * config.act_bytes <= config.l2_input_bytes


def outputs_fit_on_chip(shape: ConvShape, config: HardwareConfig) -> bool:
    """Whether a layer's outputs stay in the L2 for the next layer."""
    return shape.num_outputs * config.act_bytes <= config.l2_input_bytes


def input_dram_tiles(shape: ConvShape, config: HardwareConfig) -> int:
    """Spatial input tiles when inputs overflow the L2 (else 1).

    Weights are re-fetched from DRAM once per input tile (Section V-A:
    "once if inputs fit and once per input tile otherwise").
    """
    in_bytes = shape.num_inputs * config.act_bytes
    if in_bytes <= config.l2_input_bytes:
        return 1
    return -(-in_bytes // config.l2_input_bytes)
