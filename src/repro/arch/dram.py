"""DRAM traffic accounting per design (Sections V, VI).

The dataflow reads all weights from DRAM every layer (once per spatial
input tile when activations overflow the L2).  Input activations hit DRAM
only for the first layer or when the layer is spatially tiled; outputs
are written to DRAM only in the tiled case (otherwise they stay in the
L2 as the next layer's inputs).

Per-design weight representations in DRAM:

* **DCNN** — dense weights at full precision;
* **DCNN_sp** — non-zero weights at full precision plus a 5-bit run
  length each (Section VI-A);
* **UCNN** — the indirection tables + unique-weight lists accounted by
  :mod:`repro.core.model_size` (activation-group reuse compresses these
  by ``O(G)``).

Activations in DRAM are RLE-compressed for DCNN_sp only (same 5-bit
scheme); DCNN and UCNN ship them dense.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.buffers import input_dram_tiles, inputs_fit_on_chip, outputs_fit_on_chip
from repro.arch.config import DesignKind, HardwareConfig
from repro.core.model_size import ModelSizeBreakdown, dcnn_sp_model_size, dense_model_size
from repro.nn.tensor import ConvShape

#: DRAM energy per bit (Section VI-A).
DRAM_PJ_PER_BIT = 20.0

#: Run-length field width of the DCNN_sp compression (Section VI-A).
RLE_BITS = 5


@dataclass(frozen=True)
class DramTraffic:
    """DRAM bit totals for one layer on one design.

    Attributes:
        weight_bits: weight/table bits fetched (incl. per-tile refetch).
        input_bits: input activation bits read from DRAM.
        output_bits: output activation bits written to DRAM.
    """

    weight_bits: int
    input_bits: int
    output_bits: int

    @property
    def total_bits(self) -> int:
        """All DRAM traffic for the layer."""
        return self.weight_bits + self.input_bits + self.output_bits

    @property
    def energy_pj(self) -> float:
        """DRAM energy at 20 pJ/bit."""
        return self.total_bits * DRAM_PJ_PER_BIT


def activation_dram_bits(
    count: int,
    config: HardwareConfig,
    density: float,
) -> int:
    """DRAM bits for ``count`` activations under a design's compression.

    DCNN_sp run-length-encodes, falling back to the dense layout when
    the RLE would be larger (density too high for the 5-bit metadata to
    pay off) — the obvious format choice any RLE DRAM interface makes.
    """
    dense_bits = count * config.act_bits
    if config.kind is DesignKind.DCNN_SP:
        nonzero = int(round(count * density))
        return min(dense_bits, nonzero * (config.act_bits + RLE_BITS))
    return dense_bits


def dense_weight_model(shape: ConvShape, config: HardwareConfig) -> ModelSizeBreakdown:
    """Dense weight footprint for DCNN."""
    return dense_model_size(shape.num_weights, config.weight_bits)


def sparse_weight_model(
    shape: ConvShape, config: HardwareConfig, weight_density: float
) -> ModelSizeBreakdown:
    """RLE weight footprint for DCNN_sp (dense fallback when RLE loses)."""
    nonzero = int(round(shape.num_weights * weight_density))
    rle = dcnn_sp_model_size(nonzero, shape.num_weights, config.weight_bits, RLE_BITS)
    dense = dense_model_size(shape.num_weights, config.weight_bits)
    return rle if rle.total_bits <= dense.total_bits else dense


def layer_dram_traffic(
    shape: ConvShape,
    config: HardwareConfig,
    weight_model: ModelSizeBreakdown,
    input_density: float = 0.35,
    first_layer: bool = False,
) -> DramTraffic:
    """DRAM traffic for one layer.

    Args:
        shape: layer geometry.
        config: design point.
        weight_model: the design's weight representation for this layer.
        input_density: activation non-zero fraction (35% in the paper).
        first_layer: the network's first layer reads its inputs from DRAM
            even when they fit on chip.

    Returns:
        a :class:`DramTraffic`.

    Inputs come from DRAM when they did not fit the L2 (they were spilled
    by the producing layer) or for the network's first layer; outputs go
    to DRAM when they will not fit.  Weights are fetched once per spatial
    input tile.
    """
    tiles = input_dram_tiles(shape, config)
    weight_bits = weight_model.total_bits * tiles
    input_bits = 0
    output_bits = 0
    if first_layer or not inputs_fit_on_chip(shape, config):
        input_bits = activation_dram_bits(shape.num_inputs, config, input_density)
    if not outputs_fit_on_chip(shape, config):
        output_bits = activation_dram_bits(shape.num_outputs, config, input_density)
    return DramTraffic(weight_bits=weight_bits, input_bits=input_bits, output_bits=output_bits)
