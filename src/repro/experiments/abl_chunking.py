"""Ablation — the maximum activation-group size (Section IV-B).

The paper caps activation groups at 16 entries so the multiplier's
activation operand grows only 4 bits; larger groups are chunked with an
early MAC per chunk.  This ablation sweeps the cap and reports the
multiply count (energy proxy) and the multiplier operand width it
implies — the trade-off the paper resolves at 16.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from repro.arch.config import ucnn_config
from repro.experiments.common import network_shapes, uniform_weight_provider
from repro.runtime import WorkItem, execute
from repro.sim.analytic import ucnn_layer_aggregate

PAPER_SWEEP = (2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class ChunkPoint:
    """Multiplies and operand width at one chunk cap."""

    max_group_size: int
    multiplies_per_walk: int
    extra_operand_bits: int


@dataclass(frozen=True)
class ChunkAblationResult:
    """The chunk-cap sweep for one network/design."""

    network: str
    group_size: int
    points: tuple[ChunkPoint, ...]

    def format_rows(self) -> list[tuple]:
        """(cap, multiplies, extra operand bits, multiplies vs cap=16)."""
        ref = next(p.multiplies_per_walk for p in self.points if p.max_group_size == 16)
        return [
            (p.max_group_size, p.multiplies_per_walk, p.extra_operand_bits,
             p.multiplies_per_walk / ref)
            for p in self.points
        ]


def run(
    network: str = "lenet",
    num_unique: int = 17,
    density: float = 0.9,
    caps: tuple[int, ...] = PAPER_SWEEP,
) -> ChunkAblationResult:
    """Sweep the chunk cap on one network's conv layers (G = 1)."""
    multiplies = execute(
        WorkItem(
            fn=_chunk_point,
            kwargs={"network": network, "num_unique": num_unique,
                    "density": density, "cap": cap},
            label=f"abl-chunk:{cap}",
        )
        for cap in caps
    )
    points = [
        ChunkPoint(
            max_group_size=cap,
            multiplies_per_walk=mult,
            extra_operand_bits=int(math.ceil(math.log2(cap))),
        )
        for cap, mult in zip(caps, multiplies)
    ]
    return ChunkAblationResult(network=network, group_size=1, points=tuple(points))


def _chunk_point(network: str, num_unique: int, density: float, cap: int) -> int:
    """Design point: total multiplies per walk at one chunk cap."""
    provider = uniform_weight_provider(num_unique, density, tag="abl-chunk")
    base = ucnn_config(num_unique, 16)
    config = dataclasses.replace(
        base, name="UCNN G1", group_size=1, vw=8, pe_cols=1, pe_rows=32,
        max_group_size=cap)
    return sum(
        ucnn_layer_aggregate(provider(shape), shape, config).multiplies
        for shape in network_shapes(network)
    )
