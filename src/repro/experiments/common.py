"""Shared plumbing for the experiment runners.

Deterministic weight generation: every (layer, scheme, density) tuple
maps to a fixed RNG seed, so all design points within one comparison see
*identical* weights, and re-runs reproduce bit-identical results.

Weight providers are frozen dataclasses rather than closures for two
runtime reasons: they pickle into :mod:`repro.runtime` worker processes,
and they hash — :func:`layer_weights` memoizes generation per
(provider, layer), so sweeps that revisit the same (layer, scheme,
density) across design points share one tensor instead of regenerating
it inside every loop iteration.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass, is_dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.core.seeding import stable_rng, stable_seed  # noqa: F401 — re-exported
from repro.nn.tensor import ConvShape
from repro.nn.zoo import get_network
from repro.quant.distributions import inq_like_weights, uniform_unique_weights

#: The three networks of Section VI-A, in the paper's order.
PAPER_NETWORKS = ("lenet", "alexnet", "resnet50")

#: Input activation density used throughout the evaluation.
INPUT_DENSITY = 0.35


def best_of(fn, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall-clock of one call to ``fn``, in seconds.

    The shared timing convention for measured (non-analytic) speedup
    numbers — min over repeats rejects scheduler noise; callers are
    responsible for warming caches before measuring.
    """
    import time

    times = []
    for __ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def network_shapes(name: str, include_fc: bool = False) -> list[ConvShape]:
    """Conv-layer geometries of a zoo network."""
    return get_network(name).conv_shapes(include_fc=include_fc)


@dataclass(frozen=True)
class UniformWeightProvider:
    """Synthetic uniform-unique weights (the paper's construction).

    Each layer's weights are seeded by (layer name, U, density, tag), so
    every design point sees identical tensors.
    """

    num_unique: int
    density: float
    tag: str = ""

    def __call__(self, shape: ConvShape) -> np.ndarray:
        return layer_weights(self, shape)

    def generate(self, shape: ConvShape) -> np.ndarray:
        """Generate the tensor (uncached; use ``__call__`` normally)."""
        rng = stable_rng("uniform", shape.name, self.num_unique, self.density, self.tag)
        return uniform_unique_weights(shape.weight_shape, self.num_unique, self.density, rng).values


@dataclass(frozen=True)
class InqWeightProvider:
    """INQ-structured weights (U = 17), seeded per (layer, density, tag)."""

    density: float | None = 0.9
    tag: str = ""

    def __call__(self, shape: ConvShape) -> np.ndarray:
        return layer_weights(self, shape)

    def generate(self, shape: ConvShape) -> np.ndarray:
        """Generate the tensor (uncached; use ``__call__`` normally)."""
        rng = stable_rng("inq", shape.name, self.density, self.tag)
        return inq_like_weights(shape.weight_shape, density=self.density, rng=rng).values


@lru_cache(maxsize=64)
def layer_weights(provider, shape: ConvShape) -> np.ndarray:
    """Memoized per-(provider, layer) weight tensor.

    Hoists generation out of design-point loops: every design point in a
    sweep that shares a (scheme, density, layer) gets the *same* array.
    The array is marked read-only because it is shared.

    maxsize must exceed the largest network's conv-layer count (ResNet-50
    has 53) or back-to-back design points sharing one provider evict each
    other's layers before reuse; 64 covers that while bounding residency.
    """
    values = provider.generate(shape)
    values.setflags(write=False)
    return values


def uniform_weight_provider(num_unique: int, density: float, tag: str = "") -> UniformWeightProvider:
    """Weight provider with the paper's synthetic construction."""
    return UniformWeightProvider(num_unique=num_unique, density=density, tag=tag)


def inq_weight_provider(density: float | None = 0.9, tag: str = "") -> InqWeightProvider:
    """Weight provider producing INQ-structured weights (U = 17)."""
    return InqWeightProvider(density=density, tag=tag)


def ucnn_config_for_group(group_size: int, bits: int = 16):
    """The Table II UCNN row whose G matches, with VW = 8 / G.

    G = 1 is the U>17 row (1920 B input buffer), G = 2 the U = 17 row,
    G = 4 the U = 3 row — the pairing Table II prescribes.  The returned
    config keeps that row's L1 sizes regardless of the weights' actual U
    (the weight-value alphabet is the experiment's choice).
    """
    import dataclasses

    from repro.arch.config import ucnn_config

    row_u = {1: 64, 2: 17, 4: 3}.get(group_size)
    if row_u is None:
        raise ValueError(f"no Table II row for G={group_size}")
    base = ucnn_config(row_u, bits)
    vw = max(1, 8 // group_size)
    pe_cols = max(1, 8 // vw)
    return dataclasses.replace(
        base, name=f"UCNN G{group_size}", group_size=group_size, vw=vw,
        pe_cols=pe_cols, pe_rows=base.num_pes // pe_cols,
    )


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (Figure 12's summary statistic)."""
    values = list(values)
    if not values:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Fixed-width text table (the bench harness prints these)."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def dump_json(result: object, path: str | Path) -> None:
    """Serialize an experiment result (dataclasses included) to JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_to_jsonable(result), indent=2, sort_keys=True))


def _to_jsonable(obj: object):
    if is_dataclass(obj) and not isinstance(obj, type):
        return {k: _to_jsonable(v) for k, v in asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    return obj
