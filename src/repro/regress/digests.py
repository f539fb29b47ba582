"""Bit-exact digests of the execution engine's numeric surface.

The figure/table experiments exercise the *analytic* models; the
compiled engine's numeric output only reaches them through parity
assertions (which raise) or wall-clock ratios (which are machine-local
and can never be golden).  This module gives the engine its own
reference entry: it compiles pinned synthetic layers, executes their
table programs (and one small fused network) over seeded inputs, and
records the results as **exact integers and checksums** — table
geometry, boundary-weight sums, output sums, and a SHA-256 over the
output bytes.

All arithmetic on this path is int64, so the digest is bit-reproducible
across machines, and the reference diffs *exactly* — a single-unit
(1-ulp) perturbation of any weight the compile reads changes
``weights_sum``/``output_sum``/``output_sha256`` and shows up in the
drift report by name.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.seeding import stable_rng
from repro.engine import compile_network, compiled_layer_for, execute_network, execute_program
from repro.experiments.common import inq_weight_provider, uniform_weight_provider
from repro.nn.layers import ConvLayer, MaxPoolLayer, ReluLayer
from repro.nn.network import Network
from repro.nn.tensor import ConvShape, TensorShape

#: The pinned layer geometries the digest covers: one padded square
#: conv, one unpadded rectangular conv with a ragged K % G.
DIGEST_SHAPES = (
    ConvShape(name="regress-sq", w=8, h=8, c=8, k=8, r=3, s=3, padding=1),
    ConvShape(name="regress-ragged", w=7, h=5, c=12, k=6, r=3, s=3, padding=0),
)

#: Group sizes swept per shape (1 = no sharing, 4 leaves ragged groups).
DIGEST_GROUP_SIZES = (1, 2, 4)

#: Seeded windows executed per program.
DIGEST_WINDOWS = 24


def _array_sha256(values: np.ndarray) -> str:
    """SHA-256 over an array's shape, dtype, and C-order bytes."""
    h = hashlib.sha256()
    h.update(str(values.shape).encode())
    h.update(str(values.dtype).encode())
    h.update(np.ascontiguousarray(values).tobytes())
    return h.hexdigest()


def _table_geometry(groups) -> tuple[list[int], list[int], int]:
    """Segments and MACs per level, and the boundary weight sum, of a layer's tables.

    Filter ``L`` of a group ends one level-``L`` segment at each entry
    whose ``transitions[L]`` bit is set, and MACs its weight there when
    that weight is non-zero.  A non-empty group with no filter ``L``
    (the ragged last group) counts one segment at level ``L``; groups
    with no entries count nothing.
    """
    live = [t for t in groups if t.num_entries]
    levels = max((t.num_filters for t in live), default=0)
    segments = np.zeros(levels, dtype=np.int64)
    macs = np.zeros(levels, dtype=np.int64)
    weights_sum = 0
    for tables in live:
        level, entry = np.nonzero(tables.transitions)
        weight = tables.filters[level, tables.iit[entry]]
        segments += np.bincount(level, minlength=levels)
        segments[tables.num_filters :] += 1
        macs += np.bincount(level[weight != 0], minlength=levels)
        weights_sum += int(weight.sum())
    return segments.tolist(), macs.tolist(), weights_sum


def _layer_digest(shape: ConvShape, group_size: int, provider) -> dict:
    """Compile one (shape, G) cell and digest its program + outputs."""
    weights = provider(shape)
    compiled = compiled_layer_for(weights, group_size=group_size)
    program = compiled.program
    flat_len = int(np.prod(shape.weight_shape[1:]))
    rng = stable_rng("regress-windows", shape.name, group_size)
    windows = rng.integers(-64, 65, size=(DIGEST_WINDOWS, flat_len))
    out = execute_program(program, windows)
    segments, macs, weights_sum = _table_geometry(compiled.groups)
    return {
        "shape": shape.name,
        "group_size": group_size,
        "num_groups": program.num_groups,
        "num_filters": program.num_filters,
        "gather_entries": program.num_entries,
        "segments_per_level": segments,
        "macs_per_level": macs,
        "weights_sum": weights_sum,
        "multiplies": int(sum(t.stats().multiplies for t in compiled.groups)),
        "output_sum": int(out.sum()),
        "output_sha256": _array_sha256(out),
    }


def _network_digest() -> dict:
    """Digest one small fused conv-relu-pool-conv network forward."""
    s1 = ConvShape(name="regress-n1", w=8, h=8, c=4, k=8, r=3, s=3, padding=1)
    pooled = MaxPoolLayer(2, 2).output_shape(s1.output_shape)
    s2 = ConvShape(name="regress-n2", w=pooled.w, h=pooled.h, c=pooled.c,
                   k=6, r=3, s=3, padding=1)
    provider = inq_weight_provider(density=0.9, tag="regress-net")
    network = Network("regress-net", TensorShape(4, 8, 8), [
        ConvLayer(s1, provider(s1)),
        ReluLayer("regress-r1"),
        MaxPoolLayer(2, 2, "regress-p1"),
        ConvLayer(s2, provider(s2)),
    ])
    program = compile_network(network)
    images = stable_rng("regress-images").integers(-8, 9, size=(4, 4, 8, 8))
    out = execute_network(program, images)
    return {
        "layers": len(network.layers),
        "batch": int(images.shape[0]),
        "output_shape": list(out.shape),
        "output_sum": int(out.sum()),
        "output_sha256": _array_sha256(out),
    }


def run(
    group_sizes: tuple[int, ...] = DIGEST_GROUP_SIZES,
    num_unique: int = 17,
    density: float = 0.9,
) -> dict:
    """Compute the engine digest over the pinned shapes.

    Args:
        group_sizes: G values swept per shape.
        num_unique: U of the synthetic uniform weights.
        density: weight density of the synthetic weights.

    Returns:
        a JSON-ready dict: one entry per (shape, G) plus the fused
        network digest — every field an exact int, string, or list.
    """
    provider = uniform_weight_provider(num_unique, density, tag="regress-digest")
    layers = [
        _layer_digest(shape, g, provider)
        for shape in DIGEST_SHAPES
        for g in group_sizes
    ]
    return {
        "layers": layers,
        "network": _network_digest(),
    }
