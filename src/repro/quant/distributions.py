"""Synthetic weight generators matching the paper's evaluation setup.

Section VI-B: "For each density, we set (100-density)% of weights to 0 and
set the remaining weights to non-zero values via a uniform distribution."
:func:`uniform_unique_weights` is that construction, parameterized by the
number of unique weights ``U``.

:func:`inq_like_weights` produces weights with the *structure* of an
INQ-trained model (powers-of-two levels, U = 17, ~90% density): Gaussian
weights passed through the faithful INQ quantizer, optionally adjusted to
an exact density.  This is the substitution for the authors' INQ training
runs documented in DESIGN.md §5 — every UCNN mechanism depends only on the
repeated-value structure, which this preserves.
"""

from __future__ import annotations

import numpy as np

from repro.quant.inq import INQ_DEFAULT_LEVELS, quantize_inq
from repro.quant.sparsify import prune_to_density, random_prune
from repro.quant.types import QuantizedWeights


def gaussian_weights(
    shape: tuple[int, ...],
    std: float = 0.05,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Real-valued Gaussian "trained-looking" weights (He-style init scale)."""
    rng = rng or np.random.default_rng(0)
    return rng.normal(0.0, std, size=shape)


def nonzero_value_palette(num_unique: int) -> np.ndarray:
    """Distinct non-zero integer weight values for a target ``U``.

    Returns ``num_unique - 1`` distinct non-zero int64 values, symmetric
    around zero, spread over the int8-style range [-127, 127] when they
    fit (so 8-bit energy accounting stays honest) and over a wider range
    otherwise.

    ``num_unique`` counts zero, matching the paper's "U = 17 (16 non-zero
    weights plus zero)" convention.
    """
    if num_unique < 2:
        raise ValueError("need at least 2 unique values (zero plus one)")
    count = num_unique - 1
    half = (count + 1) // 2
    limit = max(127, half)
    positives = np.unique(np.linspace(1, limit, half).round().astype(np.int64))
    # Ensure exactly `half` distinct positives even after rounding collisions.
    while positives.size < half:
        extra = positives[-1] + 1 + np.arange(half - positives.size)
        positives = np.unique(np.concatenate([positives, extra]))
    negatives = -positives[: count - half]
    values = np.concatenate([negatives[::-1], positives[:half]])
    assert values.size == count and 0 not in values
    return np.sort(values)


def uniform_unique_weights(
    shape: tuple[int, ...],
    num_unique: int,
    density: float = 1.0,
    rng: np.random.Generator | None = None,
) -> QuantizedWeights:
    """The paper's synthetic weight construction (Section VI-B).

    Each weight is drawn uniformly from ``num_unique - 1`` distinct
    non-zero values; then ``(1 - density)`` of all positions are zeroed
    uniformly at random.

    Args:
        shape: weight tensor shape, e.g. ``(K, C, R, S)``.
        num_unique: ``U`` including the zero value.
        density: fraction of non-zero weights.
        rng: numpy Generator (seeded default for reproducibility).

    Returns:
        :class:`QuantizedWeights` with ``U <= num_unique`` unique values.
    """
    rng = rng or np.random.default_rng(0)
    palette = nonzero_value_palette(num_unique)
    values = rng.choice(palette, size=shape)
    if density < 1.0:
        values = random_prune(values, density, rng)
    return QuantizedWeights(values, 1.0, f"uniform-U{num_unique}")


def inq_like_weights(
    shape: tuple[int, ...],
    density: float | None = 0.9,
    num_levels: int = INQ_DEFAULT_LEVELS,
    std: float = 0.05,
    rng: np.random.Generator | None = None,
) -> QuantizedWeights:
    """INQ-structured synthetic weights (pow-2 levels, U = 17 default).

    Gaussian weights are INQ-quantized; if ``density`` is given, the
    tensor is magnitude-pruned (or zeros are promoted to the smallest
    level) so the non-zero fraction matches exactly, as the paper reports
    ~90% density for its INQ-trained models.

    Args:
        shape: weight tensor shape.
        density: exact target non-zero fraction, or ``None`` to keep
            whatever density INQ quantization naturally produces.
        num_levels: non-zero INQ levels (16 -> U = 17).
        std: Gaussian standard deviation before quantization.
        rng: numpy Generator.
    """
    rng = rng or np.random.default_rng(0)
    raw = gaussian_weights(shape, std=std, rng=rng)
    quantized = quantize_inq(raw, num_levels=num_levels)
    values = quantized.values
    if density is not None:
        current = np.count_nonzero(values) / values.size
        if current > density:
            values = prune_to_density(values, density, rng)
        elif current < density:
            # Promote random zeros to the smallest +-1 levels to raise density.
            flat = values.reshape(-1).copy()
            zeros = np.flatnonzero(flat == 0)
            need = int(round(values.size * density)) - (values.size - zeros.size)
            promote = rng.choice(zeros, size=max(0, need), replace=False)
            flat[promote] = rng.choice(np.array([-1, 1], dtype=np.int64), size=promote.size)
            values = flat.reshape(values.shape)
    return QuantizedWeights(values, quantized.scale, "inq-like")
