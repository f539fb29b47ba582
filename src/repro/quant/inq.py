"""INQ-style powers-of-two quantization.

Incremental Network Quantization (Zhou et al., ICLR'17) constrains weights
to zero or powers of two: ``{0} U {+-2^p : n2 <= p <= n1}``.  The paper's
evaluation uses the INQ 5-bit configuration with **U = 17** unique values
(16 non-zero levels = 8 exponents x 2 signs, plus zero).

We implement the quantization step of INQ (without retraining): given
real-valued weights,

1. choose the top exponent ``n1 = floor(log2(4*max|w|/3))`` so the largest
   weights round to ``2^n1`` (INQ's published rule);
2. use ``num_levels/2`` exponents ``n1, n1-1, ..., n2``;
3. round each weight to the nearest level in the linear domain, with
   magnitudes below ``2^n2 / 2`` snapping to zero.

The result is returned on an integer grid where the smallest level
``2^n2`` maps to the integer 1, so levels are ``{0, +-1, +-2, ..., +-2^(L-1)}``
with ``L = num_levels/2`` — exactly representable integers that preserve
the repetition structure UCNN exploits.
"""

from __future__ import annotations

import math

import numpy as np

from repro.quant.types import QuantizedWeights

#: Default number of non-zero levels (INQ 5-bit: 16 non-zero + zero -> U=17).
INQ_DEFAULT_LEVELS = 16


def inq_levels(max_abs: float, num_levels: int = INQ_DEFAULT_LEVELS) -> tuple[int, int]:
    """Return the exponent range ``(n1, n2)`` for INQ quantization.

    ``n1`` is the top exponent, chosen per the INQ rule so that values in
    ``(2^n1 * 2/3, max]`` round up to ``2^n1``; ``n2 = n1 - num_levels/2 + 1``.

    Raises:
        ValueError: if ``max_abs`` is not positive or ``num_levels`` odd.
    """
    if max_abs <= 0:
        raise ValueError("max_abs must be positive")
    if num_levels < 2 or num_levels % 2:
        raise ValueError("num_levels must be a positive even number (sign pairs)")
    n1 = math.floor(math.log2(4.0 * max_abs / 3.0))
    n2 = n1 - num_levels // 2 + 1
    return n1, n2


def quantize_inq(weights: np.ndarray, num_levels: int = INQ_DEFAULT_LEVELS) -> QuantizedWeights:
    """Quantize real weights to INQ powers-of-two on an integer grid.

    Args:
        weights: real-valued weight tensor (any shape).
        num_levels: number of non-zero levels; U = num_levels + 1.

    Returns:
        :class:`QuantizedWeights` whose integer values are
        ``{0, +-1, +-2, ..., +-2^(num_levels/2 - 1)}`` and whose ``scale``
        is ``2^n2`` (the real value of integer 1).
    """
    weights = np.asarray(weights, dtype=np.float64)
    max_abs = float(np.max(np.abs(weights))) if weights.size else 0.0
    if max_abs == 0.0:
        return QuantizedWeights(np.zeros(weights.shape, dtype=np.int64), 1.0, "inq")
    n1, n2 = inq_levels(max_abs, num_levels)
    num_exponents = num_levels // 2
    # Integer magnitudes of the levels: 1, 2, 4, ..., 2^(num_exponents-1).
    level_mags = 2 ** np.arange(num_exponents, dtype=np.int64)
    scale = 2.0**n2

    mags = np.abs(weights) / scale  # magnitudes in units of the smallest level
    signs = np.sign(weights).astype(np.int64)
    # Snap to nearest level (geometric spacing): boundaries at midpoints.
    boundaries = (level_mags[:-1] + level_mags[1:]) / 2.0
    idx = np.searchsorted(boundaries, mags)  # 0..num_exponents-1
    quantized = level_mags[idx] * signs
    # Below half the smallest level -> zero (INQ prunes these to 0).
    quantized[mags < 0.5] = 0
    # Above the top level saturate to the top level (already handled by idx).
    return QuantizedWeights(quantized, scale, "inq")
