"""Partial product reuse (Section III-C) — extension/ablation module.

The paper identifies a third reuse opportunity it does *not* exploit in
UCNN (it composes poorly with factorization): when the same weight value
appears across filters within one input channel — i.e. anywhere in the
``R x S x K`` extent of channel ``c`` — the partial product
``weight * activation`` can be memoized and reused across filters and
across filter slides (Figure 1c's 1-D example).

We implement it as a standalone analysis/execution path so its potential
can be quantified against factorization (an ablation the paper's
Section III-C invites):

* :func:`memoized_conv1d` — the Figure 1c scheme on 1-D convolutions,
  bit-exact with a dense 1-D reference, counting memo hits;
* :func:`partial_product_savings` — for a full conv layer, the fraction
  of partial products that are redundant under per-channel memoization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MemoStats:
    """Multiplication accounting for partial-product memoization.

    Attributes:
        dense_multiplies: multiplies a dense evaluation performs.
        unique_products: distinct (weight value, activation site) pairs —
            the multiplies actually needed with a perfect memo.
        memo_hits: dense multiplies avoided via the memo.
    """

    dense_multiplies: int
    unique_products: int

    @property
    def memo_hits(self) -> int:
        """Dense multiplies avoided via the memo."""
        return self.dense_multiplies - self.unique_products

    @property
    def multiply_savings(self) -> float:
        """Dense over memoized multiply count (>= 1.0)."""
        if self.unique_products == 0:
            return float("inf") if self.dense_multiplies else 1.0
        return self.dense_multiplies / self.unique_products


def conv1d_dense(inputs: np.ndarray, filt: np.ndarray) -> np.ndarray:
    """Dense 1-D valid convolution (correlation form, as in Figure 1a)."""
    inputs = np.asarray(inputs, dtype=np.int64)
    filt = np.asarray(filt, dtype=np.int64)
    n, r = inputs.size, filt.size
    if r > n:
        raise ValueError("filter longer than input")
    out = np.empty(n - r + 1, dtype=np.int64)
    for x in range(out.size):
        out[x] = int(np.dot(filt, inputs[x : x + r]))
    return out


def memoized_conv1d(inputs: np.ndarray, filt: np.ndarray) -> tuple[np.ndarray, MemoStats]:
    """1-D convolution with partial products memoized (Figure 1c).

    Each product ``weight_value * inputs[i]`` is computed at most once
    and reused whenever any filter tap with the same value lands on the
    same input element at another slide position.

    Returns:
        (outputs, stats) — outputs bit-exact with :func:`conv1d_dense`.
    """
    inputs = np.asarray(inputs, dtype=np.int64)
    filt = np.asarray(filt, dtype=np.int64)
    n, r = inputs.size, filt.size
    memo: dict[tuple[int, int], int] = {}
    dense_multiplies = 0
    out = np.zeros(n - r + 1, dtype=np.int64)
    for x in range(out.size):
        total = 0
        for tap in range(r):
            weight = int(filt[tap])
            if weight == 0:
                continue
            key = (weight, x + tap)
            dense_multiplies += 1
            if key not in memo:
                memo[key] = weight * int(inputs[x + tap])
            total += memo[key]
        out[x] = total
    stats = MemoStats(dense_multiplies=dense_multiplies, unique_products=len(memo))
    return out, stats


def partial_product_savings(weights: np.ndarray, out_positions: int) -> MemoStats:
    """Memoization potential for a full conv layer (analytic).

    For each input channel ``c``, the taps ``F[:, c, :, :]`` contain some
    number of *distinct non-zero values* ``u_c``; under per-channel
    memoization across the ``R x S x K`` extent (the paper's condition),
    each activation needs at most ``u_c`` multiplies instead of one per
    non-zero tap.

    Args:
        weights: ``(K, C, R, S)`` integer weight tensor.
        out_positions: output positions the layer computes (``out_h *
            out_w``); with unit stride nearly every input element is
            visited by every tap, so per-activation savings scale
            directly to layer savings.

    Returns:
        a :class:`MemoStats` with layer-level multiply counts.
    """
    weights = np.asarray(weights, dtype=np.int64)
    if weights.ndim != 4:
        raise ValueError("weights must be (K, C, R, S)")
    k, c, r, s = weights.shape
    dense = 0
    unique = 0
    for channel in range(c):
        taps = weights[:, channel, :, :].reshape(-1)
        nonzero = taps[taps != 0]
        dense += int(nonzero.size) * out_positions
        unique += int(np.unique(nonzero).size) * out_positions
    return MemoStats(dense_multiplies=dense, unique_products=unique)
