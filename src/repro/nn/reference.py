"""Dense reference implementations of CNN layer math.

These are the ground truth that every factorized/indirected UCNN execution
path must match bit-for-bit (on integer tensors).  Two convolution
implementations are provided:

* :func:`conv2d_naive` — direct translation of the paper's Equation 1,
  used for small shapes and as an independent check on the faster path;
* :func:`conv2d_im2col` — im2col + matmul, used everywhere else.

Activations are ``(C, H, W)``; weights are ``(K, C, R, S)``.  ``R`` indexes
the width axis and ``S`` the height axis, matching Equation 1's
``I[(c, x + r, y + s)]`` with ``x`` a width coordinate and ``y`` a height
coordinate.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import conv_output_hw, pool_output_hw


def pad_input(inputs: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad a ``(C, H, W)`` tensor symmetrically in H and W."""
    if padding == 0:
        return inputs
    if padding < 0:
        raise ValueError("padding must be >= 0")
    return np.pad(inputs, ((0, 0), (padding, padding), (padding, padding)))


def conv2d_naive(
    inputs: np.ndarray,
    weights: np.ndarray,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Direct-loop convolution per the paper's Equation 1.

    Args:
        inputs: ``(C, H, W)`` activation tensor.
        weights: ``(K, C, R, S)`` weight tensor.
        stride: spatial stride.
        padding: symmetric zero padding.

    Returns:
        ``(K, out_h, out_w)`` output tensor with the promoted dtype of the
        operands (int64 for integer inputs).
    """
    inputs = np.asarray(inputs)
    weights = np.asarray(weights)
    if inputs.ndim != 3 or weights.ndim != 4:
        raise ValueError("inputs must be (C,H,W) and weights (K,C,R,S)")
    c, h, w = inputs.shape
    k, wc, r, s = weights.shape
    if wc != c:
        raise ValueError(f"channel mismatch: input C={c}, weight C={wc}")
    out_h, out_w = conv_output_hw(h, w, r, s, stride, padding)
    padded = pad_input(inputs, padding)
    integer = inputs.dtype.kind == "i"
    acc_dtype = np.int64 if integer else np.float64
    out = np.zeros((k, out_h, out_w), dtype=acc_dtype)
    for kk in range(k):
        for y in range(out_h):
            for x in range(out_w):
                total = 0
                for cc in range(c):
                    for rr in range(r):
                        for ss in range(s):
                            total += weights[kk, cc, rr, ss] * padded[cc, y * stride + ss, x * stride + rr]
                out[kk, y, x] = total
    return out


def im2col(
    inputs: np.ndarray,
    r: int,
    s: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Unfold a ``(C, H, W)`` tensor into convolution columns.

    Returns a ``(C*R*S, out_h*out_w)`` matrix where column ``(y*out_w + x)``
    holds the receptive field of output position ``(y, x)`` flattened in
    ``(c, r, s)`` order — i.e. row index ``c*R*S + rr*S + ss`` holds
    ``I[c, y*stride + ss, x*stride + rr]``.  This ordering matches the
    flattening used by :mod:`repro.core` for filters, so that factorized
    dot products and the matmul reference agree entry-for-entry.
    """
    inputs = np.asarray(inputs)
    c, h, w = inputs.shape
    out_h, out_w = conv_output_hw(h, w, r, s, stride, padding)
    padded = pad_input(inputs, padding)
    cols = np.empty((c, r, s, out_h, out_w), dtype=inputs.dtype)
    for rr in range(r):
        for ss in range(s):
            patch = padded[:, ss : ss + out_h * stride : stride, rr : rr + out_w * stride : stride]
            cols[:, rr, ss] = patch
    return cols.reshape(c * r * s, out_h * out_w)


def conv2d_im2col(
    inputs: np.ndarray,
    weights: np.ndarray,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """im2col + matmul convolution; bit-exact on integer tensors.

    Args/returns as :func:`conv2d_naive`.
    """
    inputs = np.asarray(inputs)
    weights = np.asarray(weights)
    k, c, r, s = weights.shape
    if inputs.shape[0] != c:
        raise ValueError(f"channel mismatch: input C={inputs.shape[0]}, weight C={c}")
    out_h, out_w = conv_output_hw(inputs.shape[1], inputs.shape[2], r, s, stride, padding)
    if inputs.dtype.kind == "i":
        inputs = inputs.astype(np.int64)
        weights = weights.astype(np.int64)
    cols = im2col(inputs, r, s, stride, padding)
    flat_weights = weights.reshape(k, c * r * s)
    out = flat_weights @ cols
    return out.reshape(k, out_h, out_w)


def conv2d_grouped(
    inputs: np.ndarray,
    weights: np.ndarray,
    groups: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Grouped convolution (e.g. AlexNet conv2/4/5).

    ``weights`` is ``(K, C/groups, R, S)``; input channels are split into
    ``groups`` contiguous chunks, each convolved with ``K/groups`` filters.
    """
    if groups == 1:
        return conv2d_im2col(inputs, weights, stride, padding)
    k = weights.shape[0]
    c_in = inputs.shape[0]
    if k % groups or c_in % groups:
        raise ValueError("K and input C must be divisible by groups")
    k_per = k // groups
    c_per = c_in // groups
    if weights.shape[1] != c_per:
        raise ValueError(f"grouped weights must have C/groups={c_per} channels, got {weights.shape[1]}")
    parts = [
        conv2d_im2col(
            inputs[g * c_per : (g + 1) * c_per],
            weights[g * k_per : (g + 1) * k_per],
            stride,
            padding,
        )
        for g in range(groups)
    ]
    return np.concatenate(parts, axis=0)


def maxpool2d(inputs: np.ndarray, size: int, stride: int) -> np.ndarray:
    """Max pooling over ``size x size`` windows of a ``(C, H, W)`` tensor.

    Uses ceil-mode window placement (Caffe convention) so that e.g. a
    3x3/stride-2 pool of a 32x32 map yields 16x16.
    """
    c, h, w = inputs.shape
    out_h, out_w = pool_output_hw(h, w, size, stride)
    out = np.empty((c, out_h, out_w), dtype=inputs.dtype)
    for y in range(out_h):
        for x in range(out_w):
            window = inputs[:, y * stride : min(h, y * stride + size), x * stride : min(w, x * stride + size)]
            out[:, y, x] = window.max(axis=(1, 2))
    return out


def avgpool2d(inputs: np.ndarray, size: int, stride: int) -> np.ndarray:
    """Average pooling (integer inputs use floor division)."""
    c, h, w = inputs.shape
    out_h, out_w = pool_output_hw(h, w, size, stride)
    integer = inputs.dtype.kind == "i"
    out = np.empty((c, out_h, out_w), dtype=np.int64 if integer else inputs.dtype)
    for y in range(out_h):
        for x in range(out_w):
            window = inputs[:, y * stride : min(h, y * stride + size), x * stride : min(w, x * stride + size)]
            count = window.shape[1] * window.shape[2]
            total = window.sum(axis=(1, 2), dtype=np.int64 if integer else None)
            out[:, y, x] = total // count if integer else total / count
    return out


def relu(inputs: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(inputs, 0)


def fully_connected(inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Fully connected layer: ``weights (K, N) @ inputs (N,) -> (K,)``.

    The paper implements FC layers as convolutions with the input buffer
    slide reuse disabled (Section IV-E); functionally they are a matvec.
    """
    inputs = np.asarray(inputs).reshape(-1)
    weights = np.asarray(weights)
    if weights.ndim != 2 or weights.shape[1] != inputs.shape[0]:
        raise ValueError(f"weight shape {weights.shape} incompatible with input length {inputs.shape[0]}")
    if inputs.dtype.kind == "i":
        return weights.astype(np.int64) @ inputs.astype(np.int64)
    return weights @ inputs
