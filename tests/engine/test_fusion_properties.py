"""Hypothesis properties: fused engine ≡ dense reference.

The fused whole-network executor must be *bit-identical* to the
layer-at-a-time ``forward_batch`` reference and to stacking the dense
per-image ``forward`` — across group sizes 1..8 (including ragged
``K % G`` layers), non-square windows, padding 0..2 and stride 1..3 (so
output widths that are not a multiple of the kernel's four-window
blocks, and blocks that straddle output rows and images), FC layers
with or without a preceding flatten and sometimes a second FC after the
first, zero-heavy activations, every thread count, and repeated runs.
Threads split a step's windows in whole four-window blocks, each
writing its own output columns; batches of one to four images give
steps fewer blocks than threads, and three threads cut the blocks
unevenly.  Bit-identity across thread counts is a hard determinism
contract, not a tolerance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import compile_network, execute_network
from repro.nn.layers import (
    AvgPoolLayer,
    ConvLayer,
    FlattenLayer,
    FullyConnectedLayer,
    MaxPoolLayer,
    ReluLayer,
)
from repro.nn.network import Network
from repro.nn.tensor import ConvShape, TensorShape


@st.composite
def _network_case(draw):
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    c = draw(st.integers(min_value=1, max_value=4))
    size = draw(st.integers(min_value=5, max_value=10))
    group_size = draw(st.integers(min_value=1, max_value=8))
    # k deliberately not rounded to G so ragged K % G groups are common.
    k1 = draw(st.integers(min_value=1, max_value=9))
    # r (along width) and s (along height) are drawn independently.
    r = draw(st.sampled_from([1, 2, 3, 5]))
    s = draw(st.sampled_from([1, 2, 3, 5]))
    padding = draw(st.integers(min_value=0, max_value=2))
    stride = draw(st.integers(min_value=1, max_value=3))
    # Zero-heavy weights exercise dead segments and empty groups;
    # zero-heavy activations leave whole windows and taps at zero.
    weight_zero_frac = draw(st.sampled_from([0.0, 0.3, 0.9]))
    act_zero_frac = draw(st.sampled_from([0.0, 0.5, 0.95]))

    def conv(name, w, h, cin, k):
        shape = ConvShape(name=name, w=w, h=h, c=cin, k=k, r=r, s=s,
                          stride=stride, padding=padding)
        weights = rng.integers(-3, 4, size=shape.weight_shape).astype(np.int64)
        weights[rng.random(weights.shape) < weight_zero_frac] = 0
        return ConvLayer(shape, weights)

    layers = [conv("c1", size, size, c, k1)]
    shape = layers[0].shape.output_shape
    if draw(st.booleans()):
        layers.append(ReluLayer("r1"))
    if draw(st.booleans()) and shape.h >= 2 and shape.w >= 2:
        # Overlapping (3, 2) and (3, 1) windows clip at ceil-mode edges.
        size_stride = draw(st.sampled_from([(2, 2), (3, 2), (3, 1)]))
        pool = draw(st.sampled_from([MaxPoolLayer, AvgPoolLayer]))(*size_stride, "p1")
        layers.append(pool)
        shape = pool.output_shape(shape)
    if draw(st.booleans()) and shape.h + 2 * padding >= s and shape.w + 2 * padding >= r:
        layers.append(conv("c2", shape.w, shape.h, shape.c,
                           draw(st.integers(min_value=1, max_value=6))))
        shape = layers[-1].shape.output_shape
    if draw(st.booleans()):
        # Without a FlattenLayer the FC reads the conv or pool output
        # directly, and the lowering flattens it first.
        if draw(st.booleans()):
            layers.append(FlattenLayer("fl"))
        widths = [shape.size, 3] + ([draw(st.integers(min_value=1, max_value=5))]
                                    if draw(st.booleans()) else [])
        for i, (n, k) in enumerate(zip(widths, widths[1:])):
            weights = rng.integers(-2, 3, size=(k, n)).astype(np.int64)
            weights[rng.random(weights.shape) < weight_zero_frac] = 0
            layers.append(FullyConnectedLayer(k, n, weights, name=f"fc{i}"))
    network = Network("prop", TensorShape(c, size, size), layers)
    # One to four images: an FC step is then one four-window block, fewer
    # blocks than threads.
    n = draw(st.integers(min_value=1, max_value=4))
    images = rng.integers(-8, 9, size=(n, c, size, size)).astype(np.int64)
    images[rng.random(images.shape) < act_zero_frac] = 0
    threads = draw(st.sampled_from([1, 2, 3, 8]))
    return network, group_size, images, threads


@settings(max_examples=40, deadline=None)
@given(_network_case())
def test_fused_equals_per_layer_equals_dense(case):
    network, group_size, images, threads = case
    per_layer = network.forward_batch(images)
    dense = np.stack([network.forward(img) for img in images])
    assert np.array_equal(per_layer, dense)
    program = compile_network(network, group_size=group_size)
    fused = execute_network(program, images, threads=threads)
    assert np.array_equal(fused, per_layer)


@settings(max_examples=15, deadline=None)
@given(_network_case())
def test_fused_is_deterministic_across_thread_counts(case):
    network, group_size, images, __ = case
    program = compile_network(network, group_size=group_size)
    runs = [
        execute_network(program, images, threads=threads)
        for threads in (1, 2, 3, 8, 2, 1)
    ]
    for out in runs[1:]:
        assert np.array_equal(out, runs[0])
