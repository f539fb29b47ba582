"""Micro-benchmarks of the core primitives (genuine timing runs).

These exercise the hot paths the experiments lean on — table
construction, table execution, the compiled engine, the analytic layer
aggregate, and the dense reference — with real pytest-benchmark
statistics (multiple rounds), complementing the run-once experiment
benches.  The engine-vs-per-entry-vs-dense trio times the *same* layer
forward three ways, and ``test_engine_speedup_gate`` fails the run
outright if the compiled segment scan is not at least
:data:`ENGINE_MIN_SPEEDUP` times the per-entry walk — the regression
floor the nightly ``BENCH_kernels.json`` artifact tracks.

Under ``REPRO_BENCH_SMOKE=1`` the layer shrinks so nightly CI can emit a
``--benchmark-json`` artifact in seconds; the JSON still covers every
kernel, just at reduced scale (the artifact name records which).
"""

import numpy as np
import pytest
from conftest import smoke_mode

from repro.arch.config import ucnn_config
from repro.core.factorized import FactorizedConv
from repro.core.hierarchical import build_filter_group_tables
from repro.engine import compile_network, execute_network, execute_program
from repro.experiments.common import best_of
from repro.nn.layers import (
    ConvLayer,
    FlattenLayer,
    FullyConnectedLayer,
    MaxPoolLayer,
    ReluLayer,
)
from repro.nn.network import Network
from repro.nn.reference import conv2d_im2col, im2col
from repro.nn.tensor import ConvShape, TensorShape
from repro.quant.distributions import uniform_unique_weights
from repro.sim.analytic import ucnn_layer_aggregate

RNG = np.random.default_rng(2024)
SHAPE = (
    ConvShape(name="bench-smoke", w=8, h=8, c=16, k=8, r=3, s=3, padding=1)
    if smoke_mode()
    else ConvShape(name="bench", w=16, h=16, c=64, k=32, r=3, s=3, padding=1)
)

#: The smoke gate: compiled engine vs per-entry walk on the bench shape.
ENGINE_MIN_SPEEDUP = 20.0


@pytest.fixture(scope="module")
def layer_weights():
    return uniform_unique_weights(SHAPE.weight_shape, 17, 0.9, RNG).values


def test_bench_build_single_filter_tables(benchmark, layer_weights):
    flat = layer_weights[0].reshape(1, -1)
    tables = benchmark(build_filter_group_tables, flat)
    assert tables.num_entries == np.count_nonzero(flat)


def test_bench_build_group_tables(benchmark, layer_weights):
    flat = layer_weights[:2].reshape(2, -1)
    tables = benchmark(build_filter_group_tables, flat)
    assert tables.num_filters == 2


def test_bench_table_execute(benchmark, layer_weights):
    flat = layer_weights[:2].reshape(2, -1)
    tables = build_filter_group_tables(flat)
    window = RNG.integers(-8, 9, size=flat.shape[1])
    out = benchmark(tables.execute, window)
    assert np.array_equal(out, flat @ window)


def test_bench_analytic_aggregate(benchmark, layer_weights):
    config = ucnn_config(17, 16)
    agg = benchmark(ucnn_layer_aggregate, layer_weights, SHAPE, config)
    assert agg.entries > 0


def test_bench_dense_reference(benchmark, layer_weights):
    inputs = RNG.integers(-8, 9, size=SHAPE.input_shape.as_tuple())
    out = benchmark(conv2d_im2col, inputs, layer_weights, 1, 1)
    assert out.shape == SHAPE.output_shape.as_tuple()


def test_bench_factorized_conv_forward(benchmark, layer_weights):
    small = layer_weights[:8, :16]
    conv = FactorizedConv(small, group_size=2, padding=1)
    inputs = RNG.integers(-8, 9, size=(16, 10, 10))
    out = benchmark(conv.forward, inputs)
    assert out.shape[0] == 8


# ----------------------------------------------------------------------
# Engine vs per-entry vs dense: the same layer forward, three ways.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def bench_conv(layer_weights):
    return FactorizedConv(layer_weights, group_size=2, padding=SHAPE.padding)


@pytest.fixture(scope="module")
def bench_inputs():
    return RNG.integers(-8, 9, size=SHAPE.input_shape.as_tuple())


def _per_entry_walk(conv, cols):
    """The ground-truth walk over pre-unfolded columns (no im2col cost)."""
    out = np.empty((conv.num_filters, cols.shape[1]), dtype=np.int64)
    for group_idx, tables in enumerate(conv.groups):
        start = group_idx * conv.group_size
        for w_idx in range(cols.shape[1]):
            out[start : start + tables.num_filters, w_idx] = tables.execute(cols[:, w_idx])
    return out


def test_bench_engine_layer_forward(benchmark, bench_conv, bench_inputs):
    out = benchmark(bench_conv.forward, bench_inputs)
    assert np.array_equal(out, conv2d_im2col(bench_inputs, bench_conv.weights, 1, SHAPE.padding))


def test_bench_per_entry_walk(benchmark, bench_conv, bench_inputs):
    cols = im2col(bench_inputs.astype(np.int64), SHAPE.r, SHAPE.s, 1, SHAPE.padding)
    # Per-entry is ~3 orders slower; walk a slice of the windows so the
    # bench stays affordable while still timing the real loop.
    sample = cols[:, : max(8, cols.shape[1] // 16)]
    out = benchmark.pedantic(_per_entry_walk, args=(bench_conv, sample), rounds=1, iterations=1)
    assert np.array_equal(out, bench_conv.weights.reshape(bench_conv.num_filters, -1) @ sample)


# ----------------------------------------------------------------------
# Fused network vs dense: the standard 4-layer (3 conv + 1 FC) batch
# workload, two ways.
# ----------------------------------------------------------------------


def _bench_network_workload():
    """The standard 4-layer batch workload of the fused-network benchmarks.

    conv-relu-pool, conv-relu-pool, conv-relu, flatten-fc with INQ-like
    synthetic weights — deep enough to exercise every step kind, small
    enough for nightly smoke runs.
    """
    rng = np.random.default_rng(2018)
    if smoke_mode():
        w, c, k1, k2, batch = 12, 16, 16, 16, 32
    else:
        w, c, k1, k2, batch = 16, 16, 16, 32, 32
    layers = []
    s1 = ConvShape(name="net-c1", w=w, h=w, c=c, k=k1, r=3, s=3, padding=1)
    layers += [
        ConvLayer(s1, uniform_unique_weights(s1.weight_shape, 17, 0.9, rng).values),
        ReluLayer("net-r1"),
        MaxPoolLayer(2, 2, "net-p1"),
    ]
    shape = MaxPoolLayer(2, 2).output_shape(s1.output_shape)
    s2 = ConvShape(name="net-c2", w=shape.w, h=shape.h, c=shape.c, k=k2, r=3, s=3, padding=1)
    layers += [
        ConvLayer(s2, uniform_unique_weights(s2.weight_shape, 17, 0.9, rng).values),
        ReluLayer("net-r2"),
        MaxPoolLayer(2, 2, "net-p2"),
    ]
    shape = MaxPoolLayer(2, 2).output_shape(s2.output_shape)
    s3 = ConvShape(name="net-c3", w=shape.w, h=shape.h, c=shape.c, k=k2, r=3, s=3, padding=1)
    layers += [
        ConvLayer(s3, uniform_unique_weights(s3.weight_shape, 17, 0.9, rng).values),
        ReluLayer("net-r3"),
        FlattenLayer("net-fl"),
    ]
    features = s3.output_shape.size
    layers.append(FullyConnectedLayer(
        10, features, uniform_unique_weights((10, features), 17, 0.9, rng).values,
        name="net-fc",
    ))
    network = Network("bench-4layer", TensorShape(c, w, w), layers)
    images = rng.integers(-8, 9, size=(batch, c, w, w)).astype(np.int64)
    return network, images


@pytest.fixture(scope="module")
def bench_network():
    return _bench_network_workload()


@pytest.fixture(scope="module")
def bench_network_reference(bench_network):
    """Stacked per-image ``Network.forward``: the engine-free oracle."""
    network, images = bench_network
    return np.stack([network.forward(img) for img in images])


def test_bench_network_fused(benchmark, bench_network, bench_network_reference):
    network, images = bench_network
    program = compile_network(network)  # warm the network program cache
    out = benchmark(execute_network, program, images)
    assert np.array_equal(out, bench_network_reference)


def test_bench_network_dense(benchmark, bench_network):
    network, images = bench_network

    def dense():
        return np.stack([network.forward(img) for img in images])

    out = benchmark.pedantic(dense, rounds=1, iterations=1)
    assert out.shape[0] == images.shape[0]


def test_engine_speedup_gate(bench_conv, bench_inputs):
    """Regression floor: engine >= 20x the per-entry walk, same windows."""
    cols = im2col(bench_inputs.astype(np.int64), SHAPE.r, SHAPE.s, 1, SHAPE.padding)
    sample = min(cols.shape[1], 64)
    sample_windows = np.ascontiguousarray(cols[:, :sample].T)
    execute_program(bench_conv.program, sample_windows)  # warm the caches
    # Both sides timed directly on the identical window sample — no
    # extrapolation that would amortize the engine's per-call overhead.
    t_engine = best_of(lambda: execute_program(bench_conv.program, sample_windows))
    t_walk = best_of(lambda: _per_entry_walk(bench_conv, cols[:, :sample]), repeats=1)
    speedup = t_walk / t_engine
    print(
        f"\nengine speedup gate [{SHAPE.name}]: per-entry {t_walk * 1e3:.1f} ms "
        f"vs engine {t_engine * 1e3:.3f} ms over {sample} windows -> {speedup:.0f}x"
    )
    assert speedup >= ENGINE_MIN_SPEEDUP, (
        f"engine only {speedup:.1f}x over the per-entry walk "
        f"(floor {ENGINE_MIN_SPEEDUP}x on shape {SHAPE.name})"
    )
