"""Unit tests for whole-network fusion (:mod:`repro.engine.fusion`).

The property suite (``test_fusion_properties.py``) pins the math; this
file pins the machinery around it — compilation and memoization, the
``net:`` key schema, one program per layer, how a step's windows split
across threads and the thread ceiling, error-message contracts shared
with :class:`FactorizedConv`, fallback steps, buffer slicing, and the
serve endpoint riding on top.
"""

import re
from collections import Counter
from concurrent.futures import Future
from unittest import mock

import numpy as np
import pytest

from repro.core.factorized import FactorizedConv
from repro.engine import (
    NetworkProgram,
    clear_program_cache,
    compile_network,
    execute_network,
    network_program_key,
)
from repro.engine.fusion import ConvStep, FallbackStep
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


def small_network(rng, c=3, size=10, k1=6, k2=5, classes=4):
    """conv-relu-maxpool-conv-relu-avgpool-flatten-fc with int weights."""
    s1 = ConvShape(name="c1", w=size, h=size, c=c, k=k1, r=3, s=3, padding=1)
    conv1 = ConvLayer(s1, rng.integers(-3, 4, size=s1.weight_shape).astype(np.int64))
    pooled = MaxPoolLayer(2, 2).output_shape(s1.output_shape)
    s2 = ConvShape(name="c2", w=pooled.w, h=pooled.h, c=pooled.c, k=k2, r=3, s=3)
    conv2 = ConvLayer(s2, rng.integers(-2, 3, size=s2.weight_shape).astype(np.int64))
    shape = AvgPoolLayer(2, 2).output_shape(s2.output_shape)
    features = shape.size
    fc = FullyConnectedLayer(
        classes, features, rng.integers(-4, 5, size=(classes, features)).astype(np.int64)
    )
    return Network("fusion-test", TensorShape(c, size, size), [
        conv1, ReluLayer("r1"), MaxPoolLayer(2, 2, "p1"),
        conv2, ReluLayer("r2"), AvgPoolLayer(2, 2, "p2"),
        FlattenLayer("fl"), fc,
    ])


def weighted_lenet(seed=7):
    """The zoo's LeNet with U=17, 90%-dense weights on every weighted layer."""
    from repro.nn.zoo import lenet_cifar10
    from repro.quant.distributions import uniform_unique_weights

    net = lenet_cifar10()
    weight_rng = np.random.default_rng(seed)
    for layer in net.layers:
        if isinstance(layer, ConvLayer):
            shape = layer.shape.weight_shape
        elif isinstance(layer, FullyConnectedLayer):
            shape = (layer.out_features, layer.in_features)
        else:
            continue
        layer.set_weights(uniform_unique_weights(shape, 17, 0.9, weight_rng).values)
    return net


def batch_for(network, rng, n=4):
    return rng.integers(-8, 9, size=(n, *network.input_shape.as_tuple())).astype(np.int64)


def stacked_forward(network, x):
    """The dense per-image reference, independent of the engine."""
    return np.stack([network.forward(img) for img in x])


class TestCompile:
    def test_fused_matches_per_layer_and_stacked_forward(self, rng):
        net = small_network(rng)
        x = batch_for(net, rng)
        per_layer = net.forward_batch(x)
        stacked = stacked_forward(net, x)
        assert np.array_equal(per_layer, stacked)
        assert np.array_equal(net.forward_batch(x, fused=True), per_layer)

    def test_compile_network_is_memoized(self, rng):
        net = small_network(rng)
        assert compile_network(net) is compile_network(net)

    def test_key_schema_and_rotation(self, rng):
        net = small_network(rng)
        key = network_program_key(net)
        assert re.fullmatch(r"net:g\*:[0-9a-f]{64}", key)
        assert key == compile_network(net).key
        # Any lowering parameter rotates the key prefix...
        assert network_program_key(net, group_size=4).startswith("net:g4:")
        # ...and touching any layer's weights rotates the digest.
        net.layers[0].set_weights(net.layers[0].weights + 1)
        assert network_program_key(net) != key

    def test_group_size_override_is_honoured(self, rng):
        net = small_network(rng)
        x = batch_for(net, rng)
        ref = stacked_forward(net, x)
        for g in (1, 3, 8):
            program = compile_network(net, group_size=g)
            assert np.array_equal(execute_network(program, x), ref)

    def test_default_group_size_is_the_engine_constant(self, rng):
        """``group_size=None`` lowers every conv and FC layer with G = 2.

        The key's prefix reads ``g*``, but its digest embeds each
        layer's effective G, so it matches an explicit ``group_size=2``
        and the two programs share every layer's program.
        """
        from repro.engine.fusion import DEFAULT_GROUP_SIZE

        net = small_network(rng)

        def digest(**kwargs):
            return network_program_key(net, **kwargs).rsplit(":", 1)[1]

        assert DEFAULT_GROUP_SIZE == 2
        assert digest() == digest(group_size=2) != digest(group_size=4)
        default, explicit = compile_network(net), compile_network(net, group_size=2)
        pairs = [(a, b) for a, b in zip(default.steps, explicit.steps) if isinstance(a, ConvStep)]
        assert [a.name for a, __ in pairs] == ["c1", "c2", "fc"]
        for a, b in pairs:
            assert a.program is b.program

    def test_grouped_conv_lowers_to_fallback(self, rng):
        sg = ConvShape(name="gc", w=6, h=6, c=2, k=4, r=3, s=3, groups=2, padding=1)
        layer = ConvLayer(sg, rng.integers(-2, 3, size=sg.weight_shape).astype(np.int64))
        net = Network("grouped", TensorShape(4, 6, 6), [layer, ReluLayer()])
        program = compile_network(net)
        assert isinstance(program.steps[0], FallbackStep)
        x = rng.integers(-4, 5, size=(3, 4, 6, 6)).astype(np.int64)
        assert np.array_equal(execute_network(program, x), stacked_forward(net, x))

    def test_fallback_key_covers_weights_inside_a_block(self, rng):
        """Networks differing only inside a block get distinct programs."""
        from repro.nn.zoo import BottleneckBlock

        def block_net(seed):
            block = BottleneckBlock("b", in_channels=4, width=2, h=4, w=4)
            block_rng = np.random.default_rng(seed)
            for conv in block.conv_sublayers():
                conv.set_weights(block_rng.integers(-2, 3, size=conv.shape.weight_shape))
            return Network("blocky", TensorShape(4, 4, 4), [block])

        a, b = block_net(1), block_net(2)
        assert network_program_key(a) != network_program_key(b)
        x = rng.integers(-4, 5, size=(2, 4, 4, 4)).astype(np.int64)
        execute_network(compile_network(a), x)
        assert compile_network(b) is not compile_network(a)
        assert np.array_equal(b.forward_batch(x, fused=True), stacked_forward(b, x))

    def test_fc_after_conv_lowers_to_flatten_and_a_1x1_conv(self, rng):
        s1 = ConvShape(name="c1", w=5, h=5, c=2, k=3, r=3, s=3)
        conv = ConvLayer(s1, rng.integers(-3, 4, size=s1.weight_shape).astype(np.int64))
        n = s1.output_shape.size
        fc1 = FullyConnectedLayer(6, n, rng.integers(-3, 4, size=(6, n)), name="fc1")
        fc2 = FullyConnectedLayer(4, 6, rng.integers(-3, 4, size=(4, 6)), name="fc2")
        net = Network("conv-fc-fc", TensorShape(2, 5, 5), [conv, fc1, fc2])
        program = compile_network(net, group_size=4)
        assert [(type(s).__name__, s.name) for s in program.steps] == [
            ("ConvStep", "c1"), ("FlattenStep", "fc1"), ("ConvStep", "fc1"), ("ConvStep", "fc2"),
        ]
        fc_step = program.steps[2]
        assert fc_step.in_shape == (n, 1, 1) and fc_step.out_shape == (6, 1, 1)
        assert (fc_step.r, fc_step.s, fc_step.stride, fc_step.padding, fc_step.windows) == (1, 1, 1, 0, 1)
        assert fc_step.program.num_groups == 2  # ceil(6 / G=4) groups
        x = rng.integers(-8, 9, size=(5, 2, 5, 5)).astype(np.int64)
        assert np.array_equal(execute_network(program, x, threads=2), stacked_forward(net, x))

    def test_empty_network_passthrough(self, rng):
        net = Network("empty", TensorShape(2, 3, 3), [])
        x = rng.integers(-4, 5, size=(2, 2, 3, 3)).astype(np.int64)
        assert np.array_equal(net.forward_batch(x, fused=True), x)

    def test_describe_mentions_every_step(self, rng):
        net = small_network(rng)
        text = compile_network(net).describe()
        assert "NetworkProgram" in text and "group(s)" in text
        for layer in net.layers:
            assert repr(layer.name) in text

    def test_program_survives_cache_clear(self, rng):
        net = small_network(rng)
        x = batch_for(net, rng)
        ref = stacked_forward(net, x)
        clear_program_cache()
        program = compile_network(net)
        assert isinstance(program, NetworkProgram)
        assert np.array_equal(execute_network(program, x), ref)


class TestErrors:
    def test_float_weights_use_factorized_conv_message(self, rng):
        s = ConvShape(name="c", w=6, h=6, c=2, k=4, r=3, s=3)
        net = Network("f", TensorShape(2, 6, 6), [ConvLayer(s, rng.normal(size=s.weight_shape))])
        with pytest.raises(ValueError) as fused_err:
            compile_network(net)
        with pytest.raises(ValueError) as factorized_err:
            FactorizedConv(rng.normal(size=(4, 2, 3, 3)), group_size=2)
        assert str(fused_err.value) == str(factorized_err.value)

    def test_float_inputs_use_factorized_conv_message(self, rng):
        net = small_network(rng)
        with pytest.raises(ValueError, match=r"FactorizedConv requires integer inputs"):
            net.forward_batch(rng.normal(size=(2, *net.input_shape.as_tuple())), fused=True)

    def test_unsigned_weights_rejected(self, rng):
        s = ConvShape(name="c", w=6, h=6, c=2, k=4, r=3, s=3)
        net = Network("u", TensorShape(2, 6, 6), [
            ConvLayer(s, rng.integers(0, 5, size=s.weight_shape, dtype=np.uint8)),
        ])
        with pytest.raises(ValueError, match="unsigned weights"):
            compile_network(net)

    def test_unsigned_inputs_rejected(self, rng):
        net = small_network(rng)
        x = rng.integers(0, 9, size=(2, *net.input_shape.as_tuple()), dtype=np.uint8)
        with pytest.raises(ValueError, match="unsigned activations"):
            net.forward_batch(x, fused=True)

    def test_shape_and_empty_batch_messages_name_flat_shape(self, rng):
        net = small_network(rng)
        program = compile_network(net)
        c, h, w = net.input_shape.as_tuple()
        with pytest.raises(ValueError, match=rf"expected batch \(N, {c}, {h}, {w}\)"):
            execute_network(program, np.zeros((2, c + 1, h, w), dtype=np.int64))
        with pytest.raises(ValueError, match=rf"empty batch.*\(N, {c}, {h}, {w}\)"):
            execute_network(program, np.zeros((0, c, h, w), dtype=np.int64))

    def test_missing_weights_raise(self, rng):
        s = ConvShape(name="c", w=6, h=6, c=2, k=4, r=3, s=3)
        net = Network("nw", TensorShape(2, 6, 6), [ConvLayer(s)])
        with pytest.raises(RuntimeError, match="no weights"):
            compile_network(net)


class TestExecution:
    def test_thread_counts_are_bit_identical(self, rng):
        net = small_network(rng)
        x = batch_for(net, rng, n=6)
        ref = stacked_forward(net, x)
        outs = [net.forward_batch(x, fused=True, threads=t) for t in (1, 2, 8)]
        for out in outs:
            assert np.array_equal(out, ref)

    def test_repeated_runs_are_bit_identical(self, rng):
        net = small_network(rng)
        x = batch_for(net, rng)
        program = compile_network(net)
        first = execute_network(program, x, threads=4)
        for threads in (1, 2, 4, 8):
            assert np.array_equal(execute_network(program, x, threads=threads), first)

    def test_unfused_forward_batch_never_reaches_the_engine(self, rng):
        """``forward_batch(fused=False)`` is the dense reference: no compile, no scan."""
        from repro.engine import executor, program, program_cache_info

        net = small_network(rng)
        x = batch_for(net, rng)
        expected = net.forward_batch(x, fused=True)
        before = program_cache_info()
        with (
            mock.patch.object(program, "compile_layer", side_effect=AssertionError("compiled")),
            mock.patch.object(executor, "_native_scan", side_effect=AssertionError("scanned")),
        ):
            out = net.forward_batch(x)
        after = program_cache_info()
        assert np.array_equal(out, expected)
        assert (after["entries"], after["hits"], after["misses"]) == (
            before["entries"], before["hits"], before["misses"])

    def test_all_zero_batch(self, rng):
        net = small_network(rng)
        x = np.zeros((3, *net.input_shape.as_tuple()), dtype=np.int64)
        ref = stacked_forward(net, x)
        assert np.array_equal(net.forward_batch(x, fused=True), ref)

    def test_tiny_budget_forces_multi_slice_execution(self, rng, monkeypatch):
        from repro.engine import fusion

        net = small_network(rng)
        x = batch_for(net, rng, n=7)
        ref = stacked_forward(net, x)
        monkeypatch.setattr(fusion, "CHUNK_BUDGET_ELEMS", 1)
        assert compile_network(net).plan.images_per_slice() == 1
        assert np.array_equal(net.forward_batch(x, fused=True, threads=2), ref)

    def test_zero_entry_groups_write_zero_rows(self, rng):
        """Buffer reuse must not leak garbage into all-zero filters."""
        s = ConvShape(name="c", w=6, h=6, c=2, k=6, r=3, s=3, padding=1)
        weights = rng.integers(-2, 3, size=s.weight_shape).astype(np.int64)
        weights[2:4] = 0  # one whole G=2 group is empty
        net = Network("zg", TensorShape(2, 6, 6), [ConvLayer(s, weights), ReluLayer()])
        x = batch_for(net, rng)
        fused = net.forward_batch(x, fused=True)
        assert np.array_equal(fused, stacked_forward(net, x))
        assert not fused[:, 2:4].any()

    def test_int8_inputs_accepted(self, rng):
        net = small_network(rng)
        x = rng.integers(-8, 9, size=(3, *net.input_shape.as_tuple()), dtype=np.int8)
        assert np.array_equal(net.forward_batch(x, fused=True), stacked_forward(net, x))


class _InlinePool:
    """A ``ThreadPoolExecutor`` stand-in: records its size and submissions, runs them inline."""

    def __init__(self, pools, max_workers):
        self.max_workers = max_workers
        self.submitted = []  # the program of each submitted scan
        pools.append(self)

    def submit(self, fn, program, *args):
        self.submitted.append(program)
        future = Future()
        future.set_result(fn(program, *args))
        return future

    def shutdown(self, wait=True):
        pass


class TestThreads:
    """Threads split a step's windows into column blocks of whole four-window blocks."""

    def test_each_thread_scans_its_own_column_block(self, rng, monkeypatch):
        from repro.engine import fusion

        net = weighted_lenet()
        x = rng.integers(-16, 17, size=(5, 3, 32, 32))  # the FC steps see 5 windows
        program = compile_network(net)
        real_apply, real_scan = fusion._apply_conv, fusion.scan
        current, calls = {}, {}

        def apply_conv(step, cur, out, *args):
            current["step"], current["out"] = step, out
            calls[step.name] = []
            real_apply(step, cur, out, *args)

        def spy_scan(prog, src, bases, taps, out):
            step, whole = current["step"], current["out"]
            assert prog is step.program
            column = (out.ctypes.data - whole.ctypes.data) // out.itemsize
            calls[step.name].append((column, out.shape, out.strides[0] // out.itemsize))
            real_scan(prog, src, bases, taps, out)

        monkeypatch.setattr(fusion, "_apply_conv", apply_conv)
        monkeypatch.setattr(fusion, "scan", spy_scan)
        assert np.array_equal(execute_network(program, x, threads=2), stacked_forward(net, x))
        steps = [s for s in program.steps if isinstance(s, ConvStep)]
        assert list(calls) == [s.name for s in steps]
        for step in steps:
            columns = len(x) * step.windows
            made = calls[step.name]
            assert len(made) == min(2, -(-columns // 4)), step.name
            for column, shape, row_stride in made:
                assert shape[0] == step.out_shape[0] and row_stride == columns
                assert column % 4 == 0
            covered = sorted(c for column, shape, __ in made for c in range(column, column + shape[1]))
            assert covered == list(range(columns)), step.name

    def test_threads_racing_the_first_scans_of_fresh_programs_agree(self, rng):
        """Eight threads share each step's program before its terms are cached."""
        import sys

        net = small_network(rng)
        x = batch_for(net, rng, n=16)
        clear_program_cache()  # fresh programs: no thread finds terms cached
        program = compile_network(net)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = execute_network(program, x, threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(out, stacked_forward(net, x))

    @pytest.mark.parametrize("caller", ["execute_network", "network_forward"])
    def test_thread_count_is_capped(self, rng, monkeypatch, caller):
        """``threads`` may come off the wire: one pool, at most 8 threads a step."""
        from repro.engine import fusion
        from repro.serve.endpoints import resolve

        pools = []
        monkeypatch.setattr(
            fusion, "ThreadPoolExecutor", lambda max_workers: _InlinePool(pools, max_workers)
        )
        if caller == "execute_network":
            net = small_network(rng)
            x = batch_for(net, rng, n=6)
            out = execute_network(compile_network(net), x, threads=10**6)
            assert np.array_equal(out, stacked_forward(net, x))
        else:
            assert resolve("network_forward")(threads=10**6)["parity"] is True
        (pool,) = pools
        assert 1 <= pool.max_workers <= fusion.MAX_THREADS == 8
        scans = Counter(map(id, pool.submitted))  # scans submitted per step
        assert scans and max(scans.values()) <= 7


class TestColdCompile:
    """A cold fused compile lowers each weighted layer once and counts no events."""

    def test_lenet_lowers_every_weighted_layer_once(self, rng):
        from repro.core.hierarchical import FilterGroupTables
        from repro.engine import program

        net = weighted_lenet()
        clear_program_cache()
        with (
            mock.patch.object(
                FilterGroupTables, "stats", autospec=True, side_effect=FilterGroupTables.stats
            ) as stats,
            mock.patch.object(program, "compile_layer", wraps=program.compile_layer) as compile_layer,
        ):
            fused = compile_network(net)
        assert stats.call_count == 0
        conv_steps = [s for s in fused.steps if isinstance(s, ConvStep)]
        assert [s.name for s in conv_steps] == ["conv1", "conv2", "conv3", "ip1", "ip2"]
        assert compile_layer.call_count == 5  # one program per weighted layer
        assert [s.program.num_groups for s in conv_steps] == [16, 16, 32, 32, 5]
        assert {type(s).__name__ for s in fused.steps} == {
            "ConvStep", "ReluStep", "PoolStep", "FlattenStep"}
        x = rng.integers(-16, 17, size=(3, 3, 32, 32))
        ref = stacked_forward(net, x)
        for threads in (1, 2):
            assert np.array_equal(execute_network(fused, x, threads=threads), ref)


class TestSharedPrograms:
    """A compiled layer's program, shared by every network built from it."""

    def test_networks_built_from_one_layer_share_its_program(self, rng):
        net = small_network(rng)
        conv1, fc = net.find("c1"), net.layers[-1]
        alone = Network("c1-alone", net.input_shape, [conv1])
        relu = Network("c1-relu", net.input_shape, [conv1, ReluLayer("r")])
        fc_alone = Network("fc-alone", TensorShape(fc.in_features, 1, 1), [fc])
        full = {step.name: step for step in compile_network(net).steps if isinstance(step, ConvStep)}
        for other in (alone, relu, fc_alone):
            program = compile_network(other)
            assert program is not compile_network(net)
            assert program.steps[0].program is full[program.steps[0].name].program
        x = batch_for(net, rng)
        assert np.array_equal(execute_network(compile_network(alone), x), stacked_forward(alone, x))

    def test_racing_first_callers_all_get_valid_programs(self, rng):
        """Concurrent first reads of ``CompiledLayer.program``: any winner is exact."""
        import dataclasses
        import sys
        import threading

        from repro.engine import compiled_layer_for, execute_program

        weights = rng.integers(-3, 4, size=(24, 18)).astype(np.int64)
        windows = rng.integers(-9, 10, size=(5, 18))
        layer = dataclasses.replace(compiled_layer_for(weights, group_size=2))  # no program yet
        results = []
        gate = threading.Barrier(8, timeout=10.0)

        def worker():
            gate.wait()
            results.append(execute_program(layer.program, windows))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 8
        for out in results:
            assert np.array_equal(out, weights @ windows.T)
        assert layer.program is layer.program


class TestServeEndpoint:
    def test_network_forward_parity_and_stability(self):
        from repro.serve.endpoints import resolve

        first = resolve("network_forward")()
        again = resolve("network_forward")()
        assert first["parity"] is True
        assert first["out_checksum"] == again["out_checksum"]
        assert first["program_key"].startswith("net:")

    def test_network_forward_threads_do_not_change_bits(self):
        from repro.serve.endpoints import resolve

        base = resolve("network_forward")()
        threaded = resolve("network_forward")(threads=4)
        assert threaded["parity"] is True
        assert threaded["out_checksum"] == base["out_checksum"]

    def test_network_forward_parity_catches_a_wrong_program(self, monkeypatch):
        """The served parity checks the engine against the dense reference.

        Every conv step's scan adds 1 to one output; FC steps (one
        window per image, so ``out.shape[1]`` is the batch) stay exact.
        A reference that ran the same scans would agree with the engine.
        """
        from repro.engine import fusion
        from repro.serve.endpoints import resolve

        batch = 4
        real_scan = fusion.scan

        def wrong_conv_scan(program, src, bases, taps, out):
            real_scan(program, src, bases, taps, out)
            if out.shape[1] > batch:
                out[0, 0] += 1

        monkeypatch.setattr(fusion, "scan", wrong_conv_scan)
        assert resolve("network_forward")(seed=3, batch=batch)["parity"] is False

    def test_network_forward_parity_catches_a_wrong_fc_step(self, monkeypatch):
        """The FC's reference is the int64 matmul, so a wrong FC scan reads false too."""
        from repro.engine import fusion
        from repro.serve.endpoints import resolve

        batch = 4
        assert resolve("network_forward")(seed=3, batch=batch)["parity"] is True
        real_scan = fusion.scan

        def wrong_fc_scan(program, src, bases, taps, out):
            real_scan(program, src, bases, taps, out)
            if out.shape[1] == batch:
                out[0, 0] += 1

        monkeypatch.setattr(fusion, "scan", wrong_fc_scan)
        assert resolve("network_forward")(seed=3, batch=batch)["parity"] is False


class TestFig11FusedSeries:
    def test_fused_measured_series_present(self):
        from repro.experiments.fig11_runtime import run

        shape = ConvShape(name="t", w=10, h=10, c=4, k=4, r=3, s=3, padding=1)
        result = run(
            group_sizes=(1, 2), densities=(0.5,), shape=shape, fused_measured=True
        )
        fused = [p for p in result.points if p.design.endswith("fused")]
        assert {p.design for p in fused} == {"UCNN G1 fused", "UCNN G2 fused"}
        assert all(p.normalized_runtime > 0 for p in fused)
