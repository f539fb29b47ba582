"""Tests for the sequential network container."""

import numpy as np
import pytest

from repro.nn.layers import ConvLayer, FlattenLayer, FullyConnectedLayer, ReluLayer
from repro.nn.network import Network
from repro.nn.tensor import ConvShape, TensorShape


def tiny_network():
    conv = ConvLayer(ConvShape(name="c1", w=6, h=6, c=2, k=3, r=3, s=3, padding=1))
    return Network("tiny", TensorShape(2, 6, 6), [
        conv, ReluLayer(), FlattenLayer(), FullyConnectedLayer(4, 3 * 36, name="fc"),
    ])


class TestShapes:
    def test_eager_shape_validation(self):
        bad = ConvLayer(ConvShape(name="c1", w=5, h=5, c=3, k=1, r=3, s=3))
        with pytest.raises(ValueError, match="shape mismatch|expected"):
            Network("bad", TensorShape(2, 5, 5), [bad])

    def test_output_shape(self):
        assert tiny_network().output_shape.as_tuple() == (4, 1, 1)

    def test_layer_input_shape(self):
        net = tiny_network()
        assert net.layer_input_shape(0).as_tuple() == (2, 6, 6)
        assert net.layer_input_shape(1).as_tuple() == (3, 6, 6)

    def test_empty_network_output(self):
        net = Network("empty", TensorShape(1, 1, 1), [])
        assert net.output_shape.as_tuple() == (1, 1, 1)


class TestForward:
    def test_forward_runs(self, rng):
        net = tiny_network()
        net.layers[0].set_weights(rng.integers(-2, 3, size=(3, 2, 3, 3)))
        net.layers[3].set_weights(rng.integers(-2, 3, size=(4, 108)))
        out = net.forward(rng.integers(0, 5, size=(2, 6, 6)))
        assert out.shape == (4, 1, 1)

    def test_input_shape_checked(self):
        with pytest.raises(ValueError, match="expected input"):
            tiny_network().forward(np.zeros((1, 6, 6), dtype=np.int64))

    def test_forward_batch_matches_stacked_forward(self, rng):
        net = tiny_network()
        net.layers[0].set_weights(rng.integers(-2, 3, size=(3, 2, 3, 3)))
        net.layers[3].set_weights(rng.integers(-2, 3, size=(4, 108)))
        batch = rng.integers(0, 5, size=(6, 2, 6, 6))
        stacked = np.stack([net.forward(x) for x in batch])
        assert np.array_equal(net.forward_batch(batch), stacked)

    def test_forward_batch_unsigned_dtypes_match_stacked(self, rng):
        """uint8 wraparound must follow the per-image reference exactly."""
        net = tiny_network()
        net.layers[0].set_weights(rng.integers(0, 255, size=(3, 2, 3, 3), dtype=np.uint8))
        net.layers[3].set_weights(rng.integers(0, 255, size=(4, 108), dtype=np.uint8))
        batch = rng.integers(0, 255, size=(3, 2, 6, 6), dtype=np.uint8)
        stacked = np.stack([net.forward(x) for x in batch])
        assert np.array_equal(net.forward_batch(batch), stacked)

    def test_forward_batch_float_weights_fall_back(self, rng):
        net = tiny_network()
        net.layers[0].set_weights(rng.normal(size=(3, 2, 3, 3)))
        net.layers[3].set_weights(rng.normal(size=(4, 108)))
        batch = rng.integers(0, 5, size=(3, 2, 6, 6))
        stacked = np.stack([net.forward(x) for x in batch])
        assert np.array_equal(net.forward_batch(batch), stacked)

    def test_forward_batch_shape_checked(self):
        with pytest.raises(ValueError, match="expected batch"):
            tiny_network().forward_batch(np.zeros((2, 1, 6, 6), dtype=np.int64))

    def test_forward_batch_shape_error_names_flat_batch_shape(self):
        """The message spells (N, C, H, W), not a nested (N, (C, H, W))."""
        with pytest.raises(ValueError, match=r"expected batch \(N, 2, 6, 6\)"):
            tiny_network().forward_batch(np.zeros((2, 1, 6, 6), dtype=np.int64))

    def test_forward_batch_empty_batch_clear_error(self):
        with pytest.raises(ValueError, match=r"empty batch.*expected \(N, 2, 6, 6\)"):
            tiny_network().forward_batch(np.zeros((0, 2, 6, 6), dtype=np.int64))

    def test_forward_batch_fused_matches_per_layer(self, rng):
        net = tiny_network()
        net.layers[0].set_weights(rng.integers(-2, 3, size=(3, 2, 3, 3)))
        net.layers[3].set_weights(rng.integers(-2, 3, size=(4, 108)))
        batch = rng.integers(-5, 6, size=(5, 2, 6, 6))
        ref = np.stack([net.forward(img) for img in batch])
        assert np.array_equal(net.forward_batch(batch), ref)
        for threads in (1, 2, 8):
            assert np.array_equal(net.forward_batch(batch, fused=True, threads=threads), ref)

    def test_forward_batch_fused_float_weights_raise_factorized_message(self, rng):
        net = tiny_network()
        net.layers[0].set_weights(rng.normal(size=(3, 2, 3, 3)))
        net.layers[3].set_weights(rng.normal(size=(4, 108)))
        batch = rng.integers(0, 5, size=(3, 2, 6, 6))
        with pytest.raises(ValueError, match="FactorizedConv requires integer weights"):
            net.forward_batch(batch, fused=True)

    def test_forward_batch_image_chunking_is_bit_identical(self, rng, monkeypatch):
        """A tiny column budget forces multi-slice execution; same bits."""
        from repro.engine import fusion

        net = tiny_network()
        net.layers[0].set_weights(rng.integers(-2, 3, size=(3, 2, 3, 3)))
        net.layers[3].set_weights(rng.integers(-2, 3, size=(4, 108)))
        batch = rng.integers(0, 5, size=(7, 2, 6, 6))
        full = net.forward_batch(batch)
        assert np.array_equal(full, np.stack([net.forward(img) for img in batch]))
        monkeypatch.setattr(fusion, "CHUNK_BUDGET_ELEMS", 1)
        assert np.array_equal(net.forward_batch(batch, fused=True), full)


class TestIntrospection:
    def test_conv_layers(self):
        assert [c.name for c in tiny_network().conv_layers()] == ["c1"]

    def test_conv_layers_with_fc(self):
        convs = tiny_network().conv_layers(include_fc=True)
        assert [c.name for c in convs] == ["c1", "fc"]
        assert convs[1].shape.c == 108

    def test_fc_as_conv_carries_weights(self, rng):
        net = tiny_network()
        net.layers[3].set_weights(rng.integers(-2, 3, size=(4, 108)))
        fc_conv = net.conv_layers(include_fc=True)[1]
        assert fc_conv.has_weights
        assert fc_conv.weights.shape == (4, 108, 1, 1)

    def test_find(self):
        assert tiny_network().find("fc").name == "fc"
        with pytest.raises(KeyError):
            tiny_network().find("nope")

    def test_num_parameters(self):
        net = tiny_network()
        assert net.num_parameters() == 3 * 2 * 9 + 4 * 108
        assert net.num_parameters(include_fc=False) == 54

    def test_total_macs(self):
        net = tiny_network()
        conv_macs = 3 * 36 * 18  # k * out positions * filter size (3x3x2)
        assert net.total_macs() == conv_macs + 4 * 108

    def test_iter_named_layers(self):
        names = [n for n, __ in tiny_network().iter_named_layers()]
        assert names[0] == "c1" and names[-1] == "fc"

    def test_len(self):
        assert len(tiny_network()) == 4
