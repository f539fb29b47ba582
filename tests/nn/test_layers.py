"""Tests for layer objects."""

from unittest import mock

import numpy as np
import pytest

from repro.engine import executor, program
from repro.nn.layers import (
    AvgPoolLayer,
    ConvLayer,
    FlattenLayer,
    FullyConnectedLayer,
    MaxPoolLayer,
    ReluLayer,
)
from repro.nn.reference import conv2d_im2col
from repro.nn.tensor import ConvShape, TensorShape


def conv_shape(**kw):
    defaults = dict(name="c", w=8, h=8, c=3, k=4, r=3, s=3, padding=1)
    defaults.update(kw)
    return ConvShape(**defaults)


class TestConvLayer:
    def test_forward_matches_reference(self, rng):
        shape = conv_shape()
        weights = rng.integers(-3, 4, size=shape.weight_shape)
        layer = ConvLayer(shape, weights)
        x = rng.integers(-8, 9, size=shape.input_shape.as_tuple())
        assert np.array_equal(layer.forward(x), conv2d_im2col(x, weights, 1, 1))

    def test_weight_shape_validated(self):
        with pytest.raises(ValueError, match="expected weights"):
            ConvLayer(conv_shape(), np.zeros((1, 1, 1, 1), dtype=np.int64))

    def test_missing_weights(self):
        layer = ConvLayer(conv_shape())
        assert not layer.has_weights
        with pytest.raises(RuntimeError, match="no weights"):
            __ = layer.weights

    def test_input_shape_validated(self, rng):
        shape = conv_shape()
        layer = ConvLayer(shape, rng.integers(-1, 2, size=shape.weight_shape))
        with pytest.raises(ValueError, match="expected input"):
            layer.forward(np.zeros((5, 8, 8), dtype=np.int64))

    def test_output_shape(self):
        layer = ConvLayer(conv_shape())
        out = layer.output_shape(TensorShape(3, 8, 8))
        assert out.as_tuple() == (4, 8, 8)

    def test_conv_sublayers(self):
        layer = ConvLayer(conv_shape())
        assert layer.conv_sublayers() == [layer]

    def test_grouped_layer_forward(self, rng):
        shape = conv_shape(c=2, k=4, groups=2)
        weights = rng.integers(-3, 4, size=shape.weight_shape)
        layer = ConvLayer(shape, weights)
        x = rng.integers(-5, 6, size=(4, 8, 8))
        assert layer.forward(x).shape == (4, 8, 8)

    @pytest.mark.parametrize("case", ["signed", "grouped", "float_weights", "unsigned_inputs"])
    def test_forward_batch_is_the_per_image_loop_and_never_compiles(self, rng, case):
        """A conv layer's batch forward stacks ``forward``, whatever its weights and inputs.

        It is the dense reference the engine is checked against, so it
        must neither compile a program nor call the scan kernel.
        """
        shape = conv_shape(c=2, k=4, groups=2) if case == "grouped" else conv_shape()
        weights = rng.integers(-3, 4, size=shape.weight_shape)
        if case == "float_weights":
            weights = weights.astype(np.float64)
        x = rng.integers(0, 6, size=(3, *shape.input_shape.as_tuple()))
        if case == "unsigned_inputs":
            x = x.astype(np.uint8)
        layer = ConvLayer(shape, weights)
        stacked = np.stack([layer.forward(image) for image in x])
        with (
            mock.patch.object(program, "compile_layer", side_effect=AssertionError("compiled")),
            mock.patch.object(executor, "_native_scan", side_effect=AssertionError("scanned")),
        ):
            out = layer.forward_batch(x)
        assert out.dtype == stacked.dtype
        assert np.array_equal(out, stacked)


class TestPoolingAndRelu:
    def test_maxpool_shape(self):
        layer = MaxPoolLayer(3, 2)
        assert layer.output_shape(TensorShape(4, 32, 32)).as_tuple() == (4, 16, 16)

    def test_avgpool_shape(self):
        layer = AvgPoolLayer(3, 2)
        assert layer.output_shape(TensorShape(4, 16, 16)).as_tuple() == (4, 8, 8)

    def test_relu_forward(self):
        layer = ReluLayer()
        assert np.array_equal(layer.forward(np.array([[-1], [2]])), [[0], [2]])

    def test_relu_shape_identity(self):
        shape = TensorShape(2, 3, 4)
        assert ReluLayer().output_shape(shape) is shape


class TestFlattenAndFc:
    def test_flatten(self, rng):
        x = rng.integers(0, 9, size=(2, 3, 4))
        layer = FlattenLayer()
        out = layer.forward(x)
        assert out.shape == (24, 1, 1)
        assert layer.output_shape(TensorShape(2, 3, 4)).as_tuple() == (24, 1, 1)

    def test_fc_forward(self, rng):
        weights = rng.integers(-3, 4, size=(5, 12))
        layer = FullyConnectedLayer(5, 12, weights)
        x = rng.integers(-5, 6, size=(12, 1, 1))
        out = layer.forward(x)
        assert out.shape == (5, 1, 1)
        assert np.array_equal(out.reshape(-1), weights.astype(np.int64) @ x.reshape(-1))

    def test_fc_as_conv_shape(self):
        layer = FullyConnectedLayer(10, 64)
        shape = layer.as_conv_shape()
        assert (shape.k, shape.c, shape.r, shape.s) == (10, 64, 1, 1)

    def test_fc_input_features_checked(self):
        layer = FullyConnectedLayer(5, 12)
        with pytest.raises(ValueError, match="input features"):
            layer.output_shape(TensorShape(11, 1, 1))

    def test_fc_weight_shape_checked(self):
        with pytest.raises(ValueError, match="expected weights"):
            FullyConnectedLayer(5, 12, np.zeros((5, 11), dtype=np.int64))
