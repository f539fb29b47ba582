"""Tests for FactorizedConv."""

import numpy as np
import pytest

from repro.core.factorized import FactorizedConv, OpCounts
from repro.nn.reference import conv2d_im2col


class TestFactorizedConv:
    @pytest.mark.parametrize("group_size", [1, 2, 3])
    def test_forward_matches_reference(self, group_size, rng):
        weights = rng.integers(-3, 4, size=(5, 3, 3, 3))
        inputs = rng.integers(-8, 9, size=(3, 8, 8))
        conv = FactorizedConv(weights, group_size=group_size)
        assert np.array_equal(conv.forward(inputs), conv2d_im2col(inputs, weights))

    def test_forward_per_entry_matches_engine_forward(self, rng):
        weights = rng.integers(-3, 4, size=(4, 2, 3, 3))
        inputs = rng.integers(-8, 9, size=(2, 9, 9))
        conv = FactorizedConv(weights, group_size=2, padding=1)
        assert np.array_equal(conv.forward(inputs), conv.forward_per_entry(inputs))

    def test_float_inputs_raise(self, rng):
        conv = FactorizedConv(rng.integers(-2, 3, size=(2, 3, 3, 3)))
        with pytest.raises(ValueError, match="integer inputs"):
            conv.forward(rng.normal(size=(3, 8, 8)))

    def test_float_weights_raise(self, rng):
        with pytest.raises(ValueError, match="integer weights"):
            FactorizedConv(rng.normal(size=(2, 3, 3, 3)))

    def test_compiled_program_attached(self, rng):
        conv = FactorizedConv(rng.integers(-2, 3, size=(4, 2, 3, 3)), group_size=2)
        assert conv.program.num_filters == 4
        assert conv.program.num_groups == 2

    @pytest.mark.parametrize(
        "r, s, stride, padding",
        [(3, 3, 2, 1), (3, 3, 2, 2), (3, 3, 1, 2), (2, 5, 1, 1), (5, 1, 3, 2), (1, 1, 2, 0)],
    )
    def test_stride_and_padding(self, rng, r, s, stride, padding):
        """Strides, wide padding and non-square windows (``r`` along width)."""
        weights = rng.integers(-3, 4, size=(3, 2, r, s))
        inputs = rng.integers(-8, 9, size=(2, 10, 11))
        conv = FactorizedConv(weights, group_size=2, stride=stride, padding=padding)
        ref = conv2d_im2col(inputs, weights, stride=stride, padding=padding)
        assert np.array_equal(conv.forward(inputs), ref)
        assert np.array_equal(conv.forward_per_entry(inputs), ref)

    @pytest.mark.parametrize("dtype, lo, hi", [(np.uint8, 0, 256), (np.int8, -128, 128), (bool, 0, 2)])
    def test_narrow_integer_inputs_are_widened_first(self, rng, dtype, lo, hi):
        weights = rng.integers(-3, 4, size=(4, 3, 3, 2))
        inputs = rng.integers(lo, hi, size=(3, 8, 7)).astype(dtype)
        conv = FactorizedConv(weights, group_size=3, stride=2, padding=2)
        dense = conv2d_im2col(inputs.astype(np.int64), weights, stride=2, padding=2)
        assert np.array_equal(conv.forward(inputs), conv.forward_per_entry(inputs))
        assert np.array_equal(conv.forward(inputs), dense)

    def test_k_not_divisible_by_g(self, rng):
        weights = rng.integers(-3, 4, size=(5, 2, 2, 2))
        inputs = rng.integers(-8, 9, size=(2, 6, 6))
        conv = FactorizedConv(weights, group_size=2)
        assert len(conv.groups) == 3
        assert conv.groups[-1].num_filters == 1
        assert np.array_equal(conv.forward(inputs), conv2d_im2col(inputs, weights))

    def test_sparse_weights(self, rng):
        weights = rng.integers(-2, 3, size=(4, 3, 3, 3))
        weights[rng.random(size=weights.shape) < 0.6] = 0
        inputs = rng.integers(-8, 9, size=(3, 7, 7))
        conv = FactorizedConv(weights, group_size=2)
        assert np.array_equal(conv.forward(inputs), conv2d_im2col(inputs, weights))

    def test_channel_mismatch_raises(self, rng):
        conv = FactorizedConv(rng.integers(-2, 3, size=(2, 3, 3, 3)))
        with pytest.raises(ValueError, match="channel mismatch"):
            conv.forward(rng.integers(-8, 9, size=(4, 8, 8)))

    def test_bad_weights_shape(self):
        with pytest.raises(ValueError, match="K, C, R, S"):
            FactorizedConv(np.zeros((2, 3, 3), dtype=np.int64))

    def test_bad_group_size(self):
        with pytest.raises(ValueError, match="group_size"):
            FactorizedConv(np.zeros((2, 3, 3, 3), dtype=np.int64), group_size=0)

    def test_layer_canonical_shares_weight_order(self, rng):
        weights = rng.integers(-3, 4, size=(4, 2, 3, 3))
        conv = FactorizedConv(weights, group_size=2, layer_canonical=True)
        canon = conv.canonical
        for tables in conv.groups:
            assert np.array_equal(tables.canonical, canon)

    def test_op_counts_savings(self, rng):
        weights = rng.choice([0, 1, 2, -1], size=(8, 4, 3, 3)).astype(np.int64)
        conv = FactorizedConv(weights, group_size=2)
        counts = conv.op_counts(out_positions=10)
        assert isinstance(counts, OpCounts)
        assert counts.dense_multiplies == 8 * 4 * 9 * 10
        assert counts.multiplies < counts.dense_multiplies
        assert counts.multiply_savings > 1.0

    def test_op_counts_additive(self, rng):
        weights = rng.integers(-2, 3, size=(2, 2, 2, 2))
        conv = FactorizedConv(weights)
        a = conv.op_counts(3)
        b = conv.op_counts(3)
        total = a + b
        assert total.multiplies == 2 * a.multiplies
        assert total.input_reads == 2 * a.input_reads
