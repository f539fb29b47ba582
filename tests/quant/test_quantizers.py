"""Tests for the INQ / TTQ / uniform quantizers."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.quant.inq import INQ_DEFAULT_LEVELS, inq_levels, quantize_inq
from repro.quant.ttq import quantize_ttq
from repro.quant.types import QuantizedWeights
from repro.quant.uniform import quantize_uniform


class TestQuantizedWeights:
    def test_rejects_floats(self):
        with pytest.raises(TypeError, match="integers"):
            QuantizedWeights(np.array([0.5]), 1.0, "x")

    def test_unique_and_density(self):
        q = QuantizedWeights(np.array([0, 1, 1, -2]), 0.5, "x")
        assert q.num_unique == 3
        assert q.density == pytest.approx(0.75)

    def test_dequantize(self):
        q = QuantizedWeights(np.array([2, -4]), 0.25, "x")
        assert np.allclose(q.dequantize(), [0.5, -1.0])

    def test_quantization_error(self):
        q = QuantizedWeights(np.array([1, 1]), 1.0, "x")
        assert q.quantization_error(np.array([1.0, 1.0])) == 0.0

    def test_unique_is_derived_not_a_field(self):
        values = np.array([[3, -1, 0], [3, 3, -7]], dtype=np.int32)
        q = QuantizedWeights(values, 1.0, "x")
        assert "unique" not in {f.name for f in dataclasses.fields(QuantizedWeights)}
        assert np.array_equal(q.unique, np.unique(values))
        assert q.unique is q.unique  # computed once

    def test_values_are_a_private_int64_copy(self):
        values = np.array([1, 2], dtype=np.int64)
        q = QuantizedWeights(values, 1.0, "x")
        values[0] = 9
        assert q.values.dtype == np.int64
        assert list(q.values) == [1, 2]

    @pytest.mark.parametrize("read_unique_first", [False, True])
    def test_pickle_round_trip(self, read_unique_first):
        q = QuantizedWeights(np.array([0, 4, 4, -2]), 0.5, "x")
        if read_unique_first:
            assert q.num_unique == 3
        back = pickle.loads(pickle.dumps(q))
        assert np.array_equal(back.values, q.values)
        assert (back.scale, back.scheme) == (0.5, "x")
        assert np.array_equal(back.unique, [-2, 0, 4])


class TestInq:
    def test_default_u17(self, rng):
        q = quantize_inq(rng.normal(0, 0.05, size=5000))
        assert q.num_unique <= 17
        assert 0 in q.unique

    def test_levels_are_pow2_integers(self, rng):
        q = quantize_inq(rng.normal(0, 0.05, size=2000))
        mags = np.unique(np.abs(q.values[q.values != 0]))
        assert np.all((mags & (mags - 1)) == 0)
        assert mags.max() <= 2 ** (INQ_DEFAULT_LEVELS // 2 - 1)

    def test_top_exponent_rule(self):
        """n1 = floor(log2(4*max/3)): values near max round up to 2^n1."""
        n1, n2 = inq_levels(1.0, 16)
        assert n1 == 0
        assert n2 == -7

    def test_largest_weight_hits_top_level(self):
        q = quantize_inq(np.array([1.0, 0.5, 0.001]))
        assert np.abs(q.values).max() == 2 ** (16 // 2 - 1)

    def test_small_weights_become_zero(self):
        q = quantize_inq(np.array([1.0, 1e-6]))
        assert q.values[1] == 0

    def test_scale_recovers_magnitudes(self):
        q = quantize_inq(np.array([1.0, -0.25]))
        real = q.dequantize()
        assert real[0] == pytest.approx(1.0, rel=0.5)
        assert real[1] < 0

    def test_all_zero_input(self):
        q = quantize_inq(np.zeros(4))
        assert q.num_unique == 1 and q.values.sum() == 0

    def test_odd_levels_rejected(self):
        with pytest.raises(ValueError, match="even"):
            inq_levels(1.0, 15)

    def test_sign_preserved(self, rng):
        w = rng.normal(0, 0.1, size=1000)
        q = quantize_inq(w)
        nonzero = q.values != 0
        assert np.all(np.sign(q.values[nonzero]) == np.sign(w[nonzero]))


class TestTtq:
    def test_ternary(self, rng):
        q = quantize_ttq(rng.normal(0, 1, size=1000))
        assert q.num_unique <= 3
        assert 0 in q.unique

    def test_asymmetric_magnitudes(self):
        w = np.concatenate([np.full(10, 1.0), np.full(10, -0.4)])
        q = quantize_ttq(w)
        pos = q.values[q.values > 0][0]
        neg = -q.values[q.values < 0][0]
        assert pos != neg

    def test_threshold_prunes(self):
        w = np.array([1.0, 0.01, -1.0])
        q = quantize_ttq(w, threshold_ratio=0.05)
        assert q.values[1] == 0

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            quantize_ttq(np.array([1.0]), threshold_ratio=1.5)

    def test_all_zero(self):
        q = quantize_ttq(np.zeros(5))
        assert q.num_unique == 1


class TestUniform:
    def test_u_bounded(self, rng):
        q = quantize_uniform(rng.normal(0, 1, size=10000), bits=8)
        assert q.num_unique <= 256

    def test_max_maps_to_qmax(self):
        q = quantize_uniform(np.array([2.0, -2.0, 1.0]), bits=8)
        assert q.values[0] == 127 and q.values[1] == -127

    def test_asymmetric_mode(self, rng):
        q = quantize_uniform(rng.uniform(0, 1, size=100), bits=8, symmetric=False)
        assert q.num_unique <= 256

    def test_min_bits(self):
        with pytest.raises(ValueError):
            quantize_uniform(np.array([1.0]), bits=1)

    def test_quantization_error_shrinks_with_bits(self, rng):
        w = rng.normal(0, 1, size=5000)
        e4 = quantize_uniform(w, bits=4).quantization_error(w)
        e8 = quantize_uniform(w, bits=8).quantization_error(w)
        assert e8 < e4
