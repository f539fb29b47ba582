"""Tests for the shared segment-scan kernel (repro.engine.executor.scan).

The kernel reads every UCNN level from one prefix sum through
telescoped coefficients.  These tests pin what that arithmetic changes:
exactness when the running prefix wraps past 2**63, how much work it
does per window, and the construction-time bounds checks that let its
takes run unchecked.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest

from repro.engine import compile_network, compiled_layer_for, execute_network, execute_program
from repro.nn.layers import ConvLayer, ReluLayer
from repro.nn.network import Network
from repro.nn.reference import im2col
from repro.nn.tensor import ConvShape, TensorShape

BIG = 2**62

#: Weight and activation alphabets near +-2**62: sums of a few of them
#: leave the int64 range, so prefixes wrap as soon as the scan starts.
BIG_WEIGHTS = np.array([BIG + 3, -BIG + 7, BIG - 1, 5, 0], dtype=np.int64)
BIG_ACTS = np.array([BIG - 11, -BIG + 1, 3, 0], dtype=np.int64)


def _wrapping_case(rng, k=5, n=40, windows=9):
    weights = rng.choice(BIG_WEIGHTS, size=(k, n))
    acts = rng.choice(BIG_ACTS, size=(windows, n))
    acts[:, : n // 4] = 0  # dead columns, so the sparse gather compresses
    return weights, acts


class TestWrapAround:
    def test_case_really_wraps(self, rng):
        weights, acts = _wrapping_case(rng)
        exact = weights.astype(object) @ acts.astype(object).T
        assert np.abs(exact).max() > 2**63
        assert not np.array_equal(exact, (weights @ acts.T).astype(object))

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_execute_program_equals_wrapping_dense(self, rng, g):
        weights, acts = _wrapping_case(rng)
        program = compiled_layer_for(weights, group_size=g).program
        out = execute_program(program, acts)
        assert np.array_equal(out, weights @ acts.T)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_execute_network_equals_wrapping_dense(self, rng, sparse):
        shape = ConvShape(name="c", w=6, h=6, c=2, k=5, r=3, s=3, padding=1)
        weights = rng.choice(BIG_WEIGHTS, size=shape.weight_shape)
        net = Network("wrap", TensorShape(2, 6, 6), [ConvLayer(shape, weights), ReluLayer()])
        images = rng.choice(BIG_ACTS, size=(3, 2, 6, 6))
        images[:, 0] = 0  # a dead channel engages the sparse gather
        flat = weights.reshape(shape.k, -1)
        dense = np.stack([
            np.maximum(flat @ im2col(img, 3, 3, 1, 1), 0).reshape(shape.k, 6, 6) for img in images
        ])
        program = compile_network(net, group_size=2)
        for threads in (1, 2):
            out = execute_network(program, images, threads=threads, sparse=sparse)
            assert np.array_equal(out, dense)


def _nonzero_stretches(p):
    """Maximal stretches of nonzero-weight segments inside p's filter runs."""
    ends = np.append(p.filter_starts[1:], p.num_segments)
    total = 0
    for a, b in zip(p.filter_starts, ends):
        nz = np.concatenate([[False], p.mac_mask[a:b]])
        total += int(np.count_nonzero(nz[1:] & ~nz[:-1]))
    return total


class TestReuseInvariant:
    """Per window: ``num_entries`` scan adds and one multiply per boundary.

    Each stretch of nonzero-weight segments inside a filter's run costs
    one read per segment (its MAC) plus one closing read, so a program
    runs at most ``sum_p (mac_mask.sum() + stretches_p)`` multiply
    terms per window — against ``K * N`` for the dense product.
    """

    @pytest.mark.parametrize("g", [1, 2, 4])
    def test_kernel_runs_one_scan_and_boundary_terms_only(self, rng, g):
        weights = rng.choice(np.array([-3, -1, 0, 2, 4]), size=(8, 60))
        program = compiled_layer_for(weights, group_size=g).program
        terms = program.terms.cols.size  # derive outside the spies
        bound = sum(int(p.mac_mask.sum()) + _nonzero_stretches(p) for p in program.passes)
        assert terms <= bound <= program.max_terms
        assert terms < weights.size
        windows = rng.integers(-9, 10, size=(11, 60))
        with (
            mock.patch.object(np, "cumsum", wraps=np.cumsum) as cumsum,
            mock.patch.object(np, "take", wraps=np.take) as take,
            mock.patch.object(np, "multiply", wraps=np.multiply) as multiply,
        ):
            out = execute_program(program, windows)
        assert np.array_equal(out, weights @ windows.T)
        (scanned,), kwargs = cumsum.call_args
        assert cumsum.call_count == 1 and kwargs["axis"] == 1
        assert scanned.shape == (11, program.num_entries)
        gather, boundary = (call.args[1] for call in take.call_args_list)
        assert np.array_equal(gather, program.gather)
        assert boundary.size == terms
        assert multiply.call_count == 1
        assert multiply.call_args.args[0].shape == (11, terms)


class TestKernelEdges:
    def test_all_zero_filter_in_live_group_writes_zero(self, rng):
        """A filter with no terms is written, not left to buffer garbage."""
        shape = ConvShape(name="c", w=6, h=6, c=2, k=4, r=3, s=3, padding=1)
        weights = rng.integers(-2, 3, size=shape.weight_shape).astype(np.int64)
        weights[1] = 0  # shares a G=2 group with a live filter
        net = Network("zf", TensorShape(2, 6, 6), [ConvLayer(shape, weights)])
        x = rng.integers(-8, 9, size=(3, 2, 6, 6))
        fused = net.forward_batch(x, fused=True)
        assert np.array_equal(fused, np.stack([net.forward(img) for img in x]))
        assert not fused[:, 1].any()

    def test_sparse_drops_terms_landing_on_position_zero(self):
        """A filter reading only dead entries maps every term to P[0]."""
        weights = np.array([[1, 2, 3, 0, 0, 0], [0, 0, 0, 4, -5, 6]], dtype=np.int64)
        shape = ConvShape(name="c", w=1, h=1, c=6, k=2, r=1, s=1)
        net = Network("dead", TensorShape(6, 1, 1), [ConvLayer(shape, weights.reshape(2, 6, 1, 1))])
        images = np.array([[0, 0, 0, 1, 2, 3], [0, 0, 0, -4, 5, 7]], dtype=np.int64)
        program = compile_network(net)  # G=2: both filters share one shard program
        assert len(program.steps[0].shards) == 1
        out = execute_network(program, images.reshape(2, 6, 1, 1), sparse=True)
        assert np.array_equal(out.reshape(2, 2), images @ weights.T)
        assert not out[:, 0].any()


class TestConstructionBounds:
    """Malformed programs fail when built, never inside a take."""

    @pytest.fixture
    def program(self, rng):
        return compiled_layer_for(rng.integers(-3, 4, size=(4, 30)), group_size=2).program

    def test_gather_out_of_range(self, program):
        gather = program.gather.copy()
        gather[3] = program.filter_size
        with pytest.raises(ValueError, match="gather indices"):
            dataclasses.replace(program, gather=gather)

    @pytest.mark.parametrize("edit", ["not_from_zero", "repeated", "past_end"])
    def test_bad_seg_starts(self, program, edit):
        p = program.passes[0]
        starts = p.seg_starts.copy()
        if edit == "not_from_zero":
            starts[0] = 1
        elif edit == "repeated":
            starts[1] = starts[0]
        else:
            starts[-1] = program.num_entries
        bad = dataclasses.replace(p, seg_starts=starts)
        with pytest.raises(ValueError, match="seg_starts"):
            dataclasses.replace(program, passes=(bad,) + program.passes[1:])

    def test_filter_ids_out_of_range(self, program):
        p = program.passes[0]
        bad = dataclasses.replace(p, filter_ids=p.filter_ids + program.num_filters)
        with pytest.raises(ValueError, match="out of range"):
            dataclasses.replace(program, passes=(bad,) + program.passes[1:])
