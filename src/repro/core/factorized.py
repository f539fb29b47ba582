"""Functional factorized execution of a full convolution.

:class:`FactorizedConv` runs an entire convolutional layer through the
factorized path — grouping the K filters into ``ceil(K/G)`` table
groups and executing the layer's compiled table program
(:mod:`repro.engine`) over every output position at once, gathering
each window straight from the zero-padded input — producing outputs
that are bit-exact against :func:`repro.nn.reference.conv2d_im2col`
while reporting the arithmetic savings UCNN realizes.  The per-entry
table walk survives as :meth:`FactorizedConv.forward_per_entry`, the
semantic ground truth the engine is tested against; it unfolds the
input with :func:`repro.nn.reference.im2col`, so it shares no gather
code with the engine.  Dot products of one filter group over a window
matrix run through ``execute_program(compile_layer([tables]), windows)``
(or walk :meth:`~repro.core.hierarchical.FilterGroupTables.execute` per
window).

This is the *algorithmic* layer of the reproduction: no hardware timing,
just the math and the operation counts.  Cycle/energy accounting lives in
:mod:`repro.sim` and :mod:`repro.energy`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hierarchical import DEFAULT_MAX_GROUP_SIZE, FilterGroupTables
from repro.engine import TableProgram, compiled_layer_for
from repro.engine.executor import scan
from repro.engine.fusion import gather_offsets, window_view
from repro.nn.reference import im2col
from repro.nn.tensor import conv_output_hw


@dataclass(frozen=True)
class OpCounts:
    """Operation totals for a factorized execution.

    Attributes:
        multiplies: scalar multiplies performed.
        adds: scalar accumulator/psum adds performed.
        input_reads: input-buffer reads.
        weight_reads: weight-buffer reads.
        dense_multiplies: multiplies the dense path would perform.
        dense_adds: adds the dense path would perform.
    """

    multiplies: int
    adds: int
    input_reads: int
    weight_reads: int
    dense_multiplies: int
    dense_adds: int

    @property
    def multiply_savings(self) -> float:
        """Dense-to-factorized multiply ratio (Figure 3's bar heights)."""
        if self.multiplies == 0:
            return float("inf") if self.dense_multiplies else 1.0
        return self.dense_multiplies / self.multiplies

    def __add__(self, other: "OpCounts") -> "OpCounts":
        """Field-wise sum of two op totals."""
        return OpCounts(
            multiplies=self.multiplies + other.multiplies,
            adds=self.adds + other.adds,
            input_reads=self.input_reads + other.input_reads,
            weight_reads=self.weight_reads + other.weight_reads,
            dense_multiplies=self.dense_multiplies + other.dense_multiplies,
            dense_adds=self.dense_adds + other.dense_adds,
        )


class FactorizedConv:
    """A convolutional layer executed through UCNN factorization.

    The layer's ``K`` filters are split into ``ceil(K/G)`` groups that
    each share one hierarchically sorted table (built offline, reused for
    every filter slide — the reuse that makes spatial vectorization pay).

    The layer is lowered once (offline) into a compiled
    :class:`~repro.engine.TableProgram` — memoized process-wide per
    (weights fingerprint, G, max_group_size), so sweeps that rebuild the
    same layer reuse both the tables and the program.

    Args:
        weights: ``(K, C, R, S)`` integer weight tensor.
        group_size: G, filters per shared table (Table I).
        stride: convolution stride.
        padding: symmetric zero padding.
        max_group_size: innermost chunk limit (Section IV-B).
        layer_canonical: if True (default), key every group's tables to
            the layer-wide canonical weight order (shared streamed weight
            buffer); if False, each group uses its own values only.
    """

    def __init__(
        self,
        weights: np.ndarray,
        group_size: int = 1,
        stride: int = 1,
        padding: int = 0,
        max_group_size: int = DEFAULT_MAX_GROUP_SIZE,
        layer_canonical: bool = True,
    ):
        """Check the weights and factorize the layer (memoized process-wide)."""
        weights = np.asarray(weights)
        if weights.dtype.kind not in "iub":
            raise ValueError(
                f"FactorizedConv requires integer weights (got dtype {weights.dtype}); "
                "quantize first instead of relying on truncation"
            )
        weights = weights.astype(np.int64)
        if weights.ndim != 4:
            raise ValueError("weights must be (K, C, R, S)")
        if group_size < 1:
            raise ValueError("group_size must be >= 1")
        self.weights = weights
        self.group_size = group_size
        self.stride = stride
        self.padding = padding
        self.max_group_size = max_group_size
        compiled = compiled_layer_for(
            weights,
            group_size=group_size,
            max_group_size=max_group_size,
            layer_canonical=layer_canonical,
        )
        self.canonical = compiled.canonical
        self.groups: list[FilterGroupTables] = list(compiled.groups)
        self.program: TableProgram = compiled.program

    @property
    def num_filters(self) -> int:
        """K — output channels."""
        return int(self.weights.shape[0])

    def _validated(self, inputs: np.ndarray) -> tuple[np.ndarray, int, int]:
        """Check inputs; returns them as int64 with the output height and width."""
        inputs = np.asarray(inputs)
        k, c, r, s = self.weights.shape
        if inputs.ndim != 3 or inputs.shape[0] != c:
            got = inputs.shape[0] if inputs.ndim == 3 else inputs.shape
            raise ValueError(f"channel mismatch: input C={got}, weights C={c}")
        if inputs.dtype.kind not in "iub":
            raise ValueError(
                f"FactorizedConv requires integer inputs (got dtype {inputs.dtype}); "
                "quantize activations explicitly instead of relying on truncation"
            )
        out_h, out_w = conv_output_hw(inputs.shape[1], inputs.shape[2], r, s, self.stride, self.padding)
        return inputs.astype(np.int64), out_h, out_w

    def _columns(self, inputs: np.ndarray) -> tuple[np.ndarray, int, int]:
        """Validate inputs and unfold them into im2col columns."""
        inputs, out_h, out_w = self._validated(inputs)
        __, __, r, s = self.weights.shape
        # im2col uses the same (c, r, s) flattening order as the tables.
        return im2col(inputs, r, s, self.stride, self.padding), out_h, out_w

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Run the convolution through the compiled factorized path.

        Executes the layer's table program over every output position at
        once, gathering each window from the zero-padded input; bit-exact
        against both the per-entry table walk (:meth:`forward_per_entry`)
        and the dense im2col reference.

        Args:
            inputs: ``(C, H, W)`` integer activation tensor.

        Returns:
            ``(K, out_h, out_w)`` int64 outputs.

        Raises:
            ValueError: on channel mismatch or non-integer inputs.
        """
        inputs, out_h, out_w = self._validated(inputs)
        k, c, r, s = self.weights.shape
        h, w, p = inputs.shape[1], inputs.shape[2], self.padding
        src = np.zeros((c, 1, h + 2 * p, w + 2 * p), dtype=np.int64)
        src[:, 0, p : p + h, p : p + w] = inputs
        bases, taps = gather_offsets(window_view(src, r, s, self.stride, (out_h, out_w)))
        out = np.empty((k, out_h * out_w), dtype=np.int64)
        scan(self.program, src, bases, taps, out)
        return out.reshape(k, out_h, out_w)

    def forward_per_entry(self, inputs: np.ndarray) -> np.ndarray:
        """Per-entry table walk (ground truth; orders of magnitude slower).

        Walks every group's tables one entry at a time per output
        position, exactly as the Section IV-C datapath does.  This is
        the reference the engine's segment scan is verified against.
        """
        cols, out_h, out_w = self._columns(inputs)
        num_windows = cols.shape[1]
        k = self.num_filters
        out = np.empty((k, num_windows), dtype=np.int64)
        for group_idx, tables in enumerate(self.groups):
            start = group_idx * self.group_size
            for w_idx in range(num_windows):
                out[start : start + tables.num_filters, w_idx] = tables.execute(cols[:, w_idx])
        return out.reshape(k, out_h, out_w)

    def op_counts(self, out_positions: int) -> OpCounts:
        """Operation totals for ``out_positions`` output positions.

        Table stats are per walk; one walk serves all G filters of a
        group at one position.
        """
        mult = adds = entries = weight_reads = 0
        for tables in self.groups:
            st = tables.stats()
            mult += st.multiplies
            adds += st.adds
            entries += st.num_entries
            weight_reads += st.weight_reads
        k, c, r, s = self.weights.shape
        dense_macs_per_pos = k * c * r * s
        return OpCounts(
            multiplies=mult * out_positions,
            adds=adds * out_positions,
            input_reads=entries * out_positions,
            weight_reads=weight_reads * out_positions,
            dense_multiplies=dense_macs_per_pos * out_positions,
            dense_adds=dense_macs_per_pos * out_positions,
        )
