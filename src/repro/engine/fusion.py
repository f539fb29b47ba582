"""Whole-network fusion: one compiled program per :class:`Network`.

:mod:`repro.engine.program` lowers a *layer* into a table program;
this module lowers an entire network into a :class:`NetworkProgram` —
one artifact that the fused executor (:func:`execute_network`) walks
without returning to per-layer Python dispatch:

* every convolutional layer becomes a :class:`ConvStep` holding the
  layer's one table program (``CompiledLayer.program``, shared by every
  network built from the layer).  A fully connected layer lowers the
  same way, as the paper runs it (Section IV-E): a 1x1, stride-1,
  unpadded conv over an ``(N, 1, 1)`` input, one window per image,
  after a :class:`FlattenStep` when its input is not already
  ``(N, 1, 1)``.  The program runs on the engine's only segment-scan
  kernel, :func:`repro.engine.executor.scan`: one native pass per
  window that walks the filter groups, gathers, keeps each group's
  running prefix sum and folds the telescoped terms into the output
  rows, whatever the group size.  A step's windows split across up to
  ``threads`` (at most :data:`MAX_THREADS`) threads in whole blocks of
  the kernel's four windows, each thread scanning its own output
  columns (the call releases the GIL, so the threads genuinely
  overlap);
* intermediate activations live in two ping-pong buffers sized by an
  :class:`BufferPlan` at compile time — no per-layer allocation, and no
  per-layer ``(N, C, H, W) <-> (C, N, H, W)`` transposes: the fused
  pipeline keeps activations in channel-major ``(C, n, H, W)`` layout
  end to end and converts exactly once on entry and once on exit;
* no window is unrolled: a conv step zero-pads the image slice once (or
  reads the activation slot itself when ``padding == 0``) and hands the
  kernel one base offset per output position and one element offset per
  window element (:func:`window_view`, :func:`gather_offsets`), so the
  kernel gathers its activations straight from the padded buffer, the
  way the paper's input indirection table addresses the input buffer;
* pooling is ``size x size`` strided taps over the whole slice.

This executor is the kernel's only image-batch driver: an image batch
reaches :func:`~repro.engine.executor.scan` one way,
:func:`compile_network` then :func:`execute_network`.  All arithmetic
is int64: the output is bit-identical to stacking ``Network.forward``
per image, the engine-free reference that
``Network.forward_batch(fused=False)`` runs, for every thread count
(the property suite in ``tests/engine/test_fusion_properties.py`` pins
this).

Programs are memoized in the process-wide program cache under a
``net:...`` key (schema in ``docs/api.md``) covering every layer's
weights and group size, so repeated batches — and serve
workers answering ``network_forward`` — never re-lower a network they
have seen.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.engine.executor import LANES, scan
from repro.engine.program import (
    TableProgram,
    _cached,
    compiled_layer_for,
    weights_fingerprint,
)
from repro.nn.tensor import conv_output_hw, pool_output_hw

#: Memory budget (int64 elements, ~8 MiB) of one image slice's working
#: set: :meth:`BufferPlan.images_per_slice` sizes slices so the largest
#: per-image footprint of any step, times the slice, stays near it.
CHUNK_BUDGET_ELEMS = 1_000_000

#: UCNN filter-group size G of every conv and FC layer when
#: :func:`compile_network` gets ``group_size=None`` (the Table II sweet
#: spot).
DEFAULT_GROUP_SIZE = 2

#: Most threads one :func:`execute_network` call scans with, whatever
#: ``threads`` it is given.
MAX_THREADS = 8

#: Exact error text shared with :class:`repro.core.factorized.FactorizedConv`
#: for float weights — the fused path and the per-layer factorized path
#: reject unquantized weights with one voice.
_FLOAT_WEIGHTS_MSG = (
    "FactorizedConv requires integer weights (got dtype {dtype}); "
    "quantize first instead of relying on truncation"
)

_FLOAT_INPUTS_MSG = (
    "FactorizedConv requires integer inputs (got dtype {dtype}); "
    "quantize activations explicitly instead of relying on truncation"
)


@dataclass(frozen=True, eq=False)
class ConvStep:
    """A convolutional layer lowered into its segment-scan program.

    Attributes:
        name: source layer name.
        in_shape: ``(C, H, W)`` input activation shape per image.
        out_shape: ``(K, out_h, out_w)`` output shape per image.
        r, s, stride, padding: convolution geometry (``r`` along width,
            ``s`` along height, matching :func:`repro.nn.reference.im2col`).
        program: the layer's :class:`~repro.engine.program.TableProgram`
            (its ``gather`` holds window element indices).
    """

    name: str
    in_shape: tuple[int, int, int]
    out_shape: tuple[int, int, int]
    r: int
    s: int
    stride: int
    padding: int
    program: TableProgram

    @property
    def windows(self) -> int:
        """Output positions (windows) per image."""
        return self.out_shape[1] * self.out_shape[2]

    @property
    def filter_size(self) -> int:
        """Flattened window length ``C*R*S``."""
        return self.in_shape[0] * self.r * self.s


@dataclass(frozen=True, eq=False)
class ReluStep:
    """Elementwise ReLU between two activation buffers."""

    name: str
    in_shape: tuple[int, int, int]
    out_shape: tuple[int, int, int]


@dataclass(frozen=True, eq=False)
class PoolStep:
    """Max or average pooling (ceil-mode, matching the nn reference).

    Attributes:
        name: source layer name.
        kind: ``"max"`` or ``"avg"`` (average uses floor division on
            integers, exactly like :func:`repro.nn.reference.avgpool2d`).
        size, stride: pooling window geometry.
        in_shape / out_shape: per-image ``(C, H, W)`` shapes.
    """

    name: str
    kind: str
    size: int
    stride: int
    in_shape: tuple[int, int, int]
    out_shape: tuple[int, int, int]


@dataclass(frozen=True, eq=False)
class FlattenStep:
    """Flatten ``(C, H, W)`` to ``(C*H*W, 1, 1)`` in reference order."""

    name: str
    in_shape: tuple[int, int, int]
    out_shape: tuple[int, int, int]


@dataclass(frozen=True, eq=False)
class FallbackStep:
    """A layer the fused engine cannot lower (e.g. a grouped conv).

    The step calls the layer's own ``forward_batch`` — its per-image
    reference, bit-identical by construction — converting the fused
    pipeline's channel-major layout at the step boundary.
    """

    name: str
    layer: object
    in_shape: tuple[int, int, int]
    out_shape: tuple[int, int, int]


@dataclass(frozen=True)
class BufferPlan:
    """The fused executor's preallocation contract, in per-image units.

    Every field counts int64 *elements per image*; the executor
    multiplies by the slice size once and reuses the buffers across all
    layers and slices of a call.

    Attributes:
        slot_elems: ping-pong activation buffer sizes — step ``i`` reads
            slot ``i % 2`` and writes slot ``(i + 1) % 2``.
        pad_elems: largest zero-padded activation tensor of any conv
            step with ``padding > 0`` (the buffer its scan gathers from).
    """

    slot_elems: tuple[int, int]
    pad_elems: int

    @property
    def per_image_cost(self) -> int:
        """Slicing unit: the largest per-image buffer (a slot or the pad).

        Slices are sized so this stays near :data:`CHUNK_BUDGET_ELEMS`.
        """
        return max(self.pad_elems, *self.slot_elems)

    def images_per_slice(self) -> int:
        """Images per execution slice under :data:`CHUNK_BUDGET_ELEMS`."""
        return max(1, CHUNK_BUDGET_ELEMS // max(1, self.per_image_cost))


@dataclass(frozen=True, eq=False)
class NetworkProgram:
    """A whole network lowered into one fused, executable artifact.

    Attributes:
        name: source network name.
        input_shape: per-image ``(C, H, W)`` the program accepts.
        output_shape: per-image output shape it produces.
        steps: the lowered step sequence, execution order.
        key: program-cache key (``net:...`` schema in ``docs/api.md``).

    Construction checks that the steps fit together (see
    :func:`_check_steps`), so a program that exists, compiled or
    decoded, runs without a shape error.
    """

    name: str
    input_shape: tuple[int, int, int]
    output_shape: tuple[int, int, int]
    steps: tuple
    key: str | None = None

    def __post_init__(self):
        """Reject steps whose shapes or programs disagree (see :func:`_check_steps`)."""
        _check_steps(self.input_shape, self.output_shape, self.steps)

    @cached_property
    def plan(self) -> BufferPlan:
        """The :class:`BufferPlan` sizing every reused buffer, derived from the steps."""
        return _plan_buffers(int(np.prod(self.input_shape)), self.steps)

    @property
    def num_steps(self) -> int:
        """Steps in the fused pipeline."""
        return len(self.steps)

    def describe(self) -> str:
        """Human-readable step/buffer summary (examples/debugging)."""
        lines = [
            f"NetworkProgram {self.name!r}: {self.num_steps} step(s), "
            f"input {self.input_shape} -> output {self.output_shape}"
        ]
        for step in self.steps:
            if isinstance(step, ConvStep):
                lines.append(
                    f"  conv {step.name!r}: {step.program.num_groups} group(s), "
                    f"{step.program.num_entries} entries x {step.windows} windows -> {step.out_shape}"
                )
            else:
                kind = type(step).__name__.replace("Step", "").lower()
                lines.append(f"  {kind} {step.name!r}: {step.in_shape} -> {step.out_shape}")
        lines.append(
            f"  buffers: slots {self.plan.slot_elems}, pad {self.plan.pad_elems} elems/image"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------


def _check_weights(layer_name: str, weights: np.ndarray) -> np.ndarray:
    """Validate a fused layer's weights; returns them as int64."""
    weights = np.asarray(weights)
    if weights.dtype.kind == "u":
        raise ValueError(
            f"fused execution cannot guarantee bit-identity for unsigned weights "
            f"(layer {layer_name!r}, dtype {weights.dtype}); use fused=False"
        )
    if weights.dtype.kind != "i":
        raise ValueError(_FLOAT_WEIGHTS_MSG.format(dtype=weights.dtype))
    return weights.astype(np.int64, copy=False)


def _lower_layers(
    network, group_size: int | None, compile_steps: bool = True
) -> tuple[tuple, list[str]]:
    """Lower every layer into steps; returns (steps, key descriptors).

    With ``compile_steps=False`` only the cheap descriptor walk runs —
    weights are fingerprinted and validated but no table program is
    compiled — which is what keeps :func:`network_program_key` (and
    therefore every cache *hit*) fast.
    """
    from repro.nn.layers import (
        AvgPoolLayer,
        ConvLayer,
        FlattenLayer,
        FullyConnectedLayer,
        MaxPoolLayer,
        ReluLayer,
    )

    g = DEFAULT_GROUP_SIZE if group_size is None else group_size

    def program(weights: np.ndarray) -> TableProgram:
        """The compiled layer's one program, shared by every network."""
        return compiled_layer_for(weights, group_size=g).program

    steps: list = []
    descriptors: list[str] = []
    shape = network.input_shape
    for layer in network.layers:
        out_shape = layer.output_shape(shape)
        in_t = shape.as_tuple()
        out_t = out_shape.as_tuple()
        if isinstance(layer, ConvLayer) and layer.shape.groups == 1:
            weights = _check_weights(layer.name, layer.weights)
            sh = layer.shape
            descriptors.append(
                f"conv:{layer.name}:g{g}:st{sh.stride}:p{sh.padding}:"
                f"{weights_fingerprint(weights)}"
            )
            if compile_steps:
                steps.append(ConvStep(
                    layer.name, in_t, out_t, sh.r, sh.s, sh.stride, sh.padding, program(weights)
                ))
        elif isinstance(layer, ConvLayer):
            _check_weights(layer.name, layer.weights)  # same rejection as the fused path
            steps.append(FallbackStep(layer.name, layer, in_t, out_t))
            descriptors.append(
                f"grouped-conv:{layer.name}:G{layer.shape.groups}:st{layer.shape.stride}:"
                f"p{layer.shape.padding}:{weights_fingerprint(np.asarray(layer.weights))}"
            )
        elif isinstance(layer, FullyConnectedLayer):
            # Section IV-E: the FC runs as its 1x1 conv over (N, 1, 1),
            # one window per image.
            weights = _check_weights(layer.name, layer.weights)
            descriptors.append(f"fc:{layer.name}:g{g}:{weights_fingerprint(weights)}")
            sh = layer.as_conv_shape()
            flat_t = sh.input_shape.as_tuple()
            if in_t != flat_t:
                steps.append(FlattenStep(layer.name, in_t, flat_t))
            if compile_steps:
                steps.append(ConvStep(
                    layer.name, flat_t, out_t, sh.r, sh.s, sh.stride, sh.padding, program(weights)
                ))
        elif isinstance(layer, ReluLayer):
            steps.append(ReluStep(layer.name, in_t, out_t))
            descriptors.append("relu")
        elif isinstance(layer, MaxPoolLayer):
            geo = layer.geometry
            steps.append(PoolStep(layer.name, "max", geo.size, geo.stride, in_t, out_t))
            descriptors.append(f"maxpool:{geo.size}:{geo.stride}")
        elif isinstance(layer, AvgPoolLayer):
            geo = layer.geometry
            steps.append(PoolStep(layer.name, "avg", geo.size, geo.stride, in_t, out_t))
            descriptors.append(f"avgpool:{geo.size}:{geo.stride}")
        elif isinstance(layer, FlattenLayer):
            steps.append(FlattenStep(layer.name, in_t, out_t))
            descriptors.append("flatten")
        else:
            # The step runs the live layer, so the key must cover every
            # weight inside it: two networks that differ only within a
            # block must not share one cached program.
            steps.append(FallbackStep(layer.name, layer, in_t, out_t))
            inner = "".join(
                f":{sub.name}:G{sub.shape.groups}:st{sub.shape.stride}:p{sub.shape.padding}:"
                f"{weights_fingerprint(np.asarray(sub.weights))}"
                for sub in layer.conv_sublayers()
            )
            descriptors.append(f"fallback:{type(layer).__name__}:{layer.name}{inner}")
        shape = out_shape
    return tuple(steps), descriptors


def _check_steps(input_shape: tuple, output_shape: tuple, steps: tuple) -> None:
    """Raise ``ValueError`` unless ``steps`` chain ``input_shape`` to ``output_shape``.

    Each step must read the shape the one before it wrote, and write the
    shape its own geometry gives: a conv step's program must read
    windows of ``C*r*s`` and write ``K`` rows over
    :func:`~repro.nn.tensor.conv_output_hw` positions, a max or average
    pool step's output follows the ceil-mode
    :func:`~repro.nn.tensor.pool_output_hw`, a flatten writes
    ``(C*H*W, 1, 1)`` and a ReLU its input shape.  A fallback step runs
    its live layer and is taken at its word.
    """
    shape = tuple(input_shape)
    for step in steps:
        if tuple(step.in_shape) != shape:
            raise ValueError(f"step {step.name!r} reads {tuple(step.in_shape)}, but gets {shape}")
        c, h, w = shape
        if isinstance(step, ConvStep):
            program = step.program
            if program.filter_size != step.filter_size:
                raise ValueError(
                    f"conv step {step.name!r}: its program reads windows of "
                    f"{program.filter_size}, not C*r*s = {step.filter_size}"
                )
            hw = conv_output_hw(h, w, step.r, step.s, step.stride, step.padding)
            expected = (program.num_filters, *hw)
        elif isinstance(step, PoolStep):
            if step.kind not in ("max", "avg"):
                raise ValueError(f"pool step {step.name!r}: unknown kind {step.kind!r}")
            expected = (c, *pool_output_hw(h, w, step.size, step.stride))
        elif isinstance(step, FlattenStep):
            expected = (c * h * w, 1, 1)
        elif isinstance(step, ReluStep):
            expected = shape
        else:  # FallbackStep
            expected = tuple(step.out_shape)
        if tuple(step.out_shape) != expected:
            raise ValueError(
                f"step {step.name!r} writes {tuple(step.out_shape)}, but its geometry gives "
                f"{expected}"
            )
        shape = expected
    if shape != tuple(output_shape):
        raise ValueError(f"the steps end at {shape}, not the output shape {tuple(output_shape)}")


def _plan_buffers(input_elems: int, steps: tuple) -> BufferPlan:
    """Size every reused buffer of the fused executor (per-image units)."""
    slot_elems = [input_elems, 0]
    pad = 0
    for i, step in enumerate(steps):
        out_elems = int(np.prod(step.out_shape))
        slot = (i + 1) % 2
        slot_elems[slot] = max(slot_elems[slot], out_elems)
        if isinstance(step, ConvStep) and step.padding:
            c, h, w = step.in_shape
            pad = max(pad, c * (h + 2 * step.padding) * (w + 2 * step.padding))
    return BufferPlan(slot_elems=(slot_elems[0], slot_elems[1]), pad_elems=pad)


def network_program_key(network, group_size: int | None = None) -> str:
    """Program-cache key of a fused network (``net:...`` schema).

    The digest covers the input shape and one descriptor per layer —
    conv/FC descriptors embed the weight fingerprint and the group size,
    so the key rotates on any weight or group-size change.
    """
    __, descriptors = _lower_layers(network, group_size, compile_steps=False)
    digest = hashlib.sha256()
    digest.update(repr(network.input_shape.as_tuple()).encode())
    for d in descriptors:
        digest.update(d.encode())
        digest.update(b"\x00")
    g = group_size if group_size is not None else "*"
    return f"net:g{g}:{digest.hexdigest()}"


def compile_network(network, group_size: int | None = None) -> NetworkProgram:
    """Lower a whole :class:`~repro.nn.network.Network`, memoized.

    Args:
        network: the network; every conv/FC layer must have (signed)
            integer weights attached.  Ungrouped conv layers and FC
            layers (as 1x1 convs) lower into their compiled layer's
            shared program (:func:`compiled_layer_for` with its default
            chunk limit and layer-wide canonical order); grouped convs
            and unknown layer types become fallback steps running the
            layer's own batched forward.
        group_size: UCNN G for every conv and FC layer; ``None``
            (default) uses :data:`DEFAULT_GROUP_SIZE`.

    Returns:
        the memoized :class:`NetworkProgram`; repeated calls with
        identical weights and parameters return the same object — the
        memo is single-flighted, so concurrent first calls compile once
        and all receive the winner's program.  When an artifact tier is
        installed (``repro.engine.artifacts``), a miss first tries a
        stored artifact before lowering, and a fresh lowering is
        written back for the fleet.

    Raises:
        ValueError: on float weights (same message as
            :class:`~repro.core.factorized.FactorizedConv`) or unsigned
            weights.
        RuntimeError: if a conv/FC layer has no weights attached.
    """
    key = network_program_key(network, group_size)

    def lower() -> NetworkProgram:
        """Lower every layer and plan the buffers: the memo's miss path."""
        steps, __ = _lower_layers(network, group_size)
        return NetworkProgram(
            name=network.name,
            input_shape=network.input_shape.as_tuple(),
            output_shape=network.output_shape.as_tuple(),
            steps=steps,
            key=key,
        )

    return _cached(key, lower)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


class _Scratch:
    """Per-call buffer pool realizing the :class:`BufferPlan`."""

    def __init__(self, plan: BufferPlan, slice_n: int):
        """Allocate every buffer the plan sizes, for one image slice."""
        self.slots = [
            np.empty(plan.slot_elems[0] * slice_n, dtype=np.int64),
            np.empty(plan.slot_elems[1] * slice_n, dtype=np.int64),
        ]
        self.pad = np.empty(plan.pad_elems * slice_n, dtype=np.int64)

    def slot_view(self, slot: int, shape: tuple[int, int, int], ns: int) -> np.ndarray:
        """A ``(C, ns, H, W)`` view of one ping-pong activation buffer."""
        c, h, w = shape
        return self.slots[slot][: c * ns * h * w].reshape(c, ns, h, w)


def window_view(
    src: np.ndarray, r: int, s: int, stride: int, out_hw: tuple[int, int]
) -> np.ndarray:
    """Every convolution window of ``(C, n, H, W)`` activations, uncopied.

    A read-only strided view: ``view[i, y, x, c, rr, ss]`` is
    ``src[c, i, y*stride + ss, x*stride + rr]``.  Windows run in
    ``(n, y, x)`` order, matching the output rows' columns, and each
    window is flattened exactly like :func:`repro.nn.reference.im2col`'s
    columns (element ``c*R*S + rr*S + ss``; ``r`` runs along width and
    ``s`` along height).  ``src`` holds the zero-padded activations.
    """
    sc, sn, sy, sx = src.strides
    return as_strided(
        src,
        shape=(src.shape[1], *out_hw, src.shape[0], r, s),
        strides=(sn, sy * stride, sx * stride, sc, sx, sy),
        writeable=False,
    )


def gather_offsets(view: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`~repro.engine.executor.scan`'s ``bases`` and ``taps`` for a window view.

    Element ``k`` of window ``w`` of a :func:`window_view` over a
    C-contiguous ``src`` is ``src.flat[bases[w] + taps[k]]``: the view's
    three window axes give the bases and its three element axes the taps.
    """
    return _offsets(view, slice(0, 3)), _offsets(view, slice(3, 6))


def _offsets(view: np.ndarray, axes: slice) -> np.ndarray:
    """Flat element offsets of a C-order walk over some axes of ``view``."""
    flat = np.zeros(1, dtype=np.int64)
    for size, stride in zip(view.shape[axes], view.strides[axes]):
        step = np.arange(size, dtype=np.int64) * (stride // view.itemsize)
        flat = (flat[:, None] + step).reshape(-1)
    return flat


def _padded(step: ConvStep, cur: np.ndarray, scratch: _Scratch) -> np.ndarray:
    """The ``(C, ns, H, W)`` slice the step gathers from, zero-padded.

    A step without padding gathers from its activation slot directly.
    """
    if not step.padding:
        return cur
    c, h, w = step.in_shape
    ns, p = cur.shape[1], step.padding
    padded = scratch.pad[: c * ns * (h + 2 * p) * (w + 2 * p)].reshape(
        c, ns, h + 2 * p, w + 2 * p
    )
    padded[...] = 0
    padded[:, :, p : p + h, p : p + w] = cur
    return padded


def _apply_conv(
    step: ConvStep,
    cur: np.ndarray,
    out: np.ndarray,
    scratch: _Scratch,
    pool: ThreadPoolExecutor | None,
    workers: int,
) -> None:
    """Run one conv step: pad, then split its windows across threads.

    The windows split into at most ``workers`` runs of whole
    :data:`~repro.engine.executor.LANES`-window blocks; each run is one
    :func:`scan` into its own column block of ``out``, and the calling
    thread scans the first.
    """
    src = _padded(step, cur, scratch)
    bases, taps = gather_offsets(
        window_view(src, step.r, step.s, step.stride, step.out_shape[1:])
    )
    n = bases.size
    out2d = out.reshape(step.out_shape[0], n)
    blocks = -(-n // LANES)
    parts = min(workers, blocks)
    cuts = [min(n, LANES * (blocks * i // parts)) for i in range(parts + 1)]
    futures = [
        pool.submit(scan, step.program, src, bases[a:b], taps, out2d[:, a:b])
        for a, b in zip(cuts[1:-1], cuts[2:])
    ]
    scan(step.program, src, bases[: cuts[1]], taps, out2d[:, : cuts[1]])
    for future in futures:
        future.result()


def _apply_pool(step: PoolStep, cur: np.ndarray, out: np.ndarray) -> None:
    """Ceil-mode pooling over a ``(C, ns, H, W)`` slice, reference-exact.

    One strided tap per ``(dy, dx)`` of the window, each clipped to the
    outputs whose window still covers that input row and column, so the
    edge windows of ceil mode see only their in-bounds inputs; average
    pooling floor-divides by each output's clipped window size.
    """
    h, w = step.in_shape[1], step.in_shape[2]
    oh, ow = step.out_shape[1], step.out_shape[2]
    st = step.stride
    if (oh - 1) * st >= h or (ow - 1) * st >= w:
        raise ValueError(f"pool {step.name!r}: a window starts past the input edge")
    for dy in range(min(step.size, h)):
        ny = min(oh, -(-(h - dy) // st))
        for dx in range(min(step.size, w)):
            nx = min(ow, -(-(w - dx) // st))
            tap = cur[:, :, dy : dy + (ny - 1) * st + 1 : st, dx : dx + (nx - 1) * st + 1 : st]
            dst = out[:, :, :ny, :nx]
            if dy == dx == 0:
                dst[...] = tap
            elif step.kind == "max":
                np.maximum(dst, tap, out=dst)
            else:
                np.add(dst, tap, out=dst)
    if step.kind != "max":
        rows = np.minimum(h - np.arange(oh) * st, step.size)
        cols = np.minimum(w - np.arange(ow) * st, step.size)
        np.floor_divide(out, np.outer(rows, cols), out=out)


def _flatten_into(cur: np.ndarray, out2d: np.ndarray) -> None:
    """Copy ``(C, ns, H, W)`` into ``(C*H*W, ns)`` in reference order."""
    c, ns, h, w = cur.shape
    out2d.reshape(c, h, w, ns)[...] = cur.transpose(0, 2, 3, 1)


def execute_network(
    program: NetworkProgram,
    inputs: np.ndarray,
    threads: int = 1,
) -> np.ndarray:
    """Execute a fused network program over a batch of images.

    Args:
        program: the compiled :class:`NetworkProgram`.
        inputs: ``(N, C, H, W)`` batch of **signed** integer activation
            tensors matching ``program.input_shape``.
        threads: threads splitting each conv step's windows, at most
            :data:`MAX_THREADS`; a step with fewer four-window blocks
            than threads runs on fewer.  Output is bit-identical for
            every thread count (each thread writes its own output
            columns, and the per-window arithmetic never changes).

    Returns:
        ``(N, *program.output_shape)`` int64 outputs, bit-identical to
        stacking ``Network.forward`` per image on the source network.

    Raises:
        ValueError: on shape mismatch, an empty batch, float inputs
            (the :class:`FactorizedConv` message), or unsigned inputs.
    """
    inputs = np.asarray(inputs)
    expected = program.input_shape
    batch_shape = "(N, " + ", ".join(str(d) for d in expected) + ")"
    if inputs.ndim != 4 or inputs.shape[1:] != expected:
        raise ValueError(
            f"network {program.name!r}: expected batch {batch_shape}, got {inputs.shape}"
        )
    if inputs.shape[0] == 0:
        raise ValueError(
            f"network {program.name!r}: empty batch (N=0) is not supported; "
            f"expected {batch_shape} with N >= 1"
        )
    if inputs.dtype.kind == "f":
        raise ValueError(_FLOAT_INPUTS_MSG.format(dtype=inputs.dtype))
    if inputs.dtype.kind != "i":
        raise ValueError(
            f"fused execution cannot guarantee bit-identity for unsigned activations "
            f"(got dtype {inputs.dtype}); use fused=False"
        )
    if not program.steps:
        return inputs
    n = inputs.shape[0]
    out = np.empty((n,) + program.output_shape, dtype=np.int64)
    slice_n = min(n, program.plan.images_per_slice())
    workers = max(1, min(int(threads), MAX_THREADS))
    scratch = _Scratch(program.plan, slice_n)
    pool = ThreadPoolExecutor(max_workers=workers - 1) if workers > 1 else None
    try:
        for lo in range(0, n, slice_n):
            block = inputs[lo : lo + slice_n]
            ns = block.shape[0]
            cur = scratch.slot_view(0, program.input_shape, ns)
            cur[...] = block.transpose(1, 0, 2, 3)
            for i, step in enumerate(program.steps):
                nxt = scratch.slot_view((i + 1) % 2, step.out_shape, ns)
                if isinstance(step, ConvStep):
                    _apply_conv(step, cur, nxt, scratch, pool, workers)
                elif isinstance(step, ReluStep):
                    np.maximum(cur, 0, out=nxt)
                elif isinstance(step, PoolStep):
                    _apply_pool(step, cur, nxt)
                elif isinstance(step, FlattenStep):
                    _flatten_into(cur, nxt.reshape(step.out_shape[0], ns))
                else:  # FallbackStep
                    result = step.layer.forward_batch(cur.transpose(1, 0, 2, 3))
                    nxt[...] = np.asarray(result).transpose(1, 0, 2, 3)
                cur = nxt
            out[lo : lo + ns] = cur.transpose(1, 0, 2, 3)
    finally:
        if pool is not None:
            pool.shutdown(wait=False)
    return out
