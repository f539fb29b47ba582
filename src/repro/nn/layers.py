"""Layer objects for the sequential CNN substrate.

Each layer knows how to compute its forward pass on a ``(C, H, W)``
activation tensor and how to propagate shapes.  Convolution and FC layers
carry (optional) weight tensors; when a network is used purely for
shape/cost analysis (the common case for the accelerator experiments),
weights may be attached later via :meth:`ConvLayer.set_weights` or
generated on the fly by :mod:`repro.quant.distributions`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn import reference
from repro.nn.tensor import ConvShape, TensorShape, pool_output_hw


class Layer:
    """Base class for all layers.

    Subclasses implement :meth:`forward` and :meth:`output_shape`.
    """

    name: str = "layer"

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Compute the layer output for a ``(C, H, W)`` input tensor."""
        raise NotImplementedError

    def forward_batch(self, inputs: np.ndarray) -> np.ndarray:
        """Compute outputs for a batch of inputs stacked on axis 0.

        The default runs :meth:`forward` per item; elementwise and
        reshaping layers, and :class:`FullyConnectedLayer`'s int64
        matmul, override this with batch-wide equivalents.  Results are
        always bit-identical to the per-item loop.

        Raises:
            ValueError: on an empty batch (output dtype would be a guess).
        """
        inputs = np.asarray(inputs)
        if inputs.shape[0] == 0:
            raise ValueError(f"layer {self.name!r}: empty batch (N=0) is not supported")
        return np.stack([self.forward(x) for x in inputs])

    def output_shape(self, input_shape: TensorShape) -> TensorShape:
        """Shape of the output given an input shape."""
        raise NotImplementedError

    def conv_sublayers(self) -> list["ConvLayer"]:
        """Conv layers contained in this layer (empty for non-conv layers).

        Composite layers (e.g. ResNet bottleneck blocks) override this to
        expose their internal convolutions to the accelerator model.
        """
        return []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


class ConvLayer(Layer):
    """A convolutional layer described by a :class:`ConvShape`.

    Args:
        shape: the layer's geometry (includes input resolution).
        weights: optional ``(K, C, R, S)`` weight tensor.  ``C`` here is
            the per-filter channel count (``shape.c``), so grouped layers
            take ``(K, C/groups, R, S)``-style weights directly.
    """

    def __init__(self, shape: ConvShape, weights: np.ndarray | None = None):
        self.shape = shape
        self.name = shape.name
        self._weights: np.ndarray | None = None
        if weights is not None:
            self.set_weights(weights)

    @property
    def weights(self) -> np.ndarray:
        """The weight tensor; raises if not set."""
        if self._weights is None:
            raise RuntimeError(f"layer {self.name!r} has no weights attached")
        return self._weights

    @property
    def has_weights(self) -> bool:
        """Whether a weight tensor is attached."""
        return self._weights is not None

    def set_weights(self, weights: np.ndarray) -> None:
        """Attach a weight tensor, validating its shape."""
        weights = np.asarray(weights)
        expected = self.shape.weight_shape
        if tuple(weights.shape) != expected:
            raise ValueError(
                f"layer {self.name!r}: expected weights {expected}, got {tuple(weights.shape)}"
            )
        self._weights = weights

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        sh = self.shape
        if inputs.shape != sh.input_shape.as_tuple():
            raise ValueError(
                f"layer {self.name!r}: expected input {sh.input_shape.as_tuple()}, got {inputs.shape}"
            )
        return reference.conv2d_grouped(inputs, self.weights, sh.groups, sh.stride, sh.padding)

    def output_shape(self, input_shape: TensorShape) -> TensorShape:
        if input_shape.as_tuple() != self.shape.input_shape.as_tuple():
            raise ValueError(
                f"layer {self.name!r}: shape mismatch {input_shape} vs {self.shape.input_shape}"
            )
        return self.shape.output_shape

    def conv_sublayers(self) -> list["ConvLayer"]:
        return [self]


class ReluLayer(Layer):
    """Elementwise ReLU."""

    def __init__(self, name: str = "relu"):
        self.name = name

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        return reference.relu(inputs)

    def forward_batch(self, inputs: np.ndarray) -> np.ndarray:
        return reference.relu(np.asarray(inputs))

    def output_shape(self, input_shape: TensorShape) -> TensorShape:
        return input_shape


@dataclass
class _PoolGeometry:
    """Shared shape logic for pooling layers (ceil-mode, Caffe-style)."""

    size: int
    stride: int

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        return pool_output_hw(h, w, self.size, self.stride)


class MaxPoolLayer(Layer):
    """Max pooling layer."""

    def __init__(self, size: int, stride: int, name: str = "maxpool"):
        self.name = name
        self.geometry = _PoolGeometry(size, stride)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        return reference.maxpool2d(inputs, self.geometry.size, self.geometry.stride)

    def output_shape(self, input_shape: TensorShape) -> TensorShape:
        out_h, out_w = self.geometry.out_hw(input_shape.h, input_shape.w)
        return TensorShape(input_shape.c, out_h, out_w)


class AvgPoolLayer(Layer):
    """Average pooling layer."""

    def __init__(self, size: int, stride: int, name: str = "avgpool"):
        self.name = name
        self.geometry = _PoolGeometry(size, stride)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        return reference.avgpool2d(inputs, self.geometry.size, self.geometry.stride)

    def output_shape(self, input_shape: TensorShape) -> TensorShape:
        out_h, out_w = self.geometry.out_hw(input_shape.h, input_shape.w)
        return TensorShape(input_shape.c, out_h, out_w)


class FlattenLayer(Layer):
    """Flatten ``(C, H, W)`` to ``(C*H*W, 1, 1)`` ahead of FC layers."""

    def __init__(self, name: str = "flatten"):
        self.name = name

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        return inputs.reshape(-1, 1, 1)

    def forward_batch(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs)
        return inputs.reshape(inputs.shape[0], -1, 1, 1)

    def output_shape(self, input_shape: TensorShape) -> TensorShape:
        return TensorShape(input_shape.size, 1, 1)


class FullyConnectedLayer(Layer):
    """Fully connected layer with a ``(K, N)`` weight matrix.

    Internally modelled as a 1x1 convolution over an ``(N, 1, 1)`` input,
    which is exactly how the paper's accelerator executes FC layers
    (Section IV-E: convolution with slide reuse disabled).
    """

    def __init__(self, out_features: int, in_features: int, weights: np.ndarray | None = None,
                 name: str = "fc"):
        self.name = name
        self.out_features = out_features
        self.in_features = in_features
        self._weights: np.ndarray | None = None
        if weights is not None:
            self.set_weights(weights)

    @property
    def weights(self) -> np.ndarray:
        """The ``(K, N)`` weight matrix; raises if not set."""
        if self._weights is None:
            raise RuntimeError(f"layer {self.name!r} has no weights attached")
        return self._weights

    @property
    def has_weights(self) -> bool:
        """Whether a weight matrix is attached."""
        return self._weights is not None

    def set_weights(self, weights: np.ndarray) -> None:
        """Attach the ``(K, N)`` weight matrix."""
        weights = np.asarray(weights)
        expected = (self.out_features, self.in_features)
        if tuple(weights.shape) != expected:
            raise ValueError(f"layer {self.name!r}: expected weights {expected}, got {tuple(weights.shape)}")
        self._weights = weights

    def as_conv_shape(self) -> ConvShape:
        """Equivalent 1x1 conv geometry (the accelerator model and the fused engine run it)."""
        return ConvShape(name=self.name, w=1, h=1, c=self.in_features, k=self.out_features, r=1, s=1)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        out = reference.fully_connected(inputs, self.weights)
        return out.reshape(self.out_features, 1, 1)

    def forward_batch(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs)
        # One int64 matmul for the whole batch is exact (associative mod
        # 2**64). The per-item reference promotes only kind-'i' operands
        # to int64, so anything else (float rounding order, unsigned
        # wraparound) stays on the loop to keep bit-identity.
        if inputs.dtype.kind != "i" or self.weights.dtype.kind != "i":
            return super().forward_batch(inputs)
        flat = inputs.reshape(inputs.shape[0], -1).astype(np.int64)
        if flat.shape[1] != self.in_features:
            raise ValueError(
                f"layer {self.name!r}: expected {self.in_features} input features, got {flat.shape[1]}"
            )
        out = flat @ self.weights.astype(np.int64).T
        return out.reshape(inputs.shape[0], self.out_features, 1, 1)

    def output_shape(self, input_shape: TensorShape) -> TensorShape:
        if input_shape.size != self.in_features:
            raise ValueError(
                f"layer {self.name!r}: expected {self.in_features} input features, got {input_shape.size}"
            )
        return TensorShape(self.out_features, 1, 1)
