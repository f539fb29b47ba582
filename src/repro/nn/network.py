"""Sequential network container.

A :class:`Network` is an ordered list of layers plus an input shape.  It
supports shape checking, forward inference, and convenient iteration over
the convolutional layers (which is what the accelerator experiments
consume — pooling/ReLU contribute negligibly to energy, as in the paper,
which models convolutional layers only; see Section II-A).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.nn.layers import ConvLayer, FullyConnectedLayer, Layer
from repro.nn.tensor import ConvShape, TensorShape


class Network:
    """An ordered sequence of layers with a fixed input shape.

    Args:
        name: network name (e.g. ``"resnet50"``).
        input_shape: shape of the input activation tensor.
        layers: the layer sequence.  Shapes are validated eagerly: every
            layer must accept its predecessor's output shape.
    """

    def __init__(self, name: str, input_shape: TensorShape, layers: Sequence[Layer]):
        self.name = name
        self.input_shape = input_shape
        self.layers: list[Layer] = list(layers)
        self._shapes: list[TensorShape] = []
        shape = input_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
            self._shapes.append(shape)

    @property
    def output_shape(self) -> TensorShape:
        """Shape of the final layer's output."""
        if not self.layers:
            return self.input_shape
        return self._shapes[-1]

    def layer_input_shape(self, index: int) -> TensorShape:
        """Input shape of the ``index``-th layer."""
        if index == 0:
            return self.input_shape
        return self._shapes[index - 1]

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Run inference over all layers (requires weights attached)."""
        inputs = np.asarray(inputs)
        if inputs.shape != self.input_shape.as_tuple():
            raise ValueError(
                f"network {self.name!r}: expected input {self.input_shape.as_tuple()}, got {inputs.shape}"
            )
        out = inputs
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def forward_batch(
        self,
        inputs: np.ndarray,
        fused: bool = False,
        threads: int = 1,
    ) -> np.ndarray:
        """Run inference over a batch of images at once.

        With ``fused=False`` (default), each layer's ``forward_batch``
        runs in turn: the dense reference, which never touches
        :mod:`repro.engine`, so it is an independent oracle for the
        engine.  With ``fused=True`` the whole network is lowered into
        one memoized :class:`~repro.engine.fusion.NetworkProgram` —
        intermediates live in preallocated reused buffers and each conv
        layer's segment scan fans out across ``threads`` workers.  Both
        paths are bit-identical to stacking :meth:`forward` per image.

        Args:
            inputs: ``(N, C, H, W)`` batch matching the input shape.
            fused: execute through the fused whole-network program.
            threads: worker threads for the fused executor (ignored when
                ``fused=False``); output is bit-identical for every
                thread count.

        Returns:
            ``(N, *output_shape)`` stacked int64 outputs.

        Raises:
            ValueError: on a shape mismatch or an empty batch, and on
                the fused path for float or unsigned weights/inputs.
        """
        inputs = np.asarray(inputs)
        expected = self.input_shape.as_tuple()
        batch_shape = "(N, " + ", ".join(str(d) for d in expected) + ")"
        if inputs.ndim != 4 or inputs.shape[1:] != expected:
            raise ValueError(
                f"network {self.name!r}: expected batch {batch_shape}, got {inputs.shape}"
            )
        if inputs.shape[0] == 0:
            raise ValueError(
                f"network {self.name!r}: empty batch (N=0) is not supported; "
                f"expected {batch_shape} with N >= 1"
            )
        if fused:
            from repro.engine import compile_network, execute_network

            program = compile_network(self)
            return execute_network(program, inputs, threads=threads)
        out = inputs
        for layer in self.layers:
            out = layer.forward_batch(out)
        return out

    def conv_layers(self, include_fc: bool = False) -> list[ConvLayer]:
        """All :class:`ConvLayer` instances in order.

        Args:
            include_fc: if True, FC layers are returned as equivalent 1x1
                :class:`ConvLayer` objects (sharing the FC weights when
                attached), matching the paper's FC-as-conv execution.
        """
        result: list[ConvLayer] = []
        for layer in self.layers:
            if include_fc and isinstance(layer, FullyConnectedLayer):
                conv = ConvLayer(layer.as_conv_shape())
                if layer.has_weights:
                    k, n = layer.weights.shape
                    conv.set_weights(layer.weights.reshape(k, n, 1, 1))
                result.append(conv)
            else:
                result.extend(layer.conv_sublayers())
        return result

    def conv_shapes(self, include_fc: bool = False) -> list[ConvShape]:
        """Geometries of all conv layers (optionally FC-as-1x1-conv)."""
        return [layer.shape for layer in self.conv_layers(include_fc=include_fc)]

    def iter_named_layers(self) -> Iterator[tuple[str, Layer]]:
        """Yield ``(name, layer)`` pairs in execution order."""
        for layer in self.layers:
            yield layer.name, layer

    def find(self, name: str) -> Layer:
        """Return the layer with the given name.

        Raises:
            KeyError: if no layer has that name.
        """
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"network {self.name!r} has no layer named {name!r}")

    def num_parameters(self, include_fc: bool = True) -> int:
        """Total weight count across conv (and optionally FC) layers."""
        total = sum(conv.shape.num_weights for conv in self.conv_layers())
        if include_fc:
            for layer in self.layers:
                if isinstance(layer, FullyConnectedLayer):
                    total += layer.out_features * layer.in_features
        return total

    def total_macs(self) -> int:
        """Total dense MACs for one inference over conv + FC layers."""
        total = sum(conv.shape.macs for conv in self.conv_layers())
        for layer in self.layers:
            if isinstance(layer, FullyConnectedLayer):
                total += layer.out_features * layer.in_features
        return total

    def __len__(self) -> int:
        return len(self.layers)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Network({self.name!r}, {len(self.layers)} layers)"
