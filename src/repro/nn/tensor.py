"""Shape records and shape arithmetic for the CNN substrate.

The paper (Figure 2) describes a convolutional layer by the tuple
``(W, H, C, R, S, K)``: a ``W x H x C`` input, ``K`` filters of shape
``R x S x C``, and a ``(W-R+1) x (H-S+1) x K`` output (for unit stride and
no padding).  :class:`ConvShape` captures those parameters together with
stride and padding, and derives every quantity the simulators need (output
dimensions, MAC counts, weight counts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def conv_output_hw(h: int, w: int, r: int, s: int, stride: int = 1, padding: int = 0) -> tuple[int, int]:
    """Return the output ``(H', W')`` of a convolution.

    Follows the standard floor convention::

        H' = floor((H + 2*padding - S) / stride) + 1
        W' = floor((W + 2*padding - R) / stride) + 1

    where, per the paper's notation, ``R`` is the filter extent along ``W``
    and ``S`` the extent along ``H``.

    Raises:
        ValueError: if the kernel does not fit in the padded input.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")
    eff_h = h + 2 * padding
    eff_w = w + 2 * padding
    if s > eff_h or r > eff_w:
        raise ValueError(
            f"kernel ({r}x{s}) does not fit input ({w}x{h}) with padding {padding}"
        )
    out_h = (eff_h - s) // stride + 1
    out_w = (eff_w - r) // stride + 1
    return out_h, out_w


def pool_output_hw(h: int, w: int, size: int, stride: int) -> tuple[int, int]:
    """Return the output ``(H', W')`` of ``size x size`` pooling.

    Follows the ceil-mode (Caffe) convention, at least one output::

        H' = max(1, ceil((H - size) / stride) + 1)
    """
    return (
        max(1, -(-(h - size) // stride) + 1),
        max(1, -(-(w - size) // stride) + 1),
    )


@dataclass(frozen=True)
class TensorShape:
    """A ``(C, H, W)`` activation tensor shape."""

    c: int
    h: int
    w: int

    def __post_init__(self) -> None:
        if self.c < 1 or self.h < 1 or self.w < 1:
            raise ValueError(f"all dimensions must be positive: {self}")

    @property
    def size(self) -> int:
        """Total number of activations."""
        return self.c * self.h * self.w

    def as_tuple(self) -> tuple[int, int, int]:
        """Return ``(c, h, w)``."""
        return (self.c, self.h, self.w)


@dataclass(frozen=True)
class ConvShape:
    """Full shape description of one convolutional layer.

    Attributes:
        name: human-readable layer name (e.g. ``"conv1"`` or ``"M2L3"``).
        w, h: input spatial width/height.
        c: input channels (``C`` in the paper). For grouped convolutions
            this is the *per-filter* channel count (e.g. AlexNet conv2 has
            ``c=48`` per filter even though the layer input has 96).
        k: number of filters / output channels (``K``).
        r, s: filter spatial extent along width / height.
        stride: convolution stride (same in both spatial dims).
        padding: symmetric zero padding.
        groups: number of filter groups (1 for ordinary convolution).
    """

    name: str
    w: int
    h: int
    c: int
    k: int
    r: int
    s: int
    stride: int = 1
    padding: int = 0
    groups: int = 1
    out_h: int = field(init=False)
    out_w: int = field(init=False)

    def __post_init__(self) -> None:
        for attr in ("w", "h", "c", "k", "r", "s", "groups"):
            if getattr(self, attr) < 1:
                raise ValueError(f"{attr} must be positive in {self.name}")
        if self.k % self.groups != 0:
            raise ValueError(f"{self.name}: k={self.k} not divisible by groups={self.groups}")
        out_h, out_w = conv_output_hw(self.h, self.w, self.r, self.s, self.stride, self.padding)
        object.__setattr__(self, "out_h", out_h)
        object.__setattr__(self, "out_w", out_w)

    # -- derived quantities used throughout the simulators -----------------

    @property
    def filter_size(self) -> int:
        """Weights per filter, ``R*S*C`` (the dot-product length)."""
        return self.r * self.s * self.c

    @property
    def num_weights(self) -> int:
        """Total weights in the layer, ``R*S*C*K``."""
        return self.filter_size * self.k

    @property
    def num_outputs(self) -> int:
        """Total output activations, ``out_h * out_w * K``."""
        return self.out_h * self.out_w * self.k

    @property
    def num_inputs(self) -> int:
        """Total input activations, ``H * W * C * groups``."""
        return self.h * self.w * self.c * self.groups

    @property
    def macs(self) -> int:
        """Dense multiply-accumulates for the layer."""
        return self.num_outputs * self.filter_size

    @property
    def output_shape(self) -> TensorShape:
        """Output activation tensor shape ``(K, out_h, out_w)``."""
        return TensorShape(self.k, self.out_h, self.out_w)

    @property
    def input_shape(self) -> TensorShape:
        """Input activation tensor shape ``(C*groups, H, W)``."""
        return TensorShape(self.c * self.groups, self.h, self.w)

    @property
    def weight_shape(self) -> tuple[int, int, int, int]:
        """Weight tensor shape ``(K, C, R, S)``."""
        return (self.k, self.c, self.r, self.s)

    def index_bits(self, channel_tile: int | None = None) -> int:
        """Pointer width for an input indirection table entry.

        Per Section IV-B each iiT entry is a ``ceil(log2(R*S*Ct))``-bit
        pointer into the PE's input buffer, where ``Ct`` is the channel
        tile (defaults to the full ``C``).
        """
        ct = self.c if channel_tile is None else min(channel_tile, self.c)
        return max(1, math.ceil(math.log2(self.r * self.s * ct)))

    def with_input(self, h: int, w: int) -> "ConvShape":
        """Return a copy of this shape with a different input resolution."""
        return ConvShape(
            name=self.name, w=w, h=h, c=self.c, k=self.k, r=self.r, s=self.s,
            stride=self.stride, padding=self.padding, groups=self.groups,
        )
