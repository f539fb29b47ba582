"""Common result type for quantizers.

All quantizers in :mod:`repro.quant` return integer weight tensors on a
fixed-point grid (``values * scale`` recovers the real weights).  Keeping
weights integral makes every downstream UCNN execution path bit-exact, and
— critically for the paper's mechanisms — makes "same weight" a crisp
integer equality rather than a float comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class QuantizedWeights:
    """A quantized weight tensor.

    Attributes:
        values: integer weight tensor (int64).
        scale: real value of one integer step; ``values * scale``
            approximates the original real-valued weights.
        scheme: name of the quantizer that produced this tensor.
    """

    values: np.ndarray
    scale: float
    scheme: str

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        if values.dtype.kind != "i":
            raise TypeError(f"quantized weights must be integers, got {values.dtype}")
        # A copy, so the caller's array never aliases these weights.
        object.__setattr__(self, "values", values.astype(np.int64))

    @cached_property
    def unique(self) -> np.ndarray:
        """Sorted distinct weight values, computed on first read."""
        return np.unique(self.values)

    @property
    def num_unique(self) -> int:
        """Number of unique weight values (``U`` in the paper)."""
        return int(self.unique.size)

    @property
    def density(self) -> float:
        """Fraction of non-zero weights."""
        return float(np.count_nonzero(self.values)) / self.values.size

    def dequantize(self) -> np.ndarray:
        """Real-valued weights (``values * scale``)."""
        return self.values.astype(np.float64) * self.scale

    def quantization_error(self, original: np.ndarray) -> float:
        """RMS error between the dequantized and original weights."""
        diff = self.dequantize() - np.asarray(original, dtype=np.float64)
        return float(np.sqrt(np.mean(diff**2)))
