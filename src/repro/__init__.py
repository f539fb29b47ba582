"""repro — a reproduction of UCNN (ISCA 2018).

UCNN ("Unique Weight CNN Accelerator", Hegde et al., ISCA 2018) exploits
*weight repetition* — the same weight value occurring many times within and
across CNN filters — to reduce multiplies, memory reads, and model size
during CNN inference.

This package contains a complete software reproduction of the paper:

``repro.nn``
    A numpy CNN inference substrate (conv / pool / FC layers, an im2col
    reference implementation, fixed-point helpers) plus the three network
    configurations evaluated in the paper (LeNet-like, AlexNet, ResNet-50).
``repro.quant``
    Weight quantization schemes: INQ-like powers-of-two (U=17), TTQ-like
    ternary (U=3), uniform k-bit, magnitude sparsification to a target
    density, and synthetic weight generators.
``repro.core``
    The paper's primary contribution: dot-product factorization via
    activation groups, input/weight indirection tables, hierarchical
    activation-group reuse across G filters, skip-entry handling, jump
    table compression, and model-size accounting.
``repro.engine``
    The compiled execution layer: an offline compiler lowering each
    filter group's tables into a flat table program, plus a vectorized
    segment-scan executor that evaluates all windows and all filter
    groups of a layer at once — bit-exact against the per-entry walk
    and orders of magnitude faster (the factorized fast path).
``repro.arch``
    Chip-level architecture: hardware configurations (Table II), SRAM
    buffers, banked spatial vectorization, NoC, DRAM traffic, and the
    weight-stationary / output-stationary dataflow of Figure 8.
``repro.sim``
    Functional (bit-exact, per-entry) and analytic (vectorized,
    full-network) simulators producing cycle and event counts.
``repro.energy``
    Energy and area models calibrated on the constants quoted in the paper
    (Horowitz arithmetic energies, CACTI-like SRAMs, 20 pJ/bit DRAM).
``repro.experiments``
    One runner per table/figure in the paper's evaluation (Section VI).

Quickstart::

    import numpy as np
    from repro import FactorizedConv
    from repro.quant import quantize_inq

    weights = quantize_inq(np.random.randn(16, 8, 3, 3), num_levels=16)
    conv = FactorizedConv(weights.values, group_size=2)
    outputs = conv.forward(np.random.randint(-8, 8, size=(8, 12, 12)))
"""

from repro.core.factorized import FactorizedConv
from repro.core.hierarchical import FilterGroupTables, build_filter_group_tables
from repro.core.model_size import bits_per_weight, model_size_bits
from repro.nn.network import Network
from repro.nn.zoo import alexnet, lenet_cifar10, resnet50

__version__ = "1.0.0"

__all__ = [
    "FactorizedConv",
    "FilterGroupTables",
    "Network",
    "__version__",
    "alexnet",
    "bits_per_weight",
    "build_filter_group_tables",
    "lenet_cifar10",
    "model_size_bits",
    "resnet50",
]
