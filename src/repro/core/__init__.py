"""The paper's primary contribution: weight-repetition machinery.

* :mod:`repro.core.activation_groups` — the canonical weight ordering
  that keys every indirection table to the activation groups of Section
  III-A (the sets of input positions that share one unique weight);
* :mod:`repro.core.hierarchical` — the factorization tables: iiT / wiT
  with group-transition bits and the zero-last "filter done" encoding,
  shared by ``G`` filters through hierarchical sorting, with skip-entry
  accounting and max-group-size chunking (Sections III-B, IV-B, IV-C).
  ``G = 1`` is vanilla dot product factorization, and
  :meth:`~repro.core.hierarchical.FilterGroupTables.execute`, the
  per-entry table walk, is the ground truth every other path is checked
  against;
* :mod:`repro.core.factorized` — functional execution: full
  convolutions through the compiled engine that are bit-exact against
  the dense reference while counting arithmetic/memory events;
* :mod:`repro.core.jump_encoding` — jump (RLE-style) compression of the
  input indirection table (Section IV-C "Additional table compression");
* :mod:`repro.core.model_size` — model-size accounting for Figure 13/14;
* :mod:`repro.core.partial_product` — partial product reuse
  (Section III-C), implemented as an extension/ablation;
* :mod:`repro.core.seeding` — the deterministic RNG seeding helpers
  (:func:`stable_seed` / :func:`stable_rng`) every experiment routes
  its randomness through, so regenerated results are bit-reproducible
  and the golden-reference harness (:mod:`repro.regress`) can diff them.
"""

from repro.core.activation_groups import canonical_weight_order
from repro.core.factorized import FactorizedConv
from repro.core.hierarchical import FilterGroupTables, build_filter_group_tables
from repro.core.jump_encoding import JumpTable, encode_jumps, grouped_jump_stats
from repro.core.model_size import bits_per_weight, model_size_bits
from repro.core.seeding import stable_rng, stable_seed
from repro.core.serialization import pack_layer, pack_tables, unpack_tables

__all__ = [
    "FactorizedConv",
    "FilterGroupTables",
    "JumpTable",
    "bits_per_weight",
    "build_filter_group_tables",
    "canonical_weight_order",
    "encode_jumps",
    "grouped_jump_stats",
    "model_size_bits",
    "pack_layer",
    "pack_tables",
    "stable_rng",
    "stable_seed",
    "unpack_tables",
]
