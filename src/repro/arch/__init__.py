"""Chip-level architecture substrate (Sections IV-V).

* :mod:`repro.arch.config` — hardware design points (Table II);
* :mod:`repro.arch.buffers` — SRAM buffer capacity/tiling helpers;
* :mod:`repro.arch.banking` — the bank-conflict-free spatially
  vectorized input buffer (Section IV-D, Equations 3-4);
* :mod:`repro.arch.dram` — DRAM traffic per design, incl. DCNN_sp's
  run-length encoding and UCNN's table footprint;
* :mod:`repro.arch.noc` — multicast-bus geometry for the NoC energy model;
* :mod:`repro.arch.dataflow` — the Figure 8 loop nest: tiling, column
  assignment, halos, multicast scheduling.
"""

from repro.arch.config import (
    DesignKind,
    HardwareConfig,
    dcnn_config,
    dcnn_sp_config,
    paper_configs,
    ucnn_config,
)

__all__ = [
    "DesignKind",
    "HardwareConfig",
    "dcnn_config",
    "dcnn_sp_config",
    "paper_configs",
    "ucnn_config",
]
