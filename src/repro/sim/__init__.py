"""Cycle / event simulators.

* :mod:`repro.sim.events` — the event-count record every model shares;
* :mod:`repro.sim.functional` — step-by-step lane state machines
  (DCNN and UCNN) that walk tables entry by entry; slow but independent
  ground truth for cycles and events;
* :mod:`repro.sim.analytic` — vectorized whole-layer/whole-network
  model (UCNN table statistics from sorted keys), cross-validated against
  the functional simulator and used by all experiments;
* :mod:`repro.sim.runner` — network-level composition and result records.
"""

from repro.sim.analytic import simulate_layer, ucnn_layer_aggregate
from repro.sim.events import EventCounts
from repro.sim.runner import LayerResult, NetworkResult, simulate_network

__all__ = [
    "EventCounts",
    "LayerResult",
    "NetworkResult",
    "simulate_layer",
    "simulate_network",
    "ucnn_layer_aggregate",
]
