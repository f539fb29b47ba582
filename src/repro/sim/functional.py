"""Step-by-step lane state machines (independent cycle ground truth).

:class:`UcnnLaneSimulator` steps a :class:`FilterGroupTables` entry by
entry the way the Section IV-C datapath does — including explicit skip
entries (bubbles) materialized into the entry stream and single-multiplier
dispatch stalls — producing an exact cycle count.  The test suite checks
those stepped counts against the closed-form
:meth:`FilterGroupTables.stats` and the analytic layer model.  Its
dot-product outputs come from the one per-entry table walk,
:meth:`FilterGroupTables.execute`.

:class:`DcnnLaneSimulator` is the dense counterpart (one MAC per lane per
cycle, VK lanes).

:func:`crosscheck_tables` is the consistency hook tying the three
execution surfaces together: for a given table it runs the compiled
engine program (:mod:`repro.engine`), the dense reference, and
optionally the per-entry walk (through the lane simulator), and raises
if any pair disagrees.  The experiments that build tables on sampled
data (fig14) call it so a table-construction bug can never silently
skew a sampled estimator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.hierarchical import INLINE_SKIP_CAPACITY, FilterGroupTables


@dataclass
class LaneTrace:
    """What one lane did during a table walk.

    Attributes:
        cycles: total cycles including bubbles and stalls.
        entry_cycles: cycles spent on real entries.
        bubble_cycles: cycles spent on skip entries.
        stall_cycles: multiplier-contention stalls.
        multiplies: MACs dispatched.
        outputs: the G dot products produced.
    """

    cycles: int = 0
    entry_cycles: int = 0
    bubble_cycles: int = 0
    stall_cycles: int = 0
    multiplies: int = 0
    outputs: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))


class UcnnLaneSimulator:
    """Cycle-stepped UCNN lane over one shared table.

    Args:
        tables: the filter group's tables.
        num_multipliers: multipliers available per lane group (1 in the
            paper's PE).
    """

    def __init__(self, tables: FilterGroupTables, num_multipliers: int = 1):
        """Bind the lane to one group's tables and its multiplier count."""
        self.tables = tables
        self.num_multipliers = num_multipliers

    def _bubbles_at(self, t: int) -> int:
        """Skip entries consumed before real entry ``t``."""
        g_count = self.tables.num_filters
        total = 0
        for g in range(g_count):
            need = int(self.tables.skip_needs[g, t])
            if g == g_count - 1:
                over = max(0, need - INLINE_SKIP_CAPACITY)
                total += -(-over // INLINE_SKIP_CAPACITY)
            else:
                total += need
        return total

    def run(self, window: np.ndarray) -> LaneTrace:
        """Walk the table over one window, stepping cycle by cycle.

        Each entry costs its skip bubbles, one cycle, and any MACs it
        dispatches (stalling when they outnumber the multipliers).  The
        dot products come from the table walk itself,
        :meth:`FilterGroupTables.execute`.
        """
        tables = self.tables
        trace = LaneTrace(outputs=tables.execute(window))
        g_count = tables.num_filters
        weights = tables.filters[:, tables.iit]  # (G, L)
        chunk = 0
        for t in range(tables.num_entries):
            bubbles = self._bubbles_at(t)
            trace.bubble_cycles += bubbles
            trace.entry_cycles += 1
            trace.cycles += bubbles + 1
            chunk += 1
            at_inner_end = bool(tables.transitions[g_count - 1, t])
            if chunk >= tables.max_group_size and not at_inner_end:
                chunk = 0
                if weights[g_count - 1, t] != 0:
                    trace.multiplies += 1  # early MAC, alone: no stall
            if at_inner_end:
                chunk = 0
                macs = int(np.count_nonzero(tables.transitions[:, t] & (weights[:, t] != 0)))
                stall = max(0, macs - self.num_multipliers)
                trace.multiplies += macs
                trace.stall_cycles += stall
                trace.cycles += stall
        return trace


class ConsistencyError(RuntimeError):
    """Two execution surfaces disagreed on the same table and windows."""


def crosscheck_tables(
    tables: FilterGroupTables,
    windows: np.ndarray,
    num_multipliers: int = 1,
    lane: bool = True,
) -> np.ndarray:
    """Assert engine ≡ dense (≡ lane simulator) on the given windows.

    Args:
        tables: the filter group's tables.
        windows: one flattened window ``(N,)`` or a batch ``(n, N)``.
        num_multipliers: multipliers per lane group for the lane run.
        lane: also step the (slow, per-entry) lane simulator per window;
            disable for cheap vectorized-only validation in sampled
            estimators.

    Returns:
        the agreed ``(G, n)`` dot products.

    Raises:
        ConsistencyError: if any surface disagrees with the others.
    """
    from repro.engine import compile_layer, execute_program

    windows = np.asarray(windows)
    if windows.ndim == 1:
        windows = windows.reshape(1, -1)
    engine_out = execute_program(compile_layer([tables]), windows)
    dense = tables.filters.astype(np.int64) @ windows.astype(np.int64).T
    if not np.array_equal(engine_out, dense):
        raise ConsistencyError(
            f"engine program disagrees with dense reference on {windows.shape[0]} window(s)"
        )
    if lane:
        sim = UcnnLaneSimulator(tables, num_multipliers=num_multipliers)
        for i in range(windows.shape[0]):
            trace = sim.run(windows[i])
            if not np.array_equal(trace.outputs, engine_out[:, i]):
                raise ConsistencyError(f"lane simulator disagrees with engine on window {i}")
    return engine_out


class DcnnLaneSimulator:
    """Dense PE lane group: VK filters, one input element per cycle.

    Args:
        filters: ``(VK, N)`` flattened filters evaluated together.
        skip_zero_operands: DCNN_sp mode — multiplies with a zero weight
            or activation are gated (energy), cycles unchanged.
    """

    def __init__(self, filters: np.ndarray, skip_zero_operands: bool = False):
        """Bind the lanes to their ``(VK, N)`` filters."""
        self.filters = np.asarray(filters, dtype=np.int64)
        if self.filters.ndim != 2:
            raise ValueError("filters must be (VK, N)")
        self.skip_zero_operands = skip_zero_operands

    def run(self, window: np.ndarray) -> LaneTrace:
        """One dense walk: N cycles, VK MACs per cycle."""
        window = np.asarray(window, dtype=np.int64).reshape(-1)
        vk, n = self.filters.shape
        if window.size != n:
            raise ValueError(f"window length {window.size} != filter size {n}")
        trace = LaneTrace(outputs=np.zeros(vk, dtype=np.int64))
        for t in range(n):
            trace.cycles += 1
            trace.entry_cycles += 1
            act = int(window[t])
            for lane in range(vk):
                weight = int(self.filters[lane, t])
                if self.skip_zero_operands and (weight == 0 or act == 0):
                    continue
                trace.outputs[lane] += weight * act
                trace.multiplies += 1
        return trace
