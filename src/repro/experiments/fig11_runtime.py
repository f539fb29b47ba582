"""Figure 11 — optimistic normalized runtime vs weight density.

The paper's "optimistic performance analysis": assuming no load-balance
issues (no skip-entry bubbles, no multiplier stalls) and uniform weights,
UCNN's cycles per table walk equal the stored entries — the union of the
G filters' non-zero supports — so runtime tracks
``1 - (1 - density)^G``.  DCNN_sp spends dense cycles regardless of
density (it skips multiply *energy*, not cycles) and is the flat 1.0
line.

Expected shape (paper): G = 1 runtime is proportional to density; larger
G saves energy but erodes the cycle savings (union of more filters).

Beyond the analytic model, ``run(engine_measured=True)`` adds one
*measured* series per G: the same layer is lowered through
:mod:`repro.engine` and the wall-clock of the compiled segment scan is
compared against the dense matmul over an identical window batch — the
software analogue of the paper's cycle claim, on real hardware.
``run(fused_measured=True)`` adds the whole-network analogue: the layer
is wrapped in a :class:`~repro.nn.network.Network`, lowered through
:func:`repro.engine.compile_network`, and the fused executor's
wall-clock (im2col included) is normalized against the per-image dense
convolution over the same batch (series ``UCNN G<g> fused``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.seeding import stable_rng
from repro.experiments.common import ucnn_config_for_group, uniform_weight_provider
from repro.nn.tensor import ConvShape
from repro.nn.zoo import get_network
from repro.runtime import WorkItem, execute
from repro.sim.analytic import ucnn_layer_aggregate

#: The representative layer used for the sweep (ResNet 64:64:3:3,
#: Figure 10's first geometry).  Its 56-wide output divides evenly by
#: every VW in the sweep, so vector-ragged-edge effects do not mask the
#: union-density trend the paper isolates.
PAPER_LAYER = "M1B2L2"

PAPER_DENSITY_SWEEP = tuple(round(0.1 * i, 1) for i in range(1, 11))


@dataclass(frozen=True)
class RuntimePoint:
    """Normalized runtime of one design at one density."""

    design: str
    group_size: int
    density: float
    normalized_runtime: float


@dataclass(frozen=True)
class Figure11Result:
    """The full sweep: one point per (design, density)."""

    points: tuple[RuntimePoint, ...]

    def series(self, design: str) -> list[RuntimePoint]:
        """All densities for one design, ascending."""
        pts = [p for p in self.points if p.design == design]
        return sorted(pts, key=lambda p: p.density)

    def format_rows(self) -> list[tuple]:
        """(design, density, normalized runtime) rows."""
        return [(p.design, p.density, p.normalized_runtime) for p in self.points]


def _layer_shape() -> ConvShape:
    network = get_network("resnet50")
    for shape in network.conv_shapes():
        if shape.name == PAPER_LAYER:
            return shape
    raise KeyError(PAPER_LAYER)


def run(
    group_sizes: tuple[int, ...] = (1, 2, 4),
    densities: tuple[float, ...] = PAPER_DENSITY_SWEEP,
    num_unique: int = 17,
    shape: ConvShape | None = None,
    engine_measured: bool = False,
    fused_measured: bool = False,
) -> Figure11Result:
    """Run the Figure 11 sweep.

    Args:
        group_sizes: UCNN G values to plot.
        densities: weight-density sweep.
        num_unique: U of the synthetic weights (17 = INQ-like).
        shape: layer geometry (defaults to ResNet 256:256:3:3).
        engine_measured: also measure each (G, density) point by
            executing the layer's compiled table program and timing it
            against the dense matmul (series ``UCNN G<g> engine``).
        fused_measured: also measure each point through the fused
            whole-network executor — the layer wrapped in a
            :class:`~repro.nn.network.Network` and lowered via
            :func:`repro.engine.compile_network` — normalized against
            the per-image dense convolution (series ``UCNN G<g> fused``).

    Returns:
        a :class:`Figure11Result` including the flat DCNN_sp line.
    """
    shape = shape or _layer_shape()
    cells = [(density, g) for density in densities for g in group_sizes]
    runtimes = execute(
        WorkItem(
            fn=_runtime_point,
            kwargs={"shape": shape, "group_size": g, "density": density,
                    "num_unique": num_unique},
            label=f"fig11:G{g}:{density}",
        )
        for density, g in cells
    )
    by_cell = dict(zip(cells, runtimes))
    measured_by_cell: dict[tuple[float, int], float] = {}
    fused_by_cell: dict[tuple[float, int], float] = {}
    if engine_measured:
        # Deliberately NOT routed through runtime.execute: wall-clock
        # ratios are machine-local measurements, so memoizing them in
        # the content-addressed cache would replay one machine's stale
        # timings forever, and pool parallelism would skew the clocks.
        measured_by_cell = {
            (density, g): _measured_point(
                shape=shape, group_size=g, density=density, num_unique=num_unique
            )
            for density, g in cells
        }
    if fused_measured:
        # Same rationale: machine-local wall clock, never cached.
        fused_by_cell = {
            (density, g): _fused_measured_point(
                shape=shape, group_size=g, density=density, num_unique=num_unique
            )
            for density, g in cells
        }
    points: list[RuntimePoint] = []
    for density in densities:
        points.append(RuntimePoint(
            design="DCNN_sp", group_size=1, density=density, normalized_runtime=1.0,
        ))
        for g in group_sizes:
            points.append(RuntimePoint(
                design=f"UCNN G{g}", group_size=g, density=density,
                normalized_runtime=by_cell[(density, g)],
            ))
            if engine_measured:
                points.append(RuntimePoint(
                    design=f"UCNN G{g} engine", group_size=g, density=density,
                    normalized_runtime=measured_by_cell[(density, g)],
                ))
            if fused_measured:
                points.append(RuntimePoint(
                    design=f"UCNN G{g} fused", group_size=g, density=density,
                    normalized_runtime=fused_by_cell[(density, g)],
                ))
    return Figure11Result(points=tuple(points))


def _runtime_point(shape: ConvShape, group_size: int, density: float, num_unique: int) -> float:
    """Design point: optimistic normalized runtime of one (G, density)."""
    weights = uniform_weight_provider(num_unique, density, tag="fig11")(shape)
    config = ucnn_config_for_group(group_size)
    agg = ucnn_layer_aggregate(weights, shape, config)
    # Optimistic: stored entries only (no bubbles, no stalls).
    # agg.entries is already summed over all (K/G) filter groups
    # and channel tiles; the throughput-normalized dense design
    # spends K * R*S*C / 8 cycles per output position.
    walks = shape.out_h * (-(-shape.out_w // config.vw))
    ucnn_cycles = walks * agg.entries
    dense_cycles = shape.out_h * shape.out_w * shape.k * shape.filter_size / 8
    return ucnn_cycles / dense_cycles


def _measured_point(
    shape: ConvShape,
    group_size: int,
    density: float,
    num_unique: int,
    windows: int = 256,
    repeats: int = 3,
) -> float:
    """Design point: measured engine/dense wall-clock ratio of one cell.

    Lowers the synthetic layer through :mod:`repro.engine`, executes the
    compiled program over a seeded window batch, and normalizes its best
    wall-clock against the dense int64 matmul over the same batch.
    Parity between the two is asserted before timing anything.
    """
    from repro.engine import compiled_layer_for, execute_program
    from repro.experiments.common import best_of

    weights = uniform_weight_provider(num_unique, density, tag="fig11")(shape)
    flat = weights.reshape(weights.shape[0], -1).astype(np.int64)
    compiled = compiled_layer_for(weights, group_size=group_size)
    rng = stable_rng("fig11-engine-windows", shape.name, group_size, density)
    batch = rng.integers(-128, 129, size=(windows, flat.shape[1]))
    if not np.array_equal(execute_program(compiled.program, batch), flat @ batch.T):
        raise RuntimeError("engine/dense parity failure in fig11 measured point")
    t_engine = best_of(lambda: execute_program(compiled.program, batch), repeats=repeats)
    t_dense = best_of(lambda: flat @ batch.T, repeats=repeats)
    return t_engine / t_dense


def _fused_measured_point(
    shape: ConvShape,
    group_size: int,
    density: float,
    num_unique: int,
    batch: int = 8,
    repeats: int = 3,
) -> float:
    """Design point: measured fused/dense wall-clock ratio of one cell.

    Wraps the synthetic layer in a single-layer
    :class:`~repro.nn.network.Network`, lowers it through
    :func:`repro.engine.compile_network`, and times the fused executor
    over a seeded image batch against the per-image dense convolution —
    both sides pay their own im2col, so the ratio reflects end-to-end
    activation-in/output-out cost.  The spatial extent is capped at
    16x16 (weights and G are the cell's own) to keep the sweep
    affordable; parity is asserted before timing anything.
    """
    from repro.engine import compile_network, execute_network
    from repro.experiments.common import best_of
    from repro.nn.layers import ConvLayer
    from repro.nn.network import Network
    from repro.nn.reference import conv2d_im2col

    small = shape.with_input(min(shape.h, 16), min(shape.w, 16))
    weights = uniform_weight_provider(num_unique, density, tag="fig11")(small)
    network = Network(f"fig11-fused-G{group_size}", small.input_shape, [ConvLayer(small, weights)])
    program = compile_network(network, group_size=group_size)
    rng = stable_rng("fig11-fused-images", small.name, group_size, density)
    images = rng.integers(-128, 129, size=(batch, *small.input_shape.as_tuple()))

    def dense() -> np.ndarray:
        return np.stack([
            conv2d_im2col(img, weights, small.stride, small.padding) for img in images
        ])

    if not np.array_equal(execute_network(program, images), dense()):
        raise RuntimeError("fused/dense parity failure in fig11 fused point")
    t_fused = best_of(lambda: execute_network(program, images), repeats=repeats)
    t_dense = best_of(dense, repeats=repeats)
    return t_fused / t_dense
