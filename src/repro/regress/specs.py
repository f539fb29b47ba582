"""The regression registry: what gets golden-checked, at what scale.

One :class:`RegressSpec` per checked experiment: every figure/table
experiment in :data:`repro.cli.EXPERIMENT_SPECS` (at a pinned **fast
scale** — small networks, short sweeps — so a full ``repro regress
--check`` regenerates everything in seconds) plus the engine digest
(:mod:`repro.regress.digests`), which pins the compiled engine's numeric
output bit-exactly.

The pinned kwargs are part of the contract: they are stored inside each
reference file, and ``--check`` refuses to compare when they no longer
match — a changed scale needs an intentional ``--update``.

Specs marked ``smoke`` form the CI pull-request subset
(``repro regress --check --smoke``): the cheapest experiments plus both
engine consumers — fig14 runs table programs through the per-layer
executor, the engine digest runs the fused one — and fig11, whose G = 4
tables are the only golden ones the simulator counts through its sort
route — enough to catch structural and numeric drift on every push
while nightly regenerates the lot.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from repro.regress.diffing import DEFAULT_POLICY, TolerancePolicy


@dataclass(frozen=True)
class RegressSpec:
    """How one experiment is regenerated and compared.

    Attributes:
        experiment: the id (reference filename stem, ``--only`` token).
        module: dotted module exposing ``run()``.
        kwargs: pinned fast-scale arguments passed to ``run``.
        policy: tolerance policy used when diffing against the
            reference (default: exact ints/strings, 1e-9 relative
            floats).
        smoke: whether the spec belongs to the CI smoke subset.
    """

    experiment: str
    module: str
    kwargs: Mapping[str, object] = field(default_factory=dict)
    policy: TolerancePolicy = DEFAULT_POLICY
    smoke: bool = False

    def runner(self) -> Callable[..., object]:
        """Resolve the ``run`` callable."""
        return importlib.import_module(self.module).run


def _spec(experiment: str, module: str, smoke: bool = False, **kwargs: object) -> RegressSpec:
    return RegressSpec(experiment=experiment, module=module, kwargs=kwargs, smoke=smoke)


#: Every golden-checked experiment, in reference order.  Scales are
#: pinned cheap: lenet (or a 2-layer slice) where the experiment is
#: network-scoped, short density sweeps elsewhere.  fig10/tab02/tab03
#: have no scale knobs and run at paper scale (still < 3 s each).
REGRESS_SPECS: tuple[RegressSpec, ...] = (
    _spec("fig03", "repro.experiments.fig03_repetition",
          networks=("lenet",), density=0.9),
    _spec("fig09", "repro.experiments.fig09_energy",
          networks=("lenet",), precisions=(16,), densities=(0.9, 0.5)),
    _spec("fig10", "repro.experiments.fig10_layer_energy"),
    # fig11's G = 4 tables (U = 17) span more keys than they hold, so
    # the simulator sorts them instead of bincounting: the smoke subset
    # checks that route.
    _spec("fig11", "repro.experiments.fig11_runtime", smoke=True,
          densities=(0.1, 0.5, 0.9)),
    _spec("fig12", "repro.experiments.fig12_inq_perf",
          networks=("lenet",), density=0.9),
    _spec("fig13", "repro.experiments.fig13_model_size",
          network="lenet", densities=(0.1, 0.5, 0.9)),
    # fig14 is the only figure that executes table programs
    # (crosscheck_tables), so the smoke subset checks the per-layer
    # kernel path next to the engine digest's fused one.
    _spec("fig14", "repro.experiments.fig14_jump_tables", smoke=True,
          network="lenet", group_sizes=(1, 2), density=0.9),
    _spec("tab02", "repro.experiments.tab02_configs", smoke=True),
    _spec("tab03", "repro.experiments.tab03_area"),
    _spec("abl-l2", "repro.experiments.abl_l2_capacity",
          network="lenet", capacities_kb=(8, 32, 128)),
    _spec("abl-chunk", "repro.experiments.abl_chunking", network="lenet"),
    _spec("abl-pp", "repro.experiments.abl_partial_product", network="lenet"),
    _spec("abl-depth", "repro.experiments.abl_group_depth",
          network="lenet", max_g=4),
    _spec("engine-digest", "repro.regress.digests", smoke=True),
)

#: Spec lookup by experiment id.
SPECS_BY_ID: dict[str, RegressSpec] = {s.experiment: s for s in REGRESS_SPECS}


def resolve_ids(
    only: str | None = None, smoke: bool = False
) -> tuple[RegressSpec, ...]:
    """Select specs by ``--only`` list and/or the smoke flag.

    Args:
        only: comma-separated experiment ids (None = all).
        smoke: restrict to the smoke subset.

    Returns:
        the selected specs, in registry order.

    Raises:
        SystemExit: an unknown id was requested.
    """
    specs = REGRESS_SPECS
    if smoke:
        specs = tuple(s for s in specs if s.smoke)
    if only:
        wanted = [token.strip() for token in only.split(",") if token.strip()]
        unknown = [t for t in wanted if t not in SPECS_BY_ID]
        if unknown:
            raise SystemExit(
                f"unknown experiment id(s) {unknown}; choose from "
                f"{sorted(SPECS_BY_ID)}")
        chosen = set(wanted)
        specs = tuple(s for s in specs if s.experiment in chosen)
    return specs
