"""Small-scope runs of every experiment runner.

Full-scale fidelity runs live in benchmarks/; these tests exercise every
runner end-to-end on reduced inputs and assert the paper's qualitative
shapes where they are already visible at small scale.
"""

import numpy as np
import pytest

from repro.experiments import (
    abl_chunking,
    abl_l2_capacity,
    abl_partial_product,
    fig03_repetition,
    fig09_energy,
    fig10_layer_energy,
    fig11_runtime,
    fig12_inq_perf,
    fig13_model_size,
    fig14_jump_tables,
    tab02_configs,
    tab03_area,
)
from repro.experiments.common import (
    dump_json,
    format_table,
    geomean,
    network_shapes,
    stable_seed,
    uniform_weight_provider,
)


class TestCommon:
    def test_stable_seed_deterministic(self):
        assert stable_seed("a", 1) == stable_seed("a", 1)
        assert stable_seed("a", 1) != stable_seed("a", 2)

    def test_weight_provider_deterministic(self):
        shapes = network_shapes("lenet")
        provider = uniform_weight_provider(17, 0.5)
        assert np.array_equal(provider(shapes[0]), provider(shapes[0]))

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([-1.0])

    def test_format_table(self):
        text = format_table(("a", "bb"), [(1, 2.5)])
        assert "a" in text and "2.500" in text

    def test_dump_json(self, tmp_path):
        path = tmp_path / "x.json"
        dump_json({"a": np.int64(3), "b": np.array([1, 2])}, path)
        assert '"a": 3' in path.read_text()


class TestFig03:
    def test_lenet_layers(self):
        result = fig03_repetition.run(networks=("lenet",))
        reps = result.networks["lenet"]
        assert [r.name for r in reps] == ["conv1", "conv2", "conv3"]
        # Larger filters repeat more (pigeonhole).
        assert reps[1].nonzero_mean > reps[0].nonzero_mean

    def test_rows_format(self):
        result = fig03_repetition.run(networks=("lenet",))
        rows = result.format_rows()
        assert len(rows) == 3 and rows[0][0] == "lenet"


class TestFig09:
    @pytest.fixture(scope="class")
    def result(self):
        return fig09_energy.run(networks=("lenet",), precisions=(16,), densities=(0.5,))

    def test_group_normalized_to_dcnn(self, result):
        group = result.group("lenet", 16, 0.5)
        assert group.entry("DCNN").total == pytest.approx(1.0)

    def test_ucnn_beats_dcnn_sp_at_16bit(self, result):
        group = result.group("lenet", 16, 0.5)
        for design in ("UCNN U3", "UCNN U17", "UCNN U256"):
            assert group.entry(design).total < group.entry("DCNN_sp").total

    def test_ordering_by_u(self, result):
        group = result.group("lenet", 16, 0.5)
        assert group.improvement_vs("UCNN U3") > group.improvement_vs("UCNN U17")

    def test_rows(self, result):
        rows = result.format_rows()
        assert len(rows) == 6  # one per design
        assert all(len(r) == 8 for r in rows)


class TestFig10:
    def test_small_run(self):
        result = fig10_layer_energy.run()
        assert set(result.groups) == {"64:64:3:3", "128:128:3:3", "256:256:3:3", "512:512:3:3"}
        for entries in result.groups.values():
            by_design = {e.design: e.total for e in entries}
            assert by_design["DCNN"] == pytest.approx(1.0)
            assert by_design["UCNN U3"] < 1.0


class TestFig11:
    def test_shapes(self):
        result = fig11_runtime.run(densities=(0.2, 0.8))
        g1 = {p.density: p.normalized_runtime for p in result.series("UCNN G1")}
        assert g1[0.2] == pytest.approx(0.2, abs=0.03)
        assert g1[0.2] < g1[0.8]
        g4 = {p.density: p.normalized_runtime for p in result.series("UCNN G4")}
        assert g4[0.2] > g1[0.2]  # union of 4 filters stores more


class TestFig12:
    def test_lenet_only(self):
        result = fig12_inq_perf.run(networks=("lenet",))
        assert result.speedup("lenet", "DCNN_sp VK1") == pytest.approx(1.0)
        assert result.speedup("lenet", "DCNN_sp VK2") == pytest.approx(2.0)
        g2 = result.speedup("lenet", "UCNN G2")
        assert 1.4 < g2 < 2.05
        g1 = result.speedup("lenet", "UCNN G1")
        assert 0.9 < g1 < 1.12  # far below the ideal 1.111 once drained


class TestFig13:
    @pytest.fixture(scope="class")
    def result(self):
        return fig13_model_size.run(network="lenet", densities=(0.5, 0.9))

    def test_series_monotone_in_density(self, result):
        series = result.series("UCNN G2")
        assert series[0].bits_per_weight < series[-1].bits_per_weight

    def test_g_compresses(self, result):
        assert result.at("UCNN G4", 0.5) < result.at("UCNN G1", 0.5)

    def test_baselines(self, result):
        assert result.at("TTQ", 0.5) == 2.0
        assert result.at("INQ", 0.9) == 5.0
        assert result.at("DCNN_sp 8b", 0.5) == pytest.approx(6.5)


class TestFig14:
    def test_small_run(self):
        result = fig14_jump_tables.run(network="lenet", jump_widths=(5, 8), max_layers=2)
        for g in (1, 2):
            series = result.series(g)
            pointer = next(p for p in series if p.jump_bits is None)
            assert pointer.perf_overhead == 1.0
            narrow = next(p for p in series if p.jump_bits == 5)
            assert narrow.perf_overhead >= 1.0

    def test_sampled_tables_checked_once_per_layer_and_g(self, monkeypatch):
        """At its regress scale fig14 cross-checks each of its 72 sampled
        tables once, not once per jump width."""
        import repro.sim.functional as functional
        from repro.regress.specs import SPECS_BY_ID
        from repro.runtime import Runtime, using_runtime

        checked = []
        crosscheck = functional.crosscheck_tables

        def counting(tables, *args, **kwargs):
            checked.append(tables)
            return crosscheck(tables, *args, **kwargs)

        monkeypatch.setattr(functional, "crosscheck_tables", counting)
        with using_runtime(Runtime()):  # serial and uncached: every point runs here
            fig14_jump_tables.run(**SPECS_BY_ID["fig14"].kwargs)
        assert len(checked) == 72


class TestTables:
    def test_tab02(self):
        result = tab02_configs.run()
        assert len(result.rows) == 6
        assert all(r.dense_macs_per_cycle == 8 for r in result.rows)

    def test_tab03(self):
        result = tab03_area.run()
        assert 0.10 < result.overhead_u17 < 0.25
        assert result.overhead_u256 > result.overhead_u17
        assert len(result.format_rows()) == 7


class TestAblations:
    def test_chunking(self):
        result = abl_chunking.run(network="lenet", caps=(4, 16, 64))
        mult = [p.multiplies_per_walk for p in result.points]
        assert mult[0] >= mult[1] >= mult[2]

    def test_partial_product(self):
        result = abl_partial_product.run(network="lenet")
        assert all(p.factorization_savings > 1 for p in result.points)

    def test_l2_capacity(self):
        # 1K entries forces LeNet's activations to spill; 896K fits all.
        result = abl_l2_capacity.run(network="lenet", capacities_kb=(1, 896))
        assert result.points[-1].improvement >= result.points[0].improvement
