"""Tests for the reference store and the check/update runner.

Ends with the harness's sharpest acceptance test: a 1-ulp perturbation
of a single compiled weight-table entry must fail ``check_one`` against
the committed engine-digest reference with a drift report naming the
experiment and the exact diverging fields.
"""

import dataclasses
import sys
import types

import numpy as np
import pytest

from repro.engine import clear_program_cache
from repro.engine import program as engine_program
from repro.regress import (
    SPECS_BY_ID,
    ReferenceStore,
    RegressSpec,
    canonicalize,
    check_one,
    run_check,
    run_update,
    update_one,
)

FAKE_MODULE = "tests_regress_fake_experiment"


@pytest.fixture
def fake_spec(monkeypatch):
    """A tiny controllable experiment registered as an importable module."""
    module = types.ModuleType(FAKE_MODULE)
    module.payload = {"points": [{"g": 1, "speedup": 1.0}, {"g": 2, "speedup": 1.8}],
                      "total": 2}
    module.run = lambda scale="fast": module.payload
    monkeypatch.setitem(sys.modules, FAKE_MODULE, module)
    spec = RegressSpec(experiment="fake", module=FAKE_MODULE,
                       kwargs={"scale": "fast"})
    return spec, module


class TestStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = ReferenceStore(tmp_path)
        path = store.save("fig99", {"density": 0.5}, {"rows": [1, 2]})
        assert path == tmp_path / "fig99.json"
        envelope = store.load("fig99")
        assert envelope["schema_version"] == 1
        assert envelope["experiment"] == "fig99"
        assert envelope["kwargs"] == {"density": 0.5}
        assert envelope["result"] == {"rows": [1, 2]}

    def test_files_are_reviewable(self, tmp_path):
        store = ReferenceStore(tmp_path)
        path = store.save("fig99", {}, {"b": 1, "a": 2})
        text = path.read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')  # sorted keys

    def test_bad_experiment_ids_rejected(self, tmp_path):
        store = ReferenceStore(tmp_path)
        for bad in ("", "a/b", "../x", ".hidden"):
            with pytest.raises(ValueError, match="bad experiment id"):
                store.path_for(bad)

    def test_missing_reference(self, tmp_path):
        store = ReferenceStore(tmp_path)
        assert not store.has("fig99")
        with pytest.raises(FileNotFoundError, match="regress --update"):
            store.load("fig99")

    def test_schema_version_mismatch(self, tmp_path):
        store = ReferenceStore(tmp_path)
        path = store.save("fig99", {}, {})
        payload = path.read_text().replace('"schema_version": 1', '"schema_version": 0')
        path.write_text(payload)
        with pytest.raises(ValueError, match="schema_version"):
            store.load("fig99")

    def test_experiment_claim_mismatch(self, tmp_path):
        store = ReferenceStore(tmp_path)
        ReferenceStore(tmp_path).save("other", {}, {})
        (tmp_path / "fig99.json").write_text((tmp_path / "other.json").read_text())
        with pytest.raises(ValueError, match="claims experiment"):
            store.load("fig99")

    def test_non_envelope_rejected(self, tmp_path):
        (tmp_path / "fig99.json").write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError, match="not a reference envelope"):
            ReferenceStore(tmp_path).load("fig99")

    def test_ids_sorted(self, tmp_path):
        store = ReferenceStore(tmp_path)
        for name in ("zeta", "alpha"):
            store.save(name, {}, {})
        assert store.ids() == ["alpha", "zeta"]

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_REFERENCES_DIR", str(tmp_path))
        assert ReferenceStore().root == tmp_path


class TestCanonicalize:
    def test_tuples_and_numpy_lowered(self):
        value = canonicalize({"t": (1, 2), "f": np.float64(0.5), "i": np.int64(3),
                              "a": np.arange(3)})
        assert value == {"t": [1, 2], "f": 0.5, "i": 3, "a": [0, 1, 2]}

    def test_fixed_point(self):
        value = {"rows": [[1, 2.5], {"k": "v"}]}
        assert canonicalize(canonicalize(value)) == canonicalize(value)


class TestRunner:
    def test_missing_reference_outcome(self, tmp_path, fake_spec):
        spec, _ = fake_spec
        outcome = check_one(spec, ReferenceStore(tmp_path))
        assert outcome.status == "missing" and not outcome.ok
        assert "--update" in outcome.message

    def test_update_then_check_ok(self, tmp_path, fake_spec):
        spec, _ = fake_spec
        store = ReferenceStore(tmp_path)
        assert update_one(spec, store).status == "updated"
        assert update_one(spec, store).status == "unchanged"
        outcome = check_one(spec, store)
        assert outcome.status == "ok" and outcome.ok and outcome.report.clean

    def test_drift_names_path(self, tmp_path, fake_spec):
        spec, module = fake_spec
        store = ReferenceStore(tmp_path)
        update_one(spec, store)
        module.payload = {"points": [{"g": 1, "speedup": 1.0},
                                     {"g": 2, "speedup": 2.4}], "total": 2}
        outcome = check_one(spec, store)
        assert outcome.status == "drift" and not outcome.ok
        (divergence,) = outcome.report.divergences
        assert divergence.path == "points[1].speedup"
        assert "points[1].speedup" in outcome.render()

    def test_kwargs_pin_mismatch_is_an_error(self, tmp_path, fake_spec):
        spec, _ = fake_spec
        store = ReferenceStore(tmp_path)
        update_one(spec, store)
        repinned = RegressSpec(experiment=spec.experiment, module=spec.module,
                               kwargs={"scale": "paper"})
        outcome = check_one(repinned, store)
        assert outcome.status == "error"
        assert "pinned kwargs changed" in outcome.message

    def test_exploding_experiment_is_an_error(self, tmp_path, fake_spec):
        spec, module = fake_spec
        store = ReferenceStore(tmp_path)
        update_one(spec, store)

        def boom(scale="fast"):
            raise RuntimeError("parity violated")

        module.run = boom
        outcome = check_one(spec, store)
        assert outcome.status == "error"
        assert "RuntimeError: parity violated" in outcome.message

    def test_summary_counts_and_exit_signal(self, tmp_path, fake_spec):
        spec, module = fake_spec
        store = ReferenceStore(tmp_path)
        assert run_update([spec], store).ok
        clean = run_check([spec], store)
        assert clean.ok and clean.counts() == {"ok": 1}
        module.payload = {"points": [], "total": 0}
        drifted = run_check([spec], store)
        assert not drifted.ok and drifted.counts() == {"drift": 1}
        assert "regress: 1 drift" in drifted.render()

    def test_regenerate_disables_ambient_result_cache(self, tmp_path, fake_spec):
        """Checks must recompute: a cached ambient runtime can't leak in."""
        from repro.regress import regenerate
        from repro.runtime import ResultCache, Runtime, get_runtime, using_runtime

        spec, module = fake_spec
        seen = {}

        def observing_run(scale="fast"):
            seen["cache"] = get_runtime().cache
            return {"ok": True}

        module.run = observing_run
        ambient = Runtime(workers=0, cache=ResultCache(tmp_path / "cache"))
        with using_runtime(ambient):
            regenerate(spec)
        assert seen["cache"] is None


@pytest.fixture
def pristine_program_cache():
    """Run against freshly compiled programs, and leave none behind."""
    clear_program_cache()
    yield
    clear_program_cache()


class TestEngineDigestAcceptance:
    def test_committed_reference_checks_clean(self, pristine_program_cache):
        outcome = check_one(SPECS_BY_ID["engine-digest"], ReferenceStore())
        assert outcome.status == "ok", outcome.render()

    def test_one_ulp_weight_perturbation_drifts_by_name(
            self, monkeypatch, pristine_program_cache):
        real_build = engine_program.build_filter_group_tables
        perturbed = []

        def perturbed_build(*args, **kwargs):
            """The first table built gets one boundary weight raised by one ulp."""
            tables = real_build(*args, **kwargs)
            if perturbed:
                return tables
            level, entry = np.nonzero(tables.transitions)
            weights = tables.filters[level, tables.iit[entry]]
            hit = np.flatnonzero(weights)
            if not hit.size:
                return tables
            filters = tables.filters.copy()  # never the caller's weights
            filters[level[hit[0]], tables.iit[entry[hit[0]]]] += 1  # one ulp at integer scale
            perturbed.append((level[hit[0]], entry[hit[0]]))
            changed = dataclasses.replace(tables, filters=filters)
            # The raised weight is outside the canonical order, so it has
            # no rank to derive skips from: keep the unperturbed table's.
            object.__setattr__(changed, "skip_needs", tables.skip_needs)
            return changed

        monkeypatch.setattr(engine_program, "build_filter_group_tables", perturbed_build)
        clear_program_cache()

        outcome = check_one(SPECS_BY_ID["engine-digest"], ReferenceStore())
        assert len(perturbed) == 1  # one weight in the whole digest
        assert outcome.status == "drift"
        assert outcome.report.experiment == "engine-digest"
        paths = {d.path for d in outcome.report.divergences}
        assert any(p.endswith(".weights_sum") for p in paths)
        assert any(p.endswith(".output_sum") for p in paths)
        assert any(p.endswith(".output_sha256") for p in paths)
        rendered = outcome.render(limit=50)
        assert "engine-digest: DRIFT" in rendered
        assert "output_sha256" in rendered
