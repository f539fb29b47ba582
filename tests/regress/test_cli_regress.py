"""End-to-end tests for the ``repro regress`` CLI surface."""

import json

import pytest

from repro.cli import main
from repro.regress.specs import resolve_ids


def _kernels_run(mean_s: float) -> dict:
    return {"benchmarks": [{"name": "bench_engine", "stats": {"mean": mean_s}}]}


def _write_history(tmp_path, means):
    paths = []
    for i, mean in enumerate(means):
        p = tmp_path / f"night{i}.json"
        p.write_text(json.dumps(_kernels_run(mean)))
        paths.append(str(p))
    return paths


class TestSelection:
    def test_resolve_all(self):
        specs = resolve_ids()
        assert [s.experiment for s in specs][:2] == ["fig03", "fig09"]
        assert len(specs) == 14

    def test_resolve_smoke_subset(self):
        specs = resolve_ids(smoke=True)
        assert {s.experiment for s in specs} == {"fig14", "tab02", "engine-digest"}

    def test_resolve_only_keeps_registry_order(self):
        specs = resolve_ids(only="fig11,fig03")
        assert [s.experiment for s in specs] == ["fig03", "fig11"]

    def test_unknown_id_rejected(self):
        with pytest.raises(SystemExit, match="unknown experiment id"):
            resolve_ids(only="fig03,fig99")


class TestRegressCommand:
    def test_check_and_update_conflict(self):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["regress", "--check", "--update"])

    def test_bench_files_need_trend(self, tmp_path):
        (path,) = _write_history(tmp_path, [1.0e-3])
        with pytest.raises(SystemExit, match="only make sense with --trend"):
            main(["regress", path])

    def test_trend_needs_files(self):
        with pytest.raises(SystemExit, match="needs BENCH"):
            main(["regress", "--trend", "kernels"])

    def test_list_reports_reference_state(self, tmp_path, capsys):
        assert main(["regress", "--list", "--references", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "NO REFERENCE" in out and "engine-digest" in out

    def test_check_missing_reference_fails(self, tmp_path, capsys):
        refs = str(tmp_path / "refs")
        code = main(["regress", "--check", "--only", "tab02", "--references", refs])
        assert code == 1
        assert "missing" in capsys.readouterr().out

    def test_update_check_report_cycle(self, tmp_path, capsys):
        refs = str(tmp_path / "refs")
        base = ["regress", "--only", "tab02", "--references", refs]
        assert main(base + ["--update"]) == 0
        assert "1 updated" in capsys.readouterr().out
        assert main(base + ["--update"]) == 0
        assert "1 unchanged" in capsys.readouterr().out
        report_file = tmp_path / "drift.txt"
        assert main(base + ["--check", "--report", str(report_file)]) == 0
        out = capsys.readouterr().out
        assert "tab02: ok" in out
        assert "tab02: ok" in report_file.read_text()


class TestTrendCommand:
    def test_steady_trajectory_passes(self, tmp_path, capsys):
        paths = _write_history(tmp_path, [1.0e-3] * 5 + [1.05e-3])
        assert main(["regress", "--trend", "kernels", *paths]) == 0
        assert "trend[kernels]: ok" in capsys.readouterr().out

    def test_regression_fails_with_named_metric(self, tmp_path, capsys):
        paths = _write_history(tmp_path, [1.0e-3] * 5 + [1.3e-3])
        assert main(["regress", "--trend", "kernels", *paths]) == 1
        out = capsys.readouterr().out
        assert "kernels.bench_engine.mean_s" in out and "worse" in out

    def test_threshold_flag(self, tmp_path):
        paths = _write_history(tmp_path, [1.0e-3] * 5 + [1.1e-3])
        assert main(["regress", "--trend", "kernels", *paths]) == 0
        assert main(["regress", "--trend", "kernels", "--threshold", "0.05", *paths]) == 1
