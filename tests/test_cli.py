"""Tests for the command-line interface."""

import pytest

from repro.cli import DESIGNS, build_parser, main


class TestParser:
    def test_networks_command(self, capsys):
        assert main(["networks"]) == 0
        out = capsys.readouterr().out
        assert "lenet" in out and "resnet50" in out

    def test_simulate_lenet(self, capsys):
        assert main(["simulate", "--network", "lenet", "--design", "ucnn-u3",
                     "--density", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "total energy" in out
        assert "bits/weight" in out

    def test_simulate_dense(self, capsys):
        assert main(["simulate", "--network", "lenet", "--design", "dcnn-sp"]) == 0
        assert "cycles" in capsys.readouterr().out

    def test_factorize(self, capsys):
        assert main(["factorize", "--k", "4", "--c", "8", "--u", "5", "--g", "2"]) == 0
        out = capsys.readouterr().out
        assert "multiply savings" in out

    def test_experiment_tab02(self, capsys):
        assert main(["experiment", "tab02"]) == 0
        assert "UCNN U17" in capsys.readouterr().out

    def test_experiment_fig03_scoped(self, capsys):
        assert main(["experiment", "fig03", "--network", "lenet"]) == 0
        assert "conv1" in capsys.readouterr().out

    def test_experiment_fig13_scoped(self, capsys):
        assert main(["experiment", "fig13", "--network", "lenet"]) == 0
        assert "UCNN G2" in capsys.readouterr().out

    def test_experiment_tab03(self, capsys):
        assert main(["experiment", "tab03"]) == 0
        assert "arithmetic" in capsys.readouterr().out

    def test_experiment_abl_depth_scoped(self, capsys):
        assert main(["experiment", "abl-depth", "--network", "lenet"]) == 0
        assert "conv1" in capsys.readouterr().out

    def test_experiment_abl_pp_scoped(self, capsys):
        assert main(["experiment", "abl-pp", "--network", "lenet"]) == 0
        assert "winograd" in capsys.readouterr().out

    def test_network_rejected_for_unscoped_experiment(self):
        with pytest.raises(SystemExit, match="does not take --network"):
            main(["experiment", "fig11", "--network", "alexnet"])

    def test_unknown_design_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--design", "tpu"])

    def test_all_designs_resolvable(self):
        for name, factory in DESIGNS.items():
            config = factory(16)
            assert config.weight_bits == 16

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestSweep:
    def test_sweep_runs_and_reports(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = ["sweep", "--experiment", "tab02", "--cache-dir", cache_dir]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "UCNN U17" in out
        assert "0 cached, 6 ran" in out
        # Second invocation is served entirely from the cache.
        assert main(argv) == 0
        assert "6 cached, 0 ran" in capsys.readouterr().out

    def test_sweep_no_cache(self, capsys):
        assert main(["sweep", "--experiment", "tab03", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "cache: off" in out

    def test_sweep_verbose_progress(self, tmp_path, capsys):
        argv = ["sweep", "--experiment", "tab02", "--cache-dir",
                str(tmp_path / "c"), "--verbose"]
        assert main(argv) == 0
        assert "tab02:DCNN" in capsys.readouterr().err

    def test_sweep_parallel_workers(self, tmp_path, capsys):
        argv = ["sweep", "--experiment", "fig13", "--network", "lenet",
                "--workers", "2", "--cache-dir", str(tmp_path / "c")]
        assert main(argv) == 0
        assert "2 worker(s)" in capsys.readouterr().out

    def test_sweep_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--experiment", "fig99"])


class TestCache:
    def test_info_and_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["sweep", "--experiment", "tab02", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "6" in out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "cleared 6" in capsys.readouterr().out
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        assert "0" in capsys.readouterr().out

    def test_info_reports_per_experiment_breakdown(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["sweep", "--experiment", "tab02", "--cache-dir", cache_dir]) == 0
        assert main(["sweep", "--experiment", "fig13", "--network", "lenet",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "experiment" in out and "KiB" in out
        assert "repro.experiments.tab02_configs" in out
        assert "repro.experiments.fig13_model_size" in out

    def test_evict_respects_budget(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["sweep", "--experiment", "tab02", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "evict", "--cache-dir", cache_dir,
                     "--budget-mb", "0.0001"]) == 0
        out = capsys.readouterr().out
        assert "evicted 6" in out or "evicted 5" in out

        from repro.runtime import ResultCache

        assert ResultCache(root=cache_dir).stats().bytes <= 105

    def test_evict_requires_budget(self, tmp_path):
        with pytest.raises(SystemExit, match="budget"):
            main(["cache", "evict", "--cache-dir", str(tmp_path)])


class TestRemoteCache:
    def test_push_pull_require_url(self, tmp_path):
        with pytest.raises(SystemExit, match="requires a peer URL"):
            main(["cache", "push", "--cache-dir", str(tmp_path)])
        with pytest.raises(SystemExit, match="requires a peer URL"):
            main(["cache", "pull", "--cache-dir", str(tmp_path)])

    def test_push_pull_to_unreachable_peer_fail_cleanly(self, tmp_path):
        for action in ("push", "pull"):
            with pytest.raises(SystemExit, match="unreachable"):
                main(["cache", action, "http://127.0.0.1:9",
                      "--cache-dir", str(tmp_path)])

    def test_url_rejected_for_local_actions(self, tmp_path):
        with pytest.raises(SystemExit, match="does not take a peer URL"):
            main(["cache", "clear", "http://peer:8601", "--cache-dir", str(tmp_path)])

    def test_no_cache_with_remote_cache_rejected(self):
        with pytest.raises(SystemExit, match="drop --no-cache"):
            main(["sweep", "--experiment", "tab02", "--no-cache",
                  "--remote-cache", "http://peer:8601"])
        with pytest.raises(SystemExit, match="drop --no-cache"):
            main(["serve", "--port", "0", "--no-cache",
                  "--remote-cache", "http://peer:8601"])

    def test_cache_peer_parser_accepts_flags(self):
        args = build_parser().parse_args(
            ["cache-peer", "--port", "0", "--max-bytes", "1048576"])
        assert args.port == 0 and args.max_bytes == 1048576

    def test_sweep_shares_results_through_a_peer(self, tmp_path, capsys):
        """Two sweeps, two cache dirs, one peer: B recomputes nothing."""
        from repro.runtime import CachePeer

        with CachePeer(root=tmp_path / "peer") as peer:
            argv_a = ["sweep", "--experiment", "tab02",
                      "--cache-dir", str(tmp_path / "a"), "--remote-cache", peer.url]
            assert main(argv_a) == 0
            out_a = capsys.readouterr().out
            assert "0 cached, 6 ran" in out_a
            assert "6 pushed" in out_a
            argv_b = ["sweep", "--experiment", "tab02",
                      "--cache-dir", str(tmp_path / "b"), "--remote-cache", peer.url]
            assert main(argv_b) == 0
            out_b = capsys.readouterr().out
            assert "6 cached, 0 ran" in out_b
            assert "6 peer hit(s)" in out_b

    def test_sweep_with_dead_peer_still_completes(self, tmp_path, capsys):
        from repro.runtime import CachePeer

        with CachePeer(root=tmp_path / "peer") as peer:
            dead_url = peer.url
        argv = ["sweep", "--experiment", "tab02",
                "--cache-dir", str(tmp_path / "a"), "--remote-cache", dead_url]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 cached, 6 ran" in out  # computed locally, no error

    def test_push_then_pull_roundtrip(self, tmp_path, capsys):
        from repro.runtime import CachePeer, ResultCache

        assert main(["sweep", "--experiment", "tab02",
                     "--cache-dir", str(tmp_path / "a")]) == 0
        with CachePeer(root=tmp_path / "peer") as peer:
            assert main(["cache", "push", peer.url,
                         "--cache-dir", str(tmp_path / "a")]) == 0
            assert main(["cache", "pull", peer.url,
                         "--cache-dir", str(tmp_path / "b")]) == 0
            out = capsys.readouterr().out
            assert "6 copied" in out
        assert ResultCache(root=tmp_path / "b").stats().entries == 6


class TestServe:
    def test_serve_parser_accepts_flags(self):
        args = build_parser().parse_args(
            ["serve", "--workers", "4", "--port", "0", "--mode", "thread",
             "--cache-budget-mb", "64"])
        assert args.workers == 4 and args.mode == "thread"

    def test_bench_serve_smoke_with_parity(self, tmp_path, capsys):
        """The CI serve-smoke contract: parity plus a nonzero hit rate."""
        json_path = str(tmp_path / "BENCH_serve.json")
        assert main(["bench-serve", "--requests", "16", "--workers", "2",
                     "--mode", "thread", "--scale", "smoke", "--verify",
                     "--json", json_path]) == 0
        out = capsys.readouterr().out
        assert "0 mismatch(es)" in out
        assert "warm/cold throughput" in out
        import json

        with open(json_path) as fh:
            payload = json.load(fh)
        assert payload["schema_version"] == 1
        assert payload["kind"] == "serve" and payload["smoke"] is True
        data = payload["data"]
        assert data["parity"]["mismatches"] == 0
        assert data["warm"]["hit_rate"] == 1.0
        assert data["warm_speedup"] > 0


class TestProgramsCommand:
    def _seed_store(self, root):
        """Compile one small layer into an artifact store under root."""
        import numpy as np

        from repro.engine import clear_program_cache, compiled_layer_for
        from repro.engine.artifacts import ProgramStore

        clear_program_cache()
        weights = np.random.default_rng(0).integers(-3, 4, size=(4, 12))
        layer = compiled_layer_for(weights, group_size=2)
        store = ProgramStore(root=root)
        assert store.save(layer.key, layer)
        return layer

    def test_info_empty(self, tmp_path, capsys):
        assert main(["programs", "info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "program artifacts" in out and "engine fingerprint" in out

    def test_list_and_info(self, tmp_path, capsys):
        layer = self._seed_store(tmp_path)
        assert main(["programs", "list", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert layer.key in out and "compiled_layer" in out and "fresh" in out
        assert main(["programs", "info", "--cache-dir", str(tmp_path)]) == 0
        assert "1" in capsys.readouterr().out

    def test_cache_push_pull_carries_artifacts(self, tmp_path, capsys):
        """``repro cache push/pull`` moves artifact blobs; ``programs list`` sees them."""
        from repro.runtime.peer import CachePeer

        layer = self._seed_store(tmp_path / "a")
        with CachePeer(root=str(tmp_path / "peer"), port=0) as peer:
            assert main(["cache", "push", peer.url, "--cache-dir", str(tmp_path / "a")]) == 0
            assert "1 copied" in capsys.readouterr().out
            assert main(["cache", "pull", peer.url, "--cache-dir", str(tmp_path / "b")]) == 0
            assert "1 copied" in capsys.readouterr().out
        assert main(["programs", "list", "--cache-dir", str(tmp_path / "b")]) == 0
        out = capsys.readouterr().out
        assert layer.key in out and "fresh" in out

    @pytest.mark.parametrize("argv", [["push"], ["pull"], ["info", "http://x:1"]])
    def test_only_info_and_list(self, tmp_path, argv):
        with pytest.raises(SystemExit):
            main(["programs", *argv, "--cache-dir", str(tmp_path)])
