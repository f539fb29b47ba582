"""Unit tests for the compiled segment-scan engine (repro.engine)."""

import threading
import time

import numpy as np
import pytest

import repro.engine
from repro.core.factorized import FactorizedConv
from repro.core.hierarchical import build_filter_group_tables
from repro.engine import (
    clear_program_cache,
    compile_layer,
    compiled_layer_for,
    execute_program,
    layer_program_key,
    program_cache_info,
)
from repro.engine.program import KERNEL_ARRAYS
from repro.nn.reference import conv2d_im2col
from repro.sim.functional import ConsistencyError, crosscheck_tables


def dense(filters, windows):
    return np.asarray(filters, dtype=np.int64) @ np.asarray(windows, dtype=np.int64).T


class TestCompileTables:
    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_matches_execute_and_dense(self, g, rng):
        # Every tail length after the kernel's four-window blocks.
        for count in (1, 2, 3, 4, 5, 6, 7, 8, 9, 11):
            n = int(rng.integers(1, 50))
            filters = rng.integers(-3, 4, size=(g, n))
            windows = rng.integers(-9, 10, size=(count, n))
            tables = build_filter_group_tables(filters)
            program = compile_layer([tables])
            out = execute_program(program, windows)
            assert np.array_equal(out, dense(filters, windows))
            for i in range(windows.shape[0]):
                assert np.array_equal(out[:, i], tables.execute(windows[i]))

    def test_chunked_tables_match(self, rng):
        filters = np.concatenate([np.full((2, 30), 2), rng.integers(-2, 3, size=(2, 30))], axis=1)
        windows = rng.integers(-9, 10, size=(5, 60))
        for cap in (1, 3, 16):
            tables = build_filter_group_tables(filters, max_group_size=cap)
            program = compile_layer([tables])
            assert np.array_equal(execute_program(program, windows), dense(filters, windows))

    def test_layer_canonical_skip_layout(self, rng):
        """Empty sub-groups / pointer skips do not perturb the math."""
        canonical = np.array([9, 8, 7, 6, 5, 1, 0])
        filters = np.array([[9, 1, 0, 9], [9, 5, 5, 1]])
        tables = build_filter_group_tables(filters, canonical=canonical)
        windows = rng.integers(-9, 10, size=(6, 4))
        assert np.array_equal(execute_program(compile_layer([tables]), windows), dense(filters, windows))

    def test_empty_tables(self):
        tables = build_filter_group_tables(np.zeros((3, 5), dtype=np.int64))
        program = compile_layer([tables])
        out = execute_program(program, np.arange(10).reshape(2, 5))
        assert out.shape == (3, 2)
        assert not out.any()

    def test_single_window_matrix(self, rng):
        filters = rng.integers(-3, 4, size=(2, 12))
        tables = build_filter_group_tables(filters)
        window = rng.integers(-9, 10, size=12)
        out = execute_program(compile_layer([tables]), window.reshape(1, -1))
        assert np.array_equal(out[:, 0], tables.execute(window))

    def test_stats_invariance(self, rng):
        """Compilation must not change the tables' event accounting."""
        filters = rng.integers(-2, 3, size=(3, 40))
        tables = build_filter_group_tables(filters)
        before = tables.stats()
        program = compile_layer([tables])
        assert tables.stats() == before
        # One run per filter, within the boundary MACs plus one closing
        # read per stretch of non-zero weights.
        macs = before.multiplies - tables.chunk_early_macs()
        stretches = 0
        for level in range(3):
            nonzero = filters[level, tables.iit[tables.transitions[level]]] != 0
            stretches += int(np.count_nonzero(np.diff(nonzero.astype(int), prepend=0) == 1))
        assert program.rows.tolist() == [0, 1, 2]
        assert program.cols.size <= macs + stretches

    def test_describe_mentions_runs_and_terms(self, rng):
        program = compile_layer([build_filter_group_tables(rng.integers(-2, 3, size=(2, 20)))])
        text = program.describe()
        assert f"{program.rows.size} run(s) of {program.cols.size} term(s)" in text
        assert program.rows.size == 2 and program.cols.size > 0


class TestCompileLayer:
    def test_ragged_last_group(self, rng):
        """K % G != 0 exercises the dead-coverage segments."""
        filters = rng.integers(-3, 4, size=(5, 30))
        groups = [
            build_filter_group_tables(filters[i : i + 2]) for i in range(0, 5, 2)
        ]
        program = compile_layer(groups)
        windows = rng.integers(-9, 10, size=(9, 30))
        assert np.array_equal(execute_program(program, windows), dense(filters, windows))

    def test_all_zero_group_among_live_ones(self, rng):
        filters = rng.integers(-2, 3, size=(6, 20))
        filters[2:4] = 0  # the middle group's table is empty
        groups = [build_filter_group_tables(filters[i : i + 2]) for i in range(0, 6, 2)]
        program = compile_layer(groups)
        windows = rng.integers(-9, 10, size=(4, 20))
        assert np.array_equal(execute_program(program, windows), dense(filters, windows))

    def test_filter_size_mismatch_rejected(self, rng):
        a = build_filter_group_tables(rng.integers(-2, 3, size=(1, 10)))
        b = build_filter_group_tables(rng.integers(-2, 3, size=(1, 12)))
        with pytest.raises(ValueError, match="filter size mismatch"):
            compile_layer([a, b])

    def test_no_groups_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            compile_layer([])

    def test_chunking_equals_unchunked(self, rng, monkeypatch):
        from repro.engine import executor

        filters = rng.integers(-3, 4, size=(4, 25))
        groups = [build_filter_group_tables(filters[i : i + 2]) for i in range(0, 4, 2)]
        program = compile_layer(groups)
        windows = rng.integers(-9, 10, size=(11, 25))
        full = execute_program(program, windows)
        assert np.array_equal(full, dense(filters, windows))
        for chunk in (1, 2, 5):  # windows per chunk
            monkeypatch.setattr(executor, "COPY_CHUNK_ELEMS", chunk * program.filter_size)
            assert np.array_equal(execute_program(program, windows), full)
            # Narrower or F-ordered input: each chunk is copied to int64.
            assert np.array_equal(execute_program(program, windows.astype(np.int8)), full)
            assert np.array_equal(execute_program(program, np.asfortranarray(windows)), full)


class TestExecutorValidation:
    def test_float_windows_rejected(self, rng):
        program = compile_layer([build_filter_group_tables(rng.integers(-2, 3, size=(2, 8)))])
        with pytest.raises(ValueError, match="integer"):
            execute_program(program, rng.normal(size=(3, 8)))

    def test_shape_mismatch_rejected(self, rng):
        program = compile_layer([build_filter_group_tables(rng.integers(-2, 3, size=(2, 8)))])
        with pytest.raises(ValueError, match="windows must be"):
            execute_program(program, rng.integers(-3, 4, size=(3, 9)))

    def test_empty_batch(self, rng):
        program = compile_layer([build_filter_group_tables(rng.integers(-2, 3, size=(2, 8)))])
        out = execute_program(program, np.zeros((0, 8), dtype=np.int64))
        assert out.shape == (2, 0)


class TestProgramCache:
    def test_identical_weights_share_programs(self, rng):
        clear_program_cache()
        weights = rng.integers(-3, 4, size=(4, 2, 3, 3))
        first = compiled_layer_for(weights, group_size=2)
        second = compiled_layer_for(weights.copy(), group_size=2)
        assert first is second
        info = program_cache_info()
        assert info["hits"] >= 1 and info["entries"] >= 1

    def test_key_varies_with_parameters(self, rng):
        flat = rng.integers(-3, 4, size=(4, 18))
        base = layer_program_key(flat, 2, 16, True)
        assert layer_program_key(flat, 4, 16, True) != base
        assert layer_program_key(flat, 2, 8, True) != base
        assert layer_program_key(flat, 2, 16, False) != base
        other = flat.copy()
        other[0, 0] += 1
        assert layer_program_key(other, 2, 16, True) != base

    def test_float_weights_rejected(self, rng):
        with pytest.raises(ValueError, match="integer"):
            compiled_layer_for(rng.normal(size=(2, 2, 3, 3)), group_size=1)

    def test_table_compiles_bypass_the_cache(self, rng):
        """Single-table compiles (as ``crosscheck_tables`` makes) build fresh and cache nothing."""
        clear_program_cache()
        tables = build_filter_group_tables(rng.integers(-2, 3, size=(2, 15)))
        crosscheck_tables(tables, rng.integers(-9, 10, size=(4, 15)), lane=False)
        a, b = compile_layer([tables]), compile_layer([tables])
        assert a is not b
        assert all(np.array_equal(getattr(a, n), getattr(b, n)) for n in KERNEL_ARRAYS)
        info = program_cache_info()
        assert (info["entries"], info["hits"], info["misses"]) == (0, 0, 0)


class TestFactorizedConvEngine:
    def test_forward_is_engine_and_matches_per_entry(self, rng):
        weights = rng.integers(-3, 4, size=(5, 3, 3, 3))
        inputs = rng.integers(-8, 9, size=(3, 8, 8))
        conv = FactorizedConv(weights, group_size=2, padding=1)
        out = conv.forward(inputs)
        assert np.array_equal(out, conv.forward_per_entry(inputs))
        assert np.array_equal(out, conv2d_im2col(inputs, weights, 1, 1))

    def test_float_inputs_rejected(self, rng):
        conv = FactorizedConv(rng.integers(-2, 3, size=(2, 3, 3, 3)))
        with pytest.raises(ValueError, match="integer inputs"):
            conv.forward(rng.normal(size=(3, 8, 8)))
        with pytest.raises(ValueError, match="integer inputs"):
            conv.forward_per_entry(rng.normal(size=(3, 8, 8)))


class TestCrosscheckHook:
    def test_agreement_passes(self, rng):
        filters = rng.integers(-2, 3, size=(2, 24))
        tables = build_filter_group_tables(filters)
        windows = rng.integers(-9, 10, size=(3, 24))
        out = crosscheck_tables(tables, windows)
        assert np.array_equal(out, dense(filters, windows))

    def test_single_window_accepted(self, rng):
        filters = rng.integers(-2, 3, size=(3, 16))
        tables = build_filter_group_tables(filters)
        out = crosscheck_tables(tables, rng.integers(-9, 10, size=16), lane=False)
        assert out.shape == (3, 1)

    def test_mismatch_raises(self, rng, monkeypatch):
        filters = rng.integers(-2, 3, size=(2, 10))
        tables = build_filter_group_tables(filters)
        monkeypatch.setattr(  # corrupt the engine side of the check
            repro.engine, "execute_program", lambda p, w: np.zeros((2, len(w)), dtype=np.int64) + 1
        )
        with pytest.raises(ConsistencyError):
            crosscheck_tables(tables, rng.integers(1, 9, size=(2, 10)), lane=False)


class TestSingleFlight:
    """Concurrent misses on one key must compile once, share the object."""

    def test_hammer_one_build_shared_object(self):
        from repro.engine.program import _cached

        clear_program_cache()
        builds = []
        build_gate = threading.Barrier(8, timeout=10.0)

        def build():
            builds.append(threading.get_ident())
            time.sleep(0.02)  # widen the race window
            return object()

        results = [None] * 8
        def worker(i):
            build_gate.wait()  # all 8 threads hit the miss together
            results[i] = _cached("test:singleflight", build)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert len(builds) == 1, f"expected exactly one build, got {len(builds)}"
        assert all(r is results[0] for r in results), "callers got different objects"
        info = program_cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 7  # the 7 waiters count as hits
        assert info["inflight"] == 0

    def test_owner_failure_wakes_waiters_and_retries(self):
        from repro.engine.program import _cached

        clear_program_cache()
        attempts = []
        started = threading.Event()
        release = threading.Event()

        def failing_then_ok():
            attempts.append(None)
            if len(attempts) == 1:
                started.set()
                release.wait(timeout=10.0)
                raise RuntimeError("owner build exploded")
            return "second-try"

        errors, values = [], []
        def first():
            try:
                values.append(_cached("test:retry", failing_then_ok))
            except RuntimeError as exc:
                errors.append(exc)

        t1 = threading.Thread(target=first)
        t1.start()
        assert started.wait(timeout=10.0)
        t2 = threading.Thread(target=first)
        t2.start()
        time.sleep(0.05)  # let t2 park on the in-flight event
        release.set()
        t1.join(timeout=10.0)
        t2.join(timeout=10.0)
        # The owner saw its own exception; the waiter retried and built.
        assert len(errors) == 1 and "exploded" in str(errors[0])
        assert values == ["second-try"]
        assert len(attempts) == 2
        assert program_cache_info()["inflight"] == 0

    def test_compiled_layer_for_hammer(self, rng):
        clear_program_cache()
        weights = rng.integers(-3, 4, size=(6, 2, 3, 3))
        gate = threading.Barrier(8, timeout=10.0)
        results = [None] * 8

        def worker(i):
            gate.wait()
            results[i] = compiled_layer_for(weights, group_size=2)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert all(r is results[0] for r in results)
        info = program_cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 7


class _FakeTier:
    """Artifact-tier stub: canned fetch results, recorded offers."""

    def __init__(self, programs=None):
        self.programs = dict(programs or {})
        self.fetches = []
        self.offers = []

    def fetch(self, key):
        self.fetches.append(key)
        return self.programs.get(key)

    def offer(self, key, value):
        self.offers.append((key, value))


class TestArtifactTierHook:
    def test_fetch_hit_skips_build_and_counts_artifact_hit(self):
        from repro.engine.program import _cached, set_artifact_tier

        clear_program_cache()
        sentinel = object()
        tier = _FakeTier({"test:warm": sentinel})
        previous = set_artifact_tier(tier)
        try:
            value = _cached("test:warm", lambda: pytest.fail("built despite artifact"))
        finally:
            set_artifact_tier(previous)
        assert value is sentinel
        info = program_cache_info()
        assert info["artifact_hits"] == 1
        assert info["misses"] == 0  # an artifact hit is not a compile
        assert tier.offers == []  # nothing fresh to write back

    def test_fresh_build_offered_back(self):
        from repro.engine.program import _cached, set_artifact_tier

        clear_program_cache()
        tier = _FakeTier()
        built = object()
        previous = set_artifact_tier(tier)
        try:
            value = _cached("test:cold", lambda: built)
        finally:
            set_artifact_tier(previous)
        assert value is built
        assert tier.fetches == ["test:cold"]
        assert tier.offers == [("test:cold", built)]
        assert program_cache_info()["misses"] == 1
