"""Tests for the shared segment-scan kernel (repro.engine.executor.scan).

The kernel reads every UCNN level from one prefix sum per filter group
through telescoped coefficients, in one native call per group-aligned
chunk of a program.  These tests pin what that arithmetic changes:
exactness when the running prefix wraps past 2**63 (for every tail
length of the kernel's four-window blocks), how much work it does per
window, how a program's groups bound and chunk its scan, the checks
that run before the unchecked native call, and how the kernel library
is built and cached.
"""

import ctypes
import dataclasses
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.engine import compile_network, compiled_layer_for, execute_network, execute_program
from repro.engine import executor
from repro.engine.program import KERNEL_ARRAYS
from repro.nn.layers import ConvLayer, ReluLayer
from repro.nn.network import Network
from repro.nn.reference import im2col
from repro.nn.tensor import ConvShape, TensorShape

BIG = 2**62

#: Weight and activation alphabets near +-2**62: sums of a few of them
#: leave the int64 range, so prefixes wrap as soon as the scan starts.
BIG_WEIGHTS = np.array([BIG + 3, -BIG + 7, BIG - 1, 5, 0], dtype=np.int64)
BIG_ACTS = np.array([BIG - 11, -BIG + 1, 3, 0], dtype=np.int64)


#: Window counts covering one to two full four-window blocks of the
#: kernel and every tail length after them.
WINDOW_COUNTS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 11)


def _wrapping_case(rng, k=5, n=40, windows=9):
    weights = rng.choice(BIG_WEIGHTS, size=(k, n))
    acts = rng.choice(BIG_ACTS, size=(windows, n))
    acts[:, : n // 4] = 0  # dead columns: entries that add nothing to any prefix
    return weights, acts


class TestWrapAround:
    def test_case_really_wraps(self, rng):
        weights, acts = _wrapping_case(rng)
        exact = weights.astype(object) @ acts.astype(object).T
        assert np.abs(exact).max() > 2**63
        assert not np.array_equal(exact, (weights @ acts.T).astype(object))

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_execute_program_equals_wrapping_dense(self, rng, g):
        for windows in WINDOW_COUNTS:
            weights, acts = _wrapping_case(rng, windows=windows)
            program = compiled_layer_for(weights, group_size=g).program
            out = execute_program(program, acts)
            assert np.array_equal(out, weights @ acts.T), f"{windows} windows"

    @pytest.mark.parametrize("g", [1, 2, 5])
    def test_execute_network_equals_wrapping_dense(self, rng, g):
        """Wrapping sums stay exact however the five filters share filter groups."""
        shape = ConvShape(name="c", w=6, h=6, c=2, k=5, r=3, s=3, padding=1)
        weights = rng.choice(BIG_WEIGHTS, size=shape.weight_shape)
        net = Network("wrap", TensorShape(2, 6, 6), [ConvLayer(shape, weights), ReluLayer()])
        images = rng.choice(BIG_ACTS, size=(3, 2, 6, 6))
        images[:, 0] = 0  # a dead channel
        flat = weights.reshape(shape.k, -1)
        dense = np.stack([
            np.maximum(flat @ im2col(img, 3, 3, 1, 1), 0).reshape(shape.k, 6, 6) for img in images
        ])
        program = compile_network(net, group_size=g)
        assert program.steps[0].program.num_groups == -(-shape.k // g)
        for threads in (1, 2):
            out = execute_network(program, images, threads=threads)
            assert np.array_equal(out, dense)


def _term_bound(tables):
    """Boundary MACs plus each filter's stretches of non-zero boundary weights."""
    macs = tables.stats().multiplies - tables.chunk_early_macs()
    stretches = 0
    for level in range(tables.num_filters):
        nz = np.concatenate([[False], tables.filters[level, tables.iit[tables.transitions[level]]] != 0])
        stretches += int(np.count_nonzero(nz[1:] & ~nz[:-1]))
    return macs + stretches


#: ``ucnn_scan``'s arguments, in the order of its C signature.
KERNEL_ARGS = (
    "src", "bases", "n", "taps", "group_entries", "group_runs", "groups",
    "cols", "coefs", "run_starts", "rows", "out", "out_stride",
)


def _int64_at(address: int, count: int) -> np.ndarray:
    """A copy of ``count`` int64 values the kernel is about to read."""
    return np.ctypeslib.as_array((ctypes.c_int64 * count).from_address(address)).copy()


@pytest.fixture
def kernel_calls(monkeypatch):
    """Record every native kernel call as a name -> argument dict.

    ``bases``, ``taps``, ``group_entries`` and ``group_runs`` are
    recorded as the values the kernel reads, not as pointers.
    """
    real = executor._native_scan()
    calls = []

    def recorder(*args):
        call = dict(zip(KERNEL_ARGS, args, strict=True))
        call["bases"] = _int64_at(call["bases"], call["n"])
        for name in ("group_entries", "group_runs"):
            call[name] = _int64_at(call[name], call["groups"] + 1)
        entries = call["group_entries"]
        call["taps"] = _int64_at(call["taps"], int(entries[-1] - entries[0]))
        calls.append(call)
        return real(*args)

    monkeypatch.setattr(executor, "_native_scan", lambda: recorder)
    return calls


class TestReuseInvariant:
    """Per window: ``num_entries`` scan adds and one multiply per boundary.

    Each stretch of non-zero weights among a filter's level boundaries
    costs one read per boundary (its MAC) plus one closing read, so a
    program runs at most its tables' boundary MACs plus their stretches
    in multiply terms per window — against ``K * N`` for the dense
    product.
    """

    @pytest.mark.parametrize("g", [1, 2, 4])
    def test_kernel_runs_one_scan_and_boundary_terms_only(self, rng, g, kernel_calls):
        weights = rng.choice(np.array([-3, -1, 0, 2, 4]), size=(8, 60))
        compiled = compiled_layer_for(weights, group_size=g)
        program = compiled.program
        bound = sum(_term_bound(t) for t in compiled.groups)
        assert program.cols.size < weights.size
        windows = rng.integers(-9, 10, size=(11, 60))
        out = execute_program(program, windows)
        assert np.array_equal(out, weights @ windows.T)
        (call,) = kernel_calls  # one native pass over all 11 windows
        assert call["n"] == 11
        assert np.array_equal(call["bases"], np.arange(11) * 60)  # window w starts at w * N
        assert np.array_equal(call["taps"], program.gather)  # taps = arange(N)
        sizes = [t.num_entries for t in compiled.groups if t.num_entries]
        assert call["groups"] == len(sizes)
        assert call["group_entries"][0] == 0
        assert np.array_equal(np.diff(call["group_entries"]), sizes)
        assert call["group_runs"][0] == 0 and call["group_runs"][-1] == program.rows.size
        assert program.run_starts[-1] == program.cols.size <= bound


class TestKernelEdges:
    def test_all_zero_filter_in_live_group_writes_zero(self, rng):
        """A filter with no terms is written, not left to buffer garbage."""
        shape = ConvShape(name="c", w=6, h=6, c=2, k=4, r=3, s=3, padding=1)
        weights = rng.integers(-2, 3, size=shape.weight_shape).astype(np.int64)
        weights[1] = 0  # shares a G=2 group with a live filter
        net = Network("zf", TensorShape(2, 6, 6), [ConvLayer(shape, weights)])
        x = rng.integers(-8, 9, size=(3, 2, 6, 6))
        fused = net.forward_batch(x, fused=True)
        assert np.array_equal(fused, np.stack([net.forward(img) for img in x]))
        assert not fused[:, 1].any()

    def test_filter_reading_only_zero_activations_writes_zero(self):
        """Live weights over dead activations sum to exactly zero.

        Filter 0 weighs only channels 0-2, which are zero in every image;
        filter 1 shares its G=2 group and reads the live channels.
        """
        weights = np.array([[1, 2, 3, 0, 0, 0], [0, 0, 0, 4, -5, 6]], dtype=np.int64)
        shape = ConvShape(name="c", w=1, h=1, c=6, k=2, r=1, s=1)
        net = Network("dead", TensorShape(6, 1, 1), [ConvLayer(shape, weights.reshape(2, 6, 1, 1))])
        images = np.array([[0, 0, 0, 1, 2, 3], [0, 0, 0, -4, 5, 7]], dtype=np.int64)
        program = compile_network(net)  # G=2: both filters share one group
        assert program.steps[0].program.num_groups == 1
        out = execute_network(program, images.reshape(2, 6, 1, 1))
        assert np.array_equal(out.reshape(2, 2), images @ weights.T)
        assert not out[:, 0].any()


class TestGroups:
    """The prefix restarts at each filter group, which bounds what a scan reads."""

    def test_a_run_reaching_into_the_next_group_is_rejected(self, rng, monkeypatch):
        weights = rng.choice(np.array([-3, -1, 2, 4]), size=(4, 30))  # no zero weights
        program = compiled_layer_for(weights, group_size=2).program
        assert program.group_entries.tolist() == [0, 30, 60]
        # The first group's last term reads one column past its group,
        # where the second group's first entry would sit.
        last = program.run_starts[program.group_runs[1]] - 1
        cols = program.cols.copy()
        cols[last] = 30

        def no_native_call():
            raise AssertionError("the native kernel ran on a forged program")

        executor._native_scan()  # build before the guard replaces the loader
        monkeypatch.setattr(executor, "_native_scan", no_native_call)
        with pytest.raises(ValueError, match="outside its group of 30 entries"):
            dataclasses.replace(program, cols=cols)

    def test_terms_are_int64_whatever_the_program_dtypes(self, rng):
        """A decoded program may carry any integer dtype; the kernel reads 8-byte words."""
        weights = rng.integers(-3, 4, size=(6, 30))
        program = compiled_layer_for(weights, group_size=2).program
        narrowed = dataclasses.replace(
            program, gather=program.gather.astype(np.uint8), cols=program.cols.astype(np.uint64),
            coefs=program.coefs.astype(np.int8), run_starts=program.run_starts.astype(np.int32),
            rows=program.rows.astype(np.uint16), group_entries=program.group_entries.astype(np.int16),
            group_runs=program.group_runs.astype(np.int32),
        )
        for name in KERNEL_ARRAYS:
            arr = getattr(narrowed, name)
            assert arr.dtype == np.int64 and arr.flags.c_contiguous, name
            assert np.array_equal(arr, getattr(program, name)), name
        windows = rng.integers(-9, 10, size=(7, 30))
        assert np.array_equal(execute_program(narrowed, windows), weights @ windows.T)

    @pytest.mark.parametrize("chunk", [1, 100])
    def test_offsets_are_gathered_in_group_aligned_chunks(
        self, rng, monkeypatch, kernel_calls, chunk
    ):
        """One kernel call per chunk of whole groups; the calls tile the program."""
        weights = rng.choice(np.array([-3, -1, 0, 2, 4]), size=(12, 40))
        compiled = compiled_layer_for(weights, group_size=1)
        program = compiled.program
        bounds = np.cumsum([0] + [t.num_entries for t in compiled.groups])
        monkeypatch.setattr(executor, "COPY_CHUNK_ELEMS", chunk)
        src = rng.integers(-9, 10, size=(7, 40))
        out = np.empty((12, 7), dtype=np.int64)
        taps = np.arange(40, dtype=np.int64)
        executor.scan(program, src, np.arange(7, dtype=np.int64) * 40, taps, out)
        assert np.array_equal(out, weights @ src.T)
        if chunk == 1:
            assert len(kernel_calls) == 12  # every group is its own chunk
        else:
            assert 1 < len(kernel_calls) < 12
        assert all(call["groups"] >= 1 for call in kernel_calls)
        seen = [kernel_calls[0]["group_entries"][:1]]
        seen += [call["group_entries"][1:] for call in kernel_calls]
        assert np.array_equal(np.concatenate(seen), bounds)
        assert np.array_equal(np.concatenate([c["taps"] for c in kernel_calls]), program.gather)
        for call in kernel_calls:
            entries, runs = call["group_entries"], call["group_runs"]
            first, last = np.searchsorted(bounds, entries[[0, -1]])
            assert np.array_equal(runs, program.group_runs[first : last + 1])


class TestConstructionBounds:
    """Malformed programs fail when built, so the native entry never sees one."""

    @pytest.fixture
    def program(self, rng, monkeypatch):
        program = compiled_layer_for(rng.integers(-3, 4, size=(4, 30)), group_size=2).program
        assert program.group_entries.size == 3 and program.rows.size == 4

        def no_native_call():
            raise AssertionError("the native kernel ran on a forged program")

        executor._native_scan()  # build before the guard replaces the loader
        monkeypatch.setattr(executor, "_native_scan", no_native_call)
        return program

    def test_gather_out_of_range(self, program):
        gather = program.gather.copy()
        gather[3] = program.filter_size
        with pytest.raises(ValueError, match="gather indices"):
            dataclasses.replace(program, gather=gather)

    @pytest.mark.parametrize("field, edit", [
        ("group_entries", "not_from_zero"),
        ("group_entries", "repeated"),
        ("group_entries", "past_end"),
        ("group_runs", "not_from_zero"),
        ("group_runs", "falling"),
        ("group_runs", "past_end"),
        ("group_runs", "one_missing"),
        ("run_starts", "not_from_zero"),
        ("run_starts", "repeated"),
        ("run_starts", "past_end"),
        ("run_starts", "one_missing"),
    ])
    def test_bad_fenceposts(self, program, field, edit):
        posts = getattr(program, field).copy()
        if edit == "not_from_zero":
            posts[0] = 1
        elif edit == "repeated":
            posts[1] = posts[0]
        elif edit == "falling":
            posts[1] = posts[2] + 1
        elif edit == "past_end":
            posts[-1] += 1
        else:
            posts = posts[:-1]
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(program, **{field: posts})

    def test_repeated_group_runs_are_a_group_with_no_terms(self, program):
        """A live group whose filters are all idle owns no runs: group_runs may repeat."""
        runs = program.group_runs[1]
        keep = program.run_starts[runs]
        empty_first = dataclasses.replace(
            program, cols=program.cols[keep:], coefs=program.coefs[keep:],
            run_starts=program.run_starts[runs:] - keep, rows=program.rows[runs:],
            group_runs=np.array([0, 0, program.rows.size - runs]),
        )
        assert empty_first.idle_rows.tolist() == program.rows[:runs].tolist()

    @pytest.mark.parametrize("row", [-1, 4])
    def test_rows_out_of_range(self, program, row):
        rows = program.rows.copy()
        rows[1] = row
        with pytest.raises(ValueError, match=r"rows fall outside \[0, 4\)"):
            dataclasses.replace(program, rows=rows)

    @pytest.mark.parametrize("where", ["negative", "at_group_width"])
    def test_cols_outside_their_group(self, program, where):
        cols = program.cols.copy()
        width = program.group_entries[2] - program.group_entries[1]
        cols[-1] = -1 if where == "negative" else width  # the second group's last term
        with pytest.raises(ValueError, match=f"outside its group of {width} entries"):
            dataclasses.replace(program, cols=cols)

    def test_coefs_of_another_length(self, program):
        with pytest.raises(ValueError, match="coefs has"):
            dataclasses.replace(program, coefs=program.coefs[:-1])

    def test_arrays_must_be_one_dimensional(self, program):
        with pytest.raises(ValueError, match="rows must be 1-D"):
            dataclasses.replace(program, rows=program.rows[None, :])


class TestBoundaryChecks:
    """``scan`` rejects operands the unchecked native call could misuse.

    The case is the trivial gather of a ``(6, 30)`` window matrix:
    ``bases = 30 * w`` and ``taps = arange(30)``, whose last read is the
    last element of ``src``.
    """

    @pytest.fixture
    def case(self, rng, monkeypatch):
        weights = rng.integers(-3, 4, size=(4, 30))
        program = compiled_layer_for(weights, group_size=2).program
        src = rng.integers(-9, 10, size=(6, 30))
        bases = np.arange(6, dtype=np.int64) * 30
        taps = np.arange(30, dtype=np.int64)
        out = np.empty((4, 6), dtype=np.int64)

        def no_native_call():
            raise AssertionError("the native kernel ran on a rejected operand")

        executor._native_scan()  # build before the guard replaces the loader
        monkeypatch.setattr(executor, "_native_scan", no_native_call)
        return program, src, bases, taps, out

    def test_valid_operands_pass_the_checks(self, case, monkeypatch):
        program, src, bases, taps, out = case
        monkeypatch.undo()
        executor.scan(program, src, bases, taps, out)
        assert np.array_equal(out, executor.execute_program(program, src))

    def test_windows_may_overlap_and_come_in_any_order(self, case, monkeypatch):
        program, src, __, taps, __ = case
        monkeypatch.undo()
        bases = np.array([150, 0, 7, 7, 149, 33, 150], dtype=np.int64)  # 150 + 29 = last element
        out = np.empty((4, bases.size), dtype=np.int64)
        executor.scan(program, src, bases, taps, out)
        windows = src.reshape(-1)[bases[:, None] + taps]
        assert np.array_equal(out, executor.execute_program(program, windows))

    @pytest.mark.parametrize("dtype", [np.int32, np.uint64, np.float64])
    def test_src_of_another_dtype(self, case, dtype):
        program, src, bases, taps, out = case
        with pytest.raises(ValueError, match="src must be an int64 array"):
            executor.scan(program, src.astype(dtype), bases, taps, out)

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_non_contiguous_src(self, case, layout):
        program, src, bases, taps, out = case
        bad = np.asfortranarray(src) if layout == "fortran" else np.repeat(src, 2, 0)[::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            executor.scan(program, bad, bases, taps, out)

    @pytest.mark.parametrize("which", ["bases", "taps"])
    @pytest.mark.parametrize("edit", ["int32", "2-D", "list"])
    def test_offsets_of_another_dtype_or_rank(self, case, which, edit):
        program, src, bases, taps, out = case
        arr = {"bases": bases, "taps": taps}[which]
        bad = {"int32": arr.astype(np.int32), "2-D": arr[None, :], "list": arr.tolist()}[edit]
        operands = {"bases": bases, "taps": taps, which: bad}
        with pytest.raises(ValueError, match=f"{which} must be a 1-D int64 array"):
            executor.scan(program, src, operands["bases"], operands["taps"], out)

    @pytest.mark.parametrize("size", [29, 31, 0])
    def test_taps_of_the_wrong_length(self, case, size):
        program, src, bases, __, out = case
        taps = np.arange(size, dtype=np.int64)
        with pytest.raises(ValueError, match=r"taps must have shape \(30,\)"):
            executor.scan(program, src, bases, taps, out)

    def test_negative_base(self, case):
        program, src, bases, taps, out = case
        bases[2] = -1
        with pytest.raises(ValueError, match="bases must be non-negative"):
            executor.scan(program, src, bases, taps, out)

    def test_negative_tap(self, case):
        program, src, bases, taps, out = case
        taps[7] = -30  # would read the previous window's element
        with pytest.raises(ValueError, match="taps must be non-negative"):
            executor.scan(program, src, bases, taps, out)

    @pytest.mark.parametrize("edit", ["last_base", "last_tap"])
    def test_last_read_one_past_the_end(self, case, edit):
        program, src, bases, taps, out = case
        if edit == "last_base":
            bases[-1] += 1
        else:
            taps[-1] += 1
        assert int(bases.max()) + int(taps.max()) == src.size
        with pytest.raises(ValueError, match="reads past src of 180 elements"):
            executor.scan(program, src, bases, taps, out)

    def test_offsets_whose_sum_wraps_int64(self, case):
        program, src, bases, taps, out = case
        bases[0] = 2**62
        taps[-1] = 2**62  # int64 addition would wrap to -2**63
        with pytest.raises(ValueError, match="reads past src"):
            executor.scan(program, src, bases, taps, out)

    @pytest.mark.parametrize("shape", [(4, 5), (3, 6), (4, 7), (24,)])
    def test_out_of_the_wrong_shape(self, case, shape):
        program, src, bases, taps, __ = case
        with pytest.raises(ValueError, match="out must be an int64 array of shape"):
            executor.scan(program, src, bases, taps, np.empty(shape, dtype=np.int64))

    def test_out_of_another_dtype(self, case):
        program, src, bases, taps, __ = case
        with pytest.raises(ValueError, match="out must be an int64 array"):
            executor.scan(program, src, bases, taps, np.empty((4, 6), dtype=np.int32))

    @pytest.mark.parametrize("layout", ["fortran", "every_other_column"])
    def test_out_without_unit_column_stride(self, case, layout):
        program, src, bases, taps, __ = case
        if layout == "fortran":
            bad = np.empty((4, 6), dtype=np.int64, order="F")
        else:
            bad = np.empty((4, 12), dtype=np.int64)[:, ::2]
        with pytest.raises(ValueError, match="unit column stride"):
            executor.scan(program, src, bases, taps, bad)

    def test_out_may_be_a_column_block_of_a_wider_buffer(self, case, monkeypatch):
        """The kernel steps ``out``'s rows by its row stride and writes only its columns."""
        program, src, bases, taps, __ = case
        monkeypatch.undo()
        wide = np.full((4, 10), -7, dtype=np.int64)
        executor.scan(program, src, bases, taps, wide[:, 2:8])
        assert np.array_equal(wide[:, 2:8], executor.execute_program(program, src))
        assert (wide[:, :2] == -7).all() and (wide[:, 8:] == -7).all()

    def test_read_only_out(self, case):
        program, src, bases, taps, out = case
        out.setflags(write=False)
        with pytest.raises(ValueError, match="writeable"):
            executor.scan(program, src, bases, taps, out)


def _kernel_copy(tmp_path: Path) -> Path:
    """A private copy of the kernel source, so tests never touch the shared cache."""
    source = tmp_path / "src" / executor.KERNEL_SOURCE.name
    source.parent.mkdir()
    shutil.copy(executor.KERNEL_SOURCE, source)
    return source


def _assert_kernel_works(lib, monkeypatch, rng):
    """Run a program through ``lib`` and compare with the dense product."""
    weights = rng.integers(-3, 4, size=(5, 20))
    program = compiled_layer_for(weights, group_size=2).program
    windows = rng.integers(-9, 10, size=(7, 20))
    monkeypatch.setattr(executor, "_native_scan", lambda: lib.ucnn_scan)
    assert np.array_equal(execute_program(program, windows), weights @ windows.T)


class TestKernelBuild:
    """The library is built once per source and flags, and cached."""

    def test_second_load_in_a_fresh_process_runs_no_compiler(self, tmp_path):
        executor._native_scan()  # this process built or found the cached library
        script = (
            "import numpy as np\n"
            "from repro.engine import compiled_layer_for, execute_program\n"
            "w = np.arange(-6, 6).reshape(3, 4)\n"
            "x = np.arange(20).reshape(5, 4)\n"
            "out = execute_program(compiled_layer_for(w, group_size=2).program, x)\n"
            "assert np.array_equal(out, w @ x.T)\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PATH=str(tmp_path), PYTHONPATH=src)  # no cc on PATH
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr

    def test_edited_source_builds_a_new_hash_named_library(self, tmp_path, monkeypatch, rng):
        source = _kernel_copy(tmp_path)
        cache = tmp_path / "cache"
        executor.load_kernel(source, cache)
        (first,) = cache.iterdir()
        source.write_text(source.read_text() + "\n/* edited */\n")
        lib = executor.load_kernel(source, cache)
        names = sorted(p.name for p in cache.iterdir())
        assert len(names) == 2 and first.name in names
        assert all(re.fullmatch(r"_scan\.[0-9a-f]{16}\.so", name) for name in names)
        _assert_kernel_works(lib, monkeypatch, rng)

    def test_unwritable_cache_dir_falls_back_to_a_private_temp_dir(
        self, tmp_path, monkeypatch, rng
    ):
        source = _kernel_copy(tmp_path)
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        made = []

        def mkdtemp(**kwargs):
            made.append(real_mkdtemp(**kwargs))
            return made[-1]

        real_mkdtemp = tempfile.mkdtemp
        monkeypatch.setattr(tempfile, "mkdtemp", mkdtemp)
        lib = executor.load_kernel(source, blocker / "__pycache__")  # cannot be created
        (private,) = [d for d in made if Path(d).parent == Path(tempfile.gettempdir())]
        assert not os.path.exists(private)  # removed once loaded
        _assert_kernel_works(lib, monkeypatch, rng)

    def test_missing_compiler_raises_naming_cc(self, tmp_path, monkeypatch):
        source = _kernel_copy(tmp_path)
        cache = tmp_path / "cache"
        monkeypatch.setenv("PATH", str(tmp_path / "empty"))
        with pytest.raises(RuntimeError, match=r"`cc -O3 -fPIC -shared -o \S+ \S+` could not run"):
            executor.load_kernel(source, cache)
        assert not list(cache.iterdir())  # no library, no leftover temp file

    def test_compiler_error_carries_its_output(self, tmp_path):
        source = _kernel_copy(tmp_path)
        source.write_text(source.read_text() + "\nthis is not C;\n")
        with pytest.raises(RuntimeError, match=r"(?s)exited with status \d+:.*error"):
            executor.load_kernel(source, tmp_path / "cache")
        assert not list((tmp_path / "cache").iterdir())

    def test_racing_first_scans_load_the_kernel_once(self, monkeypatch):
        loads = []
        real_load = executor.load_kernel

        def counting_load(*args, **kwargs):
            loads.append(1)
            return real_load(*args, **kwargs)

        monkeypatch.setattr(executor, "load_kernel", counting_load)
        monkeypatch.setattr(executor, "_kernel_entry", None)
        start = threading.Barrier(8)
        entries = []

        def first_scan():
            start.wait(timeout=30)
            entries.append(executor._native_scan())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_scan) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(loads) == 1 and len(entries) == 8
        assert all(entry is entries[0] for entry in entries)
