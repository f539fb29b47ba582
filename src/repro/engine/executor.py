"""The segment-scan kernel: every UCNN level from one prefix sum per group.

:func:`scan` is the engine's only segment scan.  Every driver calls it:
:func:`execute_program` (one program over a window matrix),
:func:`repro.engine.fusion.execute_network` (an image batch, one call
per block of windows) and
:meth:`repro.core.factorized.FactorizedConv.forward` (one image).  It
never sees a window matrix: tap ``k`` of window ``w`` is
``src.flat[bases[w] + taps[k]]``, so a convolution hands it the padded
activations with one base offset per output position and one element
offset per window element, and the kernel reads each activation where
it lies, the way the paper's input indirection table addresses the
input buffer.  One call into a small C kernel (``_scan.c`` next to this
module) walks the program the way the paper's processing element walks
its indirection tables, one filter group at a time: per window it
streams the group's activations, named by ``taps[program.gather]``,
into a running prefix sum ``S`` (``S[i]`` = sum of the group's first
``i + 1`` entries) and folds each of its runs' telescoped terms,
``coefs[t] * S[cols[t]]``, straight into the run's output row, whatever
the group size G.  Windows go four at a time so their serial adds
overlap; the only scratch is their four prefixes of one group.

The terms are the program itself (:class:`~repro.engine.program.TableProgram`,
built by :func:`~repro.engine.program.compile_layer`): one per level
boundary whose weight differs from the next one, with coefficient
``w_i - w_{i+1}``.  The kernel computes in ``uint64_t``, which wraps
mod 2**64 exactly like numpy's int64, and the identity holds mod 2**64,
so outputs are bit-identical to the per-entry walk and the dense matmul
even when the running prefix wraps.

**Building the kernel.**  The first :func:`scan` in a process compiles
``_scan.c`` with the system ``cc`` and :data:`KERNEL_CFLAGS` into
``__pycache__/_scan.<digest>.so`` next to the source, named by a
SHA-256 of source and flags, and loads it through :mod:`ctypes`, which
releases the GIL for the call, so threads scanning different windows
overlap.  Later processes load the cached library without compiling; a
package directory that is not writable makes each process build into a
private temporary directory instead.  If ``cc`` is missing or fails,
that first :func:`scan` raises :class:`RuntimeError` carrying the
command and its error output.  The kernel does no bounds checking:
:func:`scan` proves every read in bounds first (``bases`` and ``taps``
non-negative, ``max(bases) + max(taps) < src.size``), and every index
inside the program (gather, fenceposts, rows, and each term's column
within its group) was checked when the program was built or decoded.

:func:`execute_program` is the trivial case, a window-major matrix with
``bases = w * N`` and ``taps = arange(N)``.  It copies a caller's
window matrix to contiguous int64 in chunks of about
:data:`COPY_CHUNK_ELEMS` elements (a contiguous int64 matrix is scanned
in place), so a window matrix of any size and layout runs in constant
working memory.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.engine.program import TableProgram

#: :func:`execute_program` copies window matrices, and :func:`scan`
#: gathers offsets (one kernel call per chunk of whole groups), in
#: chunks of about this many elements (~8 MiB).
COPY_CHUNK_ELEMS = 1_000_000

#: Windows the kernel scans side by side (``LANES`` in ``_scan.c``).
LANES = 4

#: The kernel's C source, and the fixed flags it is compiled with.
KERNEL_SOURCE = Path(__file__).with_name("_scan.c")
KERNEL_CFLAGS = ("-O3", "-fPIC", "-shared")

_I64, _PTR = ctypes.c_int64, ctypes.c_void_p
#: ``ucnn_scan``'s C signature, in argument order.
_KERNEL_ARGTYPES = (
    _PTR, _PTR, _I64,  # src, bases, n
    _PTR, _PTR, _PTR, _I64,  # taps[gather], group_entries, group_runs, groups
    _PTR, _PTR, _PTR, _PTR,  # cols, coefs, run_starts, rows
    _PTR, _I64,  # out, out row stride in elements
)

_kernel_entry = None
_kernel_lock = threading.Lock()


def load_kernel(source: Path = KERNEL_SOURCE, cache_dir: Path | None = None) -> ctypes.CDLL:
    """Build the scan kernel once per source and flags, and load it.

    Args:
        source: the kernel's C source.
        cache_dir: where built libraries are kept, as
            ``<stem>.<sha256(source, flags)[:16]>.so``; defaults to the
            ``__pycache__`` directory next to ``source``.  When it
            cannot be created or written, the library is built into a
            private temporary directory that is removed once loaded.

    Returns:
        the loaded library, its ``ucnn_scan`` typed.

    Raises:
        RuntimeError: if ``cc`` is missing or fails; the message carries
            the command and the compiler's error output.
    """
    cache_dir = source.parent / "__pycache__" if cache_dir is None else cache_dir
    digest = hashlib.sha256(source.read_bytes())
    digest.update(b"\0" + " ".join(KERNEL_CFLAGS).encode())
    private = not _writable(cache_dir)
    directory = Path(tempfile.mkdtemp(prefix="repro-scan-")) if private else cache_dir
    library = directory / f"{source.stem}.{digest.hexdigest()[:16]}.so"
    try:
        if not library.exists():
            _compile(source, library)
        lib = ctypes.CDLL(str(library))
    finally:
        if private:
            shutil.rmtree(directory, ignore_errors=True)
    lib.ucnn_scan.argtypes = _KERNEL_ARGTYPES
    lib.ucnn_scan.restype = ctypes.c_int
    return lib


def _writable(directory: Path) -> bool:
    """Whether ``directory`` exists (creating it if needed) and is writable."""
    try:
        directory.mkdir(exist_ok=True)
    except OSError:
        return False
    return os.access(directory, os.W_OK)


def _compile(source: Path, library: Path) -> None:
    """Compile ``source`` to ``library`` via a temp directory, atomically.

    Racing processes each compile into their own temp directory next to
    ``library``; the last ``os.replace`` wins with an identical library.
    """
    workdir = tempfile.mkdtemp(prefix=library.name + ".", suffix=".tmp", dir=library.parent)
    built = os.path.join(workdir, library.name)
    cmd = ["cc", *KERNEL_CFLAGS, "-o", built, str(source)]
    what = f"building the scan kernel: `{' '.join(cmd)}`"
    try:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        except OSError as exc:  # no compiler on PATH
            raise RuntimeError(f"{what} could not run: {exc}") from exc
        if proc.returncode:
            raise RuntimeError(f"{what} exited with status {proc.returncode}:\n{proc.stderr}")
        os.replace(built, library)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _native_scan():
    """The kernel's ``ucnn_scan`` entry, built and loaded on first use."""
    global _kernel_entry
    if _kernel_entry is None:
        with _kernel_lock:
            if _kernel_entry is None:
                _kernel_entry = load_kernel().ucnn_scan
    return _kernel_entry


def _check_operands(
    program: TableProgram,
    src: np.ndarray,
    bases: np.ndarray,
    taps: np.ndarray,
    out: np.ndarray,
) -> None:
    """Raise ``ValueError`` unless the kernel may read and write these arrays.

    Every read the kernel makes is ``src.flat[bases[w] + taps[gather[i]]]``,
    so non-negative offsets with ``max(bases) + max(taps) < src.size``
    keep all of them inside ``src`` (``gather`` indexes ``taps`` in
    bounds since the program was built).  The sum is taken on Python
    integers, so huge offsets cannot wrap past the check.
    """
    if not isinstance(src, np.ndarray) or src.dtype != np.int64:
        raise ValueError(
            f"src must be an int64 array, got {getattr(src, 'dtype', type(src).__name__)}"
        )
    if not (src.flags.c_contiguous and src.flags.aligned):
        raise ValueError("src must be C-contiguous and aligned")
    for name, arr in (("bases", bases), ("taps", taps)):
        if not isinstance(arr, np.ndarray) or arr.dtype != np.int64 or arr.ndim != 1:
            raise ValueError(
                f"{name} must be a 1-D int64 array, got "
                f"{getattr(arr, 'dtype', type(arr).__name__)} {np.shape(arr)}"
            )
        if arr.size and arr.min() < 0:
            raise ValueError(f"{name} must be non-negative, got {arr.min()}")
    if taps.shape != (program.filter_size,):
        raise ValueError(f"taps must have shape ({program.filter_size},), got {taps.shape}")
    if bases.size and int(bases.max()) + int(taps.max()) >= src.size:
        raise ValueError(
            f"max(bases) + max(taps) = {int(bases.max()) + int(taps.max())} reads past "
            f"src of {src.size} elements"
        )
    expected = (program.num_filters, bases.size)
    if not isinstance(out, np.ndarray) or out.dtype != np.int64 or out.shape != expected:
        raise ValueError(
            f"out must be an int64 array of shape {expected}, got "
            f"{getattr(out, 'dtype', type(out).__name__)} {np.shape(out)}"
        )
    if out.strides[1] != out.itemsize or out.strides[0] % out.itemsize or not out.flags.aligned:
        raise ValueError(f"out must be aligned with unit column stride, got strides {out.strides}")
    if not out.flags.writeable:
        raise ValueError("out must be writeable")


def _int64(arr: np.ndarray) -> np.ndarray:
    """``arr`` as an aligned, C-contiguous int64 array (no copy if it is one)."""
    return np.require(arr, np.int64, ("C", "A"))


def scan(
    program: TableProgram,
    src: np.ndarray,
    bases: np.ndarray,
    taps: np.ndarray,
    out: np.ndarray,
) -> None:
    """Evaluate ``program`` over windows gathered from ``src`` into ``out``.

    Tap ``k`` of window ``w`` is ``src.flat[bases[w] + taps[k]]``.

    Args:
        program: the compiled :class:`TableProgram`.
        src: C-contiguous, aligned int64 activations, any shape.
        bases: 1-D int64 offset (in elements) of each of the ``n``
            windows, ``>= 0``.
        taps: 1-D int64 offset of each of the ``N`` window elements
            (``N == program.filter_size``), ``>= 0``, with
            ``max(bases) + max(taps) < src.size``.
        out: writeable ``(num_filters, n)`` int64 array with unit column
            stride (a row or column block of a larger buffer is fine);
            every row is written.

    Raises:
        ValueError: if an operand does not match the program or an
            offset reads outside ``src`` (checked before the native
            call, which does no bounds checking).
        RuntimeError: if the kernel library cannot be built.
        MemoryError: if the kernel cannot allocate its prefix scratch,
            ``4 * entries * 8`` bytes for the widest group in a chunk.
    """
    _check_operands(program, src, bases, taps, out)
    if program.idle_rows.size:
        out[program.idle_rows] = 0
    if not program.cols.size or not bases.size:
        return
    bases = _int64(bases)
    entries, runs = program.group_entries, program.group_runs
    # A chunk of whole groups ends at the first group boundary at or past
    # each multiple of COPY_CHUNK_ELEMS entries.
    marks = np.arange(entries[0] + COPY_CHUNK_ELEMS, entries[-1], COPY_CHUNK_ELEMS)
    cuts = np.unique(np.concatenate(([0], np.searchsorted(entries, marks), [entries.size - 1])))
    kernel = _native_scan()
    for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        offsets = taps[program.gather[entries[a] : entries[b]]]
        status = kernel(
            src.ctypes.data, bases.ctypes.data, bases.size,
            offsets.ctypes.data, entries[a:].ctypes.data, runs[a:].ctypes.data, b - a,
            program.cols.ctypes.data, program.coefs.ctypes.data,
            program.run_starts.ctypes.data, program.rows.ctypes.data,
            out.ctypes.data, out.strides[0] // out.itemsize,
        )
        if status:
            widest = np.diff(entries[a : b + 1]).max()
            raise MemoryError(f"scan kernel: no memory for four prefixes of {widest} entries")


def execute_program(program: TableProgram, windows: np.ndarray) -> np.ndarray:
    """Evaluate a compiled program over a window matrix.

    The trivial :func:`scan`: window ``w`` of a contiguous block starts
    at ``w * N`` and its taps are ``arange(N)``.

    Args:
        program: the compiled :class:`TableProgram`.
        windows: ``(n, N)`` integer matrix of flattened input tiles, in
            any layout; it is copied to contiguous int64 in chunks of
            about :data:`COPY_CHUNK_ELEMS` elements.

    Returns:
        ``(K, n)`` int64 dot products, bit-identical to walking each
        group's tables per window.

    Raises:
        ValueError: on shape mismatch or non-integer windows.
    """
    windows = np.asarray(windows)
    if windows.ndim != 2 or windows.shape[1] != program.filter_size:
        raise ValueError(f"windows must be (n, {program.filter_size}), got {windows.shape}")
    if windows.dtype.kind not in "iub":
        raise ValueError(
            f"engine windows must be integers (got dtype {windows.dtype}); "
            "quantize activations explicitly instead of relying on truncation"
        )
    n, width = windows.shape
    out = np.zeros((program.num_filters, n), dtype=np.int64)
    if program.num_entries == 0 or n == 0:
        return out
    chunk = max(1, COPY_CHUNK_ELEMS // width)
    bases = np.arange(min(n, chunk), dtype=np.int64) * width
    taps = np.arange(width, dtype=np.int64)
    for lo in range(0, n, chunk):
        block = _int64(windows[lo : lo + chunk])
        rows = block.shape[0]
        scan(program, block, bases[:rows], taps, out[:, lo : lo + rows])
    return out
