"""The segment-scan kernel: every UCNN level from one prefix sum.

:func:`scan` is the engine's only segment scan.  Both drivers call it:
:func:`execute_program` (one program over a window matrix) and
:func:`repro.engine.fusion.execute_network` (an image batch, one call
per filter-group shard).  Given a C-contiguous, window-major
``(n, N)`` int64 window matrix it runs five vectorized primitives,
whatever the program's group size G:

1. **gather** — ``np.take`` copies the traversal-ordered activation
   stream of every window into a contiguous ``(n, entries)`` buffer;
2. **scan** — one in-place ``np.cumsum`` along the entry axis turns it
   into prefix sums, ``P[i]`` = sum of the first ``i`` entries;
3. **boundary take** — a second ``np.take`` reads ``P`` at every
   boundary where some level's weight changes;
4. **multiply** — each read is scaled by its telescoped coefficient;
5. **fold** — one ``np.add.reduceat`` sums each filter's terms.

Steps 3-5 read the program's :class:`ScanTerms`, derived once by
:func:`telescope` and cached on the program.
For a filter whose run covers segments ``a..b-1`` with start offsets
``p_s`` and weights ``w_s``, the segment sums telescope:

    out = sum_s w_s * (P[p_{s+1}] - P[p_s])
        = -w_a * P[p_a] + sum_{a<s<b} (w_{s-1} - w_s) * P[p_s] + w_{b-1} * P[p_b]

so every level reads the same scan, with one multiply per boundary where
its weight changes.  All arithmetic is int64 and the identity holds mod
2**64, so outputs are bit-identical to the per-entry walk and the dense
matmul even when the running prefix wraps.

:func:`execute_program` processes windows in chunks bounding the
scanned matrix to roughly :data:`SCAN_CHUNK_ELEMS` elements, so a
window matrix of any size runs in constant working memory.

**Dropping dead entries** (``scan(keep=)``, the fused executor's
sparse-activation gather): gather entries whose source activation is
zero in *every* window are left out of the scan.  A dropped entry adds
nothing to any prefix, so a boundary at full-stream position ``p``
reads the compressed prefix at ``kept(p)``, the number of kept entries
before ``p`` — one remap of the term columns, never a change to a
single output bit.  Terms that land on position 0 read ``P[0] = 0`` and
are dropped, and a filter left with no terms writes 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.program import TableProgram

#: :func:`execute_program` chunks windows so each chunk's scanned matrix
#: and boundary-take matrix stay near this many int64 elements (~8 MiB):
#: the scan and the boundary take then re-read the chunk from cache, and
#: the per-chunk buffers are small enough for the allocator to reuse
#: between chunks instead of faulting in fresh pages.
SCAN_CHUNK_ELEMS = 1_000_000


@dataclass(frozen=True)
class ScanTerms:
    """A program's segment sums, telescoped onto prefix-sum boundaries.

    Each term reads the prefix sum ``P`` at one boundary and scales it
    by its coefficient (the identity in the module docstring); the terms
    of one run add up to its filter's output.  Terms at position 0
    (``P[0] = 0``) and terms with a zero coefficient are dropped.

    Attributes:
        cols: column of the scanned buffer each term reads (``P[p]``
            sits in column ``p - 1``), ascending within each run.
        coefs: int64 coefficient of each term.
        run_starts: first term of each run — strictly ascending, since
            runs left with no terms are dropped.
        rows: output row written by each run.
        idle_rows: output rows no term reaches (all-zero filters and
            groups with no entries); the executor writes them as 0.
    """

    cols: np.ndarray
    coefs: np.ndarray
    run_starts: np.ndarray
    rows: np.ndarray
    idle_rows: np.ndarray


def telescope(program: TableProgram) -> ScanTerms:
    """Derive a program's :class:`ScanTerms` from its segment passes."""
    empty = np.zeros(0, dtype=np.int64)
    positions, coefs, runs, rows = [empty], [empty], [empty], []
    for p in program.passes:
        if not p.filter_ids.size:
            continue
        first = int(p.filter_starts[0])  # earlier segments belong to no run
        ends = np.append(p.filter_starts[1:], p.num_segments)
        w = p.weights[first:]
        before = np.zeros_like(w)  # weight of the preceding segment in the run
        before[1:] = w[:-1]
        before[p.filter_starts - first] = 0
        run = np.repeat(np.arange(p.filter_ids.size), ends - p.filter_starts) + len(rows)
        bounds = np.append(p.seg_starts, program.num_entries)
        positions += [p.seg_starts[first:], bounds[ends]]
        coefs += [before - w, p.weights[ends - 1]]
        runs += [run, np.arange(p.filter_ids.size) + len(rows)]
        rows += p.filter_ids.tolist()
    position, coef, run = (np.concatenate(a) for a in (positions, coefs, runs))
    keep = (position != 0) & (coef != 0)
    position, coef, run = position[keep], coef[keep], run[keep]
    order = np.lexsort((position, run))
    counts = np.bincount(run, minlength=len(rows))
    live = counts > 0
    rows = np.asarray(rows, dtype=np.int64)
    return ScanTerms(
        cols=position[order] - 1,
        coefs=coef[order],
        run_starts=np.cumsum(counts[live]) - counts[live],
        rows=rows[live],
        idle_rows=np.setdiff1d(np.arange(program.num_filters), rows[live]),
    )


def _validated_windows(windows: np.ndarray, filter_size: int) -> np.ndarray:
    """Validate ``(n, N)`` integer windows and cast them to int64."""
    windows = np.asarray(windows)
    if windows.ndim != 2 or windows.shape[1] != filter_size:
        raise ValueError(f"windows must be (n, {filter_size}), got {windows.shape}")
    if windows.dtype.kind not in "iub":
        raise ValueError(
            f"engine windows must be integers (got dtype {windows.dtype}); "
            "quantize activations explicitly instead of relying on truncation"
        )
    return windows.astype(np.int64, copy=False)


def _matrix(buf: np.ndarray | None, n: int, width: int) -> np.ndarray:
    """An ``(n, width)`` int64 matrix, carved from ``buf`` when given."""
    if buf is None:
        return np.empty((n, width), dtype=np.int64)
    return buf[: n * width].reshape(n, width)


def scan(
    program: TableProgram,
    windows: np.ndarray,
    out: np.ndarray,
    keep: np.ndarray | None = None,
    gather_buf: np.ndarray | None = None,
    terms_buf: np.ndarray | None = None,
) -> None:
    """Evaluate ``program`` over a window matrix into ``out``.

    Args:
        program: the compiled :class:`TableProgram`.
        windows: C-contiguous, window-major ``(n, N)`` int64 matrix.
            Its width must equal ``program.filter_size``; gather indices
            were bounds-checked when the program was built, so the takes
            run in ``clip`` mode.
        out: ``(num_filters, n)`` int64 view; every row is written.
        keep: optional boolean mask over the program's gather entries;
            ``False`` entries read an activation that is zero in every
            window and are left out of the scan.
        gather_buf, terms_buf: optional flat int64 scratch buffers of at
            least ``n * num_entries`` and ``n * len(terms.cols)``
            elements (allocated per call when omitted).
    """
    terms = program.terms
    gather, cols, coefs = program.gather, terms.cols, terms.coefs
    run_starts, rows, idle = terms.run_starts, terms.rows, terms.idle_rows
    entries = program.num_entries
    if keep is not None:
        kept = int(np.count_nonzero(keep))
        if kept == 0:
            out[...] = 0
            return
        if kept < entries:
            kept_before = np.zeros(entries + 1, dtype=np.int64)
            np.cumsum(keep, out=kept_before[1:])
            mapped = kept_before[cols + 1]  # P[p] of the full stream sits at P[mapped]
            live = mapped > 0
            runs = np.repeat(np.arange(rows.size), np.diff(run_starts, append=cols.size))
            counts = np.bincount(runs[live], minlength=rows.size)
            idle = np.concatenate([idle, rows[counts == 0]])
            rows = rows[counts > 0]
            counts = counts[counts > 0]
            run_starts = np.cumsum(counts) - counts
            gather, cols, coefs, entries = gather[keep], mapped[live] - 1, coefs[live], kept
    if idle.size:
        out[idle] = 0
    if not cols.size:
        return
    n = windows.shape[0]
    prefix_sums = _matrix(gather_buf, n, entries)
    np.take(windows, gather, axis=1, out=prefix_sums, mode="clip")
    np.cumsum(prefix_sums, axis=1, out=prefix_sums)
    picked = _matrix(terms_buf, n, cols.size)
    np.take(prefix_sums, cols, axis=1, out=picked, mode="clip")
    np.multiply(picked, coefs, out=picked)
    out[rows] = np.add.reduceat(picked, run_starts, axis=1).T


def execute_program(program: TableProgram, windows: np.ndarray) -> np.ndarray:
    """Evaluate a compiled program over a window matrix.

    Args:
        program: the compiled :class:`TableProgram`.
        windows: ``(n, N)`` integer matrix of flattened input tiles,
            scanned in chunks of about :data:`SCAN_CHUNK_ELEMS` elements.

    Returns:
        ``(K, n)`` int64 dot products, bit-identical to walking each
        group's tables per window.

    Raises:
        ValueError: on shape mismatch or non-integer windows.
    """
    windows = _validated_windows(windows, program.filter_size)
    n = windows.shape[0]
    out = np.zeros((program.num_filters, n), dtype=np.int64)
    entries = program.num_entries
    if entries == 0 or n == 0:
        return out
    chunk = max(1, SCAN_CHUNK_ELEMS // max(entries, program.terms.cols.size))
    for lo in range(0, n, chunk):
        block = np.ascontiguousarray(windows[lo : lo + chunk])
        scan(program, block, out[:, lo : lo + block.shape[0]])
    return out
