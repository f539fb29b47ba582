"""Activation group reuse across G filters (Sections III-B, IV-B, IV-C).

:class:`FilterGroupTables` is the one table type, for any ``G >= 1``.
With ``G = 1`` it is Section IV-B's vanilla dot product factorization:
the iiT lists one filter's non-zero positions group by group, its wiT
is one transition bit per entry, and groups longer than
``max_group_size`` are chunked, each extra chunk costing one early MAC.

``G`` filters share one *hierarchically sorted* input indirection table:
entries are sorted by filter 1's activation group, then within each group
by filter 2's sub-group, and so on — all keyed to one canonical weight
order.  A single traversal then produces all ``G`` dot products:

* accumulator **Á** sums the innermost (level-G) groups;
* at each innermost boundary the sum merges into ``G-1`` running sums
  (accumulator **Â**, one per outer level) and, if filter G's weight is
  non-zero, is MACed into filter G's partial sum;
* at a level-g boundary, filter g's running sum is MACed and reset.

Because every filter cycles through the same canonical order, each
filter's weight indirection table (wiT) is one *group-transition bit* per
entry.  Empty (sub-)groups force the weight pointer to advance by more
than one; the paper's hybrid fix (Section IV-C) gives the G-th filter's
wiT entries an extra skip field (0-3 weights inline) and inserts explicit
*skip entries* — one pipeline bubble each — for anything longer.  Both
are accounted here exactly.

Zero weights: entries where *all* G filters are zero are dropped from the
table.  A boundary whose group weight is zero never MACs and never incurs
skip cost — zero is canonically last, so "rest of this (sub-)group is
zero" is encodable in the transition the same way Section IV-B encodes
"filter done" (the natural generalization of the paper's zero-skipping).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.activation_groups import canonical_weight_order, rank_by_canonical

#: Section IV-B's maximum activation group size (4 extra multiplier bits).
DEFAULT_MAX_GROUP_SIZE = 16

#: Inline skip capacity of the G-th filter's 2-bit wiT entries ("skip up
#: to 3 weights"); filters 1..G-1 have 1-bit entries with no skip field.
INLINE_SKIP_CAPACITY = 3


@dataclass(frozen=True)
class TableStats:
    """Event counts for one traversal of a shared table (one window).

    All counts are per *table walk*, i.e. per spatial output position
    vector; the simulators scale them by the number of walks.

    Attributes:
        num_entries: stored iiT entries (union of non-zero supports).
        num_filters: G, the filters sharing the table.
        filter_size: dense flattened filter length (R*S*Ct).
        boundaries_per_level: level-g boundary count, g = 1..G.
        multiplies: total MACs dispatched across all G filters, including
            chunk early-MACs for filter G.
        adds: accumulator adds (group accumulation + outer merges) plus
            the accumulate half of each MAC.
        weight_reads: weight-buffer reads (one per MAC dispatch).
        skip_bubbles: explicit skip entries inserted (pipeline bubbles).
        mult_stalls: stall cycles from >1 MAC dispatched in one cycle
            against a single multiplier.
    """

    num_entries: int
    num_filters: int
    filter_size: int
    boundaries_per_level: tuple[int, ...]
    multiplies: int
    adds: int
    weight_reads: int
    skip_bubbles: int
    mult_stalls: int

    @property
    def cycles(self) -> int:
        """Lane cycles per walk: entries + bubbles + multiplier stalls."""
        return self.num_entries + self.skip_bubbles + self.mult_stalls

    @property
    def dense_cycles(self) -> int:
        """Cycles an unvectorized dense lane needs for the same work."""
        return self.filter_size * self.num_filters


@dataclass(frozen=True)
class FilterGroupTables:
    """Shared indirection tables for ``G`` filters over one input tile.

    Attributes:
        filters: ``(G, N)`` flattened integer filters (N = R*S*Ct).
        canonical: canonical weight order the tables are keyed to
            (typically the *layer's* canonical order, so the streamed
            weight buffer layout is shared by every tile's tables).
        iit: ``(L,)`` stored input-buffer addresses, hierarchical order.
        transitions: ``(G, L)`` level-g group-transition bits.
        max_group_size: innermost chunk limit (Section IV-B).

    The weight-pointer skips each boundary needs, :attr:`skip_needs`,
    follow from these fields and are derived on first read.
    """

    filters: np.ndarray
    canonical: np.ndarray
    iit: np.ndarray
    transitions: np.ndarray
    max_group_size: int = DEFAULT_MAX_GROUP_SIZE

    def __post_init__(self):
        """Check the arrays agree, so a loaded table never walks misaligned.

        The generator is trusted, but tables decoded from an artifact are
        not: a missing final transition bit would silently drop the last
        group's MAC from every walk.
        """
        if self.filters.ndim != 2 or self.iit.ndim != 1:
            raise ValueError("filters must be a (G, N) matrix and iit a vector")
        if self.max_group_size < 1:
            raise ValueError("max_group_size must be >= 1")
        expected = (self.num_filters, self.num_entries)
        if self.transitions.shape != expected:
            raise ValueError(
                f"transitions has shape {self.transitions.shape}, expected (G, L) = {expected}")
        if self.num_entries and not self.transitions[:, -1].all():
            raise ValueError("the last entry must carry a transition bit at every level")

    @property
    def num_filters(self) -> int:
        """G — the number of filters sharing this table."""
        return int(self.filters.shape[0])

    @property
    def num_entries(self) -> int:
        """Stored entries L (union of non-zero weight positions)."""
        return int(self.iit.size)

    @property
    def filter_size(self) -> int:
        """Dense flattened filter length N."""
        return int(self.filters.shape[1])

    @property
    def num_unique(self) -> int:
        """U — length of the canonical weight order."""
        return int(self.canonical.size)

    @cached_property
    def skip_needs(self) -> np.ndarray:
        """``(G, L)`` weight-pointer skips required at each boundary.

        Already zero for zero-weight boundaries; see
        :func:`_compute_skip_needs`.  The event accounting and the
        simulators read it; compiling a layer never does.
        """
        zero = np.flatnonzero(self.canonical == 0)
        return _compute_skip_needs(
            rank_by_canonical(self.filters[:, self.iit], self.canonical),
            self.transitions, int(zero[0]) if zero.size else None)

    # ------------------------------------------------------------------
    # Functional execution (the ground truth)
    # ------------------------------------------------------------------

    def execute(self, window: np.ndarray) -> np.ndarray:
        """Single traversal producing all G dot products for one window.

        Implements the accumulator structure of Figure 6 (À/Á/Â) with
        innermost chunking; bit-exact against the dense reference.  This
        is the package's only per-entry walk, for every G: the compiled
        engine is checked against it, and the lane simulator reports its
        outputs.

        Args:
            window: flattened ``(N,)`` integer input tile.

        Returns:
            ``(G,)`` int64 dot products, one per filter.
        """
        window = np.asarray(window, dtype=np.int64).reshape(-1)
        if window.size != self.filter_size:
            raise ValueError(f"window length {window.size} != filter size {self.filter_size}")
        g_count = self.num_filters
        psums = np.zeros(g_count, dtype=np.int64)
        acc_inner = 0  # accumulator Á
        acc_outer = np.zeros(max(0, g_count - 1), dtype=np.int64)  # accumulator Â
        chunk = 0
        innermost = self.transitions[g_count - 1] if self.num_entries else np.zeros(0, dtype=bool)
        for t in range(self.num_entries):
            acc_inner += int(window[self.iit[t]])
            chunk += 1
            at_inner_end = bool(innermost[t])
            if chunk >= self.max_group_size and not at_inner_end:
                # Early MAC for filter G (weight peek) + merge into outers.
                weight = int(self.filters[g_count - 1, self.iit[t]])
                if weight != 0:
                    psums[g_count - 1] += weight * acc_inner
                acc_outer += acc_inner
                acc_inner = 0
                chunk = 0
            if at_inner_end:
                weight = int(self.filters[g_count - 1, self.iit[t]])
                if weight != 0:
                    psums[g_count - 1] += weight * acc_inner
                acc_outer += acc_inner
                for g in range(g_count - 2, -1, -1):
                    if self.transitions[g, t]:
                        outer_weight = int(self.filters[g, self.iit[t]])
                        if outer_weight != 0:
                            psums[g] += outer_weight * acc_outer[g]
                        acc_outer[g] = 0
                acc_inner = 0
                chunk = 0
        return psums

    # ------------------------------------------------------------------
    # Event accounting
    # ------------------------------------------------------------------

    def innermost_group_sizes(self) -> np.ndarray:
        """Sizes of the innermost (level-G) groups, traversal order."""
        if self.num_entries == 0:
            return np.zeros(0, dtype=np.int64)
        ends = np.flatnonzero(self.transitions[self.num_filters - 1])
        return np.diff(np.concatenate([[-1], ends])).astype(np.int64)

    def chunk_early_macs(self) -> int:
        """Early MACs from innermost chunking (filter G, non-zero groups).

        A group of size ``s`` is split into ``ceil(s/max_group_size)``
        chunks; all but the last dispatch an early MAC when the group's
        filter-G weight is non-zero.
        """
        if self.num_entries == 0:
            return 0
        sizes = self.innermost_group_sizes()
        ends = np.flatnonzero(self.transitions[self.num_filters - 1])
        weights = self.filters[self.num_filters - 1, self.iit[ends]]
        chunks = -(-sizes // self.max_group_size)
        return int(np.sum((chunks - 1)[weights != 0]))

    def macs_per_entry(self) -> np.ndarray:
        """MACs dispatched at each stored entry (boundary MACs only).

        Chunk early-MACs occur at non-boundary entries one at a time and
        never contend for the multiplier, so they are excluded here and
        counted by :meth:`chunk_early_macs`.
        """
        if self.num_entries == 0:
            return np.zeros(0, dtype=np.int64)
        weights_at = self.filters[:, self.iit]  # (G, L)
        return np.sum(self.transitions & (weights_at != 0), axis=0).astype(np.int64)

    def skip_entry_bubbles(self) -> int:
        """Explicit skip entries required (pipeline bubbles).

        Filter G's boundary entries absorb up to
        :data:`INLINE_SKIP_CAPACITY` skips inline and each of its skip
        entries carries another :data:`INLINE_SKIP_CAPACITY`; filters
        1..G-1 have 1-bit wiT entries with no inline field, so every
        pointer skip there costs one skip entry (Section IV-C's hybrid
        scheme).
        """
        if self.num_entries == 0:
            return 0
        g_count = self.num_filters
        total = 0
        for g in range(g_count):
            need = self.skip_needs[g]
            if g == g_count - 1:
                over = np.maximum(0, need - INLINE_SKIP_CAPACITY)
                total += int(np.sum(-(-over // INLINE_SKIP_CAPACITY)))
            else:
                total += int(np.sum(need))
        return total

    def multiplier_stalls(self, num_multipliers: int = 1) -> int:
        """Stall cycles when several MACs dispatch in one cycle.

        The UCNN PE provisions a single multiplier per lane group
        (Section IV-C "Area implications"); a level-1 boundary in a G=2
        table dispatches two MACs and therefore stalls one cycle.
        """
        macs = self.macs_per_entry()
        return int(np.sum(np.maximum(0, macs - num_multipliers)))

    def stats(self, num_multipliers: int = 1) -> TableStats:
        """Aggregate event counts for one traversal of this table."""
        g_count = self.num_filters
        boundaries = tuple(int(np.sum(self.transitions[g])) for g in range(g_count))
        boundary_macs = int(np.sum(self.macs_per_entry()))
        early = self.chunk_early_macs()
        multiplies = boundary_macs + early
        # Adds: one accumulator add per entry, G-1 merge adds per innermost
        # chunk completion, one psum add per MAC.
        inner_completions = boundaries[g_count - 1] + self._early_chunk_completions()
        adds = self.num_entries + (g_count - 1) * inner_completions + multiplies
        return TableStats(
            num_entries=self.num_entries,
            num_filters=g_count,
            filter_size=self.filter_size,
            boundaries_per_level=boundaries,
            multiplies=multiplies,
            adds=adds,
            weight_reads=multiplies,
            skip_bubbles=self.skip_entry_bubbles(),
            mult_stalls=self.multiplier_stalls(num_multipliers),
        )

    def _early_chunk_completions(self) -> int:
        """Innermost chunk completions that are not group boundaries."""
        sizes = self.innermost_group_sizes()
        chunks = -(-sizes // self.max_group_size)
        return int(np.sum(chunks - 1))


def _compute_skip_needs(
    ranks: np.ndarray,
    transitions: np.ndarray,
    zero_rank: int | None,
) -> np.ndarray:
    """Weight-pointer skips needed at each boundary of each filter.

    For filter g, boundaries within one parent (level g-1) group visit
    canonical ranks in increasing order; the pointer starts before rank 0
    at each parent boundary.  The skip at a boundary of rank ``r`` is
    ``r - previous - 1``.  Boundaries whose weight is zero cost nothing
    (the "rest is zero" encoding), and advances *over* the zero rank
    cannot occur because zero is canonically last.
    """
    g_count, length = ranks.shape
    skips = np.zeros((g_count, length), dtype=np.int64)
    if length == 0:
        return skips
    for g in range(g_count):
        boundary_idx = np.flatnonzero(transitions[g])
        if boundary_idx.size == 0:
            continue
        r = ranks[g, boundary_idx]
        if g == 0:
            parent_end = np.zeros(boundary_idx.size, dtype=bool)
            parent_end[0] = True  # pointer starts fresh at table start
            prev = np.concatenate([[-1], r[:-1]])
            prev[0] = -1
        else:
            # A boundary is "first in its parent group" when the previous
            # level-g boundary was also a level-(g-1) boundary (or it is
            # the very first boundary).
            parent_bits = transitions[g - 1, boundary_idx]
            first_in_parent = np.empty(boundary_idx.size, dtype=bool)
            first_in_parent[0] = True
            first_in_parent[1:] = parent_bits[:-1]
            prev = np.concatenate([[-1], r[:-1]])
            prev[first_in_parent] = -1
        need = r - prev - 1
        # Zero-weight boundaries are free ("rest is zero" encoding).
        if zero_rank is not None:
            need[r == zero_rank] = 0
        skips[g, boundary_idx] = np.maximum(0, need)
    return skips


def build_filter_group_tables(
    filters: np.ndarray,
    canonical: np.ndarray | None = None,
    max_group_size: int = DEFAULT_MAX_GROUP_SIZE,
) -> FilterGroupTables:
    """Build shared hierarchical tables for ``G`` filters (offline step).

    Args:
        filters: ``(G, N)`` integer filters flattened over ``R*S*Ct``
            (G = 1 reproduces vanilla dot product factorization).
        canonical: canonical weight order to key the sort to.  Pass the
            *layer's* canonical order so every tile's tables share the
            streamed weight-buffer layout (skips are then accounted for
            values absent from a particular tile); defaults to the
            canonical order of the values present in ``filters``.
        max_group_size: innermost chunk limit (default 16).

    Returns:
        a :class:`FilterGroupTables`.

    Raises:
        ValueError: on shape problems or values missing from ``canonical``.
    """
    filters = np.asarray(filters, dtype=np.int64)
    if filters.ndim != 2:
        raise ValueError("filters must be a (G, N) matrix")
    g_count, length = filters.shape
    if canonical is None:
        canonical = canonical_weight_order(filters)
    else:
        canonical = np.asarray(canonical, dtype=np.int64)
        if np.unique(canonical).size != canonical.size:
            raise ValueError("canonical order contains duplicate values")
        if canonical.size and 0 in canonical and canonical[-1] != 0:
            raise ValueError("canonical order must place zero last")
    all_ranks = rank_by_canonical(filters, canonical)  # (G, N)
    stored = np.flatnonzero(np.any(filters != 0, axis=0))
    # Hierarchical sort: filter 1's rank is the primary key, then filter
    # 2's, ..., then the address for a stable within-group order.
    # np.lexsort sorts by the *last* key first.
    keys = [stored] + [all_ranks[g, stored] for g in range(g_count - 1, -1, -1)]
    order = np.lexsort(keys)
    iit = stored[order].astype(np.int64)
    ranks = all_ranks[:, iit]  # (G, L)
    transitions = np.zeros((g_count, iit.size), dtype=bool)
    if iit.size:
        changed = np.zeros(iit.size - 1, dtype=bool)
        for g in range(g_count):
            changed = changed | (ranks[g, 1:] != ranks[g, :-1])
            transitions[g, :-1] = changed
            transitions[g, -1] = True
    return FilterGroupTables(
        filters=filters,
        canonical=canonical,
        iit=iit,
        transitions=transitions,
        max_group_size=max_group_size,
    )
