"""Event counts shared by every simulator and the energy model.

All counts are *layer totals* across the whole PE array (not per-PE),
so energy is a straight dot product of counts with per-event costs and
runtime is ``cycles`` (already divided by the PE count by the producer).
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class EventCounts:
    """Layer-total hardware events.

    Attributes:
        cycles: execution cycles (work divided across PEs).
        multiplies: scalar multiplies executed.
        adds_acc: accumulator adds (UCNN group accumulation and outer
            merges; zero for dense designs).
        adds_psum: partial-sum adds (the accumulate half of each MAC).
        input_l1_reads: L1 input-buffer reads (one activation each).
        weight_l1_reads: L1 weight-buffer reads (one weight each).
        table_bits_read: indirection-table bits read (UCNN only).
        psum_accesses: partial-sum buffer reads + writes.
    """

    cycles: int = 0
    multiplies: int = 0
    adds_acc: int = 0
    adds_psum: int = 0
    input_l1_reads: int = 0
    weight_l1_reads: int = 0
    table_bits_read: int = 0
    psum_accesses: int = 0

    def __add__(self, other: "EventCounts") -> "EventCounts":
        """Field-wise sum of two event totals."""
        return EventCounts(
            **{f.name: getattr(self, f.name) + getattr(other, f.name) for f in fields(self)}
        )

    def scaled(self, factor: int) -> "EventCounts":
        """Multiply every count by an integer factor."""
        return EventCounts(**{f.name: getattr(self, f.name) * factor for f in fields(self)})

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (for tables and JSON dumps)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}
