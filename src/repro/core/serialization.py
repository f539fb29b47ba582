"""Binary serialization of UCNN models (the DRAM format, made concrete).

The paper stores models in DRAM as indirection tables plus unique-weight
lists and reports their size in bits (Figures 13-14).  This module makes
that format concrete: tables are bit-packed exactly at the widths the
model-size accounting charges —

* iiT entries at ``ceil(log2(R*S*Ct))`` bits (pointer mode),
* wiT entries at 1 bit per filter plus the G-th filter's extra bit,
* the unique-weight list F at the weight precision,

with a small fixed header per filter-group table.  ``pack`` / ``unpack``
round-trip exactly, and the packed byte count is consistent with
:mod:`repro.core.model_size` (same per-entry widths; the header is the
only addition), which the test suite asserts.

This is what a real deployment toolchain would ship to the accelerator,
and it doubles as an executable cross-check on every size formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hierarchical import FilterGroupTables, build_filter_group_tables
from repro.core.jump_encoding import min_pointer_bits

#: Format magic/version for the packed blob.
MAGIC = 0xC3
VERSION = 1


class BitWriter:
    """Append-only bit stream (MSB-first within each byte)."""

    def __init__(self) -> None:
        """Start an empty stream."""
        self._bits: list[int] = []

    def write(self, value: int, width: int) -> None:
        """Append ``width`` bits of ``value`` (unsigned)."""
        if width < 0:
            raise ValueError("width must be >= 0")
        if value < 0 or value >= (1 << width):
            raise ValueError(f"value {value} does not fit in {width} bits")
        for i in range(width - 1, -1, -1):
            self._bits.append((value >> i) & 1)

    def getvalue(self) -> bytes:
        """The stream padded to a whole number of bytes."""
        bits = self._bits + [0] * (-len(self._bits) % 8)
        out = bytearray()
        for i in range(0, len(bits), 8):
            byte = 0
            for b in bits[i : i + 8]:
                byte = (byte << 1) | b
            out.append(byte)
        return bytes(out)

    @property
    def bit_length(self) -> int:
        """Bits written so far (before padding)."""
        return len(self._bits)


class BitReader:
    """Sequential reader matching :class:`BitWriter`'s layout."""

    def __init__(self, data: bytes) -> None:
        """Read ``data`` from its first bit."""
        self._data = data
        self._pos = 0

    def read(self, width: int) -> int:
        """Read ``width`` bits as an unsigned integer."""
        if self._pos + width > len(self._data) * 8:
            raise ValueError("bit stream exhausted")
        value = 0
        for __ in range(width):
            byte = self._data[self._pos // 8]
            bit = (byte >> (7 - self._pos % 8)) & 1
            value = (value << 1) | bit
            self._pos += 1
        return value


@dataclass(frozen=True)
class PackedTables:
    """One filter-group's tables as a packed blob.

    Attributes:
        data: the bit-packed bytes.
        table_bits: payload bits (excl. header), the model-size quantity.
    """

    data: bytes
    table_bits: int


#: Header: magic(8) version(8) G(8) U(16) entries(24) filter_size(24)
#: weight_bits(8).
_HEADER_BITS = 8 + 8 + 8 + 16 + 24 + 24 + 8


def pack_tables(tables: FilterGroupTables, weight_bits: int = 16) -> PackedTables:
    """Serialize a filter group's tables to bytes.

    The payload layout per entry is ``pointer | wiT_1 .. wiT_G | skip``
    where ``skip`` is the G-th filter's 1-bit inline-skip flag slot (the
    second bit of its 2-bit field), followed by the canonical weight
    list in two's complement.
    """
    writer = BitWriter()
    g = tables.num_filters
    u = tables.num_unique
    pointer_bits = min_pointer_bits(tables.filter_size)
    writer.write(MAGIC, 8)
    writer.write(VERSION, 8)
    writer.write(g, 8)
    writer.write(u, 16)
    writer.write(tables.num_entries, 24)
    writer.write(tables.filter_size, 24)
    writer.write(weight_bits, 8)
    payload_start = writer.bit_length
    for t in range(tables.num_entries):
        writer.write(int(tables.iit[t]), pointer_bits)
        for gi in range(g):
            writer.write(int(tables.transitions[gi, t]), 1)
        # The G-th filter's extra bit: inline skip needed at this entry.
        inline = min(int(tables.skip_needs[g - 1, t]), 1)
        writer.write(inline, 1)
    offset = 1 << (weight_bits - 1)
    for value in tables.canonical:
        writer.write(int(value) + offset, weight_bits)
    return PackedTables(data=writer.getvalue(), table_bits=writer.bit_length - payload_start)


@dataclass(frozen=True)
class UnpackedTables:
    """Decoded contents of a packed blob (enough to rebuild execution)."""

    group_size: int
    num_unique: int
    filter_size: int
    iit: np.ndarray
    transitions: np.ndarray
    canonical: np.ndarray
    weight_bits: int


def unpack_tables(packed: PackedTables | bytes) -> UnpackedTables:
    """Decode a packed blob back into table arrays.

    Raises:
        ValueError: on magic/version mismatch or a truncated stream.
    """
    data = packed.data if isinstance(packed, PackedTables) else packed
    reader = BitReader(data)
    if reader.read(8) != MAGIC:
        raise ValueError("bad magic byte — not a packed UCNN table")
    if reader.read(8) != VERSION:
        raise ValueError("unsupported version")
    g = reader.read(8)
    u = reader.read(16)
    entries = reader.read(24)
    filter_size = reader.read(24)
    weight_bits = reader.read(8)
    pointer_bits = min_pointer_bits(filter_size)
    iit = np.empty(entries, dtype=np.int64)
    transitions = np.zeros((g, entries), dtype=bool)
    for t in range(entries):
        iit[t] = reader.read(pointer_bits)
        for gi in range(g):
            transitions[gi, t] = bool(reader.read(1))
        reader.read(1)  # inline-skip flag (advisory for the datapath)
    offset = 1 << (weight_bits - 1)
    canonical = np.array([reader.read(weight_bits) - offset for __ in range(u)], dtype=np.int64)
    return UnpackedTables(
        group_size=g, num_unique=u, filter_size=filter_size,
        iit=iit, transitions=transitions, canonical=canonical,
        weight_bits=weight_bits,
    )


def pack_layer(
    weights: np.ndarray,
    group_size: int,
    channel_tile: int | None = None,
    weight_bits: int = 16,
) -> list[PackedTables]:
    """Pack a whole layer: one blob per (filter group, channel tile).

    Args:
        weights: ``(K, C, R, S)`` integer weights.
        group_size: G.
        channel_tile: Ct (defaults to the full C — one tile).
        weight_bits: weight precision for the F list.
    """
    weights = np.asarray(weights, dtype=np.int64)
    k, c, r, s = weights.shape
    ct = c if channel_tile is None else min(channel_tile, c)
    tiles = -(-c // ct)
    padded = np.zeros((k, ct * tiles, r, s), dtype=np.int64)
    padded[:, :c] = weights
    tiled = padded.reshape(k, tiles, ct * r * s)
    from repro.core.activation_groups import canonical_weight_order

    canonical = canonical_weight_order(weights)
    blobs = []
    for start in range(0, k, group_size):
        for t in range(tiles):
            tables = build_filter_group_tables(
                tiled[start : start + group_size, t, :], canonical=canonical)
            blobs.append(pack_tables(tables, weight_bits=weight_bits))
    return blobs
