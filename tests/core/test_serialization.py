"""Tests for the packed UCNN model format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hierarchical import build_filter_group_tables
from repro.core.jump_encoding import min_pointer_bits
from repro.core.model_size import wit_bits_per_entry
from repro.core.serialization import (
    BitReader,
    BitWriter,
    pack_layer,
    pack_tables,
    unpack_tables,
)


class TestBitStream:
    def test_round_trip_values(self):
        writer = BitWriter()
        values = [(5, 3), (0, 1), (1023, 10), (1, 1), (255, 8)]
        for value, width in values:
            writer.write(value, width)
        reader = BitReader(writer.getvalue())
        for value, width in values:
            assert reader.read(width) == value

    def test_value_must_fit(self):
        with pytest.raises(ValueError, match="fit"):
            BitWriter().write(8, 3)

    def test_exhaustion_detected(self):
        writer = BitWriter()
        writer.write(1, 1)
        reader = BitReader(writer.getvalue())
        reader.read(8)  # padding allows up to the byte boundary
        with pytest.raises(ValueError, match="exhausted"):
            reader.read(1)

    @given(st.lists(st.tuples(st.integers(0, 2**16 - 1), st.integers(1, 16)), max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, pairs):
        writer = BitWriter()
        clipped = [(v % (1 << w), w) for v, w in pairs]
        for v, w in clipped:
            writer.write(v, w)
        reader = BitReader(writer.getvalue())
        for v, w in clipped:
            assert reader.read(w) == v


class TestPackUnpack:
    def tables(self, rng, g=2, n=40):
        filters = rng.integers(-3, 4, size=(g, n))
        return filters, build_filter_group_tables(filters)

    def test_round_trip_structures(self, rng):
        filters, tables = self.tables(rng)
        unpacked = unpack_tables(pack_tables(tables))
        assert unpacked.group_size == 2
        assert np.array_equal(unpacked.iit, tables.iit)
        assert np.array_equal(unpacked.transitions, tables.transitions)
        assert np.array_equal(unpacked.canonical, tables.canonical)

    def test_round_trip_execution(self, rng):
        """Tables rebuilt on the decoded canonical order are the decoded tables."""
        filters, tables = self.tables(rng)
        window = rng.integers(-9, 10, size=40)
        unpacked = unpack_tables(pack_tables(tables))
        rebuilt = build_filter_group_tables(filters, canonical=unpacked.canonical)
        assert np.array_equal(rebuilt.iit, unpacked.iit)
        assert np.array_equal(rebuilt.transitions, unpacked.transitions)
        assert np.array_equal(rebuilt.execute(window), filters @ window)

    def test_negative_weights_survive(self, rng):
        filters = np.array([[-7, 3, -7, 0]])
        tables = build_filter_group_tables(filters)
        unpacked = unpack_tables(pack_tables(tables))
        assert -7 in unpacked.canonical

    def test_bad_magic_rejected(self, rng):
        __, tables = self.tables(rng)
        data = bytearray(pack_tables(tables).data)
        data[0] ^= 0xFF
        with pytest.raises(ValueError, match="magic"):
            unpack_tables(bytes(data))

    def test_table_bits_match_model_size_accounting(self, rng):
        """The packed payload charges exactly the Figure 13 widths."""
        filters, tables = self.tables(rng, g=2, n=60)
        packed = pack_tables(tables, weight_bits=16)
        pointer = min_pointer_bits(tables.filter_size)
        expected = (
            tables.num_entries * (pointer + wit_bits_per_entry(2))
            + tables.num_unique * 16
        )
        assert packed.table_bits == expected

    def test_empty_tables_pack(self):
        tables = build_filter_group_tables(np.zeros((2, 5), dtype=np.int64))
        unpacked = unpack_tables(pack_tables(tables))
        assert unpacked.iit.size == 0


class TestPackLayer:
    def test_blob_count(self, rng):
        weights = rng.integers(-2, 3, size=(6, 8, 3, 3))
        blobs = pack_layer(weights, group_size=2, channel_tile=4)
        assert len(blobs) == 3 * 2  # 3 filter groups x 2 channel tiles

    def test_total_bits_scale_with_density(self, rng):
        dense = rng.integers(1, 3, size=(4, 8, 3, 3))
        sparse = dense.copy()
        sparse[rng.random(size=sparse.shape) < 0.6] = 0
        bits_dense = sum(b.table_bits for b in pack_layer(dense, 2))
        bits_sparse = sum(b.table_bits for b in pack_layer(sparse, 2))
        assert bits_sparse < bits_dense

    def test_every_blob_decodes(self, rng):
        weights = rng.integers(-2, 3, size=(4, 6, 3, 3))
        for blob in pack_layer(weights, group_size=2, channel_tile=3):
            unpacked = unpack_tables(blob)
            assert unpacked.group_size == 2
