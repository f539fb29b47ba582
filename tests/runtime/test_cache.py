"""Tests for the content-addressed result cache."""

import numpy as np
import pytest

from repro.arch.config import ucnn_config
from repro.experiments.common import uniform_weight_provider
from repro.nn.tensor import ConvShape
from repro.runtime import ResultCache, cache_key, canonicalize, code_fingerprint
from repro.runtime.cache import MISS


def _point(x: int) -> int:
    return x * 2


class TestCanonicalize:
    def test_primitives_pass_through(self):
        assert canonicalize(3) == 3
        assert canonicalize("a") == "a"
        assert canonicalize(None) is None
        assert canonicalize(0.5) == 0.5

    def test_dataclass_keeps_identity_and_fields(self):
        shape = ConvShape(name="x", w=4, h=4, c=2, k=2, r=3, s=3, padding=1)
        out = canonicalize(shape)
        assert out["__dataclass__"].endswith("ConvShape")
        assert out["c"] == 2

    def test_distinct_dataclasses_differ(self):
        a = ConvShape(name="x", w=4, h=4, c=2, k=2, r=3, s=3, padding=1)
        b = ConvShape(name="x", w=4, h=4, c=2, k=4, r=3, s=3, padding=1)
        assert canonicalize(a) != canonicalize(b)

    def test_config_with_enum_kind(self):
        out = canonicalize(ucnn_config(17, 16))
        assert out["kind"]["__enum__"].endswith("DesignKind")

    def test_ndarray_hashes_content(self):
        a = canonicalize(np.arange(6).reshape(2, 3))
        b = canonicalize(np.arange(6).reshape(2, 3))
        c = canonicalize(np.arange(1, 7).reshape(2, 3))
        assert a == b
        assert a != c
        assert a["shape"] == [2, 3]

    def test_provider_dataclass_canonicalizes(self):
        out = canonicalize(uniform_weight_provider(17, 0.5, tag="t"))
        assert out["num_unique"] == 17

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            canonicalize(object())

    def test_mapping_key_types_do_not_alias(self):
        assert canonicalize({1: "v"}) != canonicalize({"1": "v"})

    def test_mapping_order_is_canonical(self):
        assert canonicalize({"a": 1, "b": 2}) == canonicalize({"b": 2, "a": 1})


class TestCacheKey:
    def test_deterministic(self):
        assert cache_key(_point, {"x": 1}) == cache_key(_point, {"x": 1})

    def test_kwargs_change_key(self):
        assert cache_key(_point, {"x": 1}) != cache_key(_point, {"x": 2})

    def test_function_identity_changes_key(self):
        assert cache_key(_point, {"x": 1}) != cache_key(code_fingerprint, {"x": 1})

    def test_code_version_changes_key(self):
        baseline = cache_key(_point, {"x": 1})
        bumped = cache_key(_point, {"x": 1}, fingerprint="v2")
        assert baseline != bumped


class TestCodeFingerprint:
    """The code version covers Python modules and the kernel's C source."""

    @pytest.fixture
    def package(self, tmp_path, monkeypatch):
        import repro

        root = tmp_path / "repro"
        (root / "engine").mkdir(parents=True)
        (root / "__init__.py").write_text("")
        (root / "engine" / "executor.py").write_text("x = 1\n")
        (root / "engine" / "_scan.c").write_text("int x;\n")
        monkeypatch.setattr(repro, "__file__", str(root / "__init__.py"))
        return root

    @staticmethod
    def fingerprint():
        return code_fingerprint.__wrapped__()  # bypass the per-process memo

    @pytest.mark.parametrize("source", ["engine/executor.py", "engine/_scan.c"])
    def test_source_edit_rotates_it(self, package, source):
        before = self.fingerprint()
        path = package / source
        path.write_text(path.read_text() + "\n")
        assert self.fingerprint() != before

    def test_build_products_do_not(self, package):
        before = self.fingerprint()
        (package / "engine" / "__pycache__").mkdir()
        (package / "engine" / "__pycache__" / "_scan.0123456789abcdef.so").write_bytes(b"\x7fELF")
        assert self.fingerprint() == before


class TestResultCache:
    def test_roundtrip_bit_identical(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = cache.key_for(_point, {"x": 1})
        value = {"arr": np.arange(5), "n": 3}
        cache.put(key, value)
        loaded = cache.get(key)
        assert loaded["n"] == 3
        assert np.array_equal(loaded["arr"], value["arr"])
        assert loaded["arr"].dtype == value["arr"].dtype

    def test_absent_key_misses(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        assert cache.get("0" * 64) is MISS

    def test_none_is_a_valid_cached_value(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.put("a" * 64, None)
        assert cache.get("a" * 64) is None

    def test_corrupt_entry_misses(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = "b" * 64
        cache.put(key, 1)
        cache.path_for(key).write_bytes(b"not a pickle")
        assert cache.get(key) is MISS

    def test_bumped_fingerprint_misses(self, tmp_path):
        v1 = ResultCache(root=tmp_path, fingerprint="v1")
        v2 = ResultCache(root=tmp_path, fingerprint="v2")
        key1 = v1.key_for(_point, {"x": 1})
        v1.put(key1, 2)
        assert v1.get(key1) == 2
        key2 = v2.key_for(_point, {"x": 1})
        assert key2 != key1
        assert v2.get(key2) is MISS

    def test_stats_and_clear(self, tmp_path):
        cache = ResultCache(root=tmp_path / "c")
        assert cache.stats().entries == 0
        cache.put("c" * 64, [1, 2, 3])
        cache.put("d" * 64, "x")
        stats = cache.stats()
        assert stats.entries == 2
        assert stats.bytes > 0
        assert cache.clear() == 2
        assert cache.stats().entries == 0

    def test_clear_spares_unrelated_files(self, tmp_path):
        """A user-supplied --cache-dir may hold non-cache files."""
        cache = ResultCache(root=tmp_path)
        cache.put("e" * 64, 1)
        notebook = tmp_path / "notes.txt"
        notebook.write_text("keep me")
        assert cache.clear() == 1
        assert notebook.read_text() == "keep me"

    def test_clear_reclaims_orphaned_tmp_files(self, tmp_path):
        """Interrupted put() leaves .tmp files; clear sweeps them too."""
        cache = ResultCache(root=tmp_path)
        key = "f" * 64
        cache.put(key, 1)
        orphan = cache.path_for(key).with_suffix(".tmp12345")
        orphan.write_bytes(b"partial write")
        assert cache.stats().bytes > cache.path_for(key).stat().st_size
        assert cache.clear() == 1
        assert not orphan.exists()
        assert cache.stats().bytes == 0
