"""Tests for the compiled-program artifact store (repro.engine.artifacts).

Round trips must be bit-identical in execution; every corruption,
truncation, version bump, or stale-fingerprint path must be a clean
:class:`ArtifactError` — never a crash, never a wrong result.
"""

import copy
import dataclasses
import json
import os
import socket
import struct
import tempfile
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import artifacts as A
from repro.engine import (
    clear_program_cache,
    compile_network,
    compiled_layer_for,
    execute_network,
    execute_program,
    program_cache_info,
)
from repro.engine.fusion import ConvStep, FallbackStep, NetworkProgram
from repro.engine.program import KERNEL_ARRAYS, cached_programs, set_artifact_tier

_RNG = np.random.default_rng(20260807)


def _weights(seed=0, k=6, n=18):
    return np.random.default_rng(seed).integers(-4, 5, size=(k, n))


def _layer(seed=0, k=6, n=18):
    clear_program_cache()
    return compiled_layer_for(_weights(seed, k, n), group_size=2)


def _with_tier(store, run):
    """``run()`` with a tier over ``store`` installed; the tier is drained and closed."""
    tier = A.ProgramArtifactTier(store)
    previous = set_artifact_tier(tier)
    try:
        result = run()
        tier.drain()
        return result
    finally:
        set_artifact_tier(previous)
        tier.close()


def _network():
    from repro.serve.endpoints import network_forward

    clear_program_cache()
    network_forward(seed=5, batch=1)
    progs = cached_programs()
    return next(v for k, v in progs.items() if k.startswith("net:"))


def _lenet():
    """The zoo's LeNet with U=17, 90%-dense weights on every weighted layer."""
    from repro.nn.layers import ConvLayer, FullyConnectedLayer
    from repro.nn.zoo import lenet_cifar10
    from repro.quant.distributions import uniform_unique_weights

    net = lenet_cifar10()
    rng = np.random.default_rng(11)
    for layer in net.layers:
        if isinstance(layer, ConvLayer):
            shape = layer.shape.weight_shape
        elif isinstance(layer, FullyConnectedLayer):
            shape = (layer.out_features, layer.in_features)
        else:
            continue
        layer.set_weights(uniform_unique_weights(shape, 17, 0.9, rng).values)
    return net


def _forged(program, **fields):
    """A copy of ``program`` with ``fields`` swapped in, skipping its construction checks."""
    forged = copy.copy(program)
    for name, value in fields.items():
        object.__setattr__(forged, name, value)
    return forged


# One envelope reused by the hypothesis corruption tests.
_BLOB = A.serialize_program(_layer())


class TestRoundTrip:
    def test_compiled_layer_bit_identical(self, rng):
        layer = _layer(seed=1)
        again = A.deserialize_program(A.serialize_program(layer),
                                      expected_key=layer.key)
        assert type(again) is type(layer)
        assert again.key == layer.key
        windows = rng.integers(-9, 10, size=(40, layer.program.filter_size))
        assert np.array_equal(execute_program(layer.program, windows),
                              execute_program(again.program, windows))
        assert np.array_equal(layer.canonical, again.canonical)
        assert len(again.groups) == len(layer.groups)
        for t1, t2 in zip(layer.groups, again.groups):
            for field in ("filters", "canonical", "iit", "transitions", "skip_needs"):
                a, b = getattr(t1, field), getattr(t2, field)
                assert a.dtype == b.dtype and np.array_equal(a, b), field
            assert t1.max_group_size == t2.max_group_size
            assert t1.stats() == t2.stats()

    def test_network_program_bit_identical(self, rng):
        program = _network()
        again = A.deserialize_program(A.serialize_program(program))
        assert isinstance(again, NetworkProgram)
        assert again.key == program.key
        assert [type(s).__name__ for s in again.steps] == [
            type(s).__name__ for s in program.steps]
        batch = rng.integers(-16, 17, size=(2, *program.input_shape))
        assert np.array_equal(execute_network(program, batch), execute_network(again, batch))

    def test_conv_step_table_program_bit_identical(self, rng):
        """The ``TableProgram`` codec inside ``net:`` conv steps keeps every kernel array."""
        program = compile_network(_lenet())
        again = A.deserialize_program(A.serialize_program(program))
        pairs = [(s.program, t.program) for s, t in zip(program.steps, again.steps)
                 if isinstance(s, ConvStep)]
        assert len(pairs) == 5  # two convs and three FC layers lowered to 1x1 convs
        for mine, theirs in pairs:
            for name in KERNEL_ARRAYS:
                assert np.array_equal(getattr(mine, name), getattr(theirs, name)), name
            assert ((theirs.num_filters, theirs.filter_size, theirs.num_groups, theirs.key)
                    == (mine.num_filters, mine.filter_size, mine.num_groups, mine.key))
            windows = rng.integers(-9, 10, size=(25, mine.filter_size))
            assert np.array_equal(execute_program(mine, windows), execute_program(theirs, windows))

    def test_fc_conv_step_round_trips(self, rng):
        """A network whose FC layers lowered to 1x1 conv steps, one flattened first."""
        from repro.nn.layers import ConvLayer, FullyConnectedLayer
        from repro.nn.network import Network
        from repro.nn.tensor import ConvShape, TensorShape

        s1 = ConvShape(name="c1", w=6, h=6, c=2, k=4, r=3, s=3)
        n = s1.output_shape.size
        net = Network("conv-fc-fc", TensorShape(2, 6, 6), [
            ConvLayer(s1, rng.integers(-3, 4, size=s1.weight_shape)),
            FullyConnectedLayer(5, n, rng.integers(-3, 4, size=(5, n)), name="fc1"),
            FullyConnectedLayer(3, 5, rng.integers(-3, 4, size=(3, 5)), name="fc2"),
        ])
        clear_program_cache()
        program = compile_network(net)
        again = A.deserialize_program(A.serialize_program(program), expected_key=program.key)
        kinds = [(type(s).__name__, s.name) for s in again.steps]
        assert kinds == [("ConvStep", "c1"), ("FlattenStep", "fc1"),
                         ("ConvStep", "fc1"), ("ConvStep", "fc2")]
        for mine, theirs in zip(program.steps, again.steps):
            assert mine.in_shape == theirs.in_shape and mine.out_shape == theirs.out_shape
        entries = [[s.program.num_entries for s in p.steps[2:]] for p in (program, again)]
        assert entries[0] == entries[1]
        batch = rng.integers(-16, 17, size=(3, 2, 6, 6))
        assert np.array_equal(execute_network(again, batch), np.stack([net.forward(x) for x in batch]))

    def test_decoded_arrays_are_writable(self):
        again = A.deserialize_program(_BLOB)
        for tables in again.groups:
            for field in ("filters", "canonical", "iit", "transitions", "skip_needs"):
                assert getattr(tables, field).flags.writeable, field


class TestRejection:
    def test_version_bump_rejected(self):
        layer = _layer(seed=2)
        blob = A.serialize_program(layer)
        # Rebuild the envelope with a bumped schema_version, re-signing
        # both digests — only the version check can reject it.
        hlen = struct.unpack(">I", blob[8:12])[0]
        header = json.loads(blob[12:12 + hlen])
        header["schema_version"] = A.SCHEMA_VERSION + 1
        payload = blob[12 + hlen:-32]
        import hashlib
        hj = json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
        body = A.MAGIC + struct.pack(">I", len(hj)) + hj + payload
        forged = body + hashlib.sha256(body).digest()
        with pytest.raises(A.ArtifactError, match="schema_version"):
            A.deserialize_program(forged)

    def test_out_of_range_gather_index_rejected(self):
        """A signed blob whose gather points past the window fails at decode.

        The kernel's takes run unchecked, so the program's constructor is
        what keeps such an index from ever reaching execution.
        """
        program = compile_network(_lenet())
        conv = program.steps[0]
        gather = conv.program.gather.copy()
        gather[0] = conv.program.filter_size  # one past the last window column
        steps = (dataclasses.replace(conv, program=_forged(conv.program, gather=gather)),)
        blob = A.serialize_program(_forged(program, steps=steps + program.steps[1:]))
        with pytest.raises(A.ArtifactError, match="gather indices"):
            A.deserialize_program(blob)

    @pytest.mark.parametrize("field", ["num_filters", "num_entries", "num_unique"])
    @pytest.mark.parametrize("damage, message", [
        ("grow", "counts do not match"),
        ("shrink", "counts do not match"),
        ("drop", "counts do not match"),
        ("negative", "non-negative ints"),
    ])
    def test_group_counts_must_match_the_stored_arrays(self, field, damage, message):
        """Re-signed per-group counts that disagree with the field arrays are rejected."""
        layer = _layer(seed=9, k=6, n=18)
        assert len(layer.groups) == 3
        blob = A.serialize_program(layer)
        hlen = struct.unpack(">I", blob[8:12])[0]
        header = json.loads(blob[12:12 + hlen])
        counts = header["meta"]["groups"][field]
        assert min(counts) > 0
        if damage == "grow":
            counts[0] += 1
        elif damage == "shrink":
            counts[-1] -= 1
        elif damage == "drop":
            counts.pop()
        else:
            counts[1] = -counts[1]
        import hashlib
        hj = json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
        body = A.MAGIC + struct.pack(">I", len(hj)) + hj + blob[12 + hlen:-32]
        with pytest.raises(A.ArtifactError, match=message):
            A.deserialize_program(body + hashlib.sha256(body).digest())

    def test_stale_fingerprint_rejected(self):
        layer = _layer(seed=3)
        blob = A.serialize_program(layer, fingerprint="0123456789abcdef")
        with pytest.raises(A.ArtifactError, match="stale"):
            A.deserialize_program(blob)
        # ...but the matching fingerprint round-trips.
        assert A.deserialize_program(blob, fingerprint="0123456789abcdef")

    def test_wrong_key_rejected(self):
        with pytest.raises(A.ArtifactError, match="key mismatch"):
            A.deserialize_program(_BLOB, expected_key="layer:g1:m16:c1:" + "0" * 64)

    def test_bad_magic_rejected(self):
        with pytest.raises(A.ArtifactError, match="magic"):
            A.deserialize_program(b"NOTMAGIC" + _BLOB[8:])

    def test_non_artifact_bytes_rejected(self):
        for junk in (b"", b"x", b"{}", bytes(64)):
            with pytest.raises(A.ArtifactError):
                A.deserialize_program(junk)

    def test_fallback_step_rejected(self):
        program = _network()
        bad = NetworkProgram(
            name=program.name, input_shape=program.input_shape,
            output_shape=program.output_shape,
            steps=program.steps + (FallbackStep(
                name="opaque", layer=object(),
                in_shape=program.output_shape, out_shape=program.output_shape),),
            key=program.key)
        with pytest.raises(A.ArtifactError, match="fallback"):
            A.serialize_program(bad)

    def test_net_steps_that_disagree_are_rejected_at_decode(self):
        """LeNet with conv1's program swapped for conv2's is a clean ArtifactError.

        Execution would fail on every request (conv2's program reads
        windows of 800, conv1's taps are 75), so a prewarmed store must
        never install it.
        """
        program = compile_network(_lenet())
        steps = {s.name: s for s in program.steps}
        swapped = tuple(
            dataclasses.replace(s, program=steps["conv2"].program) if s.name == "conv1" else s
            for s in program.steps)
        with pytest.raises(ValueError, match="conv1"):
            dataclasses.replace(program, steps=swapped)
        blob = A.serialize_program(_forged(program, steps=swapped))
        with pytest.raises(A.ArtifactError, match="conv step 'conv1'"):
            A.deserialize_program(blob)

    @pytest.mark.parametrize("edit, message", [
        ({"out_shape": (32, 15, 15)}, "geometry gives"),  # floor mode; ceil mode gives 16
        ({"kind": "median"}, "unknown kind"),  # would run as average pooling
    ])
    def test_net_pool_step_that_disagrees_is_rejected_at_decode(self, edit, message):
        program = compile_network(_lenet())
        steps = tuple(dataclasses.replace(s, **edit) if s.name == "pool1" else s
                      for s in program.steps)
        blob = A.serialize_program(_forged(program, steps=steps))
        with pytest.raises(A.ArtifactError, match=message):
            A.deserialize_program(blob)

    def test_net_codec_stores_no_plan(self):
        program = compile_network(_lenet())
        blob = A.serialize_program(program)
        hlen = struct.unpack(">I", blob[8:12])[0]
        assert "plan" not in json.loads(blob[12:12 + hlen])["meta"]
        again = A.deserialize_program(blob)
        assert again.plan == program.plan

    def test_group_table_without_final_transition_rejected(self):
        """A re-signed ``layer:`` blob whose group tables lose their last boundary fails at decode.

        The per-entry walk would otherwise drop that group's final MAC
        from every crosscheck and every ``stats()`` count.
        """
        layer = _layer(seed=4)
        tables = layer.groups[0]
        transitions = tables.transitions.copy()
        transitions[:, -1] = False
        groups = (_forged(tables, transitions=transitions),) + layer.groups[1:]
        blob = A.serialize_program(_forged(layer, groups=groups))
        with pytest.raises(A.ArtifactError, match="transition bit"):
            A.deserialize_program(blob)

    def test_table_program_term_past_its_group_rejected(self):
        program = compile_network(_lenet())
        conv = program.steps[0]
        cols = conv.program.cols.copy()
        cols[0] = conv.program.group_entries[1]  # one past the first group's last entry
        steps = (dataclasses.replace(conv, program=_forged(conv.program, cols=cols)),)
        blob = A.serialize_program(_forged(program, steps=steps + program.steps[1:]))
        with pytest.raises(A.ArtifactError, match="outside its group"):
            A.deserialize_program(blob)

    def test_net_step_term_past_its_group_rejected(self):
        program = compile_network(_lenet())
        conv = program.steps[0]
        cols = conv.program.cols.copy()
        cols[-1] = conv.program.num_entries  # past every group
        steps = (dataclasses.replace(conv, program=_forged(conv.program, cols=cols)),)
        blob = A.serialize_program(_forged(program, steps=steps + program.steps[1:]))
        with pytest.raises(A.ArtifactError, match="outside its group"):
            A.deserialize_program(blob)

    def test_unkeyed_program_rejected(self):
        layer = _layer(seed=4)
        assert layer.program.key == layer.key  # the whole-layer program carries its layer's key
        with pytest.raises(A.ArtifactError, match="key"):
            A.serialize_program(dataclasses.replace(layer, key=None))

    def test_non_program_rejected(self):
        with pytest.raises(A.ArtifactError, match="cannot serialize"):
            A.serialize_program({"not": "a program"})


class TestEngineFingerprint:
    """The artifact code version covers the engine's Python and C sources."""

    @pytest.fixture
    def package(self, tmp_path, monkeypatch):
        import repro.core
        import repro.engine

        root = tmp_path / "repro"
        for sub in ("engine", "core"):
            (root / sub).mkdir(parents=True)
            (root / sub / "__init__.py").write_text("")
            monkeypatch.setattr(getattr(repro, sub), "__file__", str(root / sub / "__init__.py"))
        (root / "engine" / "executor.py").write_text("x = 1\n")
        (root / "engine" / "_scan.c").write_text("int x;\n")
        (root / "core" / "hierarchical.py").write_text("y = 2\n")
        return root

    @staticmethod
    def fingerprint(monkeypatch):
        monkeypatch.setattr(A, "_FINGERPRINT_MEMO", None)  # bypass the per-process memo
        return A.engine_fingerprint()

    @pytest.mark.parametrize("source", ["engine/executor.py", "engine/_scan.c", "core/hierarchical.py"])
    def test_source_edit_rotates_it(self, package, monkeypatch, source):
        before = self.fingerprint(monkeypatch)
        path = package / source
        path.write_text(path.read_text() + "\n")
        assert self.fingerprint(monkeypatch) != before

    def test_build_products_do_not(self, package, monkeypatch):
        before = self.fingerprint(monkeypatch)
        (package / "engine" / "__pycache__").mkdir()
        (package / "engine" / "__pycache__" / "_scan.0123456789abcdef.so").write_bytes(b"\x7fELF")
        assert self.fingerprint(monkeypatch) == before


class TestCorruptionProperties:
    """The trailing whole-envelope digest catches *any* byte damage."""

    @settings(max_examples=120, deadline=None)
    @given(pos=st.integers(0, len(_BLOB) - 1), flip=st.integers(1, 255))
    def test_any_byte_flip_rejected(self, pos, flip):
        bad = bytearray(_BLOB)
        bad[pos] ^= flip
        with pytest.raises(A.ArtifactError):
            A.deserialize_program(bytes(bad))

    @settings(max_examples=60, deadline=None)
    @given(cut=st.integers(0, len(_BLOB) - 1))
    def test_any_truncation_rejected(self, cut):
        with pytest.raises(A.ArtifactError):
            A.deserialize_program(_BLOB[:cut])

    @settings(max_examples=60, deadline=None)
    @given(extra=st.binary(min_size=1, max_size=64))
    def test_any_suffix_rejected(self, extra):
        with pytest.raises(A.ArtifactError):
            A.deserialize_program(_BLOB + extra)


class TestProgramStore:
    def test_save_load_round_trip(self, tmp_path, rng):
        layer = _layer(seed=6)
        store = A.ProgramStore(root=tmp_path)
        assert store.save(layer.key, layer)
        again = store.load(layer.key)
        windows = rng.integers(-9, 10, size=(10, layer.program.filter_size))
        assert np.array_equal(execute_program(layer.program, windows),
                              execute_program(again.program, windows))
        assert store.artifacts()[layer.key]["kind"] == A.KIND_LAYER

    def test_load_absent_returns_none(self, tmp_path):
        assert A.ProgramStore(root=tmp_path).load("layer:g1:m16:c1:" + "0" * 64) is None

    def test_stale_blob_load_returns_none(self, tmp_path):
        layer = _layer(seed=7)
        writer = A.ProgramStore(root=tmp_path, fingerprint="feedface12345678")
        assert writer.save(layer.key, layer)
        reader = A.ProgramStore(root=tmp_path)  # live fingerprint differs
        assert reader.load(layer.key) is None
        assert reader.stats()["stale"] == 1

    def test_save_unserializable_returns_false(self, tmp_path):
        store = A.ProgramStore(root=tmp_path)
        assert not store.save("net:bad", object())
        assert store.stats()["save_rejected"] == 1

    def test_store_key_is_blob_key_shaped(self):
        from repro.runtime.tiers import KEY_RE

        assert KEY_RE.fullmatch(A.ProgramStore.store_key("layer:g2:m16:c1:abc"))

    def test_magic_literals_pinned_to_cache_breakdown(self, tmp_path):
        """cache.py duplicates the magic prefix; keep them in sync."""
        assert A.MAGIC == b"RPROGART"
        layer = _layer(seed=8)
        store = A.ProgramStore(root=tmp_path)
        store.save(layer.key, layer)
        assert {g.fn for g in store.cache.breakdown()} == {"(program-artifact)"}

    def test_artifacts_read_only_valid_artifact_blobs(self, tmp_path):
        """Result entries and torn artifacts are skipped; headers supply every field."""
        store = A.ProgramStore(root=tmp_path)
        layers = [_layer(seed=s) for s in (9, 10)]
        for layer in layers:
            assert store.save(layer.key, layer)
        store.cache.put("ab" * 32, {"a": "result"})
        torn = store.store_key(layers[1].key)
        store.cache.put_blob(torn, store.cache.get_blob(torn)[:-1])
        (entry,) = store.artifacts().items()
        assert entry == (layers[0].key, {
            "kind": A.KIND_LAYER, "engine": A.engine_fingerprint(),
            "bytes": len(store.cache.get_blob(store.store_key(layers[0].key)))})

    def test_artifacts_after_eviction_lists_the_blobs_left(self, tmp_path):
        """Eviction drops blobs; the listing is read from what is left on disk."""
        store = A.ProgramStore(root=tmp_path)
        layers = [_layer(seed=20 + i) for i in range(5)]
        paths = [store.cache.path_for(store.store_key(layer.key)) for layer in layers]
        for age, (layer, path) in enumerate(zip(layers, paths)):
            assert store.save(layer.key, layer)
            os.utime(path, (1_000_000 + age, 1_000_000 + age))  # oldest first
        total = sum(path.stat().st_size for path in paths)
        assert store.cache.evict(total - 1) == 1  # only the oldest goes
        listed = store.artifacts()
        assert set(listed) == {layer.key for layer in layers[1:]}
        assert {store.store_key(key) for key in listed} == set(store.cache.iter_keys())
        assert store.stats()["programs"] == 4


def _hung_peer():
    """A listening socket that accepts connections and never answers."""
    hung = socket.socket()
    hung.bind(("127.0.0.1", 0))
    hung.listen(16)
    return hung, f"http://127.0.0.1:{hung.getsockname()[1]}"


class TestFleetSync:
    def test_read_through_from_peer_zero_misses(self):
        """Node A compiles and pushes; node B loads the net: program from the peer."""
        from repro.runtime.peer import CachePeer
        from repro.serve.endpoints import network_forward

        with tempfile.TemporaryDirectory() as peer_root, \
             tempfile.TemporaryDirectory() as a_root, \
             tempfile.TemporaryDirectory() as b_root, \
             CachePeer(root=peer_root, port=0) as peer:
            clear_program_cache()
            ref = _with_tier(A.ProgramStore(root=a_root, remote=peer.url),
                             lambda: network_forward(seed=13, batch=2))
            assert ref["parity"]
            clear_program_cache()
            res = _with_tier(A.ProgramStore(root=b_root, remote=peer.url),
                             lambda: network_forward(seed=13, batch=2))
            info = program_cache_info()
        assert info["misses"] == 0, f"warm node compiled: {info}"
        assert info["artifact_hits"] == 1  # the net: program carries its layers
        assert res["out_checksum"] == ref["out_checksum"]
        assert res["program_key"] == ref["program_key"]

    def test_stale_fleet_artifact_is_a_load_miss(self):
        from repro.runtime.peer import CachePeer

        layer = _layer(seed=14)
        with tempfile.TemporaryDirectory() as peer_root, \
             tempfile.TemporaryDirectory() as a_root, \
             tempfile.TemporaryDirectory() as b_root, \
             CachePeer(root=peer_root, port=0) as peer:
            old = A.ProgramStore(root=a_root, remote=peer.url,
                                 fingerprint="00000000deadbeef")
            tier = A.ProgramArtifactTier(old)
            tier.offer(layer.key, layer)
            tier.close()
            assert peer.stats_payload()["entries"] == 1
            new = A.ProgramStore(root=b_root, remote=peer.url)
            assert new.load(layer.key) is None
            assert new.stats()["load_failures"] == 1
            assert new.artifacts() == {}  # never landed locally
            clear_program_cache()
            _with_tier(new, lambda: compiled_layer_for(_weights(14), group_size=2))
            info = program_cache_info()
        assert info["misses"] == 1 and info["artifact_hits"] == 0

    def test_read_through_without_remote_uses_local_dir(self, tmp_path):
        layer = _layer(seed=15)
        A.ProgramStore(root=tmp_path).save(layer.key, layer)
        clear_program_cache()
        _with_tier(A.ProgramStore(root=tmp_path),
                   lambda: compiled_layer_for(_weights(15), group_size=2))
        info = program_cache_info()
        assert info["entries"] == 1 and info["misses"] == 0 and info["artifact_hits"] == 1

    def test_load_survives_dead_peer(self, tmp_path):
        store = A.ProgramStore(root=tmp_path, remote="http://127.0.0.1:9",
                               remote_timeout=0.2)
        assert store.load("layer:g1:m16:c1:" + "0" * 64) is None  # must not raise

    def test_concurrent_write_back_loses_nothing(self, tmp_path):
        """Two nodes push 60 programs through one peer at once; a third compiles none."""
        from repro.runtime.peer import CachePeer

        weights = [_weights(100 + i, k=4, n=12) for i in range(60)]
        with CachePeer(root=tmp_path / "peer", port=0) as peer:
            clear_program_cache()
            layers = [compiled_layer_for(w, group_size=2) for w in weights]
            tiers = [A.ProgramArtifactTier(A.ProgramStore(root=tmp_path / name,
                                                          remote=peer.url))
                     for name in ("a", "b")]

            def write_back(tier, share):
                for layer in share:
                    tier.offer(layer.key, layer)
                tier.drain()

            threads = [threading.Thread(target=write_back, args=(tier, layers[i::2]))
                       for i, tier in enumerate(tiers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            for tier in tiers:
                assert tier.stats()["stored"] == 30
                tier.close()
            clear_program_cache()
            _with_tier(A.ProgramStore(root=tmp_path / "c", remote=peer.url),
                       lambda: [compiled_layer_for(w, group_size=2) for w in weights])
            info = program_cache_info()
        assert info["misses"] == 0 and info["artifact_hits"] == 60

    def test_hung_peer_opens_the_breaker(self, tmp_path):
        """Read-through misses stop waiting on a peer that never answers."""
        hung, url = _hung_peer()
        tier = A.ProgramArtifactTier(
            A.ProgramStore(root=tmp_path, remote=url, remote_timeout=0.2))
        waits = []
        with hung:
            for i in range(6):
                started = time.monotonic()
                assert tier.fetch(f"layer:g1:m16:c1:{i:064x}") is None
                waits.append(time.monotonic() - started)
        tier.close()
        remote = tier.store.remote.stats()
        assert remote["errors"] == 3 and remote["skipped"] == 3 and remote["breaker_open"]
        assert max(waits[3:]) < 0.15 <= min(waits[:3])


class TestArtifactTier:
    def test_read_through_and_write_back(self, tmp_path, rng):
        layer = _layer(seed=16)
        store = A.ProgramStore(root=tmp_path)
        tier = A.ProgramArtifactTier(store)
        try:
            assert tier.fetch(layer.key) is None  # cold store
            tier.offer(layer.key, layer)
            tier.drain()
            warm = tier.fetch(layer.key)
            assert warm is not None and warm.key == layer.key
            stats = tier.stats()
            assert stats["stored"] == 1 and stats["fetch_hits"] == 1
        finally:
            tier.close()

    def test_offer_of_unserializable_is_harmless(self, tmp_path):
        tier = A.ProgramArtifactTier(A.ProgramStore(root=tmp_path))
        try:
            tier.offer("net:bad", object())
            tier.drain()
            assert tier.stats()["store_failures"] == 1
        finally:
            tier.close()
