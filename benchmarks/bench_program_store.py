"""Bench: program artifact store — cold compile vs artifact-warm start.

The compile-once / load-many story in numbers.  Node A compiles a
two-conv network's engine programs from scratch (**cold**), serializes
the program cache into a local artifact store (**save**), and pushes
the blobs to a live cache peer, as ``repro cache push`` does.  Node B —
a fresh program cache and an empty directory, as after a new worker
joins the ring — runs the same ``compile_network`` call with the
artifact tier installed (**warm**): the miss loads the ``net:`` program
from the peer, with **zero** compile misses.

Both sides then execute the same batch; outputs must be bit-identical.
The gated floor at full scale: artifact-warm start beats cold compile
by at least 5x.

Recorded under ``benchmarks/results/``; when
``REPRO_BENCH_PROGRAMS_JSON`` is set (nightly CI) the raw passes are
also written there as the ``BENCH_programs.json`` artifact.
``REPRO_BENCH_SMOKE=1`` shrinks the network.
"""

import hashlib
import tempfile
import time
from pathlib import Path

import numpy as np
from conftest import run_once, smoke_mode, write_bench_json

from repro.engine import compile_network, execute_network
from repro.engine.artifacts import ProgramArtifactTier, ProgramStore
from repro.engine.program import clear_program_cache, program_cache_info, set_artifact_tier
from repro.nn.layers import (
    ConvLayer,
    FlattenLayer,
    FullyConnectedLayer,
    MaxPoolLayer,
    ReluLayer,
)
from repro.nn.network import Network
from repro.nn.tensor import ConvShape, TensorShape
from repro.quant.distributions import uniform_unique_weights
from repro.runtime import CachePeer, HTTPPeerTier, push_all

#: (input channels, conv1 filters, conv2 filters, spatial size).
FULL_SHAPE = (16, 256, 128, 32)
SMOKE_SHAPE = (8, 32, 16, 16)

#: Timing passes take the best of this many repeats — compile and
#: artifact load both jitter with CPU frequency scaling.
REPEATS = 3


def _build_network(smoke: bool) -> Network:
    """The bench network: conv-pool-conv-fc with UCNN-quantized weights."""
    c, k1, k2, size = SMOKE_SHAPE if smoke else FULL_SHAPE
    u, density = 17, 0.9
    rng = np.random.default_rng(11)
    s1 = ConvShape(name="conv1", w=size, h=size, c=c, k=k1, r=3, s=3, padding=1)
    conv1 = ConvLayer(s1, uniform_unique_weights(s1.weight_shape, u, density, rng).values)
    pooled = MaxPoolLayer(2, 2).output_shape(s1.output_shape)
    s2 = ConvShape(name="conv2", w=pooled.w, h=pooled.h, c=pooled.c,
                   k=k2, r=3, s=3, padding=1)
    conv2 = ConvLayer(s2, uniform_unique_weights(s2.weight_shape, u, density, rng).values)
    features = s2.output_shape.size
    fc = FullyConnectedLayer(
        10, features,
        uniform_unique_weights((10, features), u, density, rng).values, name="fc")
    return Network("bench-programs", TensorShape(c, size, size), [
        conv1, ReluLayer("relu1"), MaxPoolLayer(2, 2, "pool1"),
        conv2, ReluLayer("relu2"), FlattenLayer("flatten"), fc])


def _checksum(out: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()[:16]


def _passes(smoke: bool) -> dict:
    net = _build_network(smoke)
    c, _, _, size = SMOKE_SHAPE if smoke else FULL_SHAPE
    images = np.random.default_rng(3).integers(-16, 17, size=(2, c, size, size))
    base = Path(tempfile.mkdtemp(prefix="repro-bench-programs-"))

    # Node A: cold compile (fresh cache each repeat), then execute.
    cold_s = float("inf")
    for _ in range(REPEATS):
        clear_program_cache()
        started = time.perf_counter()
        program = compile_network(net, group_size=1)
        cold_s = min(cold_s, time.perf_counter() - started)
    cold_info = program_cache_info()
    cold_out = execute_network(program, images, threads=1)

    # Node A: serialize the entire program cache into the local store
    # and push the blobs to the fleet's cache peer.
    with CachePeer(root=base / "peer") as peer:
        store_a = ProgramStore(root=base / "node-a")
        started = time.perf_counter()
        saved = store_a.save_cached()
        save_s = time.perf_counter() - started
        pushed = push_all(store_a.cache, HTTPPeerTier.for_bulk(peer.url))
        # Node B: an empty directory each repeat, same peer — the miss
        # reads the artifact through from the peer.
        warm_s = float("inf")
        for repeat in range(REPEATS):
            clear_program_cache()
            tier = ProgramArtifactTier(
                ProgramStore(root=base / f"node-b{repeat}", remote=peer.url))
            previous = set_artifact_tier(tier)
            try:
                started = time.perf_counter()
                warm_program = compile_network(net, group_size=1)
                warm_s = min(warm_s, time.perf_counter() - started)
            finally:
                set_artifact_tier(previous)
                tier.close()
    warm_info = program_cache_info()
    warm_out = execute_network(warm_program, images, threads=1)

    return {
        "cold": {"elapsed_s": cold_s, "misses": cold_info["misses"],
                 "checksum": _checksum(cold_out)},
        "save": {"elapsed_s": save_s, "programs": saved,
                 "bytes": store_a.stats()["bytes"]},
        "push": {"copied": pushed.copied, "failed": pushed.failed},
        "warm": {"elapsed_s": warm_s, "misses": warm_info["misses"],
                 "artifact_hits": warm_info["artifact_hits"],
                 "checksum": _checksum(warm_out)},
    }


def test_bench_program_store(benchmark, record_result):
    smoke = smoke_mode()
    passes = run_once(benchmark, _passes, smoke)
    cold, save, warm = passes["cold"], passes["save"], passes["warm"]
    speedup = cold["elapsed_s"] / warm["elapsed_s"] if warm["elapsed_s"] else 0.0

    rows = [
        ("cold compile", f"{cold['elapsed_s'] * 1000:.1f}", cold["misses"], "1.0x"),
        ("artifact save", f"{save['elapsed_s'] * 1000:.1f}", save["programs"], "-"),
        ("warm start", f"{warm['elapsed_s'] * 1000:.1f}", warm["misses"],
         f"{speedup:.1f}x"),
    ]
    data = {
        "cold_compile_s": cold["elapsed_s"],
        "artifact_save_s": save["elapsed_s"],
        "warm_start_s": warm["elapsed_s"],
        "warm_speedup": speedup,
        "store_bytes": save["bytes"],
        "passes": passes,
    }
    record_result(
        "program_store",
        ("pass", "ms", "compiles/programs", "vs cold"),
        rows,
        data=data,
    )
    write_bench_json("REPRO_BENCH_PROGRAMS_JSON", "programs", data)

    # Accounting floors (timing-free, CI-safe):
    assert cold["misses"] == save["programs"] > 0
    # Every artifact reached the peer.
    assert passes["push"] == {"copied": save["programs"], "failed": 0}
    # Node B served from artifacts alone: zero compile misses ...
    assert warm["artifact_hits"] >= 1
    assert warm["misses"] == 0
    # ... and the outputs are bit-identical to node A's.
    assert warm["checksum"] == cold["checksum"]
    if not smoke:
        # At full scale, warm-starting from artifacts crushes recompiling.
        assert speedup >= 5.0, f"warm speedup {speedup:.2f}x below the 5x floor"
