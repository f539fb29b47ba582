"""Serving demo: an in-process `repro serve` instance under live load.

Starts the async server on an ephemeral port (thread-mode shards,
fresh cache directory), fires two closed-loop passes of mixed
design-point requests at it, and prints what the serving layer is for:

1. the cold pass pays for every distinct point once (misses fan out
   across the consistent-hash shard pool, duplicates coalesce), and
2. the warm pass answers everything from the content-addressed result
   cache — no worker touched, latency collapses.

Along the way it verifies one served value against a direct in-process
call: the response is bit-identical (see docs/api.md, "Parity").

Run:  python examples/serving_demo.py
"""

import tempfile

from repro.serve import (
    ServeClient,
    ServeConfig,
    ServerHandle,
    default_mix,
    resolve,
    run_load,
)

config = ServeConfig(
    port=0,                      # ephemeral: the OS picks a free port
    workers=2,                   # two shard workers
    mode="thread",               # in-process shards (demo-friendly)
    cache_dir=tempfile.mkdtemp(prefix="repro-serving-demo-"),
)

with ServerHandle(config) as handle:
    print(f"serving on 127.0.0.1:{handle.port} "
          f"({config.workers} {config.mode} shards)\n")

    # One request by hand: a Figure 11 design point over the wire, and
    # the same point computed directly — bit-identical values.
    kwargs = dict(network="lenet", layer_index=0, group_size=2, density=0.5)
    with ServeClient(port=handle.port) as client:
        served = client.request("runtime_point", **kwargs)
    direct = resolve("runtime_point")(**kwargs)
    assert served.value == direct, "serve-vs-direct parity broke!"
    print(f"runtime_point{tuple(kwargs.values())} = {served.value:.6f}"
          f"  (served == direct: {served.value == direct})")

    # Two closed-loop passes of the same 60-request mixed workload.
    mix = default_mix(60)
    for name in ("cold", "warm"):
        result = run_load("127.0.0.1", handle.port, mix, concurrency=6)
        s = result.stats
        print(f"\n{name} pass: {s.requests} requests in {s.seconds:.2f}s "
              f"({s.throughput_rps:.0f} req/s)")
        print(f"  hit rate {s.hit_rate:.0%}  coalesced {s.coalesced_rate:.0%}")
        print(f"  latency p50 {s.p50_ms:.2f} ms   p90 {s.p90_ms:.2f} ms   "
              f"p99 {s.p99_ms:.2f} ms")

    stats = handle.stats()
    print(f"\nserver totals: {stats['requests']} served — {stats['hits']} cache hits, "
          f"{stats['misses']} computed, {stats['coalesced']} coalesced")
    print(f"per-shard computed counts: {stats['per_shard']}")
