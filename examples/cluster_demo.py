"""Cluster demo: a 3-node serving fabric on one machine.

Starts a `repro frontend` and three `repro worker` nodes in process
(ephemeral ports, thread-mode shards, fresh cache directories, shared
HMAC secret), then shows the three things the fabric adds on top of a
single server:

1. **routing** — a prioritized mixed workload fans out over the
   consistent-hash ring; the same design point always lands on the
   same worker, so each worker's cache stays warm for its key range;
2. **admission** — a deliberately tight low-priority token bucket
   sheds background traffic with a 503 while high-priority requests
   ride through untouched;
3. **failover** — one worker leaves and the ring hands its key range
   to the survivors without disturbing anyone else's.

Run:  python examples/cluster_demo.py
"""

import collections
import tempfile
from pathlib import Path

from repro.fabric import FrontendConfig, FrontendHandle, WorkerNode
from repro.serve import ServeConfig, ServeClient, run_load

SECRET = "cluster-demo-secret"
base = Path(tempfile.mkdtemp(prefix="repro-cluster-demo-"))


def worker_config(name: str) -> ServeConfig:
    return ServeConfig(port=0, workers=2, mode="thread",
                       cache_dir=str(base / name / "cache"), auth_secret=SECRET)


def prioritized_mix(n: int) -> list[tuple]:
    """Interactive (high) and background (low) design-point requests."""
    mix = []
    for i in range(n):
        kwargs = dict(network="lenet", layer_index=i % 3, group_size=2,
                      density=0.5, num_unique=17 + (i % 12))
        mix.append(("runtime_point", kwargs, "high" if i % 3 == 0 else "low"))
    return mix


frontend = FrontendHandle(FrontendConfig(
    port=0,
    heartbeat_timeout=1.0,
    rates={"low": 4.0},          # tight on purpose: the demo sheds
    auth_secret=SECRET,
))

with frontend:
    print(f"front-end on 127.0.0.1:{frontend.port}")
    workers = [WorkerNode(worker_config(f"w{i}"), "127.0.0.1", frontend.port,
                          worker_id=f"w{i}").start()
               for i in range(3)]
    print(f"3 workers joined: {frontend.stats()['membership']['ring_nodes']}\n")

    try:
        # -- routing: the ring splits the key space across the fleet --
        mix = prioritized_mix(90)
        result = run_load("127.0.0.1", frontend.port, mix,
                          concurrency=6, secret=SECRET)
        by_worker = collections.Counter(
            r.worker for r in result.records if r.ok and r.worker)
        owner: dict = {}
        sticky = True
        for record, (name, kwargs, _priority) in zip(result.records, mix):
            if record.ok and record.worker:
                key = name + str(sorted(kwargs.items()))
                sticky = sticky and owner.setdefault(key, record.worker) == record.worker
        s = result.stats
        print(f"routing: {s.requests} requests in {s.seconds:.2f}s "
              f"({s.throughput_rps:.0f} req/s)")
        for worker_id, count in sorted(by_worker.items()):
            print(f"  {worker_id}: {count} forwards")
        print(f"  every repeated design point hit its owning worker: {sticky}")

        # -- admission: low sheds at the bucket, high never does --
        shed = collections.Counter(r.priority for r in result.records if r.shed)
        served = collections.Counter(
            r.priority for r in result.records if r.ok)
        print(f"\nadmission: served {dict(served)}  shed {dict(shed)}")
        assert shed.get("high", 0) == 0, "high-priority traffic must not shed"
        high_lat = sorted(r.latency_ms for r in result.records
                          if r.ok and r.priority == "high")
        if high_lat:
            print(f"  high-priority p50 {high_lat[len(high_lat) // 2]:.2f} ms "
                  f"(unbothered by the low-priority squeeze)")

        # -- failover: a graceful leave moves one range, nothing else --
        workers[0].stop()
        print(f"\nw0 left the fleet: ring is now "
              f"{frontend.stats()['membership']['ring_nodes']}")
        with ServeClient(port=frontend.port, secret=SECRET) as client:
            response = client.send("runtime_point", dict(
                network="lenet", layer_index=0, group_size=2, density=0.5))
            print(f"  rerouted runtime_point -> {response.worker}: "
                  f"{response.value:.6f}")

        stats = frontend.stats()
        print(f"\nfront-end totals: {stats['requests']} requests, "
              f"{stats['forwarded']} forwarded, "
              f"{stats['admission']['shed_total']} shed, "
              f"{stats['forward_errors']} forward errors")
    finally:
        for worker in workers[1:]:
            worker.stop()
