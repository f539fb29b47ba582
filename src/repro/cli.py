"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

* ``networks`` — list the zoo networks with layer/parameter summaries;
* ``simulate`` — run one network under one design point and print the
  energy/cycle/model-size summary (Figure 9 methodology);
* ``experiment`` — run a named experiment (fig03..fig14, tab02, tab03,
  ablations) and print its rows;
* ``sweep`` — run an experiment through the parallel runtime with the
  on-disk result cache (re-runs are incremental); ``--remote-cache URL``
  layers a cache peer behind the local cache so machines share results;
* ``cache`` — inspect or clear the design-point result cache (info
  includes a per-experiment breakdown and supports LRU eviction via
  ``--budget-mb``); ``push``/``pull`` bulk-seed a cache peer;
* ``programs`` — inspect the compiled-program artifact store
  (``repro.engine.artifacts``): ``info``/``list`` show stored artifacts
  and cache ratios (``cache push``/``pull`` move artifacts along with
  the results beside them);
* ``cache-peer`` — run an HTTP cache peer other machines point
  ``--remote-cache`` at (LRU byte budget via ``--max-bytes``);
* ``serve`` — run the async batched serving layer (``repro.serve``)
  until interrupted; also accepts ``--remote-cache URL``, ``--secret``
  (HMAC-authenticated requests only), and ``--prewarm-programs``
  (load a missing compiled program from this node's artifacts or the
  peer before compiling, and write fresh compiles back);
* ``frontend`` — run a fabric front-end (``repro.fabric``): workers
  join it, clients get hash-ring routing + admission control, and
  ``--replication R`` routes each key over R replicas with load spill
  and warm failover;
* ``worker`` — run a serve process that joins a front-end
  (``--join HOST:PORT``) and heartbeats until stopped;
* ``frontend-status`` — dial a running front-end and print its live
  members, per-worker in-flight load, replica assignments, and shed
  counters;
* ``bench-serve`` — closed-loop load generator against an in-process
  server; reports p50/p99 latency, throughput, and the warm-over-cold
  speedup, optionally writing a ``BENCH_serve.json`` artifact;
  ``--duration S`` adds a sustained pass that cycles the mix for S
  seconds (its p99/shed rate feed ``repro regress --trend serve``);
* ``factorize`` — factorize a random quantized layer and report table
  statistics (a quick feel for the mechanism);
* ``regress`` — the golden-result harness (``repro.regress``):
  ``--check`` regenerates every registered experiment at its pinned
  fast scale and diffs it against the committed reference under
  ``references/`` (exit 1 + drift report on divergence), ``--update``
  rewrites the references intentionally, ``--only``/``--smoke`` select
  subsets, and ``--trend KIND FILES...`` analyzes a ``BENCH_*.json``
  trajectory for >20% regressions vs the trailing median.

Examples::

    python -m repro.cli networks
    python -m repro.cli simulate --network lenet --design ucnn-u17 --density 0.5
    python -m repro.cli experiment fig13 --network lenet
    python -m repro.cli sweep --experiment fig11 --workers 4
    python -m repro.cli cache-peer --port 8601 --max-bytes 268435456
    python -m repro.cli sweep --experiment fig11 --remote-cache http://peer:8601
    python -m repro.cli cache push http://peer:8601
    python -m repro.cli cache info
    python -m repro.cli programs list
    python -m repro.cli worker --join 127.0.0.1:8640 --remote-cache http://peer:8601 --prewarm-programs
    python -m repro.cli serve --workers 4 --port 8537
    python -m repro.cli frontend --port 8640 --max-inflight 64 --replication 2
    python -m repro.cli worker --join 127.0.0.1:8640 --workers 2
    python -m repro.cli frontend-status 127.0.0.1:8640
    python -m repro.cli bench-serve --requests 200 --verify --json BENCH_serve.json
    python -m repro.cli factorize --u 17 --density 0.9 --c 64
    python -m repro.cli regress --check
    python -m repro.cli regress --update --only fig11,engine-digest
    python -m repro.cli regress --trend kernels night1.json night2.json night3.json

Fabric commands read the shared HMAC secret from ``--secret`` or the
``REPRO_FABRIC_SECRET`` environment variable, and their TLS identity
from ``--tls-cert/--tls-key/--tls-ca`` or the ``REPRO_FABRIC_TLS_*``
environment (see ``docs/api.md``).
"""

from __future__ import annotations

import argparse
import importlib
import sys
from collections.abc import Sequence
from dataclasses import dataclass

from repro.arch.config import HardwareConfig, dcnn_config, dcnn_sp_config, ucnn_config
from repro.experiments.common import (
    INPUT_DENSITY,
    format_table,
    network_shapes,
    uniform_weight_provider,
)
from repro.nn.zoo import get_network

#: CLI design-name -> config factory.
DESIGNS = {
    "dcnn": lambda bits: dcnn_config(bits),
    "dcnn-sp": lambda bits: dcnn_sp_config(bits),
    "ucnn-u3": lambda bits: ucnn_config(3, bits),
    "ucnn-u17": lambda bits: ucnn_config(17, bits),
    "ucnn-u64": lambda bits: ucnn_config(64, bits),
    "ucnn-u256": lambda bits: ucnn_config(256, bits),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """How the CLI runs and prints one named experiment.

    Attributes:
        module: dotted path of the runner module (exposes ``run()``).
        headers: table headers matching ``Result.format_rows()``.
        network_kw: name of the runner kwarg that scopes it to one
            network (``"networks"`` takes a tuple, ``"network"`` a
            string, ``None`` means not scopeable).
    """

    module: str
    headers: tuple[str, ...]
    network_kw: str | None = None


EXPERIMENT_SPECS: dict[str, ExperimentSpec] = {
    "fig03": ExperimentSpec(
        "repro.experiments.fig03_repetition",
        ("network", "layer", "filter size", "nz mean", "nz std", "zero mean", "zero std"),
        network_kw="networks"),
    "fig09": ExperimentSpec(
        "repro.experiments.fig09_energy",
        ("network", "bits", "density", "design", "dram", "l2", "pe", "total"),
        network_kw="networks"),
    "fig10": ExperimentSpec(
        "repro.experiments.fig10_layer_energy",
        ("layer", "design", "dram", "l2", "pe", "total")),
    "fig11": ExperimentSpec(
        "repro.experiments.fig11_runtime",
        ("design", "density", "normalized runtime")),
    "fig12": ExperimentSpec(
        "repro.experiments.fig12_inq_perf",
        ("network", "design", "cycles", "speedup"),
        network_kw="networks"),
    "fig13": ExperimentSpec(
        "repro.experiments.fig13_model_size",
        ("scheme", "density", "bits/weight"),
        network_kw="network"),
    "fig14": ExperimentSpec(
        "repro.experiments.fig14_jump_tables",
        ("G", "jump bits", "bits/weight", "overhead"),
        network_kw="network"),
    "tab02": ExperimentSpec(
        "repro.experiments.tab02_configs",
        ("design", "P", "VK", "VW", "G", "L1 in", "L1 wt", "work", "Ct")),
    "tab03": ExperimentSpec(
        "repro.experiments.tab03_area",
        ("component", "DCNN model", "DCNN paper", "UCNN model", "UCNN paper")),
    "abl-l2": ExperimentSpec(
        "repro.experiments.abl_l2_capacity",
        ("L2 K-entries", "UCNN uJ", "DCNN_sp uJ", "improvement"),
        network_kw="network"),
    "abl-chunk": ExperimentSpec(
        "repro.experiments.abl_chunking",
        ("cap", "multiplies", "extra bits", "vs 16"),
        network_kw="network"),
    "abl-pp": ExperimentSpec(
        "repro.experiments.abl_partial_product",
        ("layer", "factorization x", "memoization x", "winograd x"),
        network_kw="network"),
    "abl-depth": ExperimentSpec(
        "repro.experiments.abl_group_depth",
        ("layer", "filter size", "max useful G", "pigeonhole G"),
        network_kw="network"),
}

EXPERIMENTS = tuple(EXPERIMENT_SPECS)


def cmd_networks(_args: argparse.Namespace) -> int:
    """List the zoo networks."""
    rows = []
    for name in ("lenet", "alexnet", "resnet50"):
        net = get_network(name)
        convs = net.conv_shapes()
        rows.append((
            name,
            len(convs),
            f"{net.num_parameters() / 1e6:.1f}M",
            f"{net.total_macs() / 1e9:.2f}G",
            f"{net.input_shape.as_tuple()}",
        ))
    print(format_table(("network", "conv layers", "params", "MACs", "input"), rows))
    return 0


def _resolve_design(name: str, bits: int) -> HardwareConfig:
    if name not in DESIGNS:
        raise SystemExit(f"unknown design {name!r}; choose from {sorted(DESIGNS)}")
    return DESIGNS[name](bits)


def cmd_simulate(args: argparse.Namespace) -> int:
    """Simulate one network under one design point."""
    from repro.sim.runner import simulate_network

    config = _resolve_design(args.design, args.bits)
    shapes = network_shapes(args.network)
    u = config.num_unique if config.is_ucnn else 256
    provider = uniform_weight_provider(u, args.density)
    result = simulate_network(
        shapes, config, weight_provider=provider,
        weight_density=args.density, input_density=INPUT_DENSITY)
    energy = result.energy
    print(f"{args.network} on {config.name} ({args.bits}-bit, "
          f"{args.density:.0%} weight density):")
    rows = [
        ("cycles", f"{result.cycles:,}"),
        ("DRAM energy", f"{energy.dram_pj / 1e6:.2f} uJ"),
        ("L2/NoC energy", f"{energy.l2_pj / 1e6:.2f} uJ"),
        ("PE energy", f"{energy.pe_pj / 1e6:.2f} uJ"),
        ("total energy", f"{energy.total_pj / 1e6:.2f} uJ"),
        ("model size", f"{result.model_size.bits_per_weight:.2f} bits/weight"),
    ]
    print(format_table(("metric", "value"), rows))
    return 0


def _experiment_call(name: str, network: str | None):
    """Resolve (run callable, headers, kwargs) for a named experiment."""
    spec = EXPERIMENT_SPECS.get(name)
    if spec is None:
        raise SystemExit(f"unknown experiment {name!r}; choose from {EXPERIMENTS}")
    module = importlib.import_module(spec.module)
    kwargs = {}
    if network is not None:
        if spec.network_kw is None:
            raise SystemExit(f"experiment {name!r} does not take --network")
        kwargs = {spec.network_kw: (network,) if spec.network_kw == "networks" else network}
    return module.run, spec.headers, kwargs


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run a named experiment and print its rows."""
    run, headers, kwargs = _experiment_call(args.name, args.network)
    result = run(**kwargs)
    print(format_table(headers, result.format_rows()))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run an experiment through the parallel, cached runtime.

    With ``--remote-cache URL`` the cache tiers: local misses consult
    the peer before computing, and fresh results are pushed back so
    other machines pointed at the same peer skip them entirely.  The
    peer being down, slow, or corrupt never fails the sweep — the tier
    degrades to local-only (see ``docs/api.md``).
    """
    from repro.runtime import ResultCache, Runtime, TieredCache, using_runtime

    run, headers, kwargs = _experiment_call(args.experiment, args.network)
    if args.no_cache and args.remote_cache:
        raise SystemExit("--remote-cache rides the local cache; drop --no-cache")
    cache = None
    if not args.no_cache:
        if args.remote_cache:
            cache = TieredCache(remote=args.remote_cache, root=args.cache_dir)
        else:
            cache = ResultCache(root=args.cache_dir)
    progress = None
    if args.verbose:
        def progress(event: str, label: str) -> None:
            marker = {"hit": "=", "start": ">", "done": "."}[event]
            print(f"  [{marker}] {label}", file=sys.stderr)
    runtime = Runtime(workers=args.workers, cache=cache, progress=progress)
    with using_runtime(runtime):
        result = run(**kwargs)
    print(format_table(headers, result.format_rows()))
    report = runtime.total_report
    workers = max(1, args.workers)
    where = cache.root if cache is not None else "off"
    print(f"\nsweep: {report.summary()} ({workers} worker(s), cache: {where})")
    if isinstance(cache, TieredCache):
        cache.close()  # drain pending pushes before reporting them
        tier = cache.tier_stats()
        print(f"remote tier: {tier['remote_hits']} peer hit(s), "
              f"{tier['remote_misses']} peer miss(es), {tier['pushes']} pushed, "
              f"{tier['remote_errors'] + tier['push_failures']} degraded "
              f"(peer: {args.remote_cache})")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect, clear, or evict from the design-point result cache.

    ``info`` prints the summary block (directory, total entries/bytes,
    code fingerprint) followed by a per-experiment table — one row per
    producing function with its entry count and bytes, largest first.
    ``evict`` applies an LRU sweep down to ``--budget-mb``.  ``push``
    and ``pull`` bulk-sync entries with a cache peer (URL argument):
    push seeds the peer with every local entry it lacks, pull copies
    the peer's entries into the local cache.
    """
    from repro.runtime import HTTPPeerTier, ResultCache, code_fingerprint, pull_all, push_all

    cache = ResultCache(root=args.cache_dir) if args.cache_dir else ResultCache()
    if args.action in ("push", "pull"):
        if not args.url:
            raise SystemExit(f"cache {args.action} requires a peer URL "
                             f"(e.g. repro cache {args.action} http://peer:8601)")
        # Bulk profile: breaker disabled so a mid-sync blip fails (and
        # counts) each key honestly instead of silently skipping the
        # next 5s worth.  Dead peers are caught by the probe below.
        tier = HTTPPeerTier.for_bulk(args.url)
        # Probe up front: the tier protocol itself never raises, so
        # without this a dead peer would read as "N failed" rather
        # than the actual problem.
        if tier.peer_stats() is None:
            raise SystemExit(f"cache peer {args.url} unreachable")
        try:
            report = push_all(cache, tier) if args.action == "push" else pull_all(cache, tier)
        except ConnectionError as exc:
            raise SystemExit(str(exc)) from exc
        direction = "to" if args.action == "push" else "from"
        print(f"{args.action} {direction} {args.url}: {report.summary()}")
        return 1 if report.failed else 0
    if args.url:
        raise SystemExit(f"cache {args.action} does not take a peer URL "
                         f"(did you mean push or pull?)")
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} cached design point(s) from {cache.root}")
        return 0
    if args.action == "evict":
        if args.budget_mb is None:
            raise SystemExit("cache evict requires --budget-mb")
        removed = cache.evict(max_bytes=int(args.budget_mb * 1024 * 1024))
        stats = cache.stats()
        print(f"evicted {removed} entr(ies); {stats.entries} left, "
              f"{stats.bytes / 1024:.1f} KiB in {cache.root}")
        return 0
    stats = cache.stats()
    rows = [
        ("directory", stats.root),
        ("entries", stats.entries),
        ("size", f"{stats.bytes / 1024:.1f} KiB"),
        ("code fingerprint", code_fingerprint()),
    ]
    print(format_table(("field", "value"), rows))
    groups = cache.breakdown()
    if groups:
        print()
        print(format_table(
            ("experiment", "entries", "KiB"),
            [(g.fn, g.entries, f"{g.bytes / 1024:.1f}") for g in groups]))
    return 0


def cmd_programs(args: argparse.Namespace) -> int:
    """Inspect the compiled-program artifact store.

    ``info`` prints store totals (artifact count/bytes, the live engine
    fingerprint, how many stored artifacts are stale against it) plus
    this process's program-cache counters.  ``list`` prints one row per
    artifact blob in the directory.
    """
    from repro.engine.artifacts import ProgramStore, engine_fingerprint
    from repro.engine.program import program_cache_info

    store = ProgramStore(root=args.cache_dir)
    if args.action == "list":
        artifacts = store.artifacts()
        if not artifacts:
            print(f"no program artifacts in {store.cache.root}")
            return 0
        fp = engine_fingerprint()
        print(format_table(
            ("program key", "kind", "KiB", "engine"),
            [(key, entry["kind"], f"{entry['bytes'] / 1024:.1f}",
              "fresh" if entry["engine"] == fp else "STALE")
             for key, entry in sorted(artifacts.items())]))
        return 0
    stats = store.stats()
    info = program_cache_info()
    rows = [
        ("directory", stats["root"]),
        ("program artifacts", stats["programs"]),
        ("artifact bytes", f"{stats['bytes'] / 1024:.1f} KiB"),
        ("engine fingerprint", stats["engine_fingerprint"]),
        ("stale artifacts", stats["stale"]),
        ("process cache entries", info["entries"]),
        ("process hits / misses", f"{info['hits']} / {info['misses']}"),
        ("process artifact hits", info["artifact_hits"]),
    ]
    print(format_table(("field", "value"), rows))
    return 0


def _tls_from(args: argparse.Namespace):
    """Build a :class:`~repro.fabric.tls.TLSConfig` from CLI flags.

    Returns ``None`` when no flag was given — downstream the node falls
    back to the ``REPRO_FABRIC_TLS_*`` environment, and with neither it
    speaks cleartext.
    """
    from repro.fabric.tls import TLSConfig

    if args.tls_cert or args.tls_key or args.tls_ca:
        return TLSConfig(certfile=args.tls_cert, keyfile=args.tls_key,
                         cafile=args.tls_ca)
    return None


def cmd_cache_peer(args: argparse.Namespace) -> int:
    """Run an HTTP cache peer until interrupted.

    Other machines point ``repro sweep/serve --remote-cache`` (or
    ``repro cache push/pull``) at this process; it stores and serves
    opaque result blobs under the content-addressed key schema, with
    the same LRU byte-budget eviction the local cache uses.
    """
    from repro.fabric.auth import default_secret
    from repro.runtime import CachePeer

    peer = CachePeer(root=args.cache_dir, host=args.host, port=args.port,
                     max_bytes=args.max_bytes, upstream=args.upstream,
                     secret=args.secret or default_secret(), tls=_tls_from(args))
    budget = f"{args.max_bytes} bytes" if args.max_bytes is not None else "unbounded"
    extras = f", auth: {'HMAC' if peer.secret else 'open'}"
    if peer.tls is not None:
        extras += ", TLS"
    if args.upstream:
        extras += f", upstream: {args.upstream}"
    scheme = "https" if peer.tls is not None else "http"
    print(f"cache peer listening on {scheme}://{args.host}:{peer.port} "
          f"(root: {peer.cache.root}, budget: {budget}{extras}); Ctrl-C to stop",
          flush=True)
    try:
        peer.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        peer.stop()
        stats = peer.stats_payload()
        print(f"\nserved {stats['gets']} get(s): {stats['hits']} hit(s), "
              f"{stats['misses']} miss(es), {stats['puts']} put(s); "
              f"{stats['entries']} entr(ies) stored")
    return 0


def _serve_config_from(args: argparse.Namespace) -> "object":
    """Build a :class:`~repro.serve.ServeConfig` from serve/worker args."""
    from repro.fabric.auth import default_secret
    from repro.serve import ServeConfig

    if args.no_cache and args.remote_cache:
        raise SystemExit("--remote-cache rides the local cache; drop --no-cache")
    return ServeConfig(
        host=args.host, port=args.port, workers=args.workers, mode=args.mode,
        max_batch=args.max_batch, max_delay_ms=args.max_delay_ms,
        cache_dir=args.cache_dir, cache_enabled=not args.no_cache,
        cache_max_bytes=(int(args.cache_budget_mb * 1024 * 1024)
                         if args.cache_budget_mb is not None else None),
        remote_cache=args.remote_cache,
        auth_secret=args.secret or default_secret(),
        prewarm_programs=args.prewarm_programs,
        tls=_tls_from(args),
    )


def _run_until_interrupted(handle, banner: str, summary) -> int:
    """Print ``banner``, idle until Ctrl-C, stop ``handle``, then print
    ``summary(handle.stats())``."""
    import time

    print(banner, flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        handle.stop()
        print("\n" + summary(handle.stats()), flush=True)
    return 0


def _served_summary(stats: dict) -> str:
    """The request counters line ``repro serve`` and ``repro worker`` end with."""
    return (f"served {stats['requests']} request(s): {stats['hits']} hits, "
            f"{stats['misses']} ran, {stats['coalesced']} coalesced, "
            f"{stats['errors']} error(s)")


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the async batched serving layer until interrupted."""
    from repro.serve import ServerHandle

    config = _serve_config_from(args)
    handle = ServerHandle(config).start()
    where = config.cache_dir or "default cache dir" if not args.no_cache else "off"
    if args.remote_cache and not args.no_cache:
        where = f"{where} + peer {args.remote_cache}"
    return _run_until_interrupted(
        handle,
        f"serving on {config.host}:{handle.port} "
        f"({config.workers} {config.mode} shard(s), cache: {where}); Ctrl-C to stop",
        _served_summary)


def _parse_hostport(text: str) -> tuple[str, int]:
    """Parse a ``HOST:PORT`` CLI argument."""
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise SystemExit(f"expected HOST:PORT, got {text!r}")
    return (host or "127.0.0.1", int(port))


def _parse_rates(pairs: list[str]) -> dict[str, float] | None:
    """Parse repeated ``--rate PRIORITY=RPS`` arguments."""
    if not pairs:
        return None
    rates: dict[str, float] = {}
    for pair in pairs:
        priority, sep, rps = pair.partition("=")
        if not sep:
            raise SystemExit(f"expected PRIORITY=RPS, got {pair!r}")
        try:
            rates[priority] = float(rps)
        except ValueError:
            raise SystemExit(f"bad rate {rps!r} in {pair!r}") from None
    return rates


def cmd_frontend(args: argparse.Namespace) -> int:
    """Run a fabric front-end until interrupted.

    Workers join with ``repro worker --join HOST:PORT``; clients speak
    the ordinary serve wire protocol to this address and get hash-ring
    routing, admission control, and failover for free.
    """
    from repro.fabric import FrontendConfig, FrontendHandle, default_secret

    config = FrontendConfig(
        host=args.host, port=args.port,
        heartbeat_timeout=args.heartbeat_timeout,
        max_inflight=args.max_inflight,
        rates=_parse_rates(args.rate),
        forward_timeout=args.forward_timeout,
        auth_secret=args.secret or default_secret(),
        replication=args.replication,
        worker_inflight_limit=args.worker_inflight_limit,
        tls=_tls_from(args),
    )
    handle = FrontendHandle(config).start()
    auth = "HMAC" if config.auth_secret else "open"
    if config.tls is not None:
        auth += "+TLS"
    return _run_until_interrupted(
        handle,
        f"fabric front-end on {config.host}:{handle.port} "
        f"(replication {config.replication}, max inflight {config.max_inflight}, "
        f"heartbeat timeout {config.heartbeat_timeout}s, auth: {auth}); Ctrl-C to stop",
        lambda stats: (
            f"routed {stats['forwarded']} request(s) "
            f"({stats['retries']} retried, {stats['forward_errors']} worker failure(s), "
            f"{stats['admission']['shed_total']} shed, "
            f"{stats['auth_rejected']} auth-rejected); "
            f"{stats['membership']['evictions']} eviction(s)"))


def cmd_worker(args: argparse.Namespace) -> int:
    """Run a serve process joined to a fabric front-end."""
    from repro.fabric import WorkerNode

    frontend_host, frontend_port = _parse_hostport(args.join)
    config = _serve_config_from(args)
    node = WorkerNode(
        config, frontend_host, frontend_port,
        worker_id=args.worker_id, advertise_host=args.advertise_host,
        prewarm_interval=args.prewarm_interval,
    ).start()

    def summary(stats: dict) -> str:
        counts = node.counters.snapshot()
        return (f"{_served_summary(stats)}; {counts['heartbeats_sent']} heartbeat(s), "
                f"{counts['rejoins']} rejoin(s)")

    return _run_until_interrupted(
        node,
        f"fabric worker {node.worker_id!r} serving on {config.host}:{node.port}, "
        f"joined {frontend_host}:{frontend_port} "
        f"(heartbeat every {node.heartbeat_interval:.2f}s); Ctrl-C to stop",
        summary)


def cmd_frontend_status(args: argparse.Namespace) -> int:
    """Dial a running front-end and print its operational picture.

    Four sections: the live member table (per-worker address, in-flight
    forwards, lifetime forwards/spills, heartbeat age), the replica
    assignment summary from the routed-key catalog (how many cataloged
    keys each worker is primary/replica for), the routing counters
    (spills, retries, refused non-idempotent replays), and the
    admission shed counters.
    """
    from repro.fabric.auth import default_secret
    from repro.serve.client import ServeClient

    host, port = _parse_hostport(args.frontend)
    with ServeClient(host, port, secret=args.secret or default_secret(),
                     tls=_tls_from(args)) as client:
        members = client.send("_members", {})
        stats = client.send("_stats", {})
        assignments = client.send("_assignments", {})
    for response, what in ((members, "_members"), (stats, "_stats"),
                           (assignments, "_assignments")):
        if not response.ok:
            raise SystemExit(f"front-end {args.frontend} refused {what}: "
                             f"{response.error}")
    m, s, a = members.value, stats.value, assignments.value

    placement = (a or {}).get("workers", {})
    print(f"front-end {args.frontend}: {len(m['workers'])} live worker(s), "
          f"ring version {m['version']}, replication {a.get('replication', 1)}")
    rows = [
        (w["worker_id"], f"{w['host']}:{w['port']}", w["inflight"],
         w["forwards"], w["spills"],
         placement.get(w["worker_id"], {}).get("primary", 0),
         placement.get(w["worker_id"], {}).get("replica", 0),
         f"{w['heartbeat_age_s']:.2f}s")
        for w in m["workers"]
    ]
    print(format_table(
        ("worker", "address", "inflight", "forwards", "spills",
         "primary keys", "replica keys", "hb age"), rows))

    routing = s.get("routing", {})
    admission = s.get("admission", {})
    print(f"\nrouting: {s['forwarded']} forwarded, {s['retries']} retried, "
          f"{s['spills']} spilled, {s['forward_errors']} worker failure(s), "
          f"{s['not_replayed']} non-idempotent failure(s) not replayed "
          f"(catalog: {routing.get('catalog', 0)} key(s), per-worker in-flight "
          f"limit {routing.get('worker_inflight_limit', '?')})")
    print(f"admission: {admission.get('shed_total', 0)} shed "
          f"({admission.get('inflight', 0)} in flight now); "
          f"membership: {m['joins']} join(s), {m['rejoins']} rejoin(s), "
          f"{m['evictions']} eviction(s), {s['auth_rejected']} auth-rejected")
    return 0


def cmd_bench_serve(args: argparse.Namespace) -> int:
    """Closed-loop serving benchmark: cold pass, warm pass, parity check.

    Starts an in-process server on an ephemeral port, drives the mixed
    request list through it twice (cold cache, then warm), and reports
    per-pass latency percentiles plus the warm-over-cold throughput
    speedup.  ``--duration S`` adds a third, *sustained* pass that
    keeps cycling the mix closed-loop for S seconds — steady-state
    p99/throughput/shed numbers the nightly trend gate watches, where
    the fixed-length passes mostly measure startup.  ``--verify``
    recomputes every distinct point directly and fails on any
    serve-vs-direct mismatch; a warm pass with a zero hit rate always
    fails (the cache is the point).  ``--json`` writes the
    ``BENCH_serve.json`` artifact nightly CI uploads.
    """
    import contextlib
    import json as json_mod
    import tempfile
    from dataclasses import asdict

    from repro.serve import ServeConfig, ServerHandle, default_mix, run_load
    from repro.serve.endpoints import resolve
    from repro.serve.protocol import to_jsonable

    mix = default_mix(args.requests, scale=args.scale)
    with contextlib.ExitStack() as stack:
        cache_dir = args.cache_dir or stack.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-bench-serve-"))
        config = ServeConfig(
            port=0, workers=args.workers, mode=args.mode, max_batch=args.max_batch,
            max_delay_ms=args.max_delay_ms, cache_dir=cache_dir)
        with ServerHandle(config) as handle:
            cold = run_load("127.0.0.1", handle.port, mix, concurrency=args.concurrency)
            warm = run_load("127.0.0.1", handle.port, mix, concurrency=args.concurrency)
            sustained = None
            if args.duration is not None:
                sustained = run_load("127.0.0.1", handle.port, mix,
                                     concurrency=args.concurrency,
                                     duration=args.duration)
            server_stats = handle.stats()

    failures = []
    parity = {"checked": 0, "mismatches": 0}
    if args.verify:
        direct: dict[str, object] = {}
        for pass_result in (cold, warm):
            for (endpoint, kwargs), record in zip(mix, pass_result.records):
                point = json_mod.dumps([endpoint, kwargs], sort_keys=True)
                if point not in direct:
                    value = resolve(endpoint)(**kwargs)
                    direct[point] = json_mod.loads(json_mod.dumps(to_jsonable(value)))
                parity["checked"] += 1
                if not record.ok or record.value != direct[point]:
                    parity["mismatches"] += 1
        if parity["mismatches"]:
            failures.append(f"parity: {parity['mismatches']} mismatch(es)")
    if cold.stats.errors or warm.stats.errors:
        failures.append(f"errors: {cold.stats.errors} cold, {warm.stats.errors} warm")
    if sustained is not None and sustained.stats.errors:
        failures.append(f"errors: {sustained.stats.errors} sustained")
    if warm.stats.hit_rate <= 0.0:
        failures.append("warm pass had zero cache hit rate")
    speedup = (warm.stats.throughput_rps / cold.stats.throughput_rps
               if cold.stats.throughput_rps else 0.0)
    if args.min_warm_speedup is not None and speedup < args.min_warm_speedup:
        failures.append(f"warm speedup {speedup:.1f}x < required {args.min_warm_speedup}x")

    passes = [("cold", cold.stats), ("warm", warm.stats)]
    if sustained is not None:
        passes.append(("sustained", sustained.stats))
    headers = ("pass", "requests", "rps", "p50 ms", "p90 ms", "p99 ms",
               "hit rate", "shed", "errors")
    rows = [
        (name, s.requests, f"{s.throughput_rps:.0f}", f"{s.p50_ms:.2f}",
         f"{s.p90_ms:.2f}", f"{s.p99_ms:.2f}", f"{s.hit_rate:.0%}",
         s.shed, s.errors)
        for name, s in passes
    ]
    print(format_table(headers, rows))
    print(f"\nwarm/cold throughput: {speedup:.1f}x  "
          f"(workers={args.workers} mode={args.mode} batch<={args.max_batch} "
          f"delay<={args.max_delay_ms}ms concurrency={args.concurrency})")
    if args.verify:
        print(f"parity: {parity['checked']} response(s) checked, "
              f"{parity['mismatches']} mismatch(es)")

    if args.json:
        # Same host-independent envelope the bench suite writes (see
        # benchmarks/conftest.py): schema-versioned, no hostnames or
        # timestamps, so artifacts diff cleanly across machines and the
        # trend analyzer (`repro regress --trend serve`) can read them.
        payload = {
            "schema_version": 1,
            "kind": "serve",
            "smoke": args.scale == "smoke",
            "data": {
                "requests": args.requests,
                "concurrency": args.concurrency,
                "workers": args.workers,
                "mode": args.mode,
                "scale": args.scale,
                "cold": asdict(cold.stats),
                "warm": asdict(warm.stats),
                "sustained": asdict(sustained.stats) if sustained is not None else None,
                "duration": args.duration,
                "warm_speedup": speedup,
                "parity": parity if args.verify else None,
                "server": server_stats,
            },
        }
        with open(args.json, "w") as fh:
            json_mod.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    if failures:
        raise SystemExit("bench-serve failed: " + "; ".join(failures))
    return 0


def cmd_regress(args: argparse.Namespace) -> int:
    """Golden-result harness: check/update references, analyze trends.

    ``--check`` (the default) regenerates every selected experiment at
    its pinned fast scale — result cache disabled, so nothing stale can
    hide drift — and structurally diffs it against the committed
    reference, printing a drift report that names each diverging path.
    ``--update`` rewrites the references (do this *intentionally*, and
    commit the diff).  ``--trend KIND FILES...`` instead reads a
    ``BENCH_*.json`` trajectory (oldest first) and fails on any metric
    >20% worse than its trailing median — the gate that catches decay
    the static floors miss.
    """
    from repro.regress import (
        ReferenceStore,
        analyze_trend,
        load_payloads,
        render_alerts,
        resolve_ids,
        run_check,
        run_update,
    )

    if args.trend:
        if args.update:
            raise SystemExit("--trend and --update are mutually exclusive")
        if not args.bench_files:
            raise SystemExit("--trend needs BENCH_*.json files (oldest first)")
        history = load_payloads(args.bench_files)
        alerts = analyze_trend(
            args.trend, history, threshold=args.threshold, window=args.window)
        print(render_alerts(args.trend, alerts))
        return 1 if alerts else 0
    if args.bench_files:
        raise SystemExit("bench files only make sense with --trend KIND")
    if args.check and args.update:
        raise SystemExit("--check and --update are mutually exclusive")

    specs = resolve_ids(only=args.only, smoke=args.smoke)
    if not specs:
        raise SystemExit("no experiments selected")
    store = ReferenceStore(root=args.references)
    if args.list:
        for spec in specs:
            state = "reference ok" if store.has(spec.experiment) else "NO REFERENCE"
            smoke = " [smoke]" if spec.smoke else ""
            print(f"{spec.experiment:14s} {spec.module}{smoke} — {state}")
        return 0
    if args.update:
        summary = run_update(specs, store, workers=args.workers)
    else:
        summary = run_check(specs, store, workers=args.workers)
    report = summary.render()
    print(report)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report + "\n")
        print(f"wrote {args.report}")
    return 0 if summary.ok else 1


def cmd_factorize(args: argparse.Namespace) -> int:
    """Factorize a random layer and report its table statistics."""
    import numpy as np

    from repro.core.factorized import FactorizedConv
    from repro.quant.distributions import uniform_unique_weights

    rng = np.random.default_rng(args.seed)
    weights = uniform_unique_weights((args.k, args.c, args.r, args.r), args.u, args.density, rng)
    conv = FactorizedConv(weights.values, group_size=args.g)
    rows = []
    for i, tables in enumerate(conv.groups[:4]):
        st = tables.stats()
        rows.append((f"group {i}", st.num_entries, st.multiplies,
                     st.skip_bubbles, st.mult_stalls, st.cycles))
    print(f"layer ({args.k}x{args.c}x{args.r}x{args.r}), U={weights.num_unique}, "
          f"density={weights.density:.0%}, G={args.g}")
    print(format_table(
        ("table", "entries", "multiplies", "skip bubbles", "stalls", "cycles/walk"), rows))
    counts = conv.op_counts(out_positions=1)
    print(f"\nmultiply savings vs dense: {counts.multiply_savings:.1f}x")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("networks", help="list zoo networks").set_defaults(func=cmd_networks)

    sim = sub.add_parser("simulate", help="simulate a network on a design point")
    sim.add_argument("--network", default="lenet", choices=("lenet", "alexnet", "resnet50"))
    sim.add_argument("--design", default="ucnn-u17", choices=sorted(DESIGNS))
    sim.add_argument("--density", type=float, default=0.5)
    sim.add_argument("--bits", type=int, default=16, choices=(8, 16))
    sim.set_defaults(func=cmd_simulate)

    exp = sub.add_parser("experiment", help="run a paper experiment")
    exp.add_argument("name", choices=EXPERIMENTS)
    exp.add_argument("--network", default=None)
    exp.set_defaults(func=cmd_experiment)

    sweep = sub.add_parser(
        "sweep", help="run an experiment through the parallel, cached runtime")
    sweep.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    sweep.add_argument("--network", default=None)
    sweep.add_argument("--workers", type=int, default=0,
                       help="worker processes (0/1 = serial)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="skip the on-disk result cache")
    sweep.add_argument("--cache-dir", default=None,
                       help="cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro-ucnn)")
    sweep.add_argument("--remote-cache", default=None, metavar="URL",
                       help="cache-peer URL to tier behind the local cache "
                            "(e.g. http://peer:8601)")
    sweep.add_argument("--verbose", action="store_true",
                       help="print per-point progress to stderr")
    sweep.set_defaults(func=cmd_sweep)

    cache = sub.add_parser(
        "cache", help="inspect, clear, evict, or peer-sync the result cache")
    cache.add_argument("action", choices=("info", "clear", "evict", "push", "pull"))
    cache.add_argument("url", nargs="?", default=None,
                       help="cache-peer URL (required for push/pull)")
    cache.add_argument("--cache-dir", default=None)
    cache.add_argument("--budget-mb", type=float, default=None,
                       help="byte budget for 'evict' (LRU sweep down to this size)")
    cache.set_defaults(func=cmd_cache)

    programs = sub.add_parser(
        "programs", help="inspect the compiled-program artifact store")
    programs.add_argument("action", choices=("info", "list"))
    programs.add_argument("--cache-dir", default=None,
                          help="artifact directory (default: $REPRO_CACHE_DIR "
                               "or ~/.cache/repro-ucnn, shared with the result cache)")
    programs.set_defaults(func=cmd_programs)

    def _tls_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tls-cert", default=None, metavar="PEM",
                       help="TLS certificate for this node's sockets "
                            "(default: $REPRO_FABRIC_TLS_CERT)")
        p.add_argument("--tls-key", default=None, metavar="PEM",
                       help="private key matching --tls-cert "
                            "(default: $REPRO_FABRIC_TLS_KEY)")
        p.add_argument("--tls-ca", default=None, metavar="PEM",
                       help="CA bundle peers must chain to; servers then "
                            "require client certificates "
                            "(default: $REPRO_FABRIC_TLS_CA)")

    peer = sub.add_parser(
        "cache-peer", help="run an HTTP cache peer for cross-machine result sharing")
    peer.add_argument("--host", default="127.0.0.1",
                      help="bind address; use 0.0.0.0 to serve other machines "
                           "(default serves loopback only)")
    peer.add_argument("--port", type=int, default=8601,
                      help="HTTP port (0 = ephemeral, printed at startup)")
    peer.add_argument("--cache-dir", default=None,
                      help="blob directory (default: $REPRO_CACHE_DIR or ~/.cache/repro-ucnn)")
    peer.add_argument("--max-bytes", type=int, default=None,
                      help="LRU byte budget for the peer's store (default: unbounded)")
    peer.add_argument("--upstream", default=None, metavar="URL",
                      help="peer URL to federate onto: local misses are fetched "
                           "from the upstream (blob passthrough, never unpickled)")
    peer.add_argument("--secret", default=None,
                      help="shared HMAC secret; requests must be signed "
                           "(default: $REPRO_FABRIC_SECRET)")
    _tls_flags(peer)
    peer.set_defaults(func=cmd_cache_peer)

    def _serve_flags(p: argparse.ArgumentParser, default_port: int) -> None:
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=default_port,
                       help="TCP port (0 = ephemeral, printed at startup)")
        p.add_argument("--workers", type=int, default=2,
                       help="worker shards (one process/thread each)")
        p.add_argument("--mode", default="process", choices=("process", "thread"),
                       help="shard worker kind")
        p.add_argument("--max-batch", type=int, default=8,
                       help="micro-batcher size trigger")
        p.add_argument("--max-delay-ms", type=float, default=2.0,
                       help="micro-batcher time trigger (ms)")
        p.add_argument("--cache-dir", default=None)
        p.add_argument("--no-cache", action="store_true",
                       help="compute every request, never consult the cache")
        p.add_argument("--cache-budget-mb", type=float, default=None,
                       help="LRU byte budget; long-lived servers should set this")
        p.add_argument("--remote-cache", default=None, metavar="URL",
                       help="cache-peer URL to tier behind the local cache")
        p.add_argument("--prewarm-programs", action="store_true",
                       help="load a missing compiled engine program from this "
                            "node's artifacts or --remote-cache before "
                            "compiling, and write fresh compiles back "
                            "(nothing loads before traffic)")
        p.add_argument("--secret", default=None,
                       help="shared HMAC secret; requests must be signed "
                            "(default: $REPRO_FABRIC_SECRET)")
        _tls_flags(p)

    serve = sub.add_parser("serve", help="run the async batched serving layer")
    _serve_flags(serve, default_port=8537)
    serve.set_defaults(func=cmd_serve)

    frontend = sub.add_parser(
        "frontend", help="run a fabric front-end routing to joined workers")
    frontend.add_argument("--host", default="127.0.0.1")
    frontend.add_argument("--port", type=int, default=8640,
                          help="TCP port (0 = ephemeral, printed at startup)")
    frontend.add_argument("--heartbeat-timeout", type=float, default=1.5,
                          help="seconds of silence before a worker is evicted")
    frontend.add_argument("--max-inflight", type=int, default=64,
                          help="admission ceiling on concurrent forwards "
                               "(low sheds at 50%%, normal at 75%%)")
    frontend.add_argument("--rate", action="append", default=[],
                          metavar="PRIORITY=RPS",
                          help="token-bucket rate for one priority "
                               "(repeatable, e.g. --rate low=50)")
    frontend.add_argument("--forward-timeout", type=float, default=60.0,
                          help="seconds before a wedged worker forward is abandoned")
    frontend.add_argument("--secret", default=None,
                          help="shared HMAC secret for the fleet "
                               "(default: $REPRO_FABRIC_SECRET)")
    frontend.add_argument("--replication", type=int, default=1, metavar="R",
                          help="replicas (owner included) each key may land "
                               "on; 1 = single-owner routing")
    frontend.add_argument("--worker-inflight-limit", type=int, default=32,
                          help="per-worker outstanding forwards past which "
                               "load spills to the next replica")
    _tls_flags(frontend)
    frontend.set_defaults(func=cmd_frontend)

    worker = sub.add_parser(
        "worker", help="run a serve process that joins a fabric front-end")
    worker.add_argument("--join", required=True, metavar="HOST:PORT",
                        help="the front-end's control address")
    worker.add_argument("--worker-id", default=None,
                        help="ring identity (default: worker-<host>:<port>)")
    worker.add_argument("--advertise-host", default=None,
                        help="address the front-end dials back "
                             "(when binding 0.0.0.0)")
    worker.add_argument("--prewarm-interval", type=float, default=None,
                        metavar="SECONDS",
                        help="periodic replica pre-warm cadence (membership "
                             "churn always triggers one immediately)")
    _serve_flags(worker, default_port=0)
    worker.set_defaults(func=cmd_worker)

    status = sub.add_parser(
        "frontend-status",
        help="print a running front-end's members, load, and replica placement")
    status.add_argument("frontend", metavar="HOST:PORT",
                        help="the front-end's address")
    status.add_argument("--secret", default=None,
                        help="shared HMAC secret (default: $REPRO_FABRIC_SECRET)")
    _tls_flags(status)
    status.set_defaults(func=cmd_frontend_status)

    bench = sub.add_parser(
        "bench-serve", help="closed-loop load benchmark against an in-process server")
    bench.add_argument("--requests", type=int, default=200,
                       help="requests per pass (cold and warm)")
    bench.add_argument("--concurrency", type=int, default=8,
                       help="closed-loop client workers")
    bench.add_argument("--workers", type=int, default=2, help="server worker shards")
    bench.add_argument("--mode", default="process", choices=("process", "thread"))
    bench.add_argument("--max-batch", type=int, default=8)
    bench.add_argument("--max-delay-ms", type=float, default=2.0)
    bench.add_argument("--scale", default="full", choices=("smoke", "full"),
                       help="request-mix weight (smoke = lenet-only, CI-cheap)")
    bench.add_argument("--duration", type=float, default=None, metavar="SECONDS",
                       help="add a sustained pass cycling the mix closed-loop "
                            "for this long (steady-state numbers for the "
                            "trend gate)")
    bench.add_argument("--cache-dir", default=None,
                       help="server cache dir (default: fresh temp dir = cold start)")
    bench.add_argument("--verify", action="store_true",
                       help="recompute every distinct point directly and require parity")
    bench.add_argument("--min-warm-speedup", type=float, default=None,
                       help="fail unless warm/cold throughput reaches this factor")
    bench.add_argument("--json", default=None,
                       help="write the BENCH_serve.json artifact here")
    bench.set_defaults(func=cmd_bench_serve)

    regress = sub.add_parser(
        "regress", help="golden-result harness: check/update committed references")
    regress.add_argument("--check", action="store_true",
                         help="regenerate and diff against references (the default)")
    regress.add_argument("--update", action="store_true",
                         help="rewrite references from fresh regeneration "
                              "(intentional result changes only — commit the diff)")
    regress.add_argument("--only", default=None, metavar="IDS",
                         help="comma-separated experiment ids (e.g. fig11,engine-digest)")
    regress.add_argument("--smoke", action="store_true",
                         help="restrict to the cheap CI smoke subset")
    regress.add_argument("--list", action="store_true",
                         help="list selected experiments and reference status")
    regress.add_argument("--references", default=None, metavar="DIR",
                         help="reference directory (default: references/ in the repo, "
                              "or $REPRO_REFERENCES_DIR)")
    regress.add_argument("--workers", type=int, default=0,
                         help="processes to fan regeneration across (0 = serial)")
    regress.add_argument("--report", default=None, metavar="FILE",
                         help="also write the drift report to this file")
    regress.add_argument("--trend", default=None, metavar="KIND",
                         choices=("kernels", "serve", "tiers", "cluster", "programs"),
                         help="analyze a BENCH_*.json trajectory instead of "
                              "checking references")
    regress.add_argument("bench_files", nargs="*", metavar="BENCH_JSON",
                         help="bench artifacts for --trend, oldest first")
    regress.add_argument("--threshold", type=float, default=0.20,
                         help="fractional regression vs trailing median that fails "
                              "the trend gate (default 0.20)")
    regress.add_argument("--window", type=int, default=7,
                         help="trailing runs feeding the median (default 7)")
    regress.set_defaults(func=cmd_regress)

    fac = sub.add_parser("factorize", help="factorize a random layer")
    fac.add_argument("--k", type=int, default=8)
    fac.add_argument("--c", type=int, default=32)
    fac.add_argument("--r", type=int, default=3)
    fac.add_argument("--u", type=int, default=17)
    fac.add_argument("--g", type=int, default=2)
    fac.add_argument("--density", type=float, default=0.9)
    fac.add_argument("--seed", type=int, default=0)
    fac.set_defaults(func=cmd_factorize)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
