"""The four benchmark workloads.

Each workload function takes a :class:`Context` and returns a
:class:`Run`: end-to-end metrics measured with tracing off, per-layer
metrics from a traced run (``ctx.trace``), the output checks it made,
and the exact counts the run produced.  Why each workload and each rate
was chosen is recorded in ``README.md`` next to this file.

A traced run spends its first third untraced and the rest traced, so it
reports its own tracing overhead on the same seed.  Per-layer times are
totals over the traced window divided by the units of work finished in
it: one ``execute_network`` call (``infer-lenet``), one request
(``serve-*``), one pass over every figure (``figures``).
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from openloop import poisson_offsets, run_open_loop
from repro.serve.client import ServeClient
from server import ServerProcess
from tracer import SpanTracer, aggregate

_now = time.perf_counter

#: Seed of the LeNet weights.  The model is part of the workload; only
#: the images come from ``--seed``, so the compiled program, and every
#: count taken from it, is the same on every run.
MODEL_SEED = 2018
LENET_BATCH = 16
LENET_THREADS = 2
LENET_CONVS = ("conv1", "conv2", "conv3")
#: Timings of every prefix network behind each per-step time (traced).
STEP_REPEATS = 5

#: Offered load of the served workloads, about a quarter of the
#: measured saturation rate of each path on a 2-core host.  At half of
#: saturation, a phase in which the host steals a third of the CPU
#: pushed the miss path past saturation and its p50 up sevenfold (see
#: README.md).
FORWARD_RATE = 15.0
HITS_RATE = 500.0
#: Latency limits defining goodput (replies within the limit, per second).
FORWARD_LIMIT_MS = 200.0
HITS_LIMIT_MS = 10.0
#: Keys requested by ``serve-hits``, all written during warm-up.
HITS_CATALOG = 32
#: A run whose generator sent its median request later than the first
#: limit, or its p99 request later than the second, did not offer the
#: load it claims and is invalid.  Short stalls are expected: the host
#: at times takes the CPU from the generator and the server alike.
LAG_P50_LIMIT_MS = 5.0
LAG_P99_LIMIT_MS = 100.0
#: ``serve-forward`` replies whose checksum is recomputed in process.
CHECKSUM_SAMPLES = 16

#: Set-ups measured per run; ``setup_s`` is their median.  A LeNet
#: set-up takes ~50 ms, so more of them fit.
SETUP_REPEATS = 5
LENET_SETUP_REPEATS = 15


@dataclass
class Context:
    """Arguments of one benchmark run."""

    root: str
    outdir: str
    seed: int
    seconds: float
    trace: bool


@dataclass
class Run:
    """What one workload run measured and checked.

    Attributes:
        attempted / failed: output checks and units of work attempted,
            and how many of them failed.
        invalid: why the measurement itself cannot be trusted, if so.
        metrics: end-to-end ``name -> (value, note)``.
        layers: per-layer ``name -> value`` (traced runs).
        counts: exact counts that must repeat on the same code.
        notes: extra human-readable lines.
        spans: the traced spans, written out at the end of the run.
    """

    attempted: int = 0
    failed: int = 0
    invalid: str | None = None
    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    spans: dict | None = None

    def check(self, ok: bool, what: str) -> None:
        """Count one output check; note it when it fails."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(f"check failed: {what}")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of a non-empty list."""
    return float(np.quantile(np.asarray(values, dtype=float), q))


def tail_quantile(n: int) -> float:
    """The highest quantile up to 0.99 with at least 10 samples above it.

    Below 20 samples no quantile above the median qualifies, and the
    median is returned.
    """
    return max(0.5, min(0.99, 1.0 - 10.0 / n))


def latency_metrics(run: Run, samples_ms: list[float], unit_name: str) -> None:
    """Fill ``latency_p50_ms`` and ``latency_p99_ms`` from samples."""
    n = len(samples_ms)
    q = tail_quantile(n)
    run.metrics["latency_p50_ms"] = (percentile(samples_ms, 0.5), f"median {unit_name}, n={n}")
    run.metrics["latency_p99_ms"] = (
        percentile(samples_ms, q), f"p{q * 100:g} {unit_name}, n={n}, "
        f"{n - int(np.ceil(q * n))} samples above")


def self_peak_rss_mb() -> float:
    """Peak RSS of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_unit(agg: dict, name: str, units: int, scale: float, key: str = "total") -> float:
    """A traced span name's time per unit of work, in ``scale`` units."""
    entry = agg.get(name)
    if entry is None or units <= 0:
        return 0.0
    return entry[key] / units * scale


def timed_phases(ctx: Context, run_phase) -> tuple[list, list | None, dict | None]:
    """Run the measured window, splitting it when tracing.

    ``run_phase(seconds)`` measures for ``seconds`` and returns its unit
    samples.  Untraced runs use the whole window.  Traced runs measure a
    third untraced, then install the tracer for the rest; the traced
    samples come back with the spans aggregated over that window.
    """
    if not ctx.trace:
        return run_phase(ctx.seconds), None, None
    untraced = run_phase(ctx.seconds / 3.0)
    tracer = SpanTracer()
    start = _now()
    tracer.install()
    try:
        traced = run_phase(ctx.seconds * 2.0 / 3.0)
    finally:
        tracer.uninstall()
    agg = aggregate(tracer.spans, start, _now())
    return untraced, traced, {"agg": agg, "spans": tracer.spans, "samples": tracer.samples}


def trace_overhead(run: Run, untraced_ms: list[float], traced_ms: list[float]) -> None:
    """Per-layer tracing overhead: traced against untraced median."""
    base = statistics.median(untraced_ms)
    traced = statistics.median(traced_ms)
    run.layers["trace.untraced_p50_ms"] = base
    run.layers["trace.traced_p50_ms"] = traced
    run.layers["trace.overhead_pct"] = (traced / base - 1.0) * 100.0


# ----------------------------------------------------------------------
# infer-lenet
# ----------------------------------------------------------------------


def lenet_with_weights():
    """The paper's LeNet with INQ-like U=17, 90%-dense conv and FC weights."""
    from repro.nn.layers import ConvLayer, FullyConnectedLayer
    from repro.nn.zoo import lenet_cifar10
    from repro.quant.distributions import uniform_unique_weights

    net = lenet_cifar10()
    rng = np.random.default_rng(MODEL_SEED)
    for layer in net.layers:
        if isinstance(layer, ConvLayer):
            layer.set_weights(uniform_unique_weights(layer.shape.weight_shape, 17, 0.9, rng).values)
        elif isinstance(layer, FullyConnectedLayer):
            shape = (layer.out_features, layer.in_features)
            layer.set_weights(uniform_unique_weights(shape, 17, 0.9, rng).values)
    return net


def conv_counts(program) -> dict:
    """Per-image entries, segments, windows and dense MACs of each conv step."""
    counts = {}
    for step in program.steps:
        if not hasattr(step, "shards"):
            continue
        segments = sum(p.num_segments for spec in step.shards for p in spec.program.passes)
        prefix = f"engine.conv.{step.name}"
        counts[f"{prefix}.entries"] = int(step.entries)
        counts[f"{prefix}.segments"] = int(segments)
        counts[f"{prefix}.windows"] = int(step.windows)
        counts[f"{prefix}.dense_macs"] = int(step.out_shape[0] * step.filter_size * step.windows)
    return counts


def lenet_step_times(net, images: np.ndarray) -> tuple[dict, float]:
    """Per-step ms from prefix sub-networks; returns (steps, full ms).

    Step ``k`` is the time of the first ``k`` layers minus that of the
    first ``k - 1``, taken within one repeat and then the median over
    :data:`STEP_REPEATS`.  Each repeat times every prefix once, in
    ascending then descending order, so the two prefixes of a
    difference always run back to back and host load that drifts over
    seconds cancels out.
    """
    from repro.engine import compile_network, execute_network
    from repro.nn.network import Network

    programs = [
        compile_network(Network(f"{net.name}-prefix{k}", net.input_shape, net.layers[:k]))
        for k in range(1, len(net.layers) + 1)
    ]
    diffs: list[list[float]] = [[] for _ in programs]
    full: list[float] = []
    for rep in range(STEP_REPEATS):
        order = range(len(programs)) if rep % 2 == 0 else reversed(range(len(programs)))
        times = [0.0] * len(programs)
        for k in order:
            start = _now()
            execute_network(programs[k], images, threads=LENET_THREADS)
            times[k] = (_now() - start) * 1000.0
        for k, ms in enumerate(times):
            diffs[k].append(ms - (times[k - 1] if k else 0.0))
        full.append(times[-1])
    steps = {layer.name: statistics.median(d) for layer, d in zip(net.layers, diffs)}
    return steps, statistics.median(full)


def infer_lenet(ctx: Context) -> Run:
    """Fused LeNet inference on fresh seeded 16-image batches."""
    from repro.engine import (
        clear_program_cache,
        compile_network,
        execute_network,
        program_cache_info,
    )

    run = Run()
    setups = []
    for _ in range(LENET_SETUP_REPEATS):
        clear_program_cache()
        start = _now()
        net = lenet_with_weights()
        program = compile_network(net)
        setups.append(_now() - start)
    setup_misses = program_cache_info()["misses"]
    run.metrics["setup_s"] = (statistics.median(setups), f"median of {LENET_SETUP_REPEATS} "
                              "cold set-ups (weights + compile_network)")
    run.counts.update(conv_counts(program))
    run.counts["engine.setup_program_compiles"] = setup_misses

    rng = np.random.default_rng(ctx.seed)

    def batch() -> np.ndarray:
        return rng.integers(-16, 17, size=(LENET_BATCH, 3, 32, 32))

    # Two references on the first batch: the per-layer path shares the
    # compiled conv programs with the fused one, while stacked
    # Network.forward runs the dense reference convolution and so also
    # catches a wrong program.
    images = batch()
    fused = execute_network(compile_network(net), images, threads=LENET_THREADS)
    start = _now()
    reference = net.forward_batch(images, fused=False)
    per_layer_ms = (_now() - start) * 1000.0
    run.check(np.array_equal(fused, reference), "fused output differs from forward_batch(fused=False)")
    start = _now()
    stacked = np.stack([net.forward(image) for image in images])
    dense = [(_now() - start) * 1000.0]
    run.check(np.array_equal(stacked, fused), "stacked Network.forward differs from fused")
    expected_shape = fused.shape

    def phase(seconds: float) -> list[float]:
        times: list[float] = []
        end = _now() + seconds
        while _now() < end or not times:
            images = batch()
            start = _now()
            try:
                out = execute_network(compile_network(net), images, threads=LENET_THREADS)
            except Exception as exc:  # noqa: BLE001 - a failing call is a failed unit
                run.check(False, f"execute_network raised {exc!r}")
                continue
            times.append(_now() - start)
            run.check(out.shape == expected_shape, f"output shape {out.shape}")
        return times

    misses_before = program_cache_info()["misses"]
    untraced, traced, trace = timed_phases(ctx, phase)
    run.counts["engine.window_program_compiles"] = program_cache_info()["misses"] - misses_before
    calls_ms = [t * 1000.0 for t in untraced]
    latency_metrics(run, calls_ms, "16-image execute_network call")
    # From the median call, not the total: a few calls slowed by host CPU
    # steal moved the total-based rate twice as much between runs.
    run.metrics["goodput_per_s"] = (LENET_BATCH / statistics.median(untraced),
                                    "images/s at the median call")
    run.metrics["peak_rss_mb"] = (self_peak_rss_mb(), "benchmark process")
    run.notes.append(f"nn.per_layer_ms={per_layer_ms:.1f} (forward_batch fused=False, same batch)")

    if trace is not None:
        units = len(traced)
        agg = trace["agg"]
        trace_overhead(run, calls_ms, [t * 1000.0 for t in traced])
        _engine_layers(run, agg, units)
        steps, full_ms = lenet_step_times(net, images)
        for name, ms in steps.items():
            run.layers[f"engine.step.{name}_ms"] = ms
        run.layers["engine.conv_share"] = sum(steps[c] for c in LENET_CONVS) / full_ms
        for _ in range(2):
            start = _now()
            np.stack([net.forward(image) for image in images])
            dense.append((_now() - start) * 1000.0)
        run.layers["nn.dense_ms"] = statistics.median(dense)
        run.layers["nn.per_layer_ms"] = per_layer_ms
        run.layers["engine.compile_cold_ms"] = statistics.median(setups) * 1000.0
        run.layers["engine.program_cache_misses"] = run.counts["engine.window_program_compiles"]
        run.layers.update(conv_counts(program))
        run.spans = trace
        run.notes.append(
            f"dense gap: fused {full_ms:.1f} ms vs stacked Network.forward "
            f"{run.layers['nn.dense_ms']:.1f} ms vs per-layer {per_layer_ms:.1f} ms per batch")
    return run


def _engine_layers(run: Run, agg: dict, units: int) -> None:
    """Engine and nn span times per unit of work."""
    run.layers["engine.compile_ms"] = per_unit(agg, "engine.compile", units, 1e3)
    run.layers["engine.execute_ms"] = per_unit(agg, "engine.execute", units, 1e3)
    run.layers["engine.execute_self_ms"] = per_unit(agg, "engine.execute", units, 1e3, "self")
    for prim in ("take", "reduceat", "multiply", "matmul", "pool_setup"):
        run.layers[f"engine.{prim}_ms"] = per_unit(agg, f"engine.{prim}", units, 1e3)
    run.layers["engine.verify_ms"] = per_unit(agg, "nn.forward_batch", units, 1e3)


# ----------------------------------------------------------------------
# serve-forward / serve-hits
# ----------------------------------------------------------------------


def _stats(server: ServerProcess) -> dict:
    """The server's ``_stats`` counters."""
    with ServeClient(port=server.port) as client:
        return client.stats()


def _stop(server: ServerProcess) -> None:
    """Stop a server and delete its result cache."""
    server.stop()
    shutil.rmtree(server.cache_dir, ignore_errors=True)


def _spawn_servers(ctx: Context, run: Run, tag: str) -> ServerProcess:
    """Measure set-up over several spawns; return the last, running server.

    A traced run reports no end-to-end metrics and spawns once.
    """
    repeats = 1 if ctx.trace else SETUP_REPEATS
    setups = []
    for i in range(repeats):
        server = ServerProcess(ctx.outdir, f"{tag}-{i}").start()
        setups.append(server.setup_s)
        if i < repeats - 1:
            _stop(server)
    run.metrics["setup_s"] = (statistics.median(setups),
                              f"median of {repeats} spawns, spawn to first ping reply")
    return server


def _drive(ctx: Context, run: Run, server: ServerProcess, rate: float, seconds: float,
           payload, limit_ms: float, check_reply) -> dict:
    """One open-loop window against ``server``; checks every reply."""
    rng = random.Random(f"{ctx.seed}:{rate}:{seconds}")
    offsets = poisson_offsets(rate, seconds, rng)
    payloads = [payload(i, rng) for i in range(len(offsets))]
    before = _stats(server)
    load = run_open_loop(server.port, offsets, payloads)
    after = _stats(server)
    latencies = load.latencies_ms()
    ok_ms = []
    for i, (reply, ms) in enumerate(zip(load.replies, latencies)):
        good = reply is not None and reply.get("ok") is True and check_reply(payloads[i], reply)
        run.check(good, f"request {i}: {reply!r:.200}")
        if good:
            ok_ms.append(ms)
    lags = load.lags_ms()
    done = [d for d in load.done if d is not None]
    return {
        "ok_ms": ok_ms,
        "good": sum(1 for ms in ok_ms if ms <= limit_ms),
        "lag_p50_ms": percentile(lags, 0.5),
        "lag_p99_ms": percentile(lags, 0.99),
        "window": (load.start, max(done) if done else load.start + seconds),
        "requests": len(offsets),
        "before": before,
        "after": after,
    }


def _serve_metrics(run: Run, window: dict, server: ServerProcess, limit_ms: float) -> None:
    latency_metrics(run, window["ok_ms"] or [float("nan")], "request from intended send time")
    start, end = window["window"]
    run.metrics["goodput_per_s"] = (window["good"] / (end - start),
                                    f"OK replies within {limit_ms:g} ms per second, "
                                    "first intended send to last reply")
    run.metrics["peak_rss_mb"] = (server.peak_rss_mb or 0.0, "server process")
    if window["lag_p50_ms"] > LAG_P50_LIMIT_MS or window["lag_p99_ms"] > LAG_P99_LIMIT_MS:
        run.invalid = (f"generator fell behind: send lag p50 {window['lag_p50_ms']:.1f} ms, "
                       f"p99 {window['lag_p99_ms']:.1f} ms (limits {LAG_P50_LIMIT_MS:g} and "
                       f"{LAG_P99_LIMIT_MS:g} ms)")
    run.notes.append(f"gen.lag_p50_ms={window['lag_p50_ms']:.2f} "
                     f"gen.lag_p99_ms={window['lag_p99_ms']:.2f}; "
                     f"{window['requests']} requests offered")


def _serve_counts(run: Run, stats: dict) -> None:
    """Exact server counters; batches depend on timing and are not compared."""
    run.counts["serve.stats_hits"] = int(stats["hits"])
    run.counts["serve.stats_misses"] = int(stats["misses"])
    run.counts["serve.stats_errors"] = int(stats["errors"])
    run.counts["engine.program_cache_misses"] = int(stats["programs"]["misses"])
    run.notes.append(f"_stats: {stats['requests']} requests, {stats['hits']} hits, "
                     f"{stats['misses']} misses, {stats['batches']} batches")


def _serve_layers(run: Run, window: dict, spans_path: str) -> None:
    """Per-request server-side times from the traced server's spans."""
    with open(spans_path) as fh:
        dumped = json.load(fh)
    start, end = window["window"]
    agg = aggregate(dumped["spans"], start, end)
    units = window["requests"]
    _engine_layers(run, agg, units)
    run.layers["serve.decode_us"] = per_unit(agg, "serve.decode", units, 1e6)
    run.layers["serve.encode_us"] = per_unit(agg, "serve.encode", units, 1e6)
    run.layers["serve.queue_ms"] = per_unit(agg, "serve.queue", units, 1e3)
    run.layers["serve.endpoint_ms"] = per_unit(agg, "serve.endpoint", units, 1e3)
    run.layers["cache.get_us"] = per_unit(agg, "cache.get", units, 1e6)
    run.layers["cache.put_ms"] = per_unit(agg, "cache.put", units, 1e3)
    sizes = [v for name, t, v in dumped["samples"]
             if name == "serve.batch_size" and start <= t < end]
    run.layers["serve.batch_size"] = statistics.mean(sizes) if sizes else 0.0
    before, after = window["before"], window["after"]
    hits = after["hits"] - before["hits"]
    served = hits + after["misses"] - before["misses"] + after["coalesced"] - before["coalesced"]
    run.layers["cache.hit_ratio"] = hits / served if served else 0.0
    run.layers["serve.stats_batches"] = after["batches"] - before["batches"]


def _serve_workload(ctx: Context, tag: str, rate: float, limit_ms: float,
                    warm_up, payload, check_reply) -> Run:
    run = Run()
    server = _spawn_servers(ctx, run, tag)
    try:
        warm_up(run, server)
        if not ctx.trace:
            window = _drive(ctx, run, server, rate, ctx.seconds, payload, limit_ms, check_reply)
            stats = _stats(server)
        else:
            first = _drive(ctx, run, server, rate, ctx.seconds / 3.0, payload, limit_ms,
                           check_reply)
    finally:
        _stop(server)
    if ctx.trace:
        spans_path = os.path.join(ctx.outdir, f"server-spans-{tag}.json")
        server = ServerProcess(ctx.outdir, f"{tag}-traced", spans=spans_path).start()
        try:
            warm_up(run, server)
            window = _drive(ctx, run, server, rate, ctx.seconds * 2.0 / 3.0, payload, limit_ms,
                            check_reply)
            stats = _stats(server)
        finally:
            _stop(server)
        trace_overhead(run, first["ok_ms"], window["ok_ms"])
        _serve_layers(run, window, spans_path)
        run.layers["gen.lag_p99_ms"] = window["lag_p99_ms"]
    _serve_metrics(run, window, server, limit_ms)
    _serve_counts(run, stats)
    run.check(server.exit_code == 0, f"server exit code {server.exit_code}")
    if ctx.trace:
        run.layers["engine.program_cache_misses"] = run.counts["engine.program_cache_misses"]
        run.layers["serve.stats_hits"] = run.counts["serve.stats_hits"]
        run.layers["serve.stats_misses"] = run.counts["serve.stats_misses"]
    return run


def serve_forward(ctx: Context) -> Run:
    """Open-loop ``network_forward`` requests, each with a new seed (miss path)."""
    from repro.serve.endpoints import network_forward

    # Timed requests use even seeds and the warm-up odd ones, so no timed
    # request can hit a key the warm-up wrote, whatever ``--seed`` is.
    base = ctx.seed * 1_000_000
    served: dict[int, dict] = {}

    def warm_up(run: Run, server: ServerProcess) -> None:
        with ServeClient(port=server.port) as client:
            for j in range(4):
                reply = client.send("network_forward", {"seed": 2 * j + 1})
                run.check(reply.ok and reply.value["parity"] is True,
                          f"warm-up reply {reply!r:.200}")

    def payload(i: int, rng: random.Random) -> dict:
        return {"endpoint": "network_forward", "kwargs": {"seed": 2 * (base + i)}}

    def check_reply(request: dict, reply: dict) -> bool:
        value = reply.get("value") or {}
        served[request["kwargs"]["seed"]] = value
        return value.get("parity") is True and not reply.get("cached")

    run = _serve_workload(ctx, "forward", FORWARD_RATE, FORWARD_LIMIT_MS,
                          warm_up, payload, check_reply)
    rng = random.Random(ctx.seed)
    for seed in rng.sample(sorted(served), min(CHECKSUM_SAMPLES, len(served))):
        local = network_forward(seed=seed)
        run.check(local["out_checksum"] == served[seed].get("out_checksum"),
                  f"seed {seed}: served checksum differs from an in-process call")
    return run


def serve_hits(ctx: Context) -> Run:
    """Open-loop requests over a prefilled key catalog (cache-hit path)."""
    catalog = [ctx.seed * 1000 + j for j in range(HITS_CATALOG)]
    expected: dict[int, dict] = {}

    def warm_up(run: Run, server: ServerProcess) -> None:
        with ServeClient(port=server.port) as client:
            for seed in catalog:
                reply = client.send("network_forward", {"seed": seed})
                run.check(reply.ok, f"prefill reply {reply!r:.200}")
                if seed in expected:
                    run.check(reply.value == expected[seed], "prefill differs across servers")
                expected[seed] = reply.value

    def payload(i: int, rng: random.Random) -> dict:
        return {"endpoint": "network_forward", "kwargs": {"seed": rng.choice(catalog)}}

    def check_reply(request: dict, reply: dict) -> bool:
        return reply.get("value") == expected[request["kwargs"]["seed"]]

    return _serve_workload(ctx, "hits", HITS_RATE, HITS_LIMIT_MS, warm_up, payload, check_reply)


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------

_FIGURES_SETUP = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, "src")
from repro.regress.runner import check_one
from repro.regress.specs import REGRESS_SPECS
from repro.regress.store import ReferenceStore
store = ReferenceStore()
for spec in REGRESS_SPECS:
    store.load(spec.experiment)
print(time.perf_counter() - start)
"""

SIM_LAYERS = {
    "sim.ucnn_aggregate_ms": "sim.ucnn_aggregate",
    "core.canonical_order_ms": "core.canonical_order",
    "sim.run_layer_ms": "sim.run_layer",
    "energy.breakdown_ms": "energy.breakdown",
    "quant.weights_ms": "quant.weights",
}


def figures(ctx: Context) -> Run:
    """Repeated full passes of ``check_one`` over every regress spec.

    The passes run the specs in registry order, as ``repro regress
    --check`` does.  Their inputs are pinned by the committed
    references, so the seed changes nothing here.  Shuffling the order
    per seed would make pass time depend on the seed: ``fig10``'s time
    depends on which experiments ran before it in the process.
    """
    run = Run()
    setups = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run([sys.executable, "-c", _FIGURES_SETUP], cwd=ctx.root,
                               capture_output=True, text=True, timeout=120)
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {probe.stderr[-2000:]}")
        setups.append(float(probe.stdout.strip().splitlines()[-1]))
    run.metrics["setup_s"] = (statistics.median(setups), f"median of {SETUP_REPEATS} fresh "
                              "interpreters: imports + loading references")

    from repro.engine import program_cache_info
    from repro.regress.runner import check_one
    from repro.regress.specs import REGRESS_SPECS
    from repro.regress.store import ReferenceStore

    store = ReferenceStore()
    specs = list(REGRESS_SPECS)
    statuses: dict[str, int] = {}

    def phase(seconds: float) -> list[float]:
        passes: list[float] = []
        end = _now() + seconds
        while _now() < end or not passes:
            start = _now()
            for spec in specs:
                outcome = check_one(spec, store)
                statuses[outcome.status] = statuses.get(outcome.status, 0) + 1
                run.check(outcome.status == "ok", outcome.render(limit=3))
            passes.append(_now() - start)
        return passes

    untraced, traced, trace = timed_phases(ctx, phase)
    pass_ms = [t * 1000.0 for t in untraced]
    latency_metrics(run, pass_ms, f"pass over {len(specs)} experiments")
    # From the median pass, as for infer-lenet: a total-based rate took in
    # every pass a host CPU-steal burst slowed, and spread past its bound.
    run.metrics["goodput_per_s"] = (len(specs) / statistics.median(untraced),
                                    "experiments checked per second at the median pass")
    run.metrics["peak_rss_mb"] = (self_peak_rss_mb(), "benchmark process")
    run.counts["figures.experiments"] = len(specs)
    run.counts["engine.program_cache_misses"] = program_cache_info()["misses"]
    run.notes.append(f"outcomes: {statuses}; pass_s median {statistics.median(untraced):.3f}")
    if trace is not None:
        units = len(traced)
        agg = trace["agg"]
        trace_overhead(run, pass_ms, [t * 1000.0 for t in traced])
        _engine_layers(run, agg, units)
        for spec in specs:
            run.layers[f"figures.{spec.experiment}_s"] = per_unit(
                agg, f"figures.{spec.experiment}", units, 1.0)
        for metric, span in SIM_LAYERS.items():
            run.layers[metric] = per_unit(agg, span, units, 1e3)
        run.spans = trace
    return run


WORKLOADS = {
    "infer-lenet": infer_lenet,
    "serve-forward": serve_forward,
    "serve-hits": serve_hits,
    "figures": figures,
}
