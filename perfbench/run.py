"""Benchmark entry point: run one workload, check it, print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload infer-lenet --seed 1 --seconds 20 --trace 0

Workloads: ``infer-lenet``, ``serve-forward``, ``serve-hits``, ``figures``
(see ``README.md`` beside this file).  The metric names and units come
from ``BENCHMARK.json`` at the checkout root.  The last line of standard
output is one JSON object::

    {"correct": true, "attempted": 18, "failed": 0,
     "metrics": {"latency_p50_ms": {"value": 1104.2, "unit": "ms"}, ...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the per-layer ones.  The lines before it print every
metric with its unit, the error rate, and notes.  The exit code is 0
when every output check passed and the measurement was valid, else 1;
2 when the checkout holds no ``src/repro`` to measure.

Files the run leaves (server logs, traced spans, the per-run count
record) go to ``.perfbench_out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
OUTDIR = os.path.join(ROOT, ".perfbench_out")

#: Units of the end-to-end metrics a run prints.  ``latency_p99_ms`` is
#: printed but not in BENCHMARK.json: its run-to-run spread on a shared
#: 2-core host is wider than any bound a gate could hold it to.
UNITS = {"latency_p50_ms": "ms", "latency_p99_ms": "ms", "goodput_per_s": "1/s",
         "peak_rss_mb": "MB", "setup_s": "s"}

#: Other names for the shared end-to-end metrics, per workload.
ALIASES = {
    "infer-lenet": {"latency_p50_ms": "call_p50_ms", "goodput_per_s": "images_per_s"},
    "serve-forward": {"goodput_per_s": "goodput_rps"},
    "serve-hits": {"goodput_per_s": "goodput_rps"},
    "figures": {"latency_p50_ms": "pass_s x 1000", "goodput_per_s": "experiments_per_s"},
}


def code_fingerprint() -> str:
    """Digest of the measured program and the benchmark's own code."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src", "repro"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return digest.hexdigest()[:16]


def flag_count_drift(key: str, counts: dict) -> list[str]:
    """Compare ``counts`` with the last run of the same code and settings.

    Counts are exact (compiled entries and segments, compiles, server
    hits and misses), so any difference between two runs of the same
    code is a finding.  Returns one line per differing count.
    """
    path = os.path.join(OUTDIR, "counts.json")
    try:
        with open(path) as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        record = {}
    previous = record.get(key, {})
    drifted = [f"count drift: {name} was {previous[name]}, now {value}"
               for name, value in sorted(counts.items())
               if name in previous and previous[name] != value]
    record[key] = counts
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return drifted


def cpu_times() -> list[int]:
    """The host-wide CPU tick counters from ``/proc/stat`` (empty if absent)."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return []


def steal_pct(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor took from this machine in between.

    Field 8 of the ``cpu`` line is steal.  A run with a high share was
    slowed by other tenants of the host, not by the code it measured.
    """
    if len(before) < 8 or len(after) < 8:
        return 0.0
    total = sum(after) - sum(before)
    return 100.0 * (after[7] - before[7]) / total if total > 0 else 0.0


def finite(value: float) -> float:
    """JSON has no NaN or infinity; a metric that is not finite reads 0."""
    return value if math.isfinite(value) else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no src/repro under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(OUTDIR, exist_ok=True)
    # Fabric secrets and TLS settings from the caller's environment would
    # change what the clients and the server do; the benchmark runs open.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    # Keep every file the program writes inside the checkout.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(OUTDIR, "cache")
    os.environ["REPRO_REFERENCES_DIR"] = os.path.join(ROOT, "references")

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    ctx = workloads.Context(root=ROOT, outdir=OUTDIR, seed=args.seed,
                            seconds=args.seconds, trace=bool(args.trace))
    ticks = cpu_times()
    run = workloads.WORKLOADS[args.workload](ctx)
    run.layers["host.steal_pct"] = steal_pct(ticks, cpu_times())
    run.notes.append(f"host steal {run.layers['host.steal_pct']:.1f}% of CPU time during the run")

    key = f"{args.workload}|trace={args.trace}|seconds={args.seconds:g}|{code_fingerprint()}"
    drift = flag_count_drift(key, run.counts)
    run.layers["counts.drifted"] = len(drift)
    if run.spans is not None:
        spans_path = os.path.join(OUTDIR, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w") as fh:
            json.dump({"spans": run.spans["spans"], "samples": run.spans["samples"]}, fh)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    aliases = ALIASES.get(args.workload, {})
    gated = {m["name"] for m in spec["end_to_end"]}
    for name, (value, note) in run.metrics.items():
        alias = f" [{aliases[name]}]" if name in aliases else ""
        extra = "" if name in gated else " (printed, not gated)"
        print(f"  {name:<16} {value:>12.4f} {UNITS[name]:<5} {note}{alias}{extra}")
    error_rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'error_rate':<16} {error_rate:>12.4f} ratio "
          f"{run.failed} failed of {run.attempted} attempted")
    for name, value in sorted(run.counts.items()):
        print(f"  count {name} = {value}")
    if ctx.trace:
        for m in spec["per_layer"]:
            print(f"  {m['name']:<36} {run.layers.get(m['name'], 0.0):>12.4f} {m['unit']}")
    for line in run.notes + drift:
        print(f"  {line}")
    if run.invalid:
        print(f"  INVALID: {run.invalid}")

    if ctx.trace:
        metrics = {m["name"]: {"value": finite(float(run.layers.get(m["name"], 0.0))),
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": finite(float(run.metrics[m["name"]][0])),
                               "unit": m["unit"]} for m in spec["end_to_end"]}
    correct = run.failed == 0 and run.attempted > 0 and run.invalid is None
    print(json.dumps({"correct": correct, "attempted": max(1, run.attempted),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
