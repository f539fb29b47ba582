"""Bench trend analysis: catch regressions the static floors don't.

The nightly benches upload ``BENCH_kernels.json`` / ``BENCH_serve.json``
/ ``BENCH_tiers.json`` / ``BENCH_cluster.json`` / ``BENCH_programs.json``
and gate on *static floors* (engine >= 20x per-entry, warm-serve >= 5x,
artifact-warm start >= 5x over cold compile).  A floor answers "is it
still fast enough to bother?" — it does not answer "did last week's PR
quietly cost 25%?".  A run can clear the 20x floor at 49x today when
it measured 65x all month; that trajectory is the regression.

This module reads a *sequence* of bench payloads (oldest first, newest
last), extracts named scalar metrics from each — every metric tagged
lower-is-better (latencies, elapsed, shed rates) or higher-is-better
(speedups, throughput) — and flags the newest run when a metric is more
than ``threshold`` (default 20%) worse than the **trailing median** of
the prior runs.  The median makes one noisy night a non-event; a real
regression shifts every subsequent run and trips the gate.

Serve p99 latency and shed rate are first-class gated metrics here:
they appear in every serve/cluster payload's extraction, so a latency
or shedding regression fails the trend gate even while throughput
floors still pass.
"""

from __future__ import annotations

import json
import statistics
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

#: Payload kinds the extractor understands.
TREND_KINDS = ("kernels", "serve", "tiers", "cluster", "programs")

#: Fraction-worse-than-median that flags a regression.
DEFAULT_THRESHOLD = 0.20

#: Prior runs required before the gate can fire (median of fewer is
#: too noisy to block on).
MIN_HISTORY = 2


@dataclass(frozen=True)
class Metric:
    """One extracted scalar.

    Attributes:
        name: dotted metric name (``serve.warm.p99_ms``).
        value: the scalar.
        better: ``"lower"`` or ``"higher"``.
    """

    name: str
    value: float
    better: str


@dataclass(frozen=True)
class TrendAlert:
    """One metric that regressed versus its trailing median.

    Attributes:
        metric: the metric name.
        latest: the newest run's value.
        baseline: the trailing median it is judged against.
        change: fractional degradation (0.25 = 25% worse).
        better: the metric's good direction.
    """

    metric: str
    latest: float
    baseline: float
    change: float
    better: str

    def render(self) -> str:
        """One report line for this alert."""
        arrow = "rose" if self.better == "lower" else "fell"
        return (f"{self.metric}: {arrow} to {self.latest:.6g} vs trailing median "
                f"{self.baseline:.6g} ({self.change:.0%} worse; better = {self.better})")


def _unwrap(payload: Mapping) -> Mapping:
    """Strip the bench schema envelope, accepting legacy bare payloads."""
    if "data" in payload and "schema_version" in payload:
        return payload["data"]
    return payload


def _stats_metrics(prefix: str, stats: Mapping) -> list[Metric]:
    """p99 / shed-rate / throughput metrics from one loadgen stats dict."""
    out: list[Metric] = []
    if "p99_ms" in stats:
        out.append(Metric(f"{prefix}.p99_ms", float(stats["p99_ms"]), "lower"))
    if "p50_ms" in stats:
        out.append(Metric(f"{prefix}.p50_ms", float(stats["p50_ms"]), "lower"))
    if "throughput_rps" in stats:
        out.append(Metric(f"{prefix}.throughput_rps", float(stats["throughput_rps"]), "higher"))
    requests = stats.get("requests")
    if requests and "shed" in stats:
        out.append(Metric(f"{prefix}.shed_rate", float(stats["shed"]) / float(requests), "lower"))
    return out


def extract_metrics(kind: str, payload: Mapping) -> list[Metric]:
    """Pull the gated scalar metrics out of one bench payload.

    Args:
        kind: one of :data:`TREND_KINDS`.
        payload: the parsed ``BENCH_*.json`` content (enveloped or
            legacy bare).

    Returns:
        the metrics present in the payload, deterministic order.

    Raises:
        ValueError: unknown kind.
    """
    if kind not in TREND_KINDS:
        raise ValueError(f"unknown bench kind {kind!r}; choose from {TREND_KINDS}")
    payload = _unwrap(payload)
    metrics: list[Metric] = []
    if kind == "kernels":
        # pytest-benchmark format: stats.mean per benchmark, seconds.
        for bench in payload.get("benchmarks", ()):
            name = str(bench.get("name", "?"))
            stats = bench.get("stats", {})
            if "mean" in stats:
                metrics.append(Metric(f"kernels.{name}.mean_s", float(stats["mean"]), "lower"))
    elif kind == "serve":
        # "sustained" (bench-serve --duration) is the steady-state pass;
        # absent from fixed-length-only runs, so it gates only once the
        # history actually carries it.
        for pass_name in ("cold", "warm", "sustained"):
            stats = payload.get(pass_name)
            if isinstance(stats, Mapping):
                metrics.extend(_stats_metrics(f"serve.{pass_name}", stats))
        if "warm_speedup" in payload:
            metrics.append(Metric("serve.warm_speedup", float(payload["warm_speedup"]), "higher"))
    elif kind == "tiers":
        cold = payload.get("cold", {})
        cold_elapsed = float(cold.get("elapsed_s", 0.0)) if isinstance(cold, Mapping) else 0.0
        for pass_name in ("cold", "peer_warm", "local_warm"):
            p = payload.get(pass_name)
            if isinstance(p, Mapping) and "elapsed_s" in p:
                elapsed = float(p["elapsed_s"])
                metrics.append(Metric(f"tiers.{pass_name}.elapsed_s", elapsed, "lower"))
                if pass_name != "cold" and elapsed > 0 and cold_elapsed > 0:
                    metrics.append(Metric(
                        f"tiers.{pass_name}.speedup_vs_cold", cold_elapsed / elapsed, "higher"))
    elif kind == "cluster":
        for pass_name in ("steady", "failover", "overload"):
            p = payload.get(pass_name)
            if isinstance(p, Mapping) and isinstance(p.get("stats"), Mapping):
                metrics.extend(_stats_metrics(f"cluster.{pass_name}", p["stats"]))
    elif kind == "programs":
        # bench_program_store.py: cold compile vs artifact-warm start.
        for field in ("cold_compile_s", "warm_start_s", "artifact_save_s"):
            if field in payload:
                metrics.append(Metric(f"programs.{field}", float(payload[field]), "lower"))
        if "warm_speedup" in payload:
            metrics.append(Metric(
                "programs.warm_speedup", float(payload["warm_speedup"]), "higher"))
    return metrics


def analyze_trend(
    kind: str,
    history: Sequence[Mapping],
    threshold: float = DEFAULT_THRESHOLD,
    window: int = 7,
    min_history: int = MIN_HISTORY,
) -> list[TrendAlert]:
    """Judge the newest payload against the trailing median of the rest.

    Args:
        kind: bench kind (see :data:`TREND_KINDS`).
        history: payloads oldest-first; the last entry is the run under
            judgment.
        threshold: fractional degradation that fires an alert.
        window: at most this many trailing runs feed the median.
        min_history: minimum prior runs before any alert can fire.

    Returns:
        alerts for every regressed metric, deterministic order; empty
        when there is no (or not enough) history, or nothing regressed.
    """
    if len(history) < 2:
        return []
    latest = {m.name: m for m in extract_metrics(kind, history[-1])}
    trailing: dict[str, list[float]] = {}
    for payload in history[-(window + 1):-1]:
        for m in extract_metrics(kind, payload):
            trailing.setdefault(m.name, []).append(m.value)
    alerts: list[TrendAlert] = []
    for name, metric in latest.items():
        values = trailing.get(name, [])
        if len(values) < min_history:
            continue
        baseline = statistics.median(values)
        change = _degradation(metric, baseline)
        if change > threshold:
            alerts.append(TrendAlert(
                metric=name, latest=metric.value, baseline=baseline,
                change=change, better=metric.better))
    return alerts


def _degradation(metric: Metric, baseline: float) -> float:
    """Fractional worsening of ``metric`` vs ``baseline`` (>=0)."""
    if metric.better == "lower":
        if baseline <= 0.0:
            # A zero baseline (e.g. shed rate) regresses the moment the
            # latest value is nonzero — treat any rise as 100% worse.
            return 1.0 if metric.value > 0.0 else 0.0
        return max(0.0, (metric.value - baseline) / baseline)
    if baseline <= 0.0:
        return 0.0
    return max(0.0, (baseline - metric.value) / baseline)


def load_payloads(paths: Sequence[str | Path]) -> list[dict]:
    """Read bench JSON files in the given (oldest-first) order."""
    return [json.loads(Path(p).read_text()) for p in paths]


def render_alerts(kind: str, alerts: Sequence[TrendAlert]) -> str:
    """The human-readable trend report."""
    if not alerts:
        return f"trend[{kind}]: ok"
    lines = [f"trend[{kind}]: {len(alerts)} regression(s) vs trailing median"]
    lines.extend(f"  {a.render()}" for a in alerts)
    return "\n".join(lines)
