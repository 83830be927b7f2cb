"""Latency and throughput statistics from routing runs.

Downstream network-evaluation users expect latency distributions and
throughput-over-time series, not just completion times; these helpers
compute them from :class:`~repro.mesh.simulator.RunResult` data (packet
injection/delivery times and the optional per-step series).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.analysis.stats import percentile
from repro.mesh.packet import Packet
from repro.mesh.simulator import RunResult


@dataclass(frozen=True)
class LatencyStats:
    """Distribution of per-packet latencies (delivery - injection).

    Attributes:
        count: Delivered packets included.
        mean / p50 / p95 / p99 / max: The usual summary points; the
            percentiles are nearest-rank (:func:`repro.analysis.stats.percentile`),
            so each is an observed latency.
        mean_slowdown: Mean of latency / shortest-path distance over
            packets with nonzero distance (1.0 = every packet took an
            uncontended shortest path).
    """

    count: int
    mean: float
    p50: int
    p95: int
    p99: int
    max: int
    mean_slowdown: float


def latency_stats(
    result: RunResult,
    packets: Sequence[Packet],
    distances: Mapping[int, int] | None = None,
) -> LatencyStats:
    """Compute latency statistics for one run.

    Args:
        result: The finished run.
        packets: The instance (used for injection times and, with
            ``distances``, slowdowns).
        distances: pid -> shortest-path distance.  When given, the mean
            slowdown is computed; otherwise it is reported as ``nan``.
    """
    injection = {p.pid: p.injection_time for p in packets}
    lat = sorted(t - injection[pid] for pid, t in result.delivery_times.items())
    if not lat:
        return LatencyStats(0, 0.0, 0, 0, 0, 0, float("nan"))
    slowdown = float("nan")
    if distances is not None:
        ratios = [
            (result.delivery_times[pid] - injection[pid]) / distances[pid]
            for pid in result.delivery_times
            if distances.get(pid, 0) > 0
        ]
        if ratios:
            slowdown = float(np.mean(ratios))
    p50, p95, p99 = (percentile(lat, q, presorted=True) for q in (50, 95, 99))
    return LatencyStats(
        count=len(lat),
        mean=sum(lat) / len(lat),
        p50=p50,
        p95=p95,
        p99=p99,
        max=lat[-1],
        mean_slowdown=slowdown,
    )


def throughput_series(result: RunResult, window: int = 1) -> list[tuple[int, float]]:
    """Deliveries per step, optionally averaged over a trailing window.

    Computed from ``delivery_times``; works without per-step series
    recording.  Returns (step, deliveries/step) pairs covering 1..steps.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    per_step = np.zeros(result.steps + 1, dtype=float)
    for t in result.delivery_times.values():
        if t > 0:
            per_step[min(t, result.steps)] += 1
    out = []
    for t in range(1, result.steps + 1):
        lo = max(1, t - window + 1)
        out.append((t, float(per_step[lo : t + 1].mean())))
    return out


def peak_throughput(result: RunResult, window: int = 8) -> float:
    """Highest windowed delivery rate achieved during the run."""
    series = throughput_series(result, window)
    return max((v for _, v in series), default=0.0)
