"""Saturation sweeps: where does each router's delivered rate knee over?

A saturation sweep runs :func:`~repro.streaming.run.run_streaming` at a
ladder of nominal injection rates and watches two curves:

- **offered rate** grows linearly with the nominal rate (open loop --
  sources do not slow down);
- **delivered rate** tracks it until the network saturates, then knees
  over: into a plateau when the router stays live under admission
  backpressure (Theorem 15's four-queue router, hot-potato), or into a
  collapse when sustained overload exchange-deadlocks a central-queue
  router (the documented Section 2 caveat) -- the ``outcome`` column
  distinguishes *drained* from *wedged* runs.

The *knee* reported here is the first nominal rate at which the
delivered rate falls below ``threshold`` (default 95%) of the measured
offered rate.  Below the knee the network keeps up; above it, latency
percentiles, rejection fractions, and (for the central-queue routers)
deadlock all appear -- exactly the regime where the paper's
bounded-queue guarantees earn their keep.

Everything is deterministic: same spec, same bytes, any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.mesh.interfaces import RoutingAlgorithm
from repro.mesh.topology import Topology
from repro.streaming.arrivals import build_process
from repro.streaming.run import run_streaming

#: Default nominal injection-rate ladder (packets per node per step).
#: Spans well-below-capacity to far-past-saturation for the bounded-queue
#: routers on the mesh sizes the sweeps use (n in {16, 32}).
DEFAULT_RATES = (0.02, 0.05, 0.1, 0.2, 0.4, 0.8)


@dataclass(frozen=True)
class SweepPoint:
    """One rung of the rate ladder: nominal rate plus its metrics row."""

    rate: float
    metrics: dict[str, Any]


@dataclass
class SweepResult:
    """A full sweep for one (algorithm, mesh, process) combination."""

    algorithm: str
    n: int
    process: str
    points: list[SweepPoint] = field(default_factory=list)

    def saturation_rate(self, threshold: float = 0.95) -> float | None:
        """First nominal rate where delivery drops below the threshold.

        Compares delivered rate against the *measured* offered rate (not
        the nominal one), so the knee is about network capacity rather
        than sampling noise in the arrival process.  Returns ``None``
        when the network keeps up at every swept rate.
        """
        for point in self.points:
            offered = point.metrics["offered_rate"]
            if offered <= 0.0:
                continue
            if point.metrics["delivered_rate"] < threshold * offered:
                return point.rate
        return None

    def to_rows(self) -> list[dict[str, Any]]:
        """Flat rows (one per rate) for tables and JSON artifacts."""
        return [
            {
                "algorithm": self.algorithm,
                "n": self.n,
                "process": self.process,
                "rate": point.rate,
                **point.metrics,
            }
            for point in self.points
        ]


def sweep_saturation(
    topology: Topology,
    algorithm: RoutingAlgorithm,
    *,
    algorithm_name: str,
    process: str = "poisson",
    rates: tuple[float, ...] = DEFAULT_RATES,
    seed: int = 0,
    warmup: int = 64,
    measure: int = 256,
    drain: int = 512,
) -> SweepResult:
    """Sweep ``algorithm`` on ``topology`` across the injection-rate ladder.

    Each rung is an independent :func:`run_streaming` call (own simulator,
    own arrival process at the same seed), so rungs are trivially
    parallelizable and the result is identical however they are scheduled.
    """
    result = SweepResult(
        algorithm=algorithm_name, n=topology.shape[0], process=process
    )
    for rate in rates:
        report = run_streaming(
            topology,
            algorithm,
            build_process(process, rate, seed=seed),
            warmup=warmup,
            measure=measure,
            drain=drain,
        )
        result.points.append(SweepPoint(rate=rate, metrics=report.to_metrics()))
    return result


def format_sweep_markdown(results: list[SweepResult]) -> str:
    """Markdown saturation table, one row per (algorithm, n, rate).

    The shape EXPERIMENTS.md embeds: delivered vs offered rate, rejection
    fraction, p50/p99 latency, max queue length, and the per-sweep knee.
    """
    lines = [
        "| algorithm | n | process | rate | offered | delivered | rejected | "
        "p50 | p99 | outcome | knee |",
        "|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for result in results:
        knee = result.saturation_rate()
        knee_text = f"{knee:g}" if knee is not None else "-"
        for point in result.points:
            m = point.metrics
            if m["stalled"]:
                outcome = "wedged"
            elif m["drained"]:
                outcome = "drained"
            else:
                outcome = "slow"
            lines.append(
                "| {alg} | {n} | {proc} | {rate:g} | {off:.3f} | {dlv:.3f} | "
                "{rej:.1%} | {p50} | {p99} | {out} | {knee} |".format(
                    alg=result.algorithm,
                    n=result.n,
                    proc=result.process,
                    rate=point.rate,
                    off=m["offered_rate"],
                    dlv=m["delivered_rate"],
                    rej=m["rejection_fraction"],
                    p50=m["latency_p50"],
                    p99=m["latency_p99"],
                    out=outcome,
                    knee=knee_text,
                )
            )
    return "\n".join(lines)
