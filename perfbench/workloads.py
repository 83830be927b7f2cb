"""The benchmark's three workloads, each one whole run plus its output check.

A workload's ``run`` builds everything anew (topology, router, packets or
arrival process, simulator), so per-instance caches start cold as in a
``repro route`` call, and returns a :class:`Run`: the CPU times, the
packet-hops, the deterministic fingerprint and the run's output check.
Only public entry points are called:
``repro.harness.execute.build_workload``, ``Simulator(..., engine=...)``
with ``.step()``/``.result()``, and ``repro.streaming.run_streaming``.

``small=True`` runs the same code path on a 16x16 mesh: the untimed
warm-up that absorbs imports and first-call costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from time import process_time
from typing import Any, Callable

from repro.harness.execute import build_workload
from repro.mesh import Mesh, Simulator
from repro.routing import (
    BoundedDimensionOrderRouter,
    FarthestFirstRouter,
    GreedyAdaptiveRouter,
)
from repro.streaming import build_process, run_streaming
from spans import ROOT, NullTracer

#: Step cap of the n=512 cell (ROADMAP item 1 measures it at 32 steps).
ARRAY_STEP_CAP = 32
#: Safety cap for runs to completion; random permutations at n=64 take ~114.
REFERENCE_STEP_CAP = 4096


@dataclass
class Run:
    """One whole run of a workload.

    Attributes:
        setup_s: CPU seconds of the run's setup: topology, router,
            workload build and simulator construction.
        run_s: CPU seconds of the whole run (setup included).
        moves: Accepted packet-hops (``total_moves``) of the run.
        fingerprint: Deterministic outputs compared across runs and against
            the stored fingerprints.
        check: The output check; returns what it found wrong, empty when
            correct.  Deferred so the caller can read the run's peak memory
            first (the check materializes every queued packet).
        counts: Deterministic per-layer tallies for the traced run.
    """

    setup_s: float
    run_s: float
    moves: int
    fingerprint: dict[str, Any]
    check: Callable[[], list[str]]
    counts: dict[str, float] = field(default_factory=dict)


def _setup(
    n: int,
    make_router: Callable[[], Any],
    seed: int,
    engine: str,
    tracer: Any,
    label: str,
) -> tuple[Any, list]:
    """Build the topology, router and workload, and construct the simulator."""
    topology = Mesh(n)
    router = make_router()
    with tracer.span("workloads.build"):
        packets = build_workload("random", topology, seed)
    sim = tracer.construct(
        label, Simulator, topology, router, packets, validate=False, engine=engine
    )
    return sim, packets


def _route(
    n: int,
    make_router: Callable[[], Any],
    seed: int,
    engine: str,
    max_steps: int,
    tracer: Any,
    label: str,
) -> tuple[float, float, Any, Any, list]:
    """Set up, step and assemble one closed run.

    Returns (setup seconds, whole-run seconds, simulator, result, packets),
    in CPU seconds of this process.
    """
    t0 = process_time()
    sim, packets = _setup(n, make_router, seed, engine, tracer, label)
    t1 = process_time()
    while not sim.done and sim.time < max_steps:
        sim.step()
    result = sim.result()
    return t1 - t0, process_time() - t0, sim, result, packets


def _check_closed(
    sim: Any, result: Any, packets: list, k: int, engine: str, complete: bool
) -> list[str]:
    """Engine, queue bound, conservation and minimal-path accounting."""
    problems = []
    if sim.engine_name != engine:
        problems.append(f"engine {sim.engine_name!r} ran, {engine!r} requested")
    if result.max_queue_len > k:
        problems.append(f"max_queue_len {result.max_queue_len} > k={k}")
    if complete and not result.completed:
        problems.append(f"not completed after {result.steps} steps")
    c = result.counters
    if c["scheduled_moves"] != c["accepted_moves"] + c["refused_moves"]:
        problems.append("scheduled != accepted + refused moves")
    queued = list(sim.iter_packets())
    if result.delivered + len(queued) + sim.pending_count != len(packets):
        problems.append(
            f"conservation: delivered {result.delivered} + queued {len(queued)} "
            f"+ pending {sim.pending_count} != {len(packets)} packets"
        )
    # Minimal routing: every hop shortens a path by one, so the hops made are
    # the total source-destination distance minus what is still to travel.
    dist = sim.topology.distance
    travelled = sum(dist(p.source, p.dest) for p in packets) - sum(
        dist(p.pos, p.dest) for p in queued
    )
    if travelled != result.total_moves:
        problems.append(
            f"minimality: {result.total_moves} moves, path accounting gives {travelled}"
        )
    return problems


def _closed_fingerprint(result: Any) -> dict[str, Any]:
    c = result.counters
    return {
        "steps": result.steps,
        "total_moves": result.total_moves,
        "scheduled_moves": c["scheduled_moves"],
        "refused_moves": c["refused_moves"],
        "delivered": result.delivered,
        "max_queue_len": result.max_queue_len,
    }


def perm_array_n512(seed: int, tracer: Any, small: bool = False) -> Run:
    """Greedy-adaptive k=2, incoming queues, array engine, random
    permutation on Mesh(512), capped at :data:`ARRAY_STEP_CAP` steps."""
    k = 2
    root = tracer.open(ROOT)
    setup, whole, sim, result, packets = _route(
        16 if small else 512,
        lambda: GreedyAdaptiveRouter(k, "incoming"),
        seed,
        "array",
        ARRAY_STEP_CAP,
        tracer,
        "greedy-adaptive",
    )
    tracer.close(root)
    return Run(
        setup,
        whole,
        result.total_moves,
        _closed_fingerprint(result),
        partial(_check_closed, sim, result, packets, k, "array", False),
        {"workloads.packets": float(len(packets))},
    )


#: (label, router factory) of the reference workload, run back to back.
REFERENCE_ROUTERS: tuple[tuple[str, Callable[[], Any]], ...] = (
    ("bounded-dor", lambda: BoundedDimensionOrderRouter(2)),
    ("farthest-first", lambda: FarthestFirstRouter(2, "incoming")),
)


def perm_reference_n64(seed: int, tracer: Any, small: bool = False) -> Run:
    """Bounded-dor k=2 then farthest-first k=2 (incoming queues), both on
    the reference engine to completion, random permutation on Mesh(64)."""
    setup = whole = 0.0
    moves = built = 0
    fingerprint: dict[str, Any] = {}
    checks: list[tuple[str, Callable[[], list[str]]]] = []
    root = tracer.open(ROOT)
    for label, make_router in REFERENCE_ROUTERS:
        s, w, sim, result, packets = _route(
            16 if small else 64,
            make_router,
            seed,
            "reference",
            REFERENCE_STEP_CAP,
            tracer,
            label,
        )
        setup += s
        whole += w
        moves += result.total_moves
        built += len(packets)
        fingerprint[label] = _closed_fingerprint(result)
        checks.append(
            (label, partial(_check_closed, sim, result, packets, 2, "reference", True))
        )
    tracer.close(root)

    def check() -> list[str]:
        return [f"{label}: {p}" for label, run_check in checks for p in run_check()]

    return Run(
        setup, whole, moves, fingerprint, check, {"workloads.packets": float(built)}
    )


def perm_reference_n64_setup(seed: int) -> None:
    """The setup of :func:`perm_reference_n64` alone."""
    for label, make_router in REFERENCE_ROUTERS:
        _setup(64, make_router, seed, "reference", NullTracer(), label)


def _stream_setup(seed: int, small: bool = False) -> tuple[Mesh, Any, Any]:
    """Topology, router and arrival process; ``run_streaming`` builds the
    simulator itself."""
    return (
        Mesh(16 if small else 64),
        BoundedDimensionOrderRouter(4),
        build_process("poisson", 0.05, seed=seed),
    )


def stream_array_n64(seed: int, tracer: Any, small: bool = False) -> Run:
    """Bounded-dor k=4, array engine, Poisson arrivals at 0.05 packets per
    node per step on Mesh(64): warmup 32, measure 64, drain <= 512, oracles
    in record mode (the ``repro stream`` defaults)."""
    k = 4
    root = tracer.open(ROOT)
    t0 = process_time()
    topology, router, process = _stream_setup(seed, small)
    t1 = process_time()
    if tracer.enabled:
        process.arrivals = tracer.wrap("arrivals", process.arrivals)
    with tracer.streaming_patches(), tracer.span("streaming.run"):
        report = run_streaming(
            topology, router, process, warmup=32, measure=64, drain=512, engine="array"
        )
    with tracer.span("result.assemble"):
        metrics = report.to_metrics()
    whole = process_time() - t0
    tracer.close(root)

    result = report.result
    c = result.counters
    fingerprint = {
        "steps": result.steps,
        "total_moves": result.total_moves,
        "scheduled_moves": c["scheduled_moves"],
        "refused_moves": c["refused_moves"],
        "delivered": result.delivered,
        "max_queue_len": result.max_queue_len,
        **{
            key: metrics[key]
            for key in (
                "offered_packets",
                "admitted_packets",
                "rejected_packets",
                "delivered_measured",
                "latency_p50",
                "latency_p95",
                "latency_p99",
                "drained",
            )
        },
    }
    return Run(
        t1 - t0,
        whole,
        result.total_moves,
        fingerprint,
        partial(_check_stream, report, k),
        {
            "admission.offered": float(report.offered),
            "admission.admitted": float(report.admitted),
            "admission.rejected": float(report.rejected),
            "admission.accept_ratio": report.admitted / report.offered
            if report.offered
            else 0.0,
            "oracles.violations": float(len(report.violations)),
        },
    )


def _check_stream(report: Any, k: int) -> list[str]:
    """Engine, oracle verdicts, drain, admission accounting, queue bound."""
    result = report.result
    problems = []
    if report.engine != "array":
        problems.append(f"engine {report.engine!r} ran, 'array' requested")
    if report.violations:
        problems.append(f"{len(report.violations)} oracle violations")
    if not report.drained or report.stalled:
        problems.append(f"not drained (stalled={report.stalled})")
    if report.offered != report.admitted + report.rejected:
        problems.append("offered != admitted + rejected")
    if result.total_packets != report.offered or result.delivered != report.admitted:
        problems.append(
            f"{result.total_packets} packets / {result.delivered} delivered for "
            f"{report.offered} offered / {report.admitted} admitted"
        )
    if result.max_queue_len > k:
        problems.append(f"max_queue_len {result.max_queue_len} > k={k}")
    return problems


@dataclass(frozen=True)
class Workload:
    """A workload's whole run and how its ``setup_s`` samples are taken.

    Attributes:
        run: One whole run, as ``run(seed, tracer, small=False)``.
        setup: The run's setup alone, the same code ``run`` times, or None.
        setups_per_sample: Setups averaged into one ``setup_s`` sample: the
            run's own, then ``setup`` repeated as one timed batch.  Where a
            setup takes milliseconds or less, one setup is mostly timer and
            host noise; at n=512 it takes seconds and the run's own is used.
    """

    run: Callable[..., Run]
    setup: Callable[[int], Any] | None = None
    setups_per_sample: int = 1


WORKLOADS: dict[str, Workload] = {
    "perm-array-n512": Workload(perm_array_n512),
    "perm-reference-n64": Workload(perm_reference_n64, perm_reference_n64_setup, 8),
    "stream-array-n64": Workload(stream_array_n64, _stream_setup, 100_000),
}
