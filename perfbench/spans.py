"""Span tracer for the traced benchmark run, built from outside the program.

Every span is one call into a layer's public entry point: its name, start,
end, parent span and run id.  Spans live in flat arrays while the run goes
on and are written out once, when the benchmark ends.  A layer's self time
is the time its spans cover minus the time their direct children cover, so
the self times of all layers plus the self time of the root span (the
unattributed remainder) add up to the traced run's wall time by
construction.  :func:`trace_problems` checks what can go wrong instead:
calls that escape the tracing.

Nothing here changes the program: :meth:`Tracer.streaming_patches` swaps
the names ``repro.streaming.run`` looks up (``Simulator``,
``offer_packet``, ``attach_checker``) and the array engine's ``queues``
property for traced wrappers, and restores them on exit.
"""

from __future__ import annotations

import math
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

import numpy as np

#: Engine name (``Simulator.engine_name``) -> the layer its spans belong to.
ENGINE_LAYER = {"array": "array_engine", "reference": "simulator"}

#: Oracle class name -> per-layer metric stem.
ORACLE_METRIC = {
    "PacketConservationOracle": "conservation",
    "QueueBoundOracle": "queue_bound",
    "MinimalityOracle": "minimality",
}

#: Layers whose self time is reported; the span name's first dotted part.
LAYERS = (
    "workloads",
    "array_engine",
    "simulator",
    "streaming",
    "arrivals",
    "admission",
    "oracles",
    "result",
)

ROOT = "run"

#: Largest share of a traced run's wall time the root span may keep for
#: itself: the glue between the traced calls (topology, router and arrival
#: process construction, the step loop).  A larger remainder means a call
#: into a layer ran outside any span.
UNATTRIBUTED_MAX = 0.02


class NullTracer:
    """The untraced path: same interface, records nothing."""

    enabled = False

    def open(self, name: str) -> int:
        return -1

    def close(self, index: int, name: str | None = None) -> None:
        pass

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield

    def wrap(self, name: str, fn: Callable) -> Callable:
        return fn

    def construct(self, label: str, make: Callable, *args: Any, **kwargs: Any) -> Any:
        return make(*args, **kwargs)

    @contextmanager
    def streaming_patches(self) -> Iterator[None]:
        yield


class Tracer(NullTracer):
    """Records spans and attaches one phase probe per simulator."""

    enabled = True

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self._stack: list[int] = []
        #: (label, simulator, probe) for every simulator of the current run.
        self.sims: list[tuple[str, Any, Any]] = []

    def _nid(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name.append(self._nid(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int, name: str | None = None) -> None:
        self.end[index] = perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")
        if name is not None:
            self.name[index] = self._nid(name)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def construct(self, label: str, make: Callable, *args: Any, **kwargs: Any) -> Any:
        """Build a simulator with ``make`` inside a construction span, then
        attach a phase probe and trace its step/inject/result calls."""
        from repro.perf import StepInstrumentation

        index = self.open("construct")
        sim = make(*args, **kwargs)
        self.close(index, f"{ENGINE_LAYER[sim.engine_name]}.construct")
        probe = StepInstrumentation()
        sim.instrument = probe
        layer = ENGINE_LAYER[sim.engine_name]
        sim.step = self.wrap(f"{layer}.step", sim.step)
        sim.result = self.wrap("result.assemble", sim.result)
        sim.inject_packet = self.wrap(f"{layer}.inject", sim.inject_packet)
        self.sims.append((label, sim, probe))
        return sim

    @contextmanager
    def streaming_patches(self) -> Iterator[None]:
        """Trace the layers ``run_streaming`` calls into while inside."""
        import repro.streaming.run as srun
        from repro.mesh.array_engine import ArraySimulator

        saved = {
            name: getattr(srun, name)
            for name in ("Simulator", "offer_packet", "attach_checker")
        }
        saved_queues = ArraySimulator.queues
        real_simulator = saved["Simulator"]
        real_attach = saved["attach_checker"]

        def simulator(*args: Any, **kwargs: Any) -> Any:
            return self.construct("stream", real_simulator, *args, **kwargs)

        def attach_checker(sim: Any, oracles: Any, mode: str = "strict") -> Any:
            oracles = list(oracles)
            for oracle in oracles:
                stem = ORACLE_METRIC[type(oracle).__name__]
                oracle.post_step = self.wrap(f"oracles.{stem}", oracle.post_step)
            return real_attach(sim, oracles, mode)

        srun.Simulator = simulator
        srun.offer_packet = self.wrap("admission.offer", saved["offer_packet"])
        srun.attach_checker = attach_checker
        ArraySimulator.queues = property(
            self.wrap("array_engine.iter_packets", saved_queues.fget)
        )
        try:
            yield
        finally:
            for name, value in saved.items():
                setattr(srun, name, value)
            ArraySimulator.queues = saved_queues

    # -- derived numbers ---------------------------------------------------

    def _columns(self) -> tuple[np.ndarray, ...]:
        # Copies: a live view would pin the arrays' buffers against growth.
        return tuple(
            np.frombuffer(column, dtype=column.typecode).copy()
            for column in (self.name, self.start, self.end, self.parent, self.run)
        )

    def run_spans(self, run_id: int) -> dict[str, Any]:
        """Inclusive time, self time and durations per span name of one run."""
        name, start, end, parent, run = self._columns()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        mine = run == run_id
        if np.any(mine & ~has_parent & (name != self._name_id[ROOT])):
            raise RuntimeError(f"run {run_id} has spans outside its {ROOT!r} spans")
        out: dict[str, Any] = {"total": {}, "self": {}, "durations": {}}
        for nid in np.unique(name[mine]).tolist():
            label = self.names[nid]
            sel = mine & (name == nid)
            out["total"][label] = float(dur[sel].sum())
            out["self"][label] = float(self_s[sel].sum())
            out["durations"][label] = dur[sel]
        return out

    def write(self, path: Path) -> None:
        """Write every span recorded so far to ``path`` (compressed npz)."""
        name, start, end, parent, run = self._columns()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name,
            start=start,
            end=end,
            parent=parent,
            run=run,
        )


def nearest_rank(values: np.ndarray, q: float) -> float:
    """The nearest-rank ``q``-th percentile of ``values`` (0 when empty)."""
    if len(values) == 0:
        return 0.0
    ordered = np.sort(values)
    return float(ordered[max(math.ceil(q / 100 * len(ordered)) - 1, 0)])


def layer_metrics(tracer: Tracer, spans: dict, counts: dict[str, float]) -> dict:
    """Per-layer metrics of one traced run (see perfbench/README.md).

    ``spans`` is the run's :meth:`Tracer.run_spans`; ``counts`` carries the
    workload's own deterministic tallies (packets built, admission outcomes,
    oracle violations); everything else comes from the spans and the phase
    probes of the run's simulators (``tracer.sims``).
    """
    total, self_s, durations = spans["total"], spans["self"], spans["durations"]
    m: dict[str, float] = dict(counts)

    m["workloads.build_s"] = total.get("workloads.build", 0.0)
    for layer in ENGINE_LAYER.values():
        m[f"{layer}.construct_s"] = total.get(f"{layer}.construct", 0.0)
        m[f"{layer}.step_s"] = total.get(f"{layer}.step", 0.0)
    steps_ms = durations.get("array_engine.step", np.empty(0)) * 1e3
    m["array_engine.step_ms_p50"] = nearest_rank(steps_ms, 50)
    m["array_engine.step_ms_p90"] = nearest_rank(steps_ms, 90)
    m["array_engine.iter_packets_s"] = total.get("array_engine.iter_packets", 0.0)
    m["array_engine.inject_s"] = total.get("array_engine.inject", 0.0)
    m["arrivals.s"] = total.get("arrivals", 0.0)
    m["arrivals.calls"] = float(len(durations.get("arrivals", ())))
    m["admission.offer_s"] = total.get("admission.offer", 0.0)
    for stem in ORACLE_METRIC.values():
        m[f"oracles.{stem}_s"] = total.get(f"oracles.{stem}", 0.0)
    m["result.assemble_s"] = total.get("result.assemble", 0.0)

    array_phase = dict.fromkeys(("a", "c", "d", "e", "hooks"), 0.0)
    tallies = {layer: [0, 0, 0, 0] for layer in ENGINE_LAYER.values()}
    for label, sim, probe in tracer.sims:
        layer = ENGINE_LAYER[sim.engine_name]
        t = tallies[layer]
        t[0] += sim.time
        t[1] += sim.total_moves
        t[2] += sim.scheduled_moves
        t[3] += sim.refused_moves
        if layer == "array_engine":
            for phase in array_phase:
                array_phase[phase] += probe.phase_s[phase]
        else:
            for phase in "abcde":
                m[f"simulator.{label}.phase_{phase}_s"] = probe.phase_s[phase]
    for phase, seconds in array_phase.items():
        key = "hooks_s" if phase == "hooks" else f"phase_{phase}_s"
        m[f"array_engine.{key}"] = seconds
    steps, moves, scheduled, refused = tallies["array_engine"]
    m["array_engine.steps"] = float(steps)
    m["array_engine.moves"] = float(moves)
    m["array_engine.scheduled_moves"] = float(scheduled)
    m["array_engine.refused_moves"] = float(refused)
    m["array_engine.accept_ratio"] = moves / scheduled if scheduled else 0.0
    _, moves, scheduled, _ = tallies["simulator"]
    m["simulator.moves"] = float(moves)
    m["simulator.accept_ratio"] = moves / scheduled if scheduled else 0.0

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for label, seconds in self_s.items():
        if label != ROOT:
            layer_self[label.split(".", 1)[0]] += seconds
    for layer, seconds in layer_self.items():
        m[f"{layer}.self_s"] = seconds
    m["trace.wall_s"] = total[ROOT]
    m["trace.unattributed_s"] = self_s[ROOT]
    m["trace.spans"] = float(sum(len(d) for d in durations.values()))
    return m


def trace_problems(tracer: Tracer, spans: dict) -> list[str]:
    """What shows that calls of one traced run escaped the tracing.

    The run has exactly one root span; every simulator step ran inside a
    step span (span count = steps the phase probes counted, phase time <=
    step-span time); the root span's own remainder stays under
    :data:`UNATTRIBUTED_MAX` of the run.  Empty when all hold.
    """
    total, self_s, durations = spans["total"], spans["self"], spans["durations"]
    problems = []
    roots = len(durations.get(ROOT, ()))
    if roots != 1:
        problems.append(f"{roots} {ROOT!r} spans in one run, expected 1")
    for layer in ENGINE_LAYER.values():
        probes = [
            p for _, sim, p in tracer.sims if ENGINE_LAYER[sim.engine_name] == layer
        ]
        steps = sum(probe.steps for probe in probes)
        spanned = len(durations.get(f"{layer}.step", ()))
        if spanned != steps:
            problems.append(f"{spanned} {layer}.step spans for {steps} steps")
        probed = sum(probe.wall_s for probe in probes)
        stepped = total.get(f"{layer}.step", 0.0)
        if probed > stepped:
            problems.append(
                f"{layer} phases took {probed} s, its step spans {stepped} s"
            )
    if self_s[ROOT] > UNATTRIBUTED_MAX * total[ROOT]:
        problems.append(
            f"unattributed {self_s[ROOT]:.4f} s is over {UNATTRIBUTED_MAX:.0%} "
            f"of the run's {total[ROOT]:.4f} s"
        )
    return problems
