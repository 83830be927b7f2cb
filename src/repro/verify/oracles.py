"""Invariant oracles: the paper's guarantees, checked on every step.

Each oracle watches one claim the paper proves (or the model demands) and
is attached to a :class:`~repro.mesh.simulator.Simulator` through its
pre/post-step hook points by an :class:`InvariantChecker`:

- :class:`PacketConservationOracle` -- packets are never created,
  destroyed, or duplicated; deliveries happen exactly at destinations.
- :class:`QueueBoundOracle` -- no queue ever exceeds its capacity ``k``,
  per queue regime (Section 2's inqueue obligation).
- :class:`MinimalityOracle` -- minimal routers only make profitable moves;
  delta-bounded routers stay within the Section 5 excursion rectangle.
- :class:`StepBoundOracle` -- runs finish within the algorithm's proven
  step budget (Theorem 15 for bounded dimension order) and never beat the
  per-packet distance floor.

Checkers run in one of three modes:

- ``strict``: a violation raises :class:`VerificationError` immediately
  (tests, the differential runner).
- ``record``: violations are appended to ``checker.violations`` and
  tallied in ``checker.counters`` -- cheap enough for benchmark sweeps
  that want invariant telemetry without aborting.
- ``off``: nothing is attached; zero per-step cost.

The oracles deliberately re-derive everything from public simulator state
instead of trusting the simulator's own ``validate`` flag, so they catch
regressions in the enforcement code itself (run with ``validate=False`` to
see them work alone).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.mesh.simulator import ScheduledMove, Simulator

MODES = ("strict", "record", "off")


class VerificationError(AssertionError):
    """An oracle observed a violated invariant (strict mode)."""

    def __init__(self, violation: "Violation") -> None:
        super().__init__(str(violation))
        self.violation = violation


@dataclass(frozen=True)
class Violation:
    """One observed invariant violation."""

    oracle: str
    time: int
    message: str

    def __str__(self) -> str:
        return f"[{self.oracle} @ step {self.time}] {self.message}"


class Oracle:
    """Base class: override any subset of the hook methods."""

    name = "oracle"

    def on_attach(self, checker: "InvariantChecker", sim: Simulator) -> None:
        """Called once when the checker attaches to the simulator."""

    def pre_step(self, checker: "InvariantChecker", sim: Simulator) -> None:
        """Called at the top of every step, before scheduling."""

    def post_step(
        self, checker: "InvariantChecker", sim: Simulator, moves: list[ScheduledMove]
    ) -> None:
        """Called at the end of every step with the transmitted moves."""

    def on_finish(self, checker: "InvariantChecker", sim: Simulator) -> None:
        """Called once by :meth:`InvariantChecker.finish` after the run."""


@dataclass
class InvariantChecker:
    """Wires a set of oracles into one simulator and collects violations."""

    sim: Simulator
    oracles: list[Oracle]
    mode: str = "strict"
    violations: list[Violation] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "off":
            return
        for oracle in self.oracles:
            oracle.on_attach(self, self.sim)
        self.sim.pre_step_hooks.append(self._pre)
        self.sim.post_step_hooks.append(self._post)

    def _pre(self, sim: Simulator) -> None:
        for oracle in self.oracles:
            oracle.pre_step(self, sim)

    def _post(self, sim: Simulator, moves: list[ScheduledMove]) -> None:
        for oracle in self.oracles:
            oracle.post_step(self, sim, moves)

    def finish(self) -> list[Violation]:
        """Run end-of-run checks; returns all collected violations."""
        if self.mode != "off":
            for oracle in self.oracles:
                oracle.on_finish(self, self.sim)
        return self.violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def report(self, oracle: Oracle, message: str) -> None:
        violation = Violation(oracle.name, self.sim.time, message)
        self.counters[oracle.name] = self.counters.get(oracle.name, 0) + 1
        self.violations.append(violation)
        if self.mode == "strict":
            raise VerificationError(violation)


def attach_checker(
    sim: Simulator, oracles: Iterable[Oracle], mode: str = "strict"
) -> InvariantChecker:
    """Convenience constructor mirroring ``InvariantChecker(...)``."""
    return InvariantChecker(sim, list(oracles), mode)


# -- the oracles ---------------------------------------------------------------


class PacketConservationOracle(Oracle):
    """Packets are conserved: pending + in-network + delivered + dropped
    + rejected == total, no pid occupies two queues, deliveries happen at
    the destination, and the delivered set only grows.

    The dropped term is conservation-modulo-dropped for faulty runs (see
    :mod:`repro.faults`): a packet leaves the accounting only by being
    delivered or by being explicitly recorded in ``Simulator.dropped``.
    The rejected term is its admission-time analogue for open-loop
    streaming runs (see :mod:`repro.streaming`): a packet refused at the
    source under backpressure is recorded in ``Simulator.rejected`` and
    never enters the network, but stays in the accounting.  In closed-loop
    fault-free runs both dicts are empty and the invariant reduces to the
    original equality."""

    name = "packet-conservation"

    def on_attach(self, checker: InvariantChecker, sim: Simulator) -> None:
        self._delivered_seen: set[int] = set(sim.delivery_times)

    def post_step(
        self, checker: InvariantChecker, sim: Simulator, moves: list[ScheduledMove]
    ) -> None:
        in_network = 0
        seen: set[int] = set()
        for p in sim.iter_packets():
            in_network += 1
            if p.pid in seen:
                checker.report(self, f"packet {p.pid} occupies two queues")
            seen.add(p.pid)
            if p.pid in sim.delivery_times:
                checker.report(
                    self, f"packet {p.pid} still queued after delivery"
                )
            if p.pid in sim.dropped:
                checker.report(
                    self, f"packet {p.pid} still queued after being dropped"
                )
            if p.pid in sim.rejected:
                checker.report(
                    self, f"packet {p.pid} queued despite admission rejection"
                )
        if in_network != sim.in_flight:
            checker.report(
                self,
                f"in-flight counter {sim.in_flight} != queued packets {in_network}",
            )
        total = (
            len(sim.delivery_times)
            + in_network
            + sim.pending_count
            + len(sim.dropped)
            + len(sim.rejected)
        )
        if total != sim.total_packets:
            checker.report(
                self,
                f"conservation broken: delivered {len(sim.delivery_times)} + "
                f"queued {in_network} + pending {sim.pending_count} + "
                f"dropped {len(sim.dropped)} + rejected {len(sim.rejected)} "
                f"!= total {sim.total_packets}",
            )
        delivered_now = set(sim.delivery_times)
        if not self._delivered_seen <= delivered_now:
            lost = sorted(self._delivered_seen - delivered_now)[:5]
            checker.report(self, f"delivered set shrank (lost pids {lost})")
        newly_delivered = delivered_now - self._delivered_seen
        for mv in moves:
            p = mv.packet
            if p.pid in newly_delivered and p.pos != p.dest:
                checker.report(
                    self,
                    f"packet {p.pid} recorded delivered at {p.pos}, "
                    f"destination is {p.dest}",
                )
        self._delivered_seen = delivered_now


class QueueBoundOracle(Oracle):
    """No queue ever holds more than ``k`` packets, and only queue keys the
    regime defines are in use (Section 2 / Section 5 queue models)."""

    name = "queue-bound"

    def post_step(
        self, checker: InvariantChecker, sim: Simulator, moves: list[ScheduledMove]
    ) -> None:
        spec = sim.spec
        allowed = set(spec.keys)
        for node, node_queues in sim.queues.items():
            for key, q in node_queues.items():
                if len(q) > spec.capacity:
                    checker.report(
                        self,
                        f"queue {key!r} at {node} holds {len(q)} > "
                        f"capacity {spec.capacity}",
                    )
                if q and key not in allowed:
                    checker.report(
                        self,
                        f"queue key {key!r} at {node} is outside the "
                        f"{spec.kind} regime",
                    )


class MinimalityOracle(Oracle):
    """Minimal routers shrink distance-to-destination by exactly one per
    move; delta-bounded routers never stray more than ``delta`` hops beyond
    the rectangle spanned by source and destination (Section 5's class).

    The rectangle check is skipped on wrapping topologies, where the
    spanned rectangle is not well defined, and under an interceptor, whose
    destination exchanges redefine the rectangle mid-flight.
    """

    name = "minimality"

    def post_step(
        self, checker: InvariantChecker, sim: Simulator, moves: list[ScheduledMove]
    ) -> None:
        delta = sim.algorithm.excursion_delta()
        if delta is None:
            return
        topo = sim.topology
        if sim.algorithm.minimal:
            for mv in moves:
                before = topo.distance(mv.src, mv.packet.dest)
                after = topo.distance(mv.target, mv.packet.dest)
                if after != before - 1:
                    checker.report(
                        self,
                        f"packet {mv.packet.pid} moved {mv.src}->{mv.target} "
                        f"(distance {before}->{after}), not a profitable move "
                        f"for dest {mv.packet.dest}",
                    )
        if topo.wraps or not topo.regular or sim.interceptor is not None:
            # Irregular topologies (sparse-pillar) route minimally *around*
            # missing links, so minimal paths legitimately leave the box.
            return
        for mv in moves:
            p = mv.packet
            excess = _rectangle_excess(p.pos, p.source, p.dest)
            if excess > delta:
                checker.report(
                    self,
                    f"packet {p.pid} at {p.pos} strays {excess} > delta "
                    f"{delta} beyond rectangle {p.source}..{p.dest}",
                )


def _rectangle_excess(
    pos: tuple[int, ...], a: tuple[int, ...], b: tuple[int, ...]
) -> int:
    """Manhattan distance from ``pos`` to the box spanned by a and b (any d)."""
    excess = 0
    for x, ax, bx in zip(pos, a, b):
        lo, hi = min(ax, bx), max(ax, bx)
        excess += max(lo - x, 0, x - hi)
    return excess


class StepBoundOracle(Oracle):
    """Completed runs respect the algorithm's proven step budget and the
    trivial distance floor.

    ``bound_steps`` is the theorem budget the run is held to (None = no
    proven bound, only the floor is checked).  The floor -- a packet cannot
    be delivered before ``injection_time + distance(source, dest)`` -- is
    checked per packet, but only when no interceptor rewrote destinations.
    """

    name = "step-bound"

    def __init__(self, bound_steps: int | None) -> None:
        self.bound_steps = bound_steps

    def on_attach(self, checker: InvariantChecker, sim: Simulator) -> None:
        self._floor = {}
        if sim.interceptor is None:
            topo = sim.topology
            for p in sim.iter_packets():
                self._floor[p.pid] = p.injection_time + topo.distance(p.source, p.dest)
            # Pending (dynamic) packets are not in the queues yet.
            for p in sim._pending:
                self._floor[p.pid] = p.injection_time + topo.distance(p.source, p.dest)

    def post_step(
        self, checker: InvariantChecker, sim: Simulator, moves: list[ScheduledMove]
    ) -> None:
        if self.bound_steps is not None and sim.time > self.bound_steps:
            checker.report(
                self,
                f"step {sim.time} exceeds the proven bound {self.bound_steps} "
                f"with {sim.undelivered} packet(s) undelivered",
            )

    def on_finish(self, checker: InvariantChecker, sim: Simulator) -> None:
        for pid, t in sim.delivery_times.items():
            floor = self._floor.get(pid)
            if floor is not None and t < floor:
                checker.report(
                    self,
                    f"packet {pid} delivered at step {t}, before its "
                    f"distance floor {floor}",
                )


def default_oracles(sim: Simulator, *, bound_steps: int | None = None) -> list[Oracle]:
    """The full oracle battery for one simulator.

    When ``bound_steps`` is None, the algorithm's own contract bound for
    the topology's side length is used (when it has one).
    """
    if bound_steps is None:
        bound_steps = sim.algorithm.permutation_step_bound(max(sim.topology.shape))
    return [
        PacketConservationOracle(),
        QueueBoundOracle(),
        MinimalityOracle(),
        StepBoundOracle(bound_steps),
    ]
