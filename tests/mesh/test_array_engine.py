"""Unit tests for the array-backend step engine: dispatch and guardrails.

The lockstep suites prove the array engine *computes* the same thing as
the reference engine; these tests pin the dispatch contract around it --
when ``Simulator(engine="array")`` engages, when it silently falls back,
and how the backend refuses features it does not model instead of
guessing at them.
"""

import json

import numpy as np
import pytest

from repro.mesh import Direction, Mesh, Packet, Simulator, Torus
from repro.mesh.array_engine import ArraySimulator, ported_router_types
from repro.mesh.errors import QueueOverflowError
from repro.routing import (
    AlternatingAdaptiveRouter,
    BoundedDimensionOrderRouter,
    CreditAdaptiveRouter,
    DimensionOrderRouter,
    FarthestFirstRouter,
    GreedyAdaptiveRouter,
    HotPotatoRouter,
)
from repro.verify.engine_equivalence import LockstepReport, lockstep
from repro.workloads import random_permutation


def make(engine="array", algorithm=None, topology=None, **kwargs):
    topology = topology if topology is not None else Mesh(6)
    algorithm = algorithm or BoundedDimensionOrderRouter(2)
    packets = random_permutation(topology, seed=0)
    return Simulator(topology, algorithm, packets, engine=engine, **kwargs)


class TestDispatch:
    def test_array_engine_engages_for_ported_routers(self):
        for algorithm in (
            BoundedDimensionOrderRouter(2),
            DimensionOrderRouter(4),
            HotPotatoRouter(),
            GreedyAdaptiveRouter(2, "incoming"),
            GreedyAdaptiveRouter(4, "central"),
            FarthestFirstRouter(2),
            FarthestFirstRouter(2, "central"),
            CreditAdaptiveRouter(2),
        ):
            sim = make(algorithm=algorithm)
            assert isinstance(sim, ArraySimulator)
            assert sim.engine_name == "array"

    def test_reference_is_the_default(self):
        sim = Simulator(Mesh(6), BoundedDimensionOrderRouter(2), [])
        assert not isinstance(sim, ArraySimulator)
        assert sim.engine_name == "reference"

    def test_torus_supported(self):
        sim = make(topology=Torus(6))
        assert sim.engine_name == "array"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            make(engine="simd")

    def test_unported_router_falls_back(self):
        sim = make(algorithm=AlternatingAdaptiveRouter(2))
        assert sim.engine_name == "reference"

    def test_router_subclass_falls_back(self):
        """A subclass may override any policy hook; the kernel only models
        the exact base class, so subclasses must take the reference path."""

        class Tweaked(BoundedDimensionOrderRouter):
            pass

        sim = make(algorithm=Tweaked(2))
        assert sim.engine_name == "reference"

    def test_interceptor_falls_back(self):
        sim = make(interceptor=lambda s, moves: None)
        assert sim.engine_name == "reference"

    def test_link_load_recording_falls_back(self):
        sim = make(record_link_loads=True)
        assert sim.engine_name == "reference"

    def test_ported_types_match_public_list(self):
        from repro.verify import ARRAY_PORTED, REGISTRY

        ported = {type(REGISTRY[name].factory(2, 0)) for name in ARRAY_PORTED}
        assert ported == set(ported_router_types())


class TestGuardrails:
    def test_drop_packet_unsupported(self):
        sim = make()
        with pytest.raises(NotImplementedError, match="reference"):
            sim.drop_packet(Packet(999, (0, 0), (1, 1)))

    def test_drop_pending_unsupported(self):
        sim = make()
        with pytest.raises(NotImplementedError, match="reference"):
            sim.drop_pending(999)

    def test_arbitrary_link_filter_refused_at_assignment(self):
        """Fault plans go through attach_fault_plan (vectorized path);
        an arbitrary scalar closure cannot be vectorized, so assigning
        one must fail fast, not explode mid-run at step() time."""
        sim = make()
        with pytest.raises(NotImplementedError, match="link filters"):
            sim.link_filter = lambda src, direction, time: True

    def test_clearing_link_filter_is_allowed(self):
        sim = make()
        sim.link_filter = None
        assert sim.link_filter is None

    def test_resilience_manager_refused_at_construction(self):
        from repro.faults import BernoulliLinkPlan, ResilienceManager

        sim = make()
        with pytest.raises(NotImplementedError, match="reference"):
            ResilienceManager(sim, BernoulliLinkPlan(0.9), timeout=8)

    def test_duplicate_pid_rejected_at_load(self):
        with pytest.raises(ValueError, match="duplicate"):
            Simulator(
                Mesh(4),
                BoundedDimensionOrderRouter(2),
                [Packet(0, (0, 0), (1, 1)), Packet(0, (2, 2), (3, 3))],
                engine="array",
            )

    @pytest.mark.parametrize(
        "engine, state",
        [
            (engine, state)
            for engine in ("reference", "array")
            for state in ("queued", "pending", "delivered", "rejected", "dropped")
            if (engine, state) != ("array", "dropped")  # the array engine drops nothing
        ],
    )
    def test_duplicate_pid_rejected_at_injection(self, engine, state):
        """A pid is taken for the rest of the run, whatever became of its
        packet: both ``inject_packet`` and ``reject_packet`` refuse it."""
        sim = Simulator(
            Mesh(4),
            BoundedDimensionOrderRouter(2),
            [
                Packet(0, (0, 0), (3, 3)),
                Packet(1, (1, 1), (1, 1)),
                Packet(2, (2, 2), (0, 0), injection_time=5),
            ],
            engine=engine,
        )
        sim.reject_packet(Packet(3, (0, 1), (2, 1)))
        if state == "dropped":
            sim.drop_packet(next(sim.iter_packets()))
        pid = {"queued": 0, "dropped": 0, "delivered": 1, "pending": 2, "rejected": 3}
        for offer in (sim.inject_packet, sim.reject_packet):
            with pytest.raises(ValueError, match=f"duplicate packet id {pid[state]}"):
                offer(Packet(pid[state], (3, 0), (0, 3)))
        assert sim.total_packets == 4


class TestEngineAccessors:
    def test_queue_occupancy_agrees_with_materialized_queues(self):
        sim = make()
        reference = Simulator(
            Mesh(6), BoundedDimensionOrderRouter(2), random_permutation(Mesh(6), seed=0)
        )
        for _ in range(5):
            sim.step()
            reference.step()
        for node, queues in reference.queues.items():
            for key, queue in queues.items():
                assert sim.queue_occupancy(node, key) == len(queue)
                assert reference.queue_occupancy(node, key) == len(queue)

    def test_queue_occupancy_empty_queue_is_zero(self):
        sim = make()
        reference = Simulator(Mesh(6), BoundedDimensionOrderRouter(2), [])
        assert sim.queue_occupancy((5, 5), 0) >= 0
        assert reference.queue_occupancy((5, 5), 0) == 0

    def test_run_result_matches_reference(self):
        topology = Mesh(6)
        array = make()
        reference = Simulator(
            topology, BoundedDimensionOrderRouter(2), random_permutation(topology, seed=0)
        )
        ra = array.run(10_000)
        rr = reference.run(10_000)
        assert (ra.completed, ra.steps, ra.total_moves) == (
            rr.completed,
            rr.steps,
            rr.total_moves,
        )
        assert ra.delivery_times == rr.delivery_times
        assert ra.counters == rr.counters


#: One constructor per array kernel and queue regime.
PORTED_FACTORIES = {
    "bounded-dor": lambda: BoundedDimensionOrderRouter(2),
    "dor": lambda: DimensionOrderRouter(4),
    "hot-potato": lambda: HotPotatoRouter(),
    "greedy-incoming": lambda: GreedyAdaptiveRouter(2, "incoming"),
    "greedy-central": lambda: GreedyAdaptiveRouter(4, "central"),
    "farthest-incoming": lambda: FarthestFirstRouter(2),
    "farthest-central": lambda: FarthestFirstRouter(2, "central"),
    "credit-adaptive": lambda: CreditAdaptiveRouter(2),
}


def load_outcome(engine, packets, topology=None, algorithm=None, **kwargs):
    """The exception type and message a load raises, or None."""
    topology = topology if topology is not None else Mesh(4)
    algorithm = algorithm or BoundedDimensionOrderRouter(2)
    try:
        Simulator(topology, algorithm, packets, engine=engine, **kwargs)
    except Exception as exc:  # any error: the outcome is what is compared
        return type(exc), str(exc)
    return None


def assert_same_load_error(packets, **kwargs):
    reference = load_outcome("reference", packets, **kwargs)
    assert reference is not None
    assert load_outcome("array", packets, **kwargs) == reference


def mixed_packets(topology, seed):
    """A loaded packet list the bulk loader must order like the reference:
    pending packets, self-addressed ones (at load and pending), several
    packets per source, unsorted pids and, on the torus, half-way ties."""
    rng = np.random.default_rng(seed)
    nodes = list(topology.nodes())
    width, height = topology.shape
    hubs = [nodes[i] for i in rng.choice(len(nodes), size=5, replace=False)]
    pids = rng.permutation(1000)[:40].tolist()
    packets = []
    for pid in pids[:30]:
        source = hubs[int(rng.integers(len(hubs)))]
        dest = nodes[int(rng.integers(len(nodes)))]
        packets.append(Packet(pid, source, dest, injection_time=int(rng.integers(-1, 4))))
    x, y = hubs[0]
    ties = [
        ((x + width // 2) % width, (y + height // 2) % height),
        ((x + width // 2) % width, y),
        (x, (y + height // 2) % height),
    ]
    for pid, dest in zip(pids[30:33], ties):
        packets.append(Packet(pid, hubs[0], dest))
    packets.append(Packet(pids[33], hubs[1], hubs[1]))
    packets.append(Packet(pids[34], hubs[2], hubs[2], injection_time=2))
    return packets


class TestBulkLoad:
    """The array engine loads its packets in bulk; every load-time outcome
    must be the reference engine's."""

    def test_duplicate_pid_reported_at_first_repeat(self):
        packets = [
            Packet(5, (0, 0), (1, 1)),
            Packet(7, (1, 0), (2, 2)),
            Packet(9, (2, 0), (3, 3)),
            Packet(7, (3, 0), (0, 3)),
            Packet(5, (0, 1), (1, 3)),
        ]
        assert_same_load_error(packets)
        assert load_outcome("array", packets) == (
            ValueError,
            "duplicate packet id 7",
        )

    @pytest.mark.parametrize(
        "source, dest",
        [
            ((4, 0), (1, 1)),
            ((0, 0), (1, 4)),
            ((-1, 2), (1, 1)),
            ((0, 0), (1, -1)),
            ((0, 0, 0), (1, 1)),
            ((0, 0), (1,)),
        ],
    )
    @pytest.mark.parametrize("topology", [Mesh(4), Torus(4)], ids=["mesh", "torus"])
    def test_endpoint_outside_topology(self, topology, source, dest):
        """Wrong-length tuples included: both engines name the packet."""
        packets = [Packet(0, (0, 0), (1, 1)), Packet(3, source, dest)]
        assert_same_load_error(packets, topology=topology)
        for engine in ("reference", "array"):
            assert load_outcome(engine, packets, topology=topology) == (
                ValueError,
                "packet 3 endpoints outside topology",
            )

    def test_first_bad_packet_wins(self):
        bad_endpoint_first = [
            Packet(0, (0, 0), (1, 1)),
            Packet(1, (9, 9), (1, 1)),
            Packet(0, (2, 2), (3, 3)),
        ]
        duplicate_first = [
            Packet(0, (0, 0), (1, 1)),
            Packet(0, (2, 2), (3, 3)),
            Packet(1, (9, 9), (1, 1)),
        ]
        assert_same_load_error(bad_endpoint_first)
        assert_same_load_error(duplicate_first)
        assert "outside" in load_outcome("array", bad_endpoint_first)[1]
        assert "duplicate" in load_outcome("array", duplicate_first)[1]

    @pytest.mark.parametrize("name", sorted(PORTED_FACTORIES))
    def test_hh_overflow_names_the_same_queue(self, name):
        """An h-h load with h > k overflows at load under ``validate``: both
        engines name the same node, key and occupancy."""
        topology = Mesh(5)
        nodes = list(topology.nodes())
        rng = np.random.default_rng(3)
        packets = []
        for source in [nodes[7], nodes[2], nodes[19]]:
            for _ in range(6):
                dest = nodes[int(rng.integers(len(nodes)))]
                packets.append(Packet(len(packets), source, dest))
        errors = []
        for engine in ("reference", "array"):
            with pytest.raises(QueueOverflowError) as info:
                Simulator(topology, PORTED_FACTORIES[name](), packets, engine=engine)
            e = info.value
            errors.append((str(e), e.node, repr(e.queue_key), e.occupancy, e.capacity))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize(
        "algorithm",
        [BoundedDimensionOrderRouter(1), GreedyAdaptiveRouter(1, "incoming")],
        ids=["bounded-dor", "greedy-incoming"],
    )
    def test_overflow_names_the_first_created_queue(self, algorithm):
        """Two queues of one node overflow; the one created first (the W
        queue, by the east-bound pid 0) is named, not the lower key."""
        packets = [
            Packet(0, (2, 2), (4, 2)),
            Packet(1, (2, 2), (0, 2)),
            Packet(2, (2, 2), (3, 2)),
            Packet(3, (2, 2), (1, 2)),
        ]
        errors = []
        for engine in ("reference", "array"):
            with pytest.raises(QueueOverflowError) as info:
                Simulator(Mesh(5), algorithm, packets, engine=engine)
            errors.append((str(info.value), repr(info.value.queue_key)))
        assert errors[0] == errors[1]
        assert errors[1][1] == repr(Direction.W)

    @pytest.mark.parametrize("name", sorted(PORTED_FACTORIES))
    @pytest.mark.parametrize("topology", [Mesh(6), Torus(6)], ids=["mesh", "torus"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_mixed_load_matches_reference(self, name, topology, seed):
        packets = mixed_packets(topology, seed)
        copies = []
        for engine in ("reference", "array"):
            copies.append([p.copy() for p in packets])
            for p in copies[-1]:
                p.pos = (0, 0)  # left over from an earlier run
        reference, array = [
            Simulator(
                topology, PORTED_FACTORIES[name](), plist, engine=engine, validate=False
            )
            for engine, plist in zip(("reference", "array"), copies)
        ]
        assert array.engine_name == "array"
        assert [p.pos for p in copies[1]] == [p.pos for p in copies[0]]
        assert array.configuration() == reference.configuration()
        assert list(array.delivery_times.items()) == list(
            reference.delivery_times.items()
        )
        assert [p.pid for p in array._pending] == [p.pid for p in reference._pending]
        assert (array.max_queue_len, array.max_node_load) == (
            reference.max_queue_len,
            reference.max_node_load,
        )
        st = array._state
        if st.key_rank is not None:
            # Queue keys were created in the reference's dict insertion order.
            for node, queues in reference.queues.items():
                flat = array._flat(node)
                created = sorted(
                    (k for k in range(4) if st.key_rank[flat, k] >= 0),
                    key=lambda k: st.key_rank[flat, k],
                )
                assert created == [int(key) for key in queues]
        report = LockstepReport(router=name, family="mixed", n=6, k=2, seed=seed)
        lockstep(reference, array, 5, report)
        assert report.ok, report.findings


#: One constructor per array kernel and queue regime, by queue capacity
#: (hot-potato's bufferless nodes always hold 4).
REGIMES = {
    "bounded-dor": BoundedDimensionOrderRouter,
    "dor": DimensionOrderRouter,
    "hot-potato": lambda k: HotPotatoRouter(),
    "greedy-incoming": lambda k: GreedyAdaptiveRouter(k, "incoming"),
    "greedy-central": lambda k: GreedyAdaptiveRouter(k, "central"),
    "farthest-incoming": FarthestFirstRouter,
    "farthest-central": lambda k: FarthestFirstRouter(k, "central"),
    "credit-adaptive": CreditAdaptiveRouter,
}


def injection_instance(topology, seed):
    """Load-time packets plus (time, packet) injections, in call order.

    Around one hub: east-bound packets due in the same step compete for
    its W queue (its one queue under central routers), self-addressed
    packets sit between them in (time, pid) order, other packets are not
    yet due, and ``inject_packet`` calls come out of (time, pid) order,
    both before the first step and mid-run.  Random traffic elsewhere
    keeps the hub's queues changing."""
    rng = np.random.default_rng(seed)
    nodes = list(topology.nodes())
    hub = (1, 2)
    east = [(3, 2), (4, 2), (5, 2), (4, 0), (5, 5), (2, 4)]
    loaded = [Packet(40, hub, (4, 2)), Packet(3, hub, (0, 2))]
    loaded += [
        Packet(pid, hub, east[i], injection_time=1)
        for i, pid in enumerate([17, 5, 29, 11, 23, 37])
    ]
    loaded += [
        Packet(13, hub, hub, injection_time=1),
        Packet(2, hub, hub, injection_time=1),
        Packet(7, hub, (1, 5), injection_time=1),
        Packet(31, hub, (5, 2), injection_time=4),
        Packet(19, (4, 4), (0, 0), injection_time=6),
    ]
    pids = iter(rng.permutation(np.arange(300, 400)).tolist())
    for _ in range(14):
        source, dest = (nodes[int(i)] for i in rng.integers(len(nodes), size=2))
        time = int(rng.integers(0, 4))
        loaded.append(Packet(next(pids), source, dest, injection_time=time))
    injections = [
        (0, Packet(100, hub, (5, 2), injection_time=2)),
        (0, Packet(90, hub, (3, 2), injection_time=1)),
        (0, Packet(95, hub, hub, injection_time=1)),
        (0, Packet(80, hub, (4, 0), injection_time=2)),
        (0, Packet(85, hub, (2, 3), injection_time=1)),
    ]
    for t in (2, 3, 5):
        batch = [
            Packet(200 + 10 * t + i, hub, east[(t + i) % 6], injection_time=t)
            for i in range(4)
        ]
        batch.append(Packet(200 + 10 * t + 4, hub, hub, injection_time=t))
        batch.append(Packet(next(pids), hub, (0, 0), injection_time=t + 1))
        injections += [(t, p) for p in reversed(batch)]
    return loaded, injections


class TestInjection:
    """Batched admission of due packets equals the reference engine's
    one-by-one rule, step by step."""

    @pytest.mark.parametrize("name", sorted(REGIMES))
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("topology", [Mesh(6), Torus(6)], ids=["mesh", "torus"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_injection_matches_reference(self, name, k, topology, seed):
        loaded, injections = injection_instance(topology, seed)
        reference, array = [
            Simulator(
                topology,
                REGIMES[name](k),
                [p.copy() for p in loaded],
                engine=engine,
                validate=False,
            )
            for engine in ("reference", "array")
        ]
        assert array.engine_name == "array"
        refused = False
        while reference.time < 40 and not (reference.done and array.done):
            for t, p in injections:
                if t == reference.time:
                    reference.inject_packet(p.copy())
                    array.inject_packet(p.copy())
            reference.step()
            array.step()
            refused |= any(p.injection_time < reference.time for p in reference._pending)
            assert array.configuration() == reference.configuration()
            assert list(array.delivery_times.items()) == list(
                reference.delivery_times.items()
            )
            assert all(type(pid) is int for pid in array.delivery_times)
            assert [p.pid for p in array._pending] == [p.pid for p in reference._pending]
            assert (
                array.injected_packets,
                array.max_queue_len,
                array.max_node_load,
            ) == (
                reference.injected_packets,
                reference.max_queue_len,
                reference.max_node_load,
            )
            st = array._state
            if st.key_rank is not None:
                for node, queues in reference.queues.items():
                    flat = array._flat(node)
                    created = sorted(
                        (kidx for kidx in range(4) if st.key_rank[flat, kidx] >= 0),
                        key=lambda kidx: st.key_rank[flat, kidx],
                    )
                    assert created == [int(key) for key in queues]
        # The instance did what it is for: a full queue refused a due packet.
        assert refused
        assert reference.injected_packets > 0


class TestDeliveryTimes:
    @pytest.mark.parametrize("topology", [Mesh(6), Torus(6)], ids=["mesh", "torus"])
    def test_plain_int_keys_in_reference_order(self, topology):
        """Both engines key ``delivery_times`` by plain ``int`` pids in the
        same order, so results serialize to JSON."""
        results = []
        for engine in ("reference", "array"):
            sim = Simulator(
                topology,
                BoundedDimensionOrderRouter(2),
                mixed_packets(topology, 0),
                engine=engine,
                validate=False,
            )
            assert sim.engine_name == engine
            results.append(sim.run(10_000))
        reference, array = results
        assert array.completed and reference.completed
        assert all(type(pid) is int for pid in array.delivery_times)
        assert list(array.delivery_times.items()) == list(
            reference.delivery_times.items()
        )
        assert json.dumps(array.delivery_times) == json.dumps(reference.delivery_times)
