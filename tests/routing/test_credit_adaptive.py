"""Credit-based adaptive router: contract, behaviour, and golden step tables.

The step tables pin deliveries-per-step for deterministic workloads on the
2D and 3D mesh.  Credit steering reads only destination-free queue
occupancy, so these numbers are stable release artifacts exactly like the
tables in ``tests/test_golden_regressions.py``: if a refactor moves them,
that is a behavioural change and the pin must be updated deliberately.
"""

from collections import Counter

import pytest

from repro.mesh import Mesh, Simulator, Torus
from repro.mesh.topology import MeshND, SparsePillarMesh, TorusND, build_topology
from repro.routing import CreditAdaptiveRouter
from repro.workloads import random_permutation, transpose_permutation


def _run(topo, workload, k=2, max_steps=10_000):
    sim = Simulator(topo, CreditAdaptiveRouter(k), workload(topo))
    result = sim.run(max_steps=max_steps)
    return sim, result


def _step_table(sim, result):
    hist = Counter(sim.delivery_times.values())
    return tuple(hist[s] for s in range(1, result.steps + 1))


class TestContract:
    def test_contract_flags(self):
        router = CreditAdaptiveRouter(2)
        assert router.name == "credit-adaptive"
        assert router.destination_exchangeable
        assert router.minimal
        assert router.uses_credit

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            CreditAdaptiveRouter(0)


class TestGoldenStepTables:
    """Pinned (steps, max_queue, total_moves, deliveries-per-step)."""

    def test_mesh4_transpose(self):
        sim, result = _run(Mesh(4), transpose_permutation)
        assert result.completed
        assert (result.steps, result.max_queue_len, result.total_moves) == (6, 1, 40)
        assert _step_table(sim, result) == (0, 6, 0, 4, 0, 2)

    def test_mesh4_random_seed7(self):
        sim, result = _run(Mesh(4), lambda t: random_permutation(t, seed=7))
        assert result.completed
        assert (result.steps, result.max_queue_len, result.total_moves) == (5, 1, 32)
        assert _step_table(sim, result) == (4, 4, 5, 0, 1)

    def test_mesh3d_transpose(self):
        sim, result = _run(MeshND((3, 3, 3)), transpose_permutation)
        assert result.completed
        assert (result.steps, result.max_queue_len, result.total_moves) == (4, 1, 48)
        assert _step_table(sim, result) == (0, 12, 0, 6)

    def test_mesh3d_random_seed7(self):
        sim, result = _run(MeshND((3, 3, 3)), lambda t: random_permutation(t, seed=7))
        assert result.completed
        assert (result.steps, result.max_queue_len, result.total_moves) == (5, 1, 74)
        assert _step_table(sim, result) == (6, 6, 8, 3, 4)


class TestEveryTopology:
    @pytest.mark.parametrize("name", ["mesh", "torus", "mesh3d", "torus3d", "pillar"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_routes_random_permutation(self, name, k):
        topo = build_topology(name, 4)
        sim, result = _run(topo, lambda t: random_permutation(t, seed=3), k=k)
        assert result.completed, f"{name} k={k} stalled"
        assert result.max_queue_len <= k

    def test_deterministic_across_runs(self):
        runs = []
        for _ in range(2):
            sim, result = _run(
                TorusND((4, 4, 4)), lambda t: random_permutation(t, seed=11)
            )
            runs.append((result.steps, result.total_moves, dict(sim.delivery_times)))
        assert runs[0] == runs[1]

    def test_queue_bound_holds_under_hotspot_pressure(self):
        """Many-to-few traffic on the pillar mesh must respect capacity k."""
        topo = SparsePillarMesh(4, layers=3)
        targets = [(0, 0, 0), (3, 3, 2)]
        from repro.workloads import packets_from_mapping

        mapping = {
            node: targets[topo.node_index(node) % 2] for node in topo.nodes()
        }
        sim = Simulator(
            topo,
            CreditAdaptiveRouter(2),
            packets_from_mapping(mapping, check_permutation=False),
        )
        result = sim.run(max_steps=10_000)
        assert result.completed
        assert result.max_queue_len <= 2


class TestEscapeDiscipline:
    def test_escape_axis_is_highest(self):
        router = CreditAdaptiveRouter(2)
        topo = MeshND((3, 3, 3))
        router.bind_topology(topo)
        assert router._escape_axis == topo.dims - 1

    def test_torus_wrap_traffic_completes_at_k1(self):
        _, result = _run(Torus(5), transpose_permutation, k=1)
        assert result.completed
