"""Tests for permutation workload generators."""

import numpy as np
import pytest

from repro.mesh import TOPOLOGY_NAMES, Mesh, Torus, build_topology
from repro.workloads import (
    bit_reversal_permutation,
    identity_permutation,
    packets_from_mapping,
    random_partial_permutation,
    random_permutation,
    rotation_permutation,
    transpose_permutation,
)


def assert_partial_permutation(packets, topology):
    sources = [p.source for p in packets]
    dests = [p.dest for p in packets]
    assert len(set(sources)) == len(sources)
    assert len(set(dests)) == len(dests)
    for p in packets:
        assert topology.contains(p.source) and topology.contains(p.dest)


class TestGenerators:
    def test_random_permutation_is_full(self):
        mesh = Mesh(8)
        packets = random_permutation(mesh, seed=0)
        assert len(packets) == 64
        assert_partial_permutation(packets, mesh)
        assert {p.dest for p in packets} == set(mesh.nodes())

    def test_random_permutation_seeded_reproducible(self):
        mesh = Mesh(8)
        a = random_permutation(mesh, seed=42)
        b = random_permutation(mesh, seed=42)
        assert [(p.source, p.dest) for p in a] == [(p.source, p.dest) for p in b]

    def test_random_permutation_accepts_generator(self):
        mesh = Mesh(6)
        rng = np.random.default_rng(7)
        packets = random_permutation(mesh, rng)
        assert_partial_permutation(packets, mesh)

    def test_partial_permutation_fraction(self):
        mesh = Mesh(10)
        packets = random_partial_permutation(mesh, 0.25, seed=1)
        assert len(packets) == 25
        assert_partial_permutation(packets, mesh)

    def test_partial_fraction_bounds(self):
        with pytest.raises(ValueError):
            random_partial_permutation(Mesh(4), 1.5)

    def test_identity(self):
        mesh = Mesh(5)
        packets = identity_permutation(mesh)
        assert all(p.source == p.dest for p in packets)

    def test_transpose(self):
        mesh = Mesh(6)
        packets = transpose_permutation(mesh)
        assert_partial_permutation(packets, mesh)
        for p in packets:
            assert p.dest == (p.source[1], p.source[0])

    def test_transpose_needs_square(self):
        with pytest.raises(ValueError):
            transpose_permutation(Mesh(4, 6))

    def test_bit_reversal(self):
        mesh = Mesh(8)
        packets = bit_reversal_permutation(mesh)
        assert_partial_permutation(packets, mesh)
        by_source = {p.source: p.dest for p in packets}
        assert by_source[(1, 0)] == (4, 0)  # 001 -> 100
        assert by_source[(3, 6)] == (6, 3)  # 011->110, 110->011

    def test_bit_reversal_needs_power_of_two(self):
        with pytest.raises(ValueError):
            bit_reversal_permutation(Mesh(6))

    def test_rotation(self):
        mesh = Mesh(5)
        packets = rotation_permutation(mesh, 2, 1)
        assert_partial_permutation(packets, mesh)
        by_source = {p.source: p.dest for p in packets}
        assert by_source[(4, 4)] == (1, 0)

    def test_works_on_torus(self):
        torus = Torus(8)
        packets = random_permutation(torus, seed=3)
        assert_partial_permutation(packets, torus)


class TestRandomPermutationPin:
    """``random_permutation`` builds its packets straight from node order;
    it must equal the mapping construction it replaced on every topology."""

    @pytest.mark.parametrize("name", TOPOLOGY_NAMES)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 7919])
    def test_equals_packets_from_mapping(self, name, n, seed):
        topology = build_topology(name, n)
        nodes = list(topology.nodes())
        order = np.random.default_rng(seed).permutation(len(nodes))
        old = packets_from_mapping({nodes[i]: nodes[order[i]] for i in range(len(nodes))})
        new = random_permutation(topology, seed=seed)

        def fields(packets):
            return [(p.pid, p.source, p.dest, p.pos, p.injection_time) for p in packets]

        assert fields(new) == fields(old)


class TestPacketsFromMapping:
    def test_stable_ids_regardless_of_order(self):
        a = packets_from_mapping([((1, 0), (2, 2)), ((0, 0), (3, 3))])
        b = packets_from_mapping([((0, 0), (3, 3)), ((1, 0), (2, 2))])
        assert [(p.pid, p.source, p.dest) for p in a] == [
            (p.pid, p.source, p.dest) for p in b
        ]

    def test_rejects_duplicate_source(self):
        with pytest.raises(ValueError, match="source"):
            packets_from_mapping([((0, 0), (1, 1)), ((0, 0), (2, 2))])

    def test_rejects_duplicate_destination(self):
        with pytest.raises(ValueError, match="destination"):
            packets_from_mapping([((0, 0), (1, 1)), ((2, 2), (1, 1))])

    def test_check_can_be_disabled(self):
        packets = packets_from_mapping(
            [((0, 0), (1, 1)), ((2, 2), (1, 1))], check_permutation=False
        )
        assert len(packets) == 2
