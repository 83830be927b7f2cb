"""Differential runner on the d-dimensional families (mesh3d/torus3d/pillar).

The 2D families fuzz every registered router; the ND families must build
deterministic instances, restrict themselves to the routers whose
``RouterEntry.topologies`` covers the family's topology, and refuse the
metamorphic transforms that are undefined off the regular equal-sided
grids.
"""

import pytest

from repro.mesh.topology import MeshND, SparsePillarMesh, TorusND
from repro.verify import (
    REGISTRY,
    build_instance,
    cross_check,
    reflect_instance,
    transpose_instance,
)
from repro.verify.differential import FAMILIES, FAMILY_TOPOLOGY, SMOKE_FAMILIES
from repro.workloads import random_permutation


class TestNdInstances:
    @pytest.mark.parametrize("family", ["mesh3d", "torus3d", "pillar"])
    def test_deterministic_in_seed(self, family):
        topo_a, a = build_instance(family, 4, 3)
        topo_b, b = build_instance(family, 4, 3)
        assert type(topo_a) is type(topo_b)
        assert [(p.pid, p.source, p.dest) for p in a] == [
            (p.pid, p.source, p.dest) for p in b
        ]

    def test_family_topology_types(self):
        assert isinstance(build_instance("mesh3d", 4, 0)[0], MeshND)
        assert isinstance(build_instance("torus3d", 4, 0)[0], TorusND)
        assert isinstance(build_instance("pillar", 4, 0)[0], SparsePillarMesh)

    def test_every_family_has_a_topology(self):
        assert set(FAMILY_TOPOLOGY) == set(FAMILIES)
        assert set(SMOKE_FAMILIES) <= set(FAMILIES)


class TestApplicability:
    def test_only_credit_adaptive_supports_nd_families(self):
        for family in ("mesh3d", "torus3d", "pillar"):
            supported = {
                name
                for name, entry in REGISTRY.items()
                if entry.supports_family(family)
            }
            assert supported == {"credit-adaptive"}

    def test_all_routers_support_2d_families(self):
        for family in ("permutation", "hh", "torus", "dynamic"):
            assert all(
                entry.supports_family(family) for entry in REGISTRY.values()
            )

    def test_supports_topology(self):
        assert REGISTRY["bounded-dor"].supports_topology("mesh")
        assert not REGISTRY["bounded-dor"].supports_topology("mesh3d")
        assert REGISTRY["credit-adaptive"].supports_topology("pillar")


class TestNdCrossCheck:
    @pytest.mark.parametrize("family", ["mesh3d", "pillar"])
    def test_cell_clean_and_scoped(self, family):
        report = cross_check(family, 4, 2, 0, mode="record")
        assert report.ok, report.findings
        assert set(report.outcomes) == {"credit-adaptive"}

    def test_torus3d_cell_clean(self):
        report = cross_check("torus3d", 4, 1, 1, mode="record")
        assert report.ok, report.findings


class TestNdTransforms:
    def test_transpose_is_involution_on_mesh3d(self):
        topo = MeshND((4, 4, 4))
        packets = random_permutation(topo, seed=2)
        _, once = transpose_instance(topo, packets)
        _, twice = transpose_instance(topo, once)
        assert [(p.source, p.dest) for p in twice] == [
            (p.source, p.dest) for p in packets
        ]

    def test_transpose_rejects_unequal_sides(self):
        topo = MeshND((4, 3, 2))
        with pytest.raises(ValueError):
            transpose_instance(topo, random_permutation(topo, seed=0))

    def test_transforms_reject_irregular_topology(self):
        topo = SparsePillarMesh(4, layers=3)
        packets = random_permutation(topo, seed=0)
        with pytest.raises(ValueError):
            transpose_instance(topo, packets)
        with pytest.raises(ValueError):
            reflect_instance(topo, packets)

    def test_reflect_is_involution_on_mesh3d(self):
        topo = MeshND((4, 4, 4))
        packets = random_permutation(topo, seed=3)
        _, once = reflect_instance(topo, packets)
        assert all(topo.contains(p.source) and topo.contains(p.dest) for p in once)
        _, twice = reflect_instance(topo, once)
        assert [(p.source, p.dest) for p in twice] == [
            (p.source, p.dest) for p in packets
        ]
