"""ISSUE 9 acceptance gates: static verdicts per topology + literal agreement.

Two groups:

- the credit-adaptive router's deadlock-freedom and queue bound must be
  provable *statically* on the 2D and 3D mesh (DEADLOCK_FREE from the CDG
  analyzer, BOUNDED(k) from the certifier), with both agreement gates
  clean against the runtime layers; the wrap/irregular fallbacks must be
  the documented conservative verdicts.
- the topology vocabulary is spelled as literals in three layers
  (``repro.mesh.topology``, ``repro.harness.specs``,
  ``repro.verify.differential``) that import in different directions, so
  these tests pin them to each other.
"""

import pytest

from repro.analysis.static_check import (
    BOUNDED,
    CYCLIC,
    DEADLOCK_FREE,
    UNBOUNDED,
    analyze_router,
    certify_router,
    check_agreement,
    check_bounds_agreement,
    render_markdown,
    verdict_matrix,
)
from repro.analysis.static_check.cdg import TOPOLOGIES, analyze_registry
from repro.analysis.static_check.bounds import certify_registry
from repro.harness.specs import (
    ND_ALGORITHMS,
    ND_TOPOLOGIES,
    ROUTE_ALGORITHMS,
    TOPOLOGY_CHOICES,
    VERIFY_FAMILIES,
)
from repro.mesh.topology import TOPOLOGY_BUILDERS, TOPOLOGY_NAMES
from repro.verify.differential import (
    FAMILIES,
    FAMILY_TOPOLOGY,
    REGISTRY,
    SMOKE_FAMILIES,
)


class TestCreditAdaptiveVerdicts:
    @pytest.mark.parametrize("topology", ["mesh", "mesh3d"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_deadlock_free_and_bounded_on_meshes(self, topology, k):
        cdg = analyze_router("credit-adaptive", topology, 4, k)
        assert cdg.verdict == DEADLOCK_FREE
        bounds = certify_router("credit-adaptive", topology, 4, k)
        assert bounds.verdict == BOUNDED
        assert bounds.bound == k
        assert bounds.describe() == f"BOUNDED(b={k})"

    @pytest.mark.parametrize("topology", ["torus", "torus3d", "pillar"])
    def test_conservative_fallback_on_wrap_and_irregular(self, topology):
        """Wrap cycles and node-dependent link sets are out of scope for
        the escape-channel argument: the static layers must stay sound by
        reporting the conservative verdicts, never a false certificate."""
        assert analyze_router("credit-adaptive", topology, 4, 2).verdict == CYCLIC
        assert certify_router("credit-adaptive", topology, 4, 2).verdict == UNBOUNDED

    def test_agreement_gates_clean_across_all_topologies(self):
        cdg_verdicts = analyze_registry(ns=(4,), ks=(2,))
        assert check_agreement(cdg_verdicts, n=4, ks=(2,)) == []
        bounds_verdicts = certify_registry(ns=(4,), ks=(2,))
        assert check_bounds_agreement(bounds_verdicts, n=4, ks=(2,)) == []


class TestVerdictMatrix:
    def test_matrix_covers_registry_and_marks_inapplicable(self):
        matrix = verdict_matrix(n=4, k=2)
        assert set(matrix) == set(REGISTRY)
        # 2D-only routers have no ND cells; credit-adaptive has all five.
        assert set(matrix["bounded-dor"]) == {"mesh", "torus"}
        assert set(matrix["credit-adaptive"]) == set(TOPOLOGY_NAMES)
        assert matrix["credit-adaptive"]["mesh3d"] == (
            DEADLOCK_FREE,
            "BOUNDED(b=2)",
        )

    def test_render_markdown_shape(self):
        matrix = verdict_matrix(n=4, k=2, routers=("bounded-dor", "credit-adaptive"))
        table = render_markdown(matrix)
        lines = table.splitlines()
        assert lines[0] == "| router | " + " | ".join(TOPOLOGIES) + " |"
        assert len(lines) == 2 + 2  # header, rule, one row per router
        assert "—" in lines[2]  # bounded-dor is 2D-only
        assert "DEADLOCK_FREE / BOUNDED(b=2)" in lines[3]

    def test_unknown_router_rejected(self):
        with pytest.raises(ValueError):
            verdict_matrix(routers=("no-such-router",))


class TestLiteralAgreement:
    """The same vocabulary is spelled in layers that cannot import each
    other without cycles; pin the literals to the canonical registry."""

    def test_spec_topology_choices_match_registry(self):
        assert TOPOLOGY_CHOICES == TOPOLOGY_NAMES
        assert set(TOPOLOGY_NAMES) == set(TOPOLOGY_BUILDERS)
        assert set(ND_TOPOLOGIES) == set(TOPOLOGY_NAMES) - {"mesh", "torus"}

    def test_analysis_topologies_match_registry(self):
        assert TOPOLOGIES == TOPOLOGY_NAMES

    def test_nd_algorithms_are_the_all_topology_routers(self):
        all_topology = {
            name
            for name, entry in REGISTRY.items()
            if set(entry.topologies) == set(TOPOLOGY_NAMES)
        }
        assert set(ND_ALGORITHMS) == all_topology
        assert set(ND_ALGORITHMS) <= set(ROUTE_ALGORITHMS)

    def test_family_topology_map_matches_verify_families(self):
        assert set(FAMILY_TOPOLOGY) == set(FAMILIES)
        assert set(VERIFY_FAMILIES) == set(FAMILIES)
        assert set(SMOKE_FAMILIES) <= set(FAMILIES)
        assert set(FAMILY_TOPOLOGY.values()) <= set(TOPOLOGY_NAMES)

    def test_every_registry_entry_names_known_topologies(self):
        for name, entry in REGISTRY.items():
            assert set(entry.topologies) <= set(TOPOLOGY_NAMES), name
