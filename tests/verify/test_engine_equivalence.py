"""Unit tests for the lockstep engine-equivalence harness itself.

The harness is a gate, so these tests check both directions: clean cells
report ok, and genuinely different traces / silent fallbacks are caught
(a comparison harness that cannot fail would prove nothing).
"""

import numpy as np

from repro.mesh import Mesh, Simulator
from repro.verify import ARRAY_PORTED, REGISTRY, lockstep_cell, run_engine_matrix
from repro.verify.engine_equivalence import LockstepReport, compare_final, lockstep
from repro.workloads import random_permutation


class TestLockstepCell:
    def test_clean_cell_reports_ok(self):
        report = lockstep_cell("bounded-dor", "permutation", 6, 2, 0)
        assert report.ok
        assert report.engaged
        assert report.steps > 0
        assert report.divergence_step is None

    def test_dynamic_family_exercises_pending_path(self):
        report = lockstep_cell("hot-potato", "dynamic", 6, 1, 3)
        assert report.ok and report.engaged

    def test_unported_router_fallback_is_a_finding(self):
        report = lockstep_cell("alternating-adaptive", "permutation", 6, 2, 0)
        assert not report.ok
        assert not report.engaged
        assert "did not engage" in report.findings[0]

    def test_fallback_tolerated_when_not_required(self):
        report = lockstep_cell(
            "alternating-adaptive", "permutation", 6, 2, 0, require_array=False
        )
        assert report.ok  # reference-vs-reference, trivially equal
        assert not report.engaged

    def test_capped_cell_at_bench_size(self):
        """Lockstep at a size the benchmark runs: dtype, index-width and
        ordering bugs of the bulk loader show at n=256, not at n <= 64.
        Bounded-dor reads the load-time key creation ranks in its fallback
        scan, so the first steps check them too."""
        report = lockstep_cell("bounded-dor", "permutation", 256, 2, 0, max_steps=2)
        assert report.ok, report.findings
        assert report.engaged and report.steps == 2

    def test_to_metrics_round_trips(self):
        metrics = lockstep_cell("dor", "torus", 6, 2, 0).to_metrics()
        assert metrics["ok"] is True
        assert metrics["router"] == "dor"
        assert metrics["divergence_step"] is None


class TestLockstepDetectsDivergence:
    def test_different_instances_diverge_with_step_pinpointed(self):
        """Feed the comparator two genuinely different runs: it must fail
        and name the first divergent step, not just a final mismatch."""
        topology = Mesh(6)
        entry = REGISTRY["bounded-dor"]
        a = Simulator(topology, entry.factory(2, 0), random_permutation(topology, seed=0))
        b = Simulator(topology, entry.factory(2, 0), random_permutation(topology, seed=1))
        report = LockstepReport(
            router="bounded-dor", family="permutation", n=6, k=2, seed=0
        )
        lockstep(a, b, 100, report)
        assert not report.ok
        assert report.divergence_step == 1

    def test_unequal_lengths_diverge_on_done_state(self):
        """One empty run against a loaded one: caught via done-state."""
        topology = Mesh(6)
        entry = REGISTRY["bounded-dor"]
        a = Simulator(topology, entry.factory(2, 0), [])
        b = Simulator(topology, entry.factory(2, 0), random_permutation(topology, seed=0))
        report = LockstepReport(
            router="bounded-dor", family="permutation", n=6, k=2, seed=0
        )
        lockstep(a, b, 100, report)
        assert not report.ok


class TestCompareFinal:
    """``compare_final`` holds ``delivery_times`` and ``rejected`` to key
    order and key type: ``numpy.int64(3) == 3`` and dict ``==`` ignores
    order, so plain equality passes results that serialize differently."""

    @staticmethod
    def finished_pair():
        topology = Mesh(6)
        entry = REGISTRY["bounded-dor"]
        sims = []
        for _ in range(2):
            sim = Simulator(
                topology, entry.factory(2, 0), random_permutation(topology, seed=0)
            )
            sim.run(10_000)
            sims.append(sim)
        return sims

    @staticmethod
    def findings(reference, other):
        report = LockstepReport(
            router="bounded-dor", family="permutation", n=6, k=2, seed=0
        )
        compare_final(reference, other, report)
        return report.findings

    def test_identical_runs_pass(self):
        assert self.findings(*self.finished_pair()) == []

    def test_reordered_delivery_times_is_a_finding(self):
        reference, other = self.finished_pair()
        other.delivery_times = dict(reversed(list(other.delivery_times.items())))
        assert other.delivery_times == reference.delivery_times
        assert any("delivery_times" in f for f in self.findings(reference, other))

    def test_numpy_keyed_delivery_times_is_a_finding(self):
        reference, other = self.finished_pair()
        other.delivery_times = {
            np.int64(pid): t for pid, t in other.delivery_times.items()
        }
        assert other.delivery_times == reference.delivery_times
        assert any("delivery_times" in f for f in self.findings(reference, other))

    def test_numpy_keyed_rejected_is_a_finding(self):
        reference, other = self.finished_pair()
        reference.rejected = {7: 3}
        other.rejected = {np.int64(7): 3}
        assert any("rejected" in f for f in self.findings(reference, other))


class TestEngineMatrix:
    def test_default_grid_is_clean(self):
        reports = run_engine_matrix(sizes=(4,), ks=(1,), seeds=(0,))
        assert len(reports) == len(ARRAY_PORTED) * 3  # three families
        assert all(r.ok for r in reports)

    def test_max_steps_caps_every_cell(self):
        # The CI job bounds large cells to a fixed lockstep window; a
        # bounded prefix is still a sound gate because every step of the
        # prefix is compared.
        reports = run_engine_matrix(
            routers=("bounded-dor",),
            families=("permutation",),
            sizes=(8,),
            ks=(1,),
            seeds=(0,),
            max_steps=3,
        )
        assert all(r.ok and r.steps == 3 for r in reports)

    def test_progress_callback_sees_every_cell(self):
        lines = []
        reports = run_engine_matrix(
            routers=("bounded-dor",),
            families=("permutation",),
            sizes=(4,),
            ks=(1,),
            seeds=(0, 1),
            progress=lines.append,
        )
        assert len(lines) == len(reports) == 2
        assert all("bounded-dor" in line for line in lines)
