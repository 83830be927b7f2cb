"""The continuous open-loop driver: determinism, backpressure, accounting."""

import pytest

from repro.mesh import Mesh, build_topology
from repro.routing import (
    BoundedDimensionOrderRouter,
    CreditAdaptiveRouter,
    DimensionOrderRouter,
    GreedyAdaptiveRouter,
)
from repro.streaming import PoissonArrivals, build_process, run_streaming
from repro.verify import VerificationError


def small_run(rate=0.1, algorithm=None, **kwargs):
    kwargs.setdefault("warmup", 8)
    kwargs.setdefault("measure", 32)
    kwargs.setdefault("drain", 128)
    return run_streaming(
        Mesh(8),
        algorithm or BoundedDimensionOrderRouter(2),
        build_process("poisson", rate, seed=3),
        **kwargs,
    )


class TestDeterminism:
    def test_repeat_runs_byte_identical(self):
        assert small_run().to_metrics() == small_run().to_metrics()

    def test_metrics_json_serializable(self):
        import json

        json.dumps(small_run().to_metrics())


class TestAccounting:
    def test_offered_splits_into_admitted_and_rejected(self):
        report = small_run(rate=0.6)
        assert report.admitted + report.rejected == report.offered
        assert report.rejected > 0  # far above saturation
        m = report.to_metrics()
        assert m["rejection_fraction"] > 0.0

    def test_low_rate_delivers_everything(self):
        report = small_run(rate=0.02)
        assert report.drained and not report.stalled
        assert report.rejected == 0
        assert report.delivered_measured == report.admitted_measured
        assert report.delivered_rate == pytest.approx(report.offered_rate)

    def test_simulator_conservation_includes_rejected(self):
        report = small_run(rate=0.6)
        sim_total = report.result.total_packets
        assert sim_total == report.offered
        # Everything is resolved after a successful drain: delivered +
        # rejected == total (nothing dropped, nothing pending).
        if report.drained:
            assert report.result.delivered + report.rejected == sim_total

    def test_latencies_only_from_measured_window(self):
        report = small_run(rate=0.05)
        assert len(report.latencies) == report.delivered_measured
        assert all(lat >= 1 for lat in report.latencies)

    def test_strict_oracles_clean_on_conforming_router(self):
        # strict mode raises on any violation; a clean run proves the
        # admission path keeps every invariant the oracles check.
        report = small_run(rate=0.3, oracle_mode="strict")
        assert report.ok


class TestBeyond2D:
    @pytest.mark.parametrize("process", ["poisson", "hotspot"])
    def test_3d_mesh_runs_clean_and_conserves(self, process):
        """Destination draws and the hotspot derive from the grid's shape,
        so open-loop traffic runs on a 3D mesh, not only on 2D grids."""
        topology = build_topology("mesh3d", 4)
        report = run_streaming(
            topology,
            CreditAdaptiveRouter(2),
            build_process(process, 0.05, seed=3),
            warmup=4,
            measure=8,
            drain=64,
        )
        assert report.offered > 0
        assert report.violations == []
        assert report.drained and not report.stalled
        assert report.admitted + report.rejected == report.offered
        assert report.result.total_packets == report.offered
        assert report.result.delivered + report.rejected == report.offered

    @pytest.mark.parametrize("process", ["poisson", "onoff", "hotspot"])
    def test_layers_of_one_column_draw_independently(self, process):
        """Draws hash the whole source, so the layers of one (x, y) column
        get their own arrival counts and destinations, not copies."""
        topology = build_topology("mesh3d", 4)
        arrivals = build_process(process, 0.5, seed=3)
        column = [(1, 2, z) for z in range(4)]
        counts = {tuple(arrivals.count(s, t) for t in range(64)) for s in column}
        assert len(counts) == len(column)
        dests = {
            tuple(arrivals.destinations.draw(topology, s, t, 0) for t in range(16))
            for s in column
        }
        assert len(dests) == len(column)


class TestStallDetection:
    def test_central_queue_router_wedges_under_overload(self):
        """The documented Section 2 exchange-deadlock, surfaced as data:
        a central-queue router at far-above-saturation load wedges, and
        the drain detects it instead of burning the whole budget."""
        report = small_run(rate=0.8, algorithm=DimensionOrderRouter(2), drain=5000)
        assert report.stalled and not report.drained
        assert report.result.steps < 8 + 32 + 5000  # stall cut the drain short
        assert report.to_metrics()["stalled"] is True

    def test_theorem15_router_does_not_wedge(self):
        report = small_run(rate=0.8, drain=2000)
        assert report.drained and not report.stalled


class TestValidation:
    def test_bad_windows_rejected(self):
        with pytest.raises(ValueError, match="warmup"):
            small_run(warmup=-1)
        with pytest.raises(ValueError, match="measure"):
            small_run(measure=0)
        with pytest.raises(ValueError, match="drain"):
            small_run(drain=-1)


class TestHarnessIntegration:
    def test_streaming_trial_runs_and_caches_deterministically(self):
        from repro.harness.execute import execute_trial
        from repro.harness.specs import TrialSpec

        spec = TrialSpec(
            kind="streaming",
            n=8,
            k=2,
            algorithm="greedy-adaptive",
            rate=0.1,
            warmup=8,
            measure=32,
            drain=128,
        )
        spec.validate()
        assert execute_trial(spec) == execute_trial(spec)

    def test_streaming_spec_validates_fields(self):
        from repro.harness.specs import TrialSpec

        with pytest.raises(ValueError, match="arrival"):
            TrialSpec(
                kind="streaming", n=8, algorithm="dor", arrival="fractal"
            ).validate()
        with pytest.raises(ValueError, match="streaming algorithm"):
            TrialSpec(kind="streaming", n=8, algorithm="nope").validate()
        with pytest.raises(ValueError, match="rate"):
            TrialSpec(kind="streaming", n=8, algorithm="dor", rate=-1.0).validate()
