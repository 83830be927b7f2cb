"""Tests for latency/throughput statistics."""

import math

import pytest

from repro.analysis import latency_stats, peak_throughput, throughput_series
from repro.mesh import Mesh, Packet, Simulator
from repro.routing import BoundedDimensionOrderRouter
from repro.workloads import bernoulli_traffic, random_permutation


def run(n=12, k=2, packets=None, seed=0):
    mesh = Mesh(n)
    if packets is None:
        packets = random_permutation(mesh, seed=seed)
    sim = Simulator(mesh, BoundedDimensionOrderRouter(k), packets)
    result = sim.run(max_steps=200_000)
    assert result.completed
    return mesh, packets, result


class TestLatencyStats:
    def test_single_packet_latency_equals_distance(self):
        mesh, packets, result = run(packets=[Packet(0, (0, 0), (5, 3))])
        dist = {0: mesh.distance((0, 0), (5, 3))}
        stats = latency_stats(result, packets, dist)
        assert stats.count == 1
        assert stats.mean == stats.max == 8
        assert stats.mean_slowdown == pytest.approx(1.0)

    def test_percentiles_ordered(self):
        mesh, packets, result = run()
        stats = latency_stats(result, packets)
        assert stats.p50 <= stats.p95 <= stats.p99 <= stats.max
        assert stats.count == len(packets)
        assert math.isnan(stats.mean_slowdown)  # no distances given

    def test_slowdown_at_least_one(self):
        mesh, packets, result = run(seed=3)
        dist = {p.pid: mesh.distance(p.source, p.dest) for p in packets}
        stats = latency_stats(result, packets, dist)
        assert stats.mean_slowdown >= 1.0

    def test_injection_times_subtracted(self):
        mesh = Mesh(8)
        p = Packet(0, (0, 0), (3, 0), injection_time=5)
        sim = Simulator(mesh, BoundedDimensionOrderRouter(2), [p])
        result = sim.run(1000)
        stats = latency_stats(result, [p])
        assert stats.mean == 3.0  # latency excludes the waiting-to-inject time

    def test_nearest_rank_goldens(self):
        """Pinned on one fixed run.  The percentiles are nearest-rank, the
        definition every other report uses, so each is an observed latency
        (linear interpolation would give p99 = 18.57 here)."""
        mesh, packets, result = run(n=12, k=2, seed=0)
        stats = latency_stats(result, packets)
        assert (stats.count, stats.p50, stats.p95, stats.p99, stats.max) == (
            144,
            8,
            15,
            19,
            20,
        )
        assert stats.mean == 1203 / 144

    def test_empty_run(self):
        mesh, packets, result = run(packets=[Packet(0, (1, 1), (1, 1))])
        stats = latency_stats(result, packets)
        # delivered at step 0 counts as latency 0
        assert stats.count == 1 and stats.max == 0


class TestThroughput:
    def test_series_sums_to_delivered(self):
        mesh, packets, result = run()
        series = throughput_series(result, window=1)
        assert sum(v for _, v in series) == pytest.approx(
            sum(1 for t in result.delivery_times.values() if t > 0)
        )

    def test_window_validation(self):
        mesh, packets, result = run()
        with pytest.raises(ValueError):
            throughput_series(result, window=0)

    def test_peak_at_least_average(self):
        mesh, packets, result = run()
        avg = len(packets) / result.steps
        assert peak_throughput(result, window=4) >= avg * 0.5

    def test_dynamic_traffic_end_to_end(self):
        mesh = Mesh(10)
        packets = bernoulli_traffic(mesh, rate=0.02, horizon=50, seed=1)
        sim = Simulator(mesh, BoundedDimensionOrderRouter(2), packets)
        result = sim.run(max_steps=100_000)
        assert result.completed
        stats = latency_stats(result, packets)
        assert stats.count == len(packets)
        assert stats.mean >= 1.0


class TestBernoulliTraffic:
    def test_expected_volume(self):
        mesh = Mesh(10)
        packets = bernoulli_traffic(mesh, rate=0.1, horizon=100, seed=0)
        expected = 0.1 * 100 * 100
        assert 0.6 * expected <= len(packets) <= 1.4 * expected

    def test_injection_times_within_horizon(self):
        mesh = Mesh(6)
        packets = bernoulli_traffic(mesh, rate=0.3, horizon=20, seed=2)
        assert all(0 <= p.injection_time < 20 for p in packets)

    def test_validation(self):
        with pytest.raises(ValueError):
            bernoulli_traffic(Mesh(4), rate=0.0, horizon=10)
        with pytest.raises(ValueError):
            bernoulli_traffic(Mesh(4), rate=0.5, horizon=0)
