"""Tests for the shared LIRA server core (``repro.server.core``).

:class:`~repro.server.system.LiraSystem`, every shard of
:class:`~repro.server.sharded.ShardedLiraSystem` and the live
:class:`~repro.service.LiraService` run the same adapt → install → tick
→ stats core.  These tests pin the two properties that core promises
across compositions: every report sent is accounted for in
``SystemStats``, and the live service's control path is the systems
loop's, decision for decision.
"""

import numpy as np
import pytest

from repro.core import AnalyticReduction, LiraConfig
from repro.geo import Rect
from repro.queries import RangeQuery
from repro.server import ShardedLiraSystem, LiraSystem
from repro.service import LiraService
from repro.timing import ManualClock

SIDE = 10_000.0
BOUNDS = Rect(0.0, 0.0, SIDE, SIDE)
QUERIES = [
    RangeQuery(0, Rect(1000.0, 1000.0, 4000.0, 4000.0)),
    RangeQuery(1, Rect(5000.0, 2000.0, 9000.0, 6000.0)),
]
N_NODES = 400


def _accounted(stats) -> int:
    return (
        stats.updates_processed
        + stats.queue_drops
        + stats.admission_drops
        + stats.updates_discarded
        + stats.updates_orphaned
        + stats.queue_length
    )


def _drive_sharded(n_shards, policy, service_rate, queue_capacity, z=None, ticks=60):
    config = LiraConfig(l=13, alpha=32, z=0.5)
    system = ShardedLiraSystem(
        BOUNDS, N_NODES, QUERIES, AnalyticReduction(config.delta_min, config.delta_max),
        config=config, service_rate=service_rate, queue_capacity=queue_capacity,
        station_radius=1500.0, policy=policy, policy_seed=7, n_shards=n_shards,
    )
    if z is not None:
        system.set_throttle_fraction(z)
    rng = np.random.default_rng(3)
    positions = rng.uniform(0.0, SIDE, size=(N_NODES, 2))
    velocities = rng.uniform(-60.0, 60.0, size=(N_NODES, 2))
    system.bootstrap(positions, velocities)
    for tick in range(ticks):
        positions = np.clip(positions + velocities, 0.0, SIDE)
        if tick % 8 == 0:
            system.adapt(positions, np.linalg.norm(velocities, axis=1))
        system.tick(float(tick), positions, velocities, 1.0)
    system.close()
    return system.stats()


class TestReportConservation:
    """sent == processed + queue/admission drops + discarded + orphaned + queued."""

    @pytest.mark.parametrize("policy", ["lira", "random-drop"])
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_every_report_is_accounted_for(self, n_shards, policy):
        stats = _drive_sharded(n_shards, policy, service_rate=60.0, queue_capacity=50)
        assert stats.queue_drops > 0, "the load must overflow the queue"
        assert stats.updates_sent == _accounted(stats)

    def test_reports_orphaned_by_a_handoff_are_counted(self):
        # Fast nodes, a slow server and a long queue: reports are still
        # queued at the source shard when their node hands off.
        stats = _drive_sharded(2, "lira", service_rate=30.0, queue_capacity=300, z=1.0)
        assert stats.updates_orphaned > 0
        assert stats.updates_sent == _accounted(stats)

    def test_single_server_orphans_nothing(self):
        config = LiraConfig(l=13, alpha=32)
        system = LiraSystem(
            BOUNDS, N_NODES, QUERIES, AnalyticReduction(5.0, 100.0), config=config
        )
        assert system.stats().updates_orphaned == 0


def _clamped_believed(server, now):
    """What the live service plans from: believed state, clamped to bounds."""
    table = server.table
    known = np.flatnonzero(table.known_mask)
    believed = np.clip(table.predict(now)[known], 0.0, SIDE)
    velocities = table.velocities[known]
    return believed, np.hypot(velocities[:, 0], velocities[:, 1])


class TestServiceRunsTheSystemsCore:
    """LiraService.adapt_once ≡ LiraSystem.adapt on the same believed state."""

    @pytest.mark.parametrize("policy", ["lira", "random-drop"])
    def test_same_plans_z_versions_and_bytes(self, policy):
        config = LiraConfig(l=13, alpha=32)
        reduction = AnalyticReduction(config.delta_min, config.delta_max)
        common = dict(
            config=config, service_rate=900.0, queue_capacity=100,
            station_radius=1500.0, policy=policy, incremental=True,
        )
        clock = ManualClock(start=0.0)
        service = LiraService(
            BOUNDS, N_NODES, QUERIES, reduction, utilization_target=0.8,
            throttle_smoothing=0.5, clock=clock, **common,
        )
        system = LiraSystem(BOUNDS, N_NODES, QUERIES, reduction, **common)
        system.shedder.throtloop.utilization_target = 0.8
        system.shedder.throtloop.smoothing = 0.5
        rng = np.random.default_rng(5)
        positions = rng.uniform(0.0, SIDE, size=(N_NODES, 2))
        velocities = rng.uniform(-20.0, 20.0, size=(N_NODES, 2))
        z_seen = []
        for round_ in range(8):
            for _ in range(4):
                ids = rng.choice(N_NODES, int(rng.integers(100, 300)), replace=False)
                positions[ids] = np.clip(positions[ids] + 0.25 * velocities[ids], 0.0, SIDE)
                for server in (service.server, system.server):
                    server.receive_reports(clock.now, ids, positions[ids], velocities[ids])
                    server.process(0.25)
                clock.advance(0.25)
            plan = service.adapt_once()
            system.adapt(*_clamped_believed(system.server, clock.now))
            assert plan.to_dict() == system.plan.to_dict(), f"round {round_}"
            assert service.shedder.current_z == system.shedder.current_z
            assert service.network.version == system.network.version
            assert (
                service.network.total_broadcast_bytes
                == system.network.total_broadcast_bytes
            )
            z_seen.append(service.shedder.current_z)
        # The load kept THROTLOOP active and off its floor.
        assert min(z_seen) < 1.0
        assert min(z_seen) > service.shedder.throtloop.z_floor
