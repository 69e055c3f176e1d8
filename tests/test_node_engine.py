"""Vectorized node-side engine: exact equivalence with the object path.

The SoA engine (:class:`repro.server.VectorNodeEngine`) is only
admissible because it is *bit-identical* to the per-``MobileNode``
reference loop — not approximately equal.  These tests pin that
contract at three levels:

* unit: :class:`StationAssigner` vs ``BaseStationNetwork.station_for``
  and the per-station threshold raster vs ``MobileNode`` lookups,
  including half-open region boundaries and overlap tie-breaking;
* system: full ``LiraSystem`` runs at matched seeds must produce the
  same sent-report counts, believed positions, stats counters, and
  query results under both engines, for both policies, with and
  without fault injection;
* batched ingest: ``ArrayBoundedQueue`` and
  ``StatisticsGrid.ingest_updates`` against their scalar twins.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AnalyticReduction, LiraConfig, StatisticsGrid
from repro.core.plan import SheddingRegion
from repro.faults import FaultInjector, FaultSpec
from repro.geo import Point, Rect
from repro.server import (
    NODE_ENGINES,
    BaseStation,
    BaseStationNetwork,
    BoundedQueue,
    LiraSystem,
    MobileNode,
    RegionSubset,
    StationAssigner,
    place_uniform_stations,
)
from repro.server.node_engine import _ThresholdRaster
from repro.server.queue import ArrayBoundedQueue

BOUNDS = Rect(0.0, 0.0, 4000.0, 4000.0)

#: SystemStats fields compared across engines (every field, by name, so
#: a new field added to SystemStats is automatically covered).
_STATS_FIELDS = None  # resolved lazily from the dataclass


def _stats_fields(stats):
    return {name: getattr(stats, name) for name in stats.__dataclass_fields__}


# ----------------------------------------------------------------------
# StationAssigner vs BaseStationNetwork.station_for
# ----------------------------------------------------------------------


class TestStationAssigner:
    @pytest.fixture(scope="class")
    def network(self):
        stations = place_uniform_stations(BOUNDS, radius=1500.0)
        return BaseStationNetwork(stations)

    @pytest.fixture(scope="class")
    def assigner(self, network):
        return StationAssigner(network.stations, BOUNDS)

    def test_matches_station_for_inside_bounds(self, network, assigner):
        rng = np.random.default_rng(7)
        x = rng.uniform(BOUNDS.x1, BOUNDS.x2, 4000)
        y = rng.uniform(BOUNDS.y1, BOUNDS.y2, 4000)
        slots = assigner.assign(x, y)
        for i in range(x.size):
            expected = network.station_for(float(x[i]), float(y[i]))
            assert assigner.stations[slots[i]] is expected

    def test_matches_station_for_outside_bounds(self, network, assigner):
        rng = np.random.default_rng(8)
        x = rng.uniform(BOUNDS.x1 - 3000.0, BOUNDS.x2 + 3000.0, 500)
        y = rng.uniform(BOUNDS.y1 - 3000.0, BOUNDS.y2 + 3000.0, 500)
        slots = assigner.assign(x, y)
        for i in range(x.size):
            expected = network.station_for(float(x[i]), float(y[i]))
            assert assigner.stations[slots[i]] is expected

    def test_cell_edges_and_station_centers(self, network, assigner):
        """Exact raster-cell boundaries and station centers resolve alike."""
        edges = np.linspace(BOUNDS.x1, BOUNDS.x2, assigner.resolution + 1)
        xs = np.concatenate([edges, assigner._cx])
        ys = np.concatenate([edges, assigner._cy])
        n = min(xs.size, ys.size)
        slots = assigner.assign(xs[:n], ys[:n])
        for i in range(n):
            expected = network.station_for(float(xs[i]), float(ys[i]))
            assert assigner.stations[slots[i]] is expected

    def test_tie_breaks_to_first_station_in_list_order(self):
        """Equidistant covering stations: list order wins, as in min()."""
        stations = [
            BaseStation(station_id=10, center=Point(0.0, 0.0), radius=5.0),
            BaseStation(station_id=11, center=Point(4.0, 0.0), radius=5.0),
        ]
        bounds = Rect(-6.0, -6.0, 10.0, 6.0)
        assigner = StationAssigner(stations, bounds)
        network = BaseStationNetwork(stations)
        # x = 2 is exactly equidistant; both cover it.
        slot = assigner.assign(np.array([2.0]), np.array([0.0]))[0]
        assert stations[slot] is network.station_for(2.0, 0.0)
        assert stations[slot].station_id == 10

    def test_uncovered_point_falls_back_to_nearest(self):
        stations = [
            BaseStation(station_id=0, center=Point(0.0, 0.0), radius=1.0),
            BaseStation(station_id=1, center=Point(100.0, 0.0), radius=1.0),
        ]
        bounds = Rect(-10.0, -10.0, 110.0, 10.0)
        assigner = StationAssigner(stations, bounds)
        slot = assigner.assign(np.array([70.0]), np.array([0.0]))[0]
        assert slot == 1

    def test_dominance_leaves_most_cells_one_candidate(self):
        """Benchmark layout (49 stations of 1.5 km over 14 km): most raster
        cells resolve by one table read.  Without the dominance rule every
        cell keeps each station whose disk reaches it (on 28×28 cells:
        single-candidate share 0.08, 2.5 candidates per cell)."""
        bounds = Rect(0.0, 0.0, 14_000.0, 14_000.0)
        assigner = StationAssigner(place_uniform_stations(bounds, 1500.0), bounds)
        assert len(assigner.stations) == 49
        assert assigner.resolution == 63
        assert np.mean(assigner._n_candidates == 1) > 0.6
        assert assigner.mean_candidates < 1.5


def _snap_to_circle(station: BaseStation, x: float, y: float) -> float:
    """Step ``x`` by whole ulps until ``station.distance_to`` reads exactly
    the radius (or give up after a few steps); returns the new ``x``."""
    for _ in range(8):
        d = station.distance_to(Point(x, y))
        if d == station.radius:
            break
        outward = (d < station.radius) == (x >= station.center.x)
        x = float(np.nextafter(x, np.inf if outward else -np.inf))
    return x


@st.composite
def _station_layouts(draw):
    """1-14 stations on a 10 m lattice with mixed radii, some centers
    outside the bounds: coverage gaps (the nearest-station fallback),
    nested and coincident disks, and exact distance ties all occur."""
    w = draw(st.integers(20, 200)) * 10.0
    h = draw(st.integers(20, 200)) * 10.0
    stations = []
    for sid in range(draw(st.integers(1, 14))):
        cx = draw(st.integers(-20, int(w) // 10 + 20)) * 10.0
        cy = draw(st.integers(-20, int(h) // 10 + 20)) * 10.0
        radius = draw(st.integers(5, 120)) * 10.0
        stations.append(
            BaseStation(station_id=100 + sid, center=Point(cx, cy), radius=radius)
        )
    return stations, Rect(0.0, 0.0, w, h)


class TestStationAssignerProperties:
    """``assign`` ≡ ``station_for`` at the points where rounding decides."""

    @settings(max_examples=150, deadline=None)
    @given(_station_layouts(), st.integers(0, 2**32 - 1))
    def test_matches_station_for(self, layout, seed):
        stations, b = layout
        network = BaseStationNetwork(stations)
        assigner = StationAssigner(stations, b)
        rng = np.random.default_rng(seed)
        # Inside and outside the bounds.
        xs = [rng.uniform(b.x1 - 300.0, b.x2 + 300.0, 80)]
        ys = [rng.uniform(b.y1 - 300.0, b.y2 + 300.0, 80)]
        # Raster cell edges at the assigner's resolution, computed the
        # way the cell index is (and as linspace rounds them).
        res = assigner.resolution
        for ex, ey in (
            (b.x1 + np.arange(res + 1) * (b.width / res),
             b.y1 + np.arange(res + 1) * (b.height / res)),
            (np.linspace(b.x1, b.x2, res + 1), np.linspace(b.y1, b.y2, res + 1)),
        ):
            xs += [rng.choice(ex, 40), rng.uniform(b.x1, b.x2, 40), rng.choice(ex, 20)]
            ys += [rng.uniform(b.y1, b.y2, 40), rng.choice(ey, 40), rng.choice(ey, 20)]
        # Coverage-disk boundaries, snapped to distance == radius, and
        # one ulp either side.
        for _ in range(40):
            station = stations[rng.integers(len(stations))]
            theta = rng.uniform(0.0, 2.0 * np.pi)
            y = station.center.y + station.radius * np.sin(theta)
            x = _snap_to_circle(
                station, station.center.x + station.radius * np.cos(theta), y
            )
            xs.append(np.array([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)]))
            ys.append(np.full(3, y))
        # Perpendicular bisectors of station pairs: quarter-metre steps
        # give exactly equidistant points (list order must break the
        # tie), random steps near-ties.
        if len(stations) > 1:
            for _ in range(40):
                a, c = (stations[k] for k in rng.choice(len(stations), 2, replace=False))
                mx = (a.center.x + c.center.x) / 2.0
                my = (a.center.y + c.center.y) / 2.0
                t = np.array([rng.integers(-12, 13) / 4.0, rng.uniform(-3.0, 3.0)])
                xs.append(mx - t * (c.center.y - a.center.y))
                ys.append(my + t * (c.center.x - a.center.x))
        x = np.concatenate(xs)
        y = np.concatenate(ys)
        slots = assigner.assign(x, y)
        for i in range(x.size):
            expected = network.station_for(float(x[i]), float(y[i]))
            assert assigner.stations[slots[i]] is expected, (x[i], y[i])


# ----------------------------------------------------------------------
# _ThresholdRaster vs MobileNode.current_threshold
# ----------------------------------------------------------------------


def _region(x1, y1, x2, y2, delta):
    return SheddingRegion(
        rect=Rect(x1, y1, x2, y2), delta=delta, n=1.0, m=1.0, s=1.0
    )


class TestThresholdRaster:
    @pytest.fixture(scope="class")
    def regions(self):
        rng = np.random.default_rng(11)
        regions = []
        for k in range(40):
            x1 = float(rng.uniform(0.0, 900.0))
            y1 = float(rng.uniform(0.0, 900.0))
            w = float(rng.uniform(20.0, 200.0))
            h = float(rng.uniform(20.0, 200.0))
            regions.append(_region(x1, y1, x1 + w, y1 + h, delta=5.0 + k))
        return tuple(regions)

    def _node_with(self, regions):
        node = MobileNode(node_id=0)
        subset = RegionSubset(station_id=0, regions=regions, version=1)
        node._install(subset)
        return node

    def test_matches_node_lookup_at_random_points(self, regions):
        raster = _ThresholdRaster(regions)
        node = self._node_with(regions)
        rng = np.random.default_rng(12)
        x = rng.uniform(-50.0, 1200.0, 3000)
        y = rng.uniform(-50.0, 1200.0, 3000)
        got = raster.thresholds_at(x, y, default=30.0)
        for i in range(x.size):
            assert got[i] == node.current_threshold(
                float(x[i]), float(y[i]), default=30.0
            )

    def test_half_open_edges_match_exactly(self, regions):
        """Probe every rect corner and edge midpoint: [x1, x2) semantics."""
        raster = _ThresholdRaster(regions)
        node = self._node_with(regions)
        xs, ys = [], []
        for r in regions:
            for x in (r.rect.x1, r.rect.x2, (r.rect.x1 + r.rect.x2) / 2):
                for y in (r.rect.y1, r.rect.y2, (r.rect.y1 + r.rect.y2) / 2):
                    xs.append(x)
                    ys.append(y)
        x = np.array(xs)
        y = np.array(ys)
        got = raster.thresholds_at(x, y, default=30.0)
        for i in range(x.size):
            assert got[i] == node.current_threshold(
                float(x[i]), float(y[i]), default=30.0
            )

    def test_overlap_resolves_to_lowest_region_index(self):
        overlapping = (
            _region(0.0, 0.0, 10.0, 10.0, delta=7.0),
            _region(5.0, 5.0, 15.0, 15.0, delta=9.0),
        )
        raster = _ThresholdRaster(overlapping)
        node = self._node_with(overlapping)
        x = np.array([6.0, 12.0, 2.0, 20.0])
        y = np.array([6.0, 12.0, 2.0, 20.0])
        got = raster.thresholds_at(x, y, default=99.0)
        assert got.tolist() == [7.0, 9.0, 7.0, 99.0]
        for i in range(x.size):
            assert got[i] == node.current_threshold(
                float(x[i]), float(y[i]), default=99.0
            )


# ----------------------------------------------------------------------
# Full-system equivalence at matched seeds
# ----------------------------------------------------------------------


def _run_system(
    trace, queries, engine, policy="lira", spec=None, seed=9, station_radius=1500.0
):
    faults = FaultInjector(spec, seed=seed) if spec is not None else None
    system = LiraSystem(
        bounds=trace.bounds,
        n_nodes=trace.num_nodes,
        queries=queries,
        reduction=AnalyticReduction(5.0, 100.0),
        config=LiraConfig(l=13, alpha=32),
        service_rate=500.0,
        queue_capacity=60,
        station_radius=station_radius,
        adaptive_throttle=True,
        faults=faults,
        policy=policy,
        policy_seed=3,
        engine=engine,
    )
    system.bootstrap(trace.positions[0], trace.velocities[0])
    sent = []
    for tick in range(trace.num_ticks):
        t = tick * trace.dt
        positions = trace.positions[tick]
        if tick % 4 == 0:
            system.adapt(positions, trace.speeds(tick))
        sent.append(system.tick(t, positions, trace.velocities[tick], trace.dt))
    return system, sent


_LOSSY = FaultSpec(
    uplink_loss=0.2,
    uplink_delay=0.15,
    uplink_reorder=0.3,
    downlink_loss=0.3,
    slowdown_prob=0.2,
    slowdown_duration=20.0,
)
_CHURN = FaultSpec(churn_leave=0.03, churn_rejoin=0.1)

_FAULT_CASES = {
    "no-faults": None,
    "null-spec": FaultSpec(),
    "lossy": _LOSSY,
    "churn": _CHURN,
}


class TestEngineEquivalence:
    @pytest.mark.parametrize("policy", ["lira", "random-drop"])
    @pytest.mark.parametrize("case", sorted(_FAULT_CASES))
    def test_vector_engine_bit_identical_to_object(
        self, small_trace, small_queries, policy, case
    ):
        spec = _FAULT_CASES[case]
        obj, sent_obj = _run_system(
            small_trace, small_queries, "object", policy=policy, spec=spec
        )
        vec, sent_vec = _run_system(
            small_trace, small_queries, "vector", policy=policy, spec=spec
        )
        # Per-tick admitted-report counts.
        assert sent_obj == sent_vec
        # Believed positions for the whole fleet (NaN where unknown).
        t = (small_trace.num_ticks - 1) * small_trace.dt
        assert np.array_equal(
            obj.server.table.predict(t),
            vec.server.table.predict(t),
            equal_nan=True,
        )
        # Every SystemStats field, including fault-layer bookkeeping.
        assert _stats_fields(obj.stats()) == _stats_fields(vec.stats())
        # Per-node protocol state.
        assert np.array_equal(
            obj.node_engine.handoff_counts(), vec.node_engine.handoff_counts()
        )
        assert np.array_equal(
            obj.node_engine.install_counts(), vec.node_engine.install_counts()
        )
        assert np.array_equal(
            obj.node_engine.station_slots(), vec.node_engine.station_slots()
        )
        # Query answers computed from the believed state.
        for res_obj, res_vec in zip(
            obj.evaluate_queries(t), vec.evaluate_queries(t)
        ):
            assert np.array_equal(res_obj, res_vec)

    def test_more_than_255_stations(self, small_trace, small_queries):
        """Slots outgrow uint8: grouping sorts uint16 keys, same results."""
        obj, sent_obj = _run_system(
            small_trace, small_queries, "object", station_radius=170.0
        )
        vec, sent_vec = _run_system(
            small_trace, small_queries, "vector", station_radius=170.0
        )
        assigner = vec.node_engine.assigner
        assert len(assigner.stations) == 289
        assert assigner.slot_dtype == np.uint16
        assert sent_obj == sent_vec
        assert _stats_fields(obj.stats()) == _stats_fields(vec.stats())
        assert np.array_equal(
            obj.node_engine.station_slots(), vec.node_engine.station_slots()
        )

    def test_stored_region_counts_agree_without_churn(
        self, small_trace, small_queries
    ):
        obj, _ = _run_system(small_trace, small_queries, "object")
        vec, _ = _run_system(small_trace, small_queries, "vector")
        assert np.array_equal(
            obj.node_engine.stored_region_counts(),
            vec.node_engine.stored_region_counts(),
        )

    def test_total_handoffs_matches_per_node_sum(
        self, small_trace, small_queries
    ):
        """The O(1) monotonic counter equals the O(N) reduction it replaced."""
        for engine in NODE_ENGINES:
            system, _ = _run_system(small_trace, small_queries, engine)
            assert system.node_engine.total_handoffs == int(
                system.node_engine.handoff_counts().sum()
            )
            assert system.stats().handoffs == system.node_engine.total_handoffs

    def test_unknown_engine_rejected(self, small_trace, small_queries):
        with pytest.raises(ValueError, match="engine"):
            LiraSystem(
                bounds=small_trace.bounds,
                n_nodes=small_trace.num_nodes,
                queries=small_queries,
                reduction=AnalyticReduction(5.0, 100.0),
                config=LiraConfig(l=13, alpha=32),
                engine="quantum",
            )


class TestStatsUnderChurn:
    """SystemStats parity across engines under a fault-injected churn run."""

    @pytest.fixture(scope="class")
    def churn_pair(self, small_trace, small_queries):
        obj, _ = _run_system(
            small_trace, small_queries, "object", spec=_CHURN, seed=21
        )
        vec, _ = _run_system(
            small_trace, small_queries, "vector", spec=_CHURN, seed=21
        )
        return obj, vec

    def test_active_node_accounting(self, churn_pair, small_trace):
        obj, vec = churn_pair
        so, sv = obj.stats(), vec.stats()
        assert so.active_nodes == sv.active_nodes
        assert so.active_nodes < small_trace.num_nodes

    def test_handoff_and_staleness_counters(self, churn_pair):
        obj, vec = churn_pair
        so, sv = obj.stats(), vec.stats()
        assert so.handoffs == sv.handoffs
        assert so.mean_plan_staleness == sv.mean_plan_staleness
        assert so.stale_station_fraction == sv.stale_station_fraction
        assert so.updates_discarded == sv.updates_discarded

    def test_departed_nodes_send_nothing(self, churn_pair):
        obj, vec = churn_pair
        assert np.array_equal(obj.faults.active_mask, vec.faults.active_mask)
        t = obj.current_time
        believed_obj = obj.server.table.predict(t)
        believed_vec = vec.server.table.predict(t)
        assert np.array_equal(believed_obj, believed_vec, equal_nan=True)


# ----------------------------------------------------------------------
# ArrayBoundedQueue vs BoundedQueue
# ----------------------------------------------------------------------


def _batches(rng, n_batches):
    for _ in range(n_batches):
        n = int(rng.integers(0, 40))
        ids = rng.integers(0, 1000, n)
        times = rng.uniform(0.0, 100.0, n)
        pos = rng.uniform(0.0, 4000.0, (n, 2))
        vel = rng.uniform(-30.0, 30.0, (n, 2))
        yield times, ids, pos, vel


class TestArrayBoundedQueue:
    def test_fifo_and_counters_match_scalar_queue(self):
        from repro.server.cq_server import UpdateMessage

        rng = np.random.default_rng(5)
        scalar = BoundedQueue(capacity=64)
        batched = ArrayBoundedQueue(capacity=64)
        rng2 = np.random.default_rng(5)
        for (times, ids, pos, vel), _ in zip(
            _batches(rng, 30), range(30)
        ):
            accepted = batched.offer_arrays(times, ids, pos, vel)
            scalar_accepted = 0
            for k in range(ids.size):
                msg = UpdateMessage(
                    time=float(times[k]),
                    node_id=int(ids[k]),
                    x=float(pos[k, 0]),
                    y=float(pos[k, 1]),
                    vx=float(vel[k, 0]),
                    vy=float(vel[k, 1]),
                )
                if scalar.offer(msg):
                    scalar_accepted += 1
            assert accepted == scalar_accepted
            assert len(batched) == len(scalar)
            # Drain a random amount from both, comparing payloads.
            drain = int(rng2.integers(0, 50))
            times_b, ids_b, pos_b, vel_b = batched.poll_arrays(drain)
            polled = scalar.poll_batch(drain)
            assert ids_b.size == len(polled)
            for k, msg in enumerate(polled):
                assert ids_b[k] == msg.node_id
                assert times_b[k] == msg.time
                assert pos_b[k, 0] == msg.x
                assert pos_b[k, 1] == msg.y
                assert vel_b[k, 0] == msg.vx
                assert vel_b[k, 1] == msg.vy
        assert batched.total_enqueued == scalar.total_enqueued
        assert batched.total_dropped == scalar.total_dropped
        assert batched.total_dequeued == scalar.total_dequeued
        assert batched.lifetime_enqueued == scalar.lifetime_enqueued
        assert batched.lifetime_dropped == scalar.lifetime_dropped
        assert batched.drop_rate() == scalar.drop_rate()

    def test_reset_counters_preserves_lifetime(self):
        rng = np.random.default_rng(6)
        q = ArrayBoundedQueue(capacity=16)
        for times, ids, pos, vel in _batches(rng, 4):
            q.offer_arrays(times, ids, pos, vel)
        lifetime = q.lifetime_enqueued
        dropped = q.lifetime_dropped
        q.reset_counters()
        assert q.total_enqueued == 0
        assert q.total_dropped == 0
        assert q.total_dequeued == 0
        assert q.lifetime_enqueued == lifetime
        assert q.lifetime_dropped == dropped

    def test_empty_poll_shapes(self):
        q = ArrayBoundedQueue(capacity=4)
        times, ids, pos, vel = q.poll_arrays(10)
        assert times.shape == (0,)
        assert ids.shape == (0,)
        assert pos.shape == (0, 2)
        assert vel.shape == (0, 2)
        assert not q.is_full


# ----------------------------------------------------------------------
# StatisticsGrid.ingest_updates vs scalar ingest_update
# ----------------------------------------------------------------------


class TestBatchedGridIngest:
    def test_matches_scalar_ingest(self, small_grid):
        import copy

        rng = np.random.default_rng(13)
        xs = rng.uniform(-100.0, 4100.0, 500)  # includes out-of-bounds
        ys = rng.uniform(-100.0, 4100.0, 500)
        speeds = rng.uniform(0.0, 40.0, 500)
        a = copy.deepcopy(small_grid)
        b = copy.deepcopy(small_grid)
        for i in range(xs.size):
            a.ingest_update(float(xs[i]), float(ys[i]), float(speeds[i]))
        b.ingest_updates(xs, ys, speeds)
        assert np.array_equal(a._acc_count, b._acc_count)
        assert np.array_equal(a._acc_speed, b._acc_speed)
        assert a._acc_updates == b._acc_updates
