"""Server-side range-CQ evaluation: the grid-pruned batch path vs the oracle.

``MobileCQServer.evaluate_queries`` and ``ShardedLiraSystem.evaluate_queries``
answer every query in one :class:`~repro.queries.QueryEvalKernel` batch.
These tests hold both to the brute-force oracle
:func:`repro.queries.evaluate_queries` over the server's believed
positions, on snapshots built to break cell pruning: never-seen nodes,
out-of-bounds nodes, nodes snapped to query and bucket-cell edges and
one ulp either side, queries sticking out of the bounds, and zero-area
queries.
"""

import pickle

import numpy as np
import pytest

from repro.core import AnalyticReduction, LiraConfig
from repro.geo import Rect
from repro.queries import QueryEvalKernel, RangeQuery, evaluate_queries
from repro.queries.batch import DEFAULT_CELLS_PER_SIDE
from repro.server import LiraSystem, ShardedLiraSystem
from repro.server.cq_server import MobileCQServer

# A side that is no round multiple of the cell count, so that cell
# edges ``k * CELL`` land where float division can round across them.
SIDE = 9_973.61
BOUNDS = Rect(0.0, 0.0, SIDE, SIDE)
CELL = SIDE / DEFAULT_CELLS_PER_SIDE


def assert_same_results(expected, actual):
    assert len(expected) == len(actual)
    for want, got in zip(expected, actual):
        np.testing.assert_array_equal(want, got)
        assert got.dtype == np.int64


class TestPrunedUpperEdge:
    """A node one ulp below a query's open edge must stay a candidate.

    When ``(x2 - origin) / cell`` is an exact integer k, the node at
    ``nextafter(x2, -inf)`` can round into column k; an upper index of
    ``ceil(k) - 1`` left that column out of the query's bucket.
    """

    @staticmethod
    def _edge_case(width, cells, k):
        bounds = Rect(0.0, 0.0, width, width)
        edge = k * (width / cells)
        below = np.nextafter(edge, -np.inf)
        queries = [
            RangeQuery(0, Rect(0.0, 0.0, edge, width)),  # x edge
            RangeQuery(1, Rect(0.0, 0.0, width, edge)),  # y edge
        ]
        positions = np.array([[below, 1.0], [1.0, below], [edge, 1.0]])
        return QueryEvalKernel(queries, bounds, cells), queries, positions

    @pytest.mark.parametrize(
        "width, cells, k",
        [(2082.3, 8, 7), (3386.06, 17, 9), (2674.24, 94, 35), (1573.52, 53, 34)],
    )
    def test_known_cases(self, width, cells, k):
        kernel, queries, positions = self._edge_case(width, cells, k)
        expected = evaluate_queries(queries, positions)
        assert_same_results(expected, kernel.evaluate(positions, prune=True))
        np.testing.assert_array_equal(
            kernel.containment(positions, prune=True),
            kernel.containment(positions, prune=False),
        )

    def test_random_sweep(self):
        rng = np.random.default_rng(12)
        rounding_cases = 0
        for _ in range(2000):
            width = round(float(rng.uniform(100.0, 5000.0)), 2)
            cells = int(rng.integers(2, 130))
            k = int(rng.integers(1, cells))
            kernel, queries, positions = self._edge_case(width, cells, k)
            cell = width / cells
            rounding_cases += int(np.floor(positions[0, 0] / cell)) == k
            expected = evaluate_queries(queries, positions)
            assert_same_results(expected, kernel.evaluate(positions, prune=True))
        # The sweep must actually reach the rounding corner it guards.
        assert rounding_cases > 20


class TestSparseEvaluate:
    def test_never_seen_nodes_yield_no_candidates(self):
        queries = [RangeQuery(0, Rect(0.0, 0.0, 2 * CELL, 2 * CELL))]
        kernel = QueryEvalKernel(queries, BOUNDS)
        positions = np.full((5, 2), np.nan)
        positions[3] = (1.0, 1.0)
        q_idx, n_idx = kernel._candidate_pairs(positions)
        np.testing.assert_array_equal(n_idx, [3])
        assert_same_results([np.array([3])], kernel.evaluate(positions))

    def test_no_queries_and_no_nodes(self):
        assert QueryEvalKernel([], BOUNDS).evaluate(np.zeros((4, 2))) == []
        kernel = QueryEvalKernel([RangeQuery(0, BOUNDS)] * 3, BOUNDS)
        assert_same_results([np.empty(0, np.int64)] * 3, kernel.evaluate(np.empty((0, 2))))


# ----------------------------------------------------------------------
# Property test: system query results == oracle over believed positions
# ----------------------------------------------------------------------


def adversarial_queries(rng, n_random=12):
    """Random rects plus edge-aligned, out-of-bounds and zero-area ones."""
    queries = []
    for _ in range(n_random):
        x1, y1 = rng.uniform(-500.0, SIDE, 2)
        w, h = rng.uniform(200.0, 3000.0, 2)
        queries.append(Rect(x1, y1, x1 + w, y1 + h))
    # Edges exactly on bucket-cell boundaries (the pruning grid).
    for _ in range(6):
        i1, j1 = rng.integers(0, DEFAULT_CELLS_PER_SIDE - 8, 2)
        i2, j2 = i1 + rng.integers(1, 8), j1 + rng.integers(1, 8)
        queries.append(Rect(i1 * CELL, j1 * CELL, i2 * CELL, j2 * CELL))
    queries.append(Rect(-800.0, -800.0, 700.0, 900.0))  # out past the low corner
    queries.append(Rect(SIDE - 600.0, 4000.0, SIDE + 900.0, 5000.0))
    queries.append(Rect(-100.0, -100.0, SIDE + 100.0, SIDE + 100.0))  # everything
    queries.append(Rect(3000.0, 3000.0, 3000.0, 5000.0))  # zero width
    queries.append(Rect(2000.0, 7000.0, 4000.0, 7000.0))  # zero height
    queries.append(Rect(SIDE + 10.0, 0.0, SIDE + 500.0, SIDE))  # wholly outside
    return [RangeQuery(i, r) for i, r in enumerate(queries)]


def ulp_jitter(rng, values):
    """Each value exactly, or moved one ulp down or up, at random."""
    step = rng.integers(-1, 2, size=values.shape)
    return np.where(step == 0, values, np.nextafter(values, np.where(step < 0, -np.inf, np.inf)))


def adversarial_positions(rng, n, queries):
    """Positions and velocities; edge-snapped nodes stand still.

    A zero velocity keeps the believed position bit-equal to the reported
    one, so the snapped coordinates survive dead reckoning exactly.
    """
    positions = rng.uniform(0.0, SIDE, (n, 2))
    velocities = rng.uniform(-15.0, 15.0, (n, 2))
    # Half the nodes: one coordinate on an edge of some query (or one
    # ulp either side of it), the other inside that query's span.
    bounds = np.array([[q.rect.x1, q.rect.y1, q.rect.x2, q.rect.y2] for q in queries])
    snapped = rng.choice(n, size=n // 2, replace=False)
    rows = np.arange(snapped.size)
    rect = bounds[rng.integers(len(queries), size=snapped.size)]
    axis = rng.integers(2, size=snapped.size)
    edge = rect[rows, axis + 2 * rng.integers(2, size=snapped.size)]
    positions[snapped, axis] = ulp_jitter(rng, edge)
    positions[snapped, 1 - axis] = rng.uniform(rect[rows, 1 - axis], rect[rows, 3 - axis])
    velocities[snapped] = 0.0
    # Bucket-cell boundaries, exact or one ulp off, and out-of-bounds nodes.
    cells = rng.choice(n, size=n // 10, replace=False)
    k = rng.integers(0, DEFAULT_CELLS_PER_SIDE + 1, (cells.size, 2))
    positions[cells] = ulp_jitter(rng, k * CELL)
    velocities[cells] = 0.0
    outside = rng.choice(n, size=n // 10, replace=False)
    positions[outside] += rng.choice([-1.0, 1.0], (outside.size, 2)) * SIDE * 0.6
    return positions, velocities


def _systems(n_nodes, queries, shards, service_rate, queue_capacity):
    config = LiraConfig(l=13, alpha=32, z=0.5)
    reduction = AnalyticReduction(config.delta_min, config.delta_max)
    common = dict(
        config=config,
        service_rate=service_rate,
        queue_capacity=queue_capacity,
        station_radius=1500.0,
        policy_seed=5,
    )
    ref = LiraSystem(BOUNDS, n_nodes, queries, reduction, **common)
    sharded = [
        ShardedLiraSystem(BOUNDS, n_nodes, queries, reduction, n_shards=k, **common)
        for k in shards
    ]
    return ref, sharded


def believed_of(system, t):
    if isinstance(system, LiraSystem):
        return system.server.table.predict(t)
    believed = np.full((system.n_nodes, 2), np.nan)
    for shard in system.shards:
        ids, pos = shard.server.table.predict_known(t)
        believed[ids] = pos
    return believed


class TestSystemQueriesMatchOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_never_seen_nodes(self, seed):
        """No bootstrap and a tiny queue: most nodes never reach the table."""
        rng = np.random.default_rng(seed)
        queries = adversarial_queries(rng)
        n = 300
        ref, _ = _systems(n, queries, (), service_rate=40.0, queue_capacity=20)
        positions, velocities = adversarial_positions(rng, n, queries)
        ref.adapt(positions, np.hypot(velocities[:, 0], velocities[:, 1]))
        for tick in range(1, 6):
            positions = positions + velocities
            ref.tick(float(tick), positions, velocities, 1.0)
            believed = believed_of(ref, ref.current_time)
            assert np.isnan(believed).any(), "scenario lost its never-seen nodes"
            assert_same_results(
                evaluate_queries(queries, believed), ref.evaluate_queries()
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_lira_and_sharded_match_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        queries = adversarial_queries(rng)
        n = 400
        ref, sharded = _systems(n, queries, (1, 2), service_rate=300.0, queue_capacity=60)
        positions, velocities = adversarial_positions(rng, n, queries)
        systems = [ref, *sharded]
        for system in systems:
            system.bootstrap(positions, velocities)
        for tick in range(1, 9):
            positions = positions + velocities
            if tick % 4 == 1:
                speeds = np.hypot(velocities[:, 0], velocities[:, 1])
                for system in systems:
                    system.adapt(positions, speeds)
            for system in systems:
                system.tick(float(tick), positions, velocities, 1.0)
            expected = None
            for system in systems:
                oracle = evaluate_queries(queries, believed_of(system, float(tick)))
                got = system.evaluate_queries()
                assert_same_results(oracle, got)
                if expected is None:
                    expected = got  # LiraSystem
                elif system.n_shards == 1:
                    assert_same_results(expected, got)  # K=1 bit-identity
        for system in sharded:
            system.close()


class TestKernelLifetime:
    def _server(self, stats_alpha=None):
        queries = [RangeQuery(0, Rect(0.0, 0.0, 5000.0, 5000.0))]
        server = MobileCQServer(
            BOUNDS, 50, queries, service_rate=100.0, stats_alpha=stats_alpha
        )
        rng = np.random.default_rng(0)
        server.table.ingest(
            0.0, np.arange(50), rng.uniform(0.0, SIDE, (50, 2)), np.zeros((50, 2))
        )
        return server

    def test_built_lazily_at_the_statistics_resolution(self):
        server = self._server(stats_alpha=16)
        assert server._query_kernel is None
        server.evaluate_queries(1.0)
        assert server._query_kernel.cells_per_side == 16
        default = self._server()
        default.evaluate_queries(1.0)
        assert default._query_kernel.cells_per_side == DEFAULT_CELLS_PER_SIDE

    def test_kernel_never_rides_a_pickle(self):
        server = self._server()
        before = pickle.dumps(server)
        expected = server.evaluate_queries(1.0)
        after = pickle.dumps(server)
        assert server._query_kernel is not None
        assert len(after) == len(before)
        clone = pickle.loads(after)
        assert clone._query_kernel is None
        assert_same_results(expected, clone.evaluate_queries(1.0))
