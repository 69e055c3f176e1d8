"""Sharded multi-server LIRA: K spatial shards behind one coordinator.

The single-process :class:`~repro.server.system.LiraSystem` tops out at
one core; this module splits the deployment across K *shards*, each a
complete vertical slice of the architecture — its own bounded-queue CQ
server (over a compact node table), its own base stations with their
plan subsets, its own vectorized node engine and dead-reckoning fleet,
its own GRIDREDUCE/GREEDYINCREMENT shedder, and its own THROTLOOP — so
K servers provide K times the ingest capacity, which is exactly the
server-cost scaling story of the paper's Fig. 14.

Partitioning and routing
    Stations are assigned to shards by rendezvous hashing over station
    ids (:mod:`repro.server.sharding`); a node belongs to the shard
    owning its serving station.  All shard engines share one global
    :class:`~repro.server.node_engine.StationAssigner`, so a node's
    station — and therefore its shard — is a pure deterministic
    function of its position, identical to the unsharded deployment.

Handoff protocol
    During a tick each shard computes its nodes' station slots as
    usual; nodes whose new station belongs to another shard are
    recorded as departures *after* the tick completes (their tick-T
    report still lands in the old shard's queue, like a mobile handover
    completing mid-call).  The buffered records are applied at the
    start of the next tick in deterministic (source shard, node id)
    order: the node's engine/fleet/table rows are surgically moved to
    the destination shard.  Reports still sitting in the source queue
    when the node leaves are discarded at table-ingest time and counted
    (``updates_orphaned``).

Budget coordination
    Each shard runs its own THROTLOOP against its own measured load.
    Every ``rebalance_every`` adaptations the coordinator computes the
    global budget ``z = Σ w_k · z_k`` (load-weighted mean, weights from
    measured per-shard arrivals) and re-allocates it as per-shard
    budgets ``b_k = z · w_k`` with the remainder pinned so that
    ``Σ b_k == z`` exactly; shard k's throttle becomes ``b_k / w_k``
    (clamped to its THROTLOOP floor).  At K=1 the weight is exactly 1.0
    and the whole step is an arithmetic identity.

Equivalence contract
    Each shard is a :class:`~repro.server.core.LiraCore`, the same core
    :class:`LiraSystem` is, and every tick runs the one kernel
    :func:`~repro.server.core.run_tick` with the same fault seams.  With
    ``n_shards=1`` the output (SystemStats, plans, thresholds, query
    results, history) is therefore bit-identical to :class:`LiraSystem`,
    fault injection included.  With ``n_shards>1`` runs are bit-reproducible per
    seed, and the process-pool execution path (``n_workers>1``) is
    bit-identical to the in-process path: shards advance in lockstep,
    one tick per pool round, with handoffs synchronized at tick
    boundaries either way.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core import LiraConfig
from repro.core.reduction import ReductionFunction
from repro.faults import FaultInjector
from repro.geo import Rect
from repro.history import TrajectoryStore
from repro.motion import DeadReckoningFleet
from repro.queries import QueryEvalKernel, RangeQuery
from repro.sanitize import rng_discipline
from repro.server.base_station import BaseStation, place_uniform_stations
from repro.server.core import (
    LiraCore,
    SystemStats,
    build_stats,
    count_clean_uplink,
    injecting,
    run_tick,
    tick_faults,
)
from repro.server.cq_server import MobileCQServer
from repro.server.node_engine import StationAssigner, VectorNodeEngine
from repro.server.protocol import BaseStationNetwork, RegionSubset
from repro.server.sharding import ShardRouter
from repro.timing import Stopwatch

_EMPTY_I64 = np.empty(0, dtype=np.int64)


class _ShardDirectory:
    """Live merged station→subset view across the per-shard networks.

    Satisfies the node engine's ``SubsetProvider`` protocol: any shard's
    engine can resolve the subset of *any* station, whichever shard's
    network installed it — the sharded twin of one global network.
    """

    def __init__(
        self,
        stations: list[BaseStation],
        network_by_station: dict[int, BaseStationNetwork],
    ) -> None:
        self.stations = stations
        self._network_by_station = network_by_station

    def subset_or_none(self, station_id: int) -> RegionSubset | None:
        network = self._network_by_station.get(station_id)
        if network is None:
            return None
        return network.subset_or_none(station_id)

    def snapshot(self) -> dict[int, RegionSubset | None]:
        """Picklable per-station subset snapshot for pool workers."""
        return {
            station.station_id: self.subset_or_none(station.station_id)
            for station in self.stations
        }


class _SnapshotDirectory:
    """A pool worker's frozen copy of the subset directory."""

    def __init__(
        self,
        stations: list[BaseStation],
        subsets: dict[int, RegionSubset | None],
    ) -> None:
        self.stations = stations
        self._subsets = subsets

    def subset_or_none(self, station_id: int) -> RegionSubset | None:
        return self._subsets.get(station_id)


@dataclass
class RebalanceReport:
    """Diagnostics of one coordinator budget-rebalance step."""

    weights: np.ndarray
    z_global: float
    budgets: np.ndarray


class LiraShard(LiraCore):
    """One shard's complete vertical slice of the deployment."""

    def __init__(
        self,
        shard_id: int,
        stations: list[BaseStation],
        bounds: Rect,
        config: LiraConfig,
        reduction: ReductionFunction,
        queries: list[RangeQuery],
        service_rate: float,
        queue_capacity: int,
        adaptive_throttle: bool,
        policy_seed: int,
        assigner: StationAssigner,
        downlink: FaultInjector | None = None,
        policy: str = "lira",
    ) -> None:
        # The server arrives with the node partition, at adopt().
        super().__init__(
            bounds,
            config,
            reduction,
            server=None,
            network=(
                BaseStationNetwork(stations, downlink=downlink) if stations else None
            ),
            queue_capacity=queue_capacity,
            policy=policy,
            adaptive_throttle=adaptive_throttle,
        )
        self.shard_id = shard_id
        self.stations = stations
        self.queries = queries
        self.service_rate = service_rate
        self.queue_capacity = queue_capacity
        self.assigner = assigner
        # Shard 0 reuses the exact LiraSystem stream (K=1 bit-identity);
        # other shards get independent deterministic streams.
        self._policy_rng = np.random.default_rng(
            policy_seed if shard_id == 0 else [policy_seed, shard_id]
        )
        self.last_tick_seconds = 0.0
        self.node_engine: VectorNodeEngine | None = None
        self.fleet: DeadReckoningFleet | None = None

    @property
    def ids(self) -> np.ndarray:
        """Owned global node ids, ascending (the table's row order)."""
        assert self.server is not None
        return self.server.table.ids  # type: ignore[union-attr]

    def owned_rows(self, *arrays: np.ndarray) -> tuple:
        """``(ids, *rows)``: each global-id-indexed array's owned rows.

        A shard owning every node reads the arrays as they are (row ==
        global id) and returns ``ids=None``: the kernel's owns-all path.
        """
        ids = self.ids
        if ids.size == len(arrays[0]):
            return (None, *arrays)
        return (ids, *(array[ids] for array in arrays))

    def adopt(self, ids: np.ndarray, directory: Any) -> None:
        """Create the per-node state for the initial owned partition."""
        self.server = MobileCQServer(
            self.bounds,
            int(ids.size),
            self.queries,
            service_rate=self.service_rate,
            queue_capacity=self.queue_capacity,
            batch_ingest=True,
            node_ids=ids,
        )
        self.node_engine = VectorNodeEngine(
            int(ids.size), directory, self.bounds, assigner=self.assigner
        )
        self.fleet = DeadReckoningFleet(int(ids.size))

    # ------------------------------------------------------------------
    # Row surgery (handoff)
    # ------------------------------------------------------------------

    def extract_nodes(self, node_ids: np.ndarray) -> dict[str, dict[str, np.ndarray]]:
        """Remove the given (ascending) global ids; return their state."""
        assert self.server is not None and self.node_engine is not None
        assert self.fleet is not None
        table = self.server.table
        rows = table.rows_of(node_ids)  # type: ignore[union-attr]
        return {
            "engine": self.node_engine.extract_rows(rows),
            "fleet": self.fleet.extract_rows(rows),
            "table": table.extract_rows(rows),  # type: ignore[union-attr]
        }

    def insert_nodes(
        self, node_ids: np.ndarray, state: dict[str, dict[str, np.ndarray]]
    ) -> None:
        """Adopt nodes extracted from another shard (ascending ids)."""
        assert self.server is not None and self.node_engine is not None
        assert self.fleet is not None
        at = np.searchsorted(self.ids, node_ids)
        self.node_engine.insert_rows(at, state["engine"])
        self.fleet.insert_rows(at, state["fleet"])
        self.server.table.insert_rows(at, node_ids, state["table"])  # type: ignore[union-attr]


def _slice_state(
    state: dict[str, dict[str, np.ndarray]], sel: np.ndarray
) -> dict[str, dict[str, np.ndarray]]:
    return {
        component: {key: value[sel] for key, value in arrays.items()}
        for component, arrays in state.items()
    }


def _concat_states(
    states: list[dict[str, dict[str, np.ndarray]]],
) -> dict[str, dict[str, np.ndarray]]:
    first = states[0]
    return {
        component: {
            key: np.concatenate([s[component][key] for s in states])
            for key in arrays
        }
        for component, arrays in first.items()
    }


# ----------------------------------------------------------------------
# Process-pool execution: one tick per shard per round
# ----------------------------------------------------------------------

_WORKER_ASSIGNER: StationAssigner | None = None


def _pool_init(assigner: StationAssigner) -> None:
    """Worker initializer: adopt the coordinator's built assigner.

    Shipping the built raster (rather than rebuilding it from the
    station list) keeps the build to one per system and guarantees the
    workers resolve positions against the router's exact table.
    """
    global _WORKER_ASSIGNER
    _WORKER_ASSIGNER = assigner


def _pool_tick_job(payload: tuple) -> tuple:
    """Execute one shard's tick in a pool worker.

    The shard's SoA state (engine arrays, fleet, server with its compact
    table and queue, admission RNG) round-trips through the payload, so
    no worker affinity is assumed: any worker can tick any shard on any
    round and the result is bit-identical to the in-process path.
    """
    engine_state, subsets, kernel_args = payload
    assigner = _WORKER_ASSIGNER
    assert assigner is not None
    engine = VectorNodeEngine(
        0,
        _SnapshotDirectory(assigner.stations, subsets),
        assigner.bounds,
        assigner=assigner,
    )
    engine.load_tick_state(engine_state)
    with Stopwatch() as watch:
        out = run_tick(engine=engine, **kernel_args)
    return (
        engine.tick_state(),
        kernel_args["fleet"],
        kernel_args["server"],
        kernel_args["admit_rng"],
        out,
        watch.elapsed,
    )


class ShardedLiraSystem:
    """K-shard LIRA deployment with a thin global-budget coordinator.

    Drives the same core as :class:`~repro.server.system.LiraSystem`
    with the same API (``bootstrap`` → ``adapt`` → ``tick`` … /
    ``stats`` / ``evaluate_queries``) and is bit-identical to it at
    ``n_shards=1``.  ``bootstrap`` must run before ``adapt``/``tick``:
    the initial node partition is derived from the bootstrap positions.

    Args:
        n_shards: K, the number of spatial shards.
        n_workers: >1 executes shard ticks on a process pool (capped at
            K, forced to 1 on single-core hosts — a pool cannot beat the
            serial loop there); shards round-trip their SoA state per
            tick, so results are bit-identical to in-process execution.
        rebalance_every: coordinator budget-rebalance cadence, in
            adaptations.
        service_rate: per-shard μ — K shards provide K-fold capacity.
        faults: supported at ``n_shards=1`` (bit-identical to
            :class:`LiraSystem` under the same injector); a non-null
            spec with K>1 raises.
    """

    def __init__(
        self,
        bounds: Rect,
        n_nodes: int,
        queries: list[RangeQuery],
        reduction: ReductionFunction,
        config: LiraConfig | None = None,
        service_rate: float = 1000.0,
        queue_capacity: int = 100,
        station_radius: float = 2000.0,
        stations: list[BaseStation] | None = None,
        adaptive_throttle: bool = True,
        receive_substeps: int = 10,
        faults: FaultInjector | None = None,
        policy: str = "lira",
        policy_seed: int = 0,
        n_shards: int = 1,
        n_workers: int = 1,
        rebalance_every: int = 1,
        shard_salt: int = 0,
        assigner_resolution: int | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if rebalance_every < 1:
            raise ValueError("rebalance_every must be >= 1")
        self.config = config or LiraConfig(l=49, alpha=64)
        self.bounds = bounds
        self.n_nodes = n_nodes
        self.queries = list(queries)
        self.policy = policy
        self.faults = faults
        self.n_shards = n_shards
        self.rebalance_every = rebalance_every
        inject = injecting(faults)
        if inject is not None and n_shards > 1:
            raise NotImplementedError(
                "fault injection is supported at n_shards=1 only"
            )
        self._adaptive = adaptive_throttle
        station_list = stations or place_uniform_stations(bounds, station_radius)
        self.router = ShardRouter(
            station_list,
            bounds,
            n_shards,
            salt=shard_salt,
            assigner_resolution=assigner_resolution,
        )
        self.shards: list[LiraShard] = [
            LiraShard(
                k,
                self.router.stations_for(k),
                bounds,
                self.config,
                reduction,
                self.queries,
                service_rate,
                queue_capacity,
                adaptive_throttle,
                policy_seed,
                self.router.assigner,
                downlink=inject if k == 0 else None,
                policy=policy,
            )
            for k in range(n_shards)
        ]
        network_by_station: dict[int, BaseStationNetwork] = {}
        for shard in self.shards:
            if shard.network is None:
                continue
            for station in shard.stations:
                network_by_station[station.station_id] = shard.network
        self.directory = _ShardDirectory(station_list, network_by_station)
        self.history = TrajectoryStore(n_nodes)
        self.receive_substeps = max(1, receive_substeps)
        # A pool on a single-core host is a pessimization (the same
        # rationale as repro.experiments.runner.run_jobs's fallback).
        cores = os.cpu_count() or 1
        self.n_workers = 1 if cores <= 1 else max(1, min(n_workers, n_shards))
        self._pool: ProcessPoolExecutor | None = None
        self._pending_handoffs: list[tuple[np.ndarray, np.ndarray]] = [
            (_EMPTY_I64, _EMPTY_I64) for _ in range(n_shards)
        ]
        # Row-surgery seconds per shard for the tick being executed:
        # extraction is the source shard's work, insertion the
        # destination's (a real shard serializes/merges its own rows;
        # the coordinator only relays the records), so the timing
        # accounting bills them to the shards, not the coordinator.
        self._surgery_seconds = [0.0] * n_shards
        self.total_cross_handoffs = 0
        self._plan_installed = False
        self._bootstrapped = False
        self._adapt_count = 0
        self._z_global = self.shards[0].shedder.current_z
        self.last_rebalance: RebalanceReport | None = None
        self.last_tick_seconds = 0.0
        self.current_time = 0.0
        # Built on the first evaluate_queries call; stays coordinator-side.
        self._query_kernel: QueryEvalKernel | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def bootstrap(self, positions: np.ndarray, velocities: np.ndarray) -> None:
        """Register the population and derive the initial partition.

        Like :meth:`LiraSystem.bootstrap` (out-of-band registration,
        not steady-state load); node→shard ownership comes from the
        serving station of each bootstrap position.
        """
        if self._bootstrapped:
            raise RuntimeError("bootstrap() may only be called once")
        x = np.ascontiguousarray(positions[:, 0], dtype=np.float64)
        y = np.ascontiguousarray(positions[:, 1], dtype=np.float64)
        owner = self.router.shard_of_positions(x, y)
        t = 0.0
        for k, shard in enumerate(self.shards):
            ids_k = np.flatnonzero(owner == k).astype(np.int64)
            shard.adopt(ids_k, self.directory)
            _, pos_k, vel_k = shard.owned_rows(positions, velocities)
            assert shard.fleet is not None and shard.server is not None
            all_local = shard.fleet.observe(t, pos_k, vel_k)
            shard.server.table.ingest(
                t, ids_k[all_local], pos_k[all_local], vel_k[all_local]
            )
            self.history.record(
                t, ids_k[all_local], pos_k[all_local], vel_k[all_local]
            )
        self._bootstrapped = True

    def close(self) -> None:
        """Shut down the process pool (no-op when in-process)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ShardedLiraSystem":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_workers,
                initializer=_pool_init,
                initargs=(self.router.assigner,),
            )
        return self._pool

    # ------------------------------------------------------------------
    # Server-side control path
    # ------------------------------------------------------------------

    def adapt(self, positions: np.ndarray, speeds: np.ndarray) -> None:
        """One adaptation across all shards + coordinator rebalance."""
        if not self._bootstrapped:
            raise RuntimeError("call bootstrap() before adapt()")
        # Under REPRO_SANITIZE=1 any hidden global-RNG draw in the
        # adaptation path raises instead of silently de-seeding runs.
        with rng_discipline():
            measurements = [shard.observe_load() for shard in self.shards]
            self._adapt_count += 1
            if (
                self.n_shards > 1
                and self._adaptive
                and self._adapt_count % self.rebalance_every == 0
            ):
                self._rebalance(measurements)
            for shard in self.shards:
                if shard.network is not None:
                    _, pos_k, spd_k = shard.owned_rows(positions, speeds)
                    shard.install(shard.plan_for(pos_k, spd_k), self.current_time)
        self._plan_installed = True

    def _rebalance(self, measurements: list) -> None:
        """Re-allocate the global throttle budget across shards.

        Weights are measured arrival shares (falling back to owned-node
        shares, then uniform, when the period saw no arrivals); the
        global budget is the weighted mean of the per-shard THROTLOOP
        outputs and is conserved exactly: the last loaded shard absorbs
        the floating-point remainder so ``Σ b_k == z_global`` to the bit.
        """
        arrivals = np.array([float(m.arrivals) for m in measurements])
        total = arrivals.sum()
        if total > 0:
            weights = arrivals / total
        else:
            sizes = np.array([float(s.ids.size) for s in self.shards])
            if sizes.sum() > 0:
                weights = sizes / sizes.sum()
            else:
                weights = np.full(self.n_shards, 1.0 / self.n_shards)
        zs = np.array([s.shedder.throtloop.z for s in self.shards])
        z_global = float(weights @ zs)
        budgets = z_global * weights
        loaded = np.flatnonzero(weights > 0)
        last = int(loaded[-1])
        others = np.delete(np.arange(self.n_shards), last)
        budgets[last] = z_global - float(budgets[others].sum())
        for k in loaded:
            throtloop = self.shards[int(k)].shedder.throtloop
            throtloop.z = min(
                1.0, max(throtloop.z_floor, float(budgets[k] / weights[k]))
            )
        self._z_global = z_global
        self.last_rebalance = RebalanceReport(
            weights=weights, z_global=z_global, budgets=budgets
        )

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def tick(
        self, t: float, positions: np.ndarray, velocities: np.ndarray, dt: float
    ) -> int:
        """One sampling period across all shards; returns reports sent."""
        if not self._bootstrapped:
            raise RuntimeError("call bootstrap() before tick()")
        if not self._plan_installed:
            raise RuntimeError("call adapt() before the first tick()")
        self.current_time = t
        with Stopwatch() as total_watch:
            # Faults only inject at K=1, where shard 0 holds the network.
            active, rate_factor, uplink = tick_faults(
                self.faults, self.shards[0].network, t, self.n_nodes
            )
            self._apply_handoffs()
            if self.n_workers > 1:
                total_sent = self._tick_pooled(t, positions, velocities, dt)
            else:
                total_sent = self._tick_serial(
                    t, positions, velocities, dt, active, rate_factor, uplink
                )
            count_clean_uplink(self.faults, total_sent)
        self.last_tick_seconds = total_watch.elapsed
        return total_sent

    def _kernel_args(
        self,
        shard: LiraShard,
        t: float,
        positions: np.ndarray,
        velocities: np.ndarray,
        dt: float,
    ) -> dict[str, Any]:
        """:func:`run_tick` arguments for one shard, bar its engine.

        The owned-row gather is shard work (a real shard's ingest would
        receive exactly these rows), so callers time it with the shard.
        """
        ids, pos_k, vel_k = shard.owned_rows(positions, velocities)
        return dict(
            fleet=shard.fleet,
            server=shard.server,
            positions=pos_k,
            velocities=vel_k,
            t=t,
            dt=dt,
            substeps=self.receive_substeps,
            default_delta=self.config.delta_min,
            admit=shard.admit_fraction,
            admit_rng=shard._policy_rng,
            ids=ids,
            shard_id=shard.shard_id,
            station_shard=self.router.station_shard if self.n_shards > 1 else None,
        )

    def _end_shard_tick(self, shard: LiraShard, out: tuple, seconds: float) -> int:
        """Buffer a shard's departures and bill its time; returns reports sent."""
        shard.last_tick_seconds = seconds + self._surgery_seconds[shard.shard_id]
        self._pending_handoffs[shard.shard_id] = (out[3], out[4])
        return int(out[0].size)

    def _tick_serial(
        self,
        t: float,
        positions: np.ndarray,
        velocities: np.ndarray,
        dt: float,
        active: np.ndarray | None,
        rate_factor: float,
        uplink: Any,
    ) -> int:
        total_sent = 0
        for shard in self.shards:
            with Stopwatch() as watch:
                out = run_tick(
                    engine=shard.node_engine,
                    active=active,
                    rate_factor=rate_factor,
                    uplink=uplink,
                    **self._kernel_args(shard, t, positions, velocities, dt),
                )
                self.history.record(t, out[0], out[1], out[2])
            total_sent += self._end_shard_tick(shard, out, watch.elapsed)
        return total_sent

    def _tick_pooled(
        self,
        t: float,
        positions: np.ndarray,
        velocities: np.ndarray,
        dt: float,
    ) -> int:
        subsets = self.directory.snapshot()
        payloads = []
        for shard in self.shards:
            assert shard.node_engine is not None
            payloads.append(
                (
                    shard.node_engine.tick_state(),
                    subsets,
                    self._kernel_args(shard, t, positions, velocities, dt),
                )
            )
        results = list(self._ensure_pool().map(_pool_tick_job, payloads))
        total_sent = 0
        for shard, result in zip(self.shards, results):
            engine_state, fleet, server, admit_rng, out, elapsed = result
            assert shard.node_engine is not None
            shard.node_engine.load_tick_state(engine_state)
            shard.fleet, shard.server, shard._policy_rng = fleet, server, admit_rng
            self.history.record(t, out[0], out[1], out[2])
            total_sent += self._end_shard_tick(shard, out, elapsed)
        return total_sent

    def _apply_handoffs(self) -> int:
        """Apply the previous tick's buffered cross-shard departures.

        Rows move source-by-source in ascending shard order, each
        source's departures in ascending node id; destinations merge
        the incoming rows id-sorted.  No node is ever lost or
        duplicated: extraction and insertion are the same rows.
        """
        pending = self._pending_handoffs
        self._surgery_seconds = [0.0] * self.n_shards
        moved_total = sum(int(ids.size) for ids, _ in pending)
        if moved_total == 0:
            return 0
        buckets: list[list[tuple[np.ndarray, dict]]] = [
            [] for _ in range(self.n_shards)
        ]
        for src in range(self.n_shards):
            dep_ids, dep_dst = pending[src]
            if dep_ids.size == 0:
                continue
            with Stopwatch() as watch:
                state = self.shards[src].extract_nodes(dep_ids)
            self._surgery_seconds[src] += watch.elapsed
            for dst in range(self.n_shards):
                sel = np.flatnonzero(dep_dst == dst)
                if sel.size:
                    buckets[dst].append((dep_ids[sel], _slice_state(state, sel)))
        for dst in range(self.n_shards):
            entries = buckets[dst]
            if not entries:
                continue
            with Stopwatch() as watch:
                ids_in = np.concatenate([ids for ids, _ in entries])
                merged = _concat_states([state for _, state in entries])
                order = np.argsort(ids_in, kind="stable")
                self.shards[dst].insert_nodes(
                    ids_in[order], _slice_state(merged, order)
                )
            self._surgery_seconds[dst] += watch.elapsed
        self._pending_handoffs = [
            (_EMPTY_I64, _EMPTY_I64) for _ in range(self.n_shards)
        ]
        self.total_cross_handoffs += moved_total
        return moved_total

    # ------------------------------------------------------------------
    # Queries + introspection
    # ------------------------------------------------------------------

    def evaluate_queries(self, t: float | None = None) -> list[np.ndarray]:
        """Current CQ result sets (global ids, ascending).

        Each shard's known rows are scattered into one NaN-initialised
        global believed array, which one coordinator-held kernel
        evaluates in a single grid-pruned batch — the same call on the
        same floats as :meth:`MobileCQServer.evaluate_queries`, hence
        bit-identical to :class:`LiraSystem` at ``n_shards=1``.
        """
        when = self.current_time if t is None else t
        believed = np.full((self.n_nodes, 2), np.nan)
        for shard in self.shards:
            assert shard.server is not None
            ids, pos = shard.server.table.predict_known(when)  # type: ignore[union-attr]
            believed[ids] = pos
        if self._query_kernel is None:
            self._query_kernel = QueryEvalKernel(self.queries, self.bounds)
        return self._query_kernel.evaluate(believed)

    def owned_ids(self) -> np.ndarray:
        """Concatenated owned ids across shards (conservation checks)."""
        return np.concatenate([shard.ids for shard in self.shards])

    @property
    def current_z(self) -> float:
        """The coordinator's view of the throttle budget."""
        if self.n_shards == 1 or not self._adaptive:
            return self.shards[0].shedder.current_z
        return self._z_global

    def set_throttle_fraction(self, z: float) -> None:
        """Pin every shard's z to a fixed value (overriding THROTLOOP)."""
        for shard in self.shards:
            shard.shedder.set_throttle_fraction(z)
        self._adaptive = False
        self._z_global = z

    def stats(self) -> SystemStats:
        """Aggregated system counters; bit-equal to LiraSystem at K=1."""
        return build_stats(
            self.current_time, self.current_z, self.shards, self.faults, self.n_nodes
        )
