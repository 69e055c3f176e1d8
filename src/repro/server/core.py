"""One LIRA server core: adapt → install → tick → stats, written once.

The paper's server-side control loop — measure load, step THROTLOOP,
run GRIDREDUCE and GREEDYINCREMENT, broadcast each station's region
subset — is :class:`LiraCore`.  Every composition *is* a core:
:class:`~repro.server.system.LiraSystem` (one server over the whole
population), each :class:`~repro.server.sharded.LiraShard` of the
sharded deployment, and the live :class:`~repro.service.LiraService`.
They differ only in where the statistics snapshot comes from (ground
truth or the believed node table) and in who drives the clock.

The module also holds the one data-path kernel every systems-loop tick
runs (:func:`run_tick`, in-process or in a pool worker), the tick-start
fault seams, and the one :class:`SystemStats` builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.core import LiraConfig, LiraLoadShedder, StatisticsGrid
from repro.core.greedy import RegionStats
from repro.core.plan import PlanDelta, SheddingPlan, clamp_thresholds
from repro.core.reduction import ReductionFunction
from repro.faults import FaultInjector
from repro.geo import Rect
from repro.motion import DeadReckoningFleet
from repro.server.cq_server import LoadMeasurement, MobileCQServer
from repro.server.protocol import BaseStationNetwork, RegionSubset

#: Systems-loop policies: LIRA's source-actuated region-aware shedding,
#: or the paper's Random Drop regime (every node at Δ⊢, the server
#: admitting a random fraction z of arrivals).
POLICIES = ("lira", "random-drop")

_EMPTY_I64 = np.empty(0, dtype=np.int64)


@dataclass
class SystemStats:
    """A point-in-time summary of the running system.

    The fields after ``handoffs`` are degradation-aware accounting:
    plan-staleness ages, fault-layer loss/delay counters, churn, and
    reports orphaned by a cross-shard handoff — all zero in a lossless
    single-server deployment.  Every report sent is accounted for:
    ``updates_sent == updates_processed + queue_drops + admission_drops
    + updates_discarded + updates_orphaned + queue_length`` (uplink
    faults aside).
    """

    time: float
    z: float
    queue_length: int
    queue_drops: int
    updates_sent: int
    updates_processed: int
    broadcast_bytes: int
    handoffs: int
    plan_version: int = 0
    mean_plan_staleness: float = 0.0
    stale_station_fraction: float = 0.0
    uplink_sent: int = 0
    uplink_lost: int = 0
    uplink_delayed: int = 0
    uplink_in_flight: int = 0
    downlink_lost: int = 0
    downlink_delayed: int = 0
    admission_drops: int = 0
    updates_discarded: int = 0
    slow_ticks: int = 0
    active_nodes: int = 0
    updates_orphaned: int = 0


class LiraCore:
    """One LIRA server: CQ server, shedder, station network and policy.

    Holds the only copy of each control step — :meth:`observe_load`,
    :meth:`plan_for` and :meth:`install` — for every composition (see
    the module docstring).  Subclasses build the server and network
    they need; a shard's server arrives later, at ``adopt``, and a shard
    without stations has no network.
    """

    def __init__(
        self,
        bounds: Rect,
        config: LiraConfig,
        reduction: ReductionFunction,
        *,
        server: MobileCQServer | None,
        network: BaseStationNetwork | None,
        queue_capacity: int,
        policy: str,
        adaptive_throttle: bool = True,
        incremental: bool = False,
        engine: str = "vector",
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        self.bounds = bounds
        self.config = config
        self.policy = policy
        self.incremental = incremental
        self.server = server
        self.network = network
        self.shedder = LiraLoadShedder(
            config,
            reduction,
            queue_capacity=queue_capacity,
            engine=engine,
            incremental=incremental,
        )
        if adaptive_throttle:
            self.shedder.use_adaptive_throttle()
        #: The plan installed last (``None`` before the first install).
        self.plan: SheddingPlan | None = None
        self._trivial_plan_cache: SheddingPlan | None = None

    @property
    def admit_fraction(self) -> float:
        """Server-side admission: everything under LIRA, z under Random Drop."""
        return 1.0 if self.policy == "lira" else self.shedder.current_z

    def observe_load(self) -> LoadMeasurement:
        """Close the load-measurement period and step THROTLOOP on it."""
        measurement = self.server.take_load_measurement()
        if measurement.period > 0:
            # ThrotLoop.step tolerates a stalled μ <= 0 measurement
            # (collapse to z_floor under load, reopen when idle) instead
            # of raising mid-adaptation.
            self.shedder.observe_load(
                measurement.arrival_rate, self.server.service_rate
            )
        return measurement

    def trivial_plan(self) -> SheddingPlan:
        """One region covering the bounds at Δ⊢: no source throttling.

        Memoized: the plan depends only on the (immutable) bounds and
        config, and reinstalling the *same* object lets the network's
        coverage cache skip recomputing per-station subsets.
        """
        if self._trivial_plan_cache is None:
            region = RegionStats(rect=self.bounds, n=0.0, m=0.0, s=0.0)
            self._trivial_plan_cache = SheddingPlan.from_regions(
                bounds=self.bounds,
                regions=[region],
                thresholds=clamp_thresholds(
                    np.array([self.config.delta_min]), self.config
                ),
                resolution=1,
            )
        return self._trivial_plan_cache

    def plan_for(
        self, positions: np.ndarray | None, speeds: np.ndarray | None
    ) -> SheddingPlan:
        """The next plan: GRIDREDUCE + GREEDYINCREMENT over a snapshot.

        Random Drop, and a snapshot of ``None`` (a live server that has
        no report yet), get the trivial plan.
        """
        if self.policy != "lira" or positions is None:
            return self.trivial_plan()
        grid = StatisticsGrid.from_snapshot(
            self.bounds,
            self.config.resolved_alpha,
            positions,
            speeds,
            self.server.queries,
        )
        return self.shedder.adapt(grid)

    def install(
        self, plan: SheddingPlan, t: float
    ) -> tuple[dict[int, RegionSubset], PlanDelta | None] | None:
        """Broadcast ``plan``, delta-encoded when nothing forbids it.

        In incremental mode over a fault-free downlink, a plan that is
        the installed object itself (the shedder found nothing changed)
        is not re-broadcast at all — ``None`` is returned — and a
        successor ships as ``previous.diff(plan)``.  Faulty downlinks
        always get the full push: the periodic re-broadcast is what lets
        stations recover from lost plan broadcasts.  Returns the subsets
        delivered and the delta offered (``None`` = full install).
        """
        previous, delta = self.plan, None
        if self.incremental and self.network.downlink is None:
            if previous is plan:
                return None
            if previous is not None:
                delta = previous.diff(plan)
        delivered = self.network.install_plan(plan, t=t, delta=delta)
        self.plan = plan
        return delivered, delta


# ----------------------------------------------------------------------
# Tick-start fault seams
# ----------------------------------------------------------------------


def injecting(faults: FaultInjector | None) -> FaultInjector | None:
    """``faults`` if it injects anything, else ``None``.

    A null-spec injector is contractually a no-op (every seam passes
    batches through untouched), so ticks skip its seams entirely and
    only maintain its O(1) uplink bookkeeping (:func:`count_clean_uplink`)
    — zero overhead versus ``faults=None``.
    """
    return faults if faults is not None and not faults.spec.is_null else None


def tick_faults(
    faults: FaultInjector | None,
    network: BaseStationNetwork | None,
    t: float,
    n_nodes: int,
) -> tuple[np.ndarray | None, float, Callable[..., Any] | None]:
    """Open a tick under ``faults``: ``(active, rate_factor, uplink)``.

    Matured delayed broadcasts install first, then churn steps (the
    active mask) and the service-rate factor is drawn; ``uplink`` is the
    lossy report channel for :func:`run_tick`.
    """
    inject = injecting(faults)
    if inject is None:
        return None, 1.0, None
    network.deliver_pending(t)
    return inject.churn_step(n_nodes), inject.service_factor(t), inject.uplink


def count_clean_uplink(faults: FaultInjector | None, sent: int) -> None:
    """A null-spec injector's bookkeeping: every report was delivered."""
    if faults is not None and faults.spec.is_null:
        faults.counters.uplink_sent += sent
        faults.counters.uplink_delivered += sent


# ----------------------------------------------------------------------
# The data-path kernel
# ----------------------------------------------------------------------


def run_tick(
    *,
    engine: Any,
    fleet: DeadReckoningFleet,
    server: MobileCQServer,
    positions: np.ndarray,
    velocities: np.ndarray,
    t: float,
    dt: float,
    substeps: int,
    default_delta: float,
    admit: float,
    admit_rng: np.random.Generator,
    active: np.ndarray | None = None,
    rate_factor: float = 1.0,
    uplink: Callable[..., Any] | None = None,
    ids: np.ndarray | None = None,
    shard_id: int = 0,
    station_shard: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One sampling period of one server: nodes decide, report; it ingests.

    The single kernel every tick runs — :class:`LiraSystem`, and each
    shard in-process or in a pool worker — so they are bit-identical.
    ``ids=None`` is the owns-all path (row index == global id);
    ``station_shard`` (station slot → owning shard) turns on departure
    detection.  Returns ``(sender_ids, sender_pos, sender_vel,
    departure_ids, departure_dst)``: senders in *global* ids for history
    recording, departures for the next tick's cross-shard handoff.
    """
    thresholds = engine.compute_thresholds(positions, active, default=default_delta)
    departure_ids, departure_dst = _EMPTY_I64, _EMPTY_I64
    if station_shard is not None:
        # Post-update slots: nodes now served by a foreign station
        # depart at the end of this tick.
        dest = station_shard[engine._station_slot]
        moved = np.flatnonzero(dest != shard_id)
        if moved.size:
            departure_ids = ids[moved] if ids is not None else moved.copy()
            departure_dst = dest[moved]
    fleet.set_thresholds(thresholds)
    senders = fleet.observe(t, positions, velocities)
    sender_ids = ids[senders] if ids is not None else senders
    sender_pos = positions[senders]
    sender_vel = velocities[senders]
    if uplink is not None:
        u_ids, u_pos, u_vel, u_times = uplink(t, sender_ids, sender_pos, sender_vel)
    else:
        u_ids, u_pos, u_vel, u_times = sender_ids, sender_pos, sender_vel, None
    # Slice-based chunking with np.array_split's size rule (the first
    # n % k chunks get one extra element): slicing yields views, so
    # substepping never copies the report arrays.
    base, extra = divmod(int(u_ids.size), substeps)
    lo = 0
    for c in range(substeps):
        chunk = slice(lo, lo + base + (1 if c < extra else 0))
        lo = chunk.stop
        server.receive_reports(
            t,
            u_ids[chunk],
            u_pos[chunk],
            u_vel[chunk],
            times=u_times[chunk] if u_times is not None else None,
            admit_fraction=admit,
            admit_rng=admit_rng if admit < 1.0 else None,
        )
        server.process(dt / substeps, rate_factor=rate_factor)
    return sender_ids, sender_pos, sender_vel, departure_ids, departure_dst


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------


def build_stats(
    t: float,
    z: float,
    cores: Sequence[Any],
    faults: FaultInjector | None,
    n_nodes: int,
) -> SystemStats:
    """One :class:`SystemStats` summed over systems-loop ``cores``.

    ``cores`` is one :class:`LiraSystem` or every shard; each carries
    its simulated ``fleet`` and ``node_engine`` next to the core's
    server and network.  Each network's staleness is read once; with
    several networks it is averaged over their stations.
    """
    networks = [core.network for core in cores if core.network is not None]
    ages = [(network.staleness(t), len(network.stations)) for network in networks]
    if len(ages) == 1:
        (mean_staleness, stale_fraction), _ = ages[0]
    else:
        total = sum(count for _, count in ages)
        mean_staleness = sum(age[0] * count for age, count in ages) / total
        stale_fraction = sum(age[1] * count for age, count in ages) / total
    servers = [core.server for core in cores]
    counters = faults.counters if faults is not None else None
    active = faults.active_mask if faults is not None else None
    return SystemStats(
        time=t,
        z=z,
        queue_length=sum(len(server.queue) for server in servers),
        queue_drops=sum(server.queue.total_dropped for server in servers),
        updates_sent=sum(core.fleet.total_reports for core in cores),
        updates_processed=sum(server.table.updates_applied for server in servers),
        broadcast_bytes=sum(network.total_broadcast_bytes for network in networks),
        # O(1) per engine: a monotonic counter maintained tick by tick.
        handoffs=sum(core.node_engine.total_handoffs for core in cores),
        plan_version=max(network.version for network in networks),
        mean_plan_staleness=mean_staleness,
        stale_station_fraction=stale_fraction,
        uplink_sent=counters.uplink_sent if counters else 0,
        uplink_lost=counters.uplink_lost if counters else 0,
        uplink_delayed=counters.uplink_delayed if counters else 0,
        uplink_in_flight=faults.uplink_in_flight if faults is not None else 0,
        downlink_lost=counters.downlink_lost if counters else 0,
        downlink_delayed=counters.downlink_delayed if counters else 0,
        admission_drops=sum(server.total_admission_dropped for server in servers),
        updates_discarded=sum(server.table.updates_discarded for server in servers),
        slow_ticks=counters.slow_ticks if counters else 0,
        active_nodes=int(active.sum()) if active is not None else n_nodes,
        updates_orphaned=sum(server.table.updates_orphaned for server in servers),
    )
