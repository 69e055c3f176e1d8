"""LiraSystem: the complete three-layer deployment in one object.

Wires together everything the paper's architecture diagram shows:

* **layer 1** — the mobile CQ server (bounded queue, node table,
  statistics grid), the LIRA shedder, and THROTLOOP;
* **layer 2** — the base-station network broadcasting region subsets;
* **layer 3** — mobile nodes that store their station's subset, decide
  their throttler locally, and report via dead reckoning;

plus the trajectory archive for historic/snapshot queries.  The
simulation harness in :mod:`repro.sim` is the *measurement* loop (it
shortcuts the protocol for speed); this class is the *systems* loop —
every update flows through the real component path.  The server side is
the shared :class:`~repro.server.core.LiraCore` (the sharded deployment's
shards and the live service are cores too), and every tick runs the one
data-path kernel :func:`~repro.server.core.run_tick`.

Both wireless hops can be made imperfect by injecting a
:class:`~repro.faults.FaultInjector` (``faults=``): update messages on
the node→server uplink may be lost, delayed, or reordered; plan
broadcasts on the server→station downlink may be lost or delayed (so
nodes run with *stale* region subsets); the server may suffer transient
service-rate dips; and nodes may churn.  With ``faults=None`` (or a
null-spec injector) every code path is bit-identical to the perfect
lossless deployment.
"""

from __future__ import annotations

import numpy as np

from repro.core import LiraConfig
from repro.core.reduction import ReductionFunction
from repro.faults import FaultInjector
from repro.geo import Rect
from repro.history import TrajectoryStore
from repro.motion import DeadReckoningFleet
from repro.queries import RangeQuery
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
from repro.server.node_engine import (
    NODE_ENGINES,
    ObjectNodeEngine,
    VectorNodeEngine,
)
from repro.server.protocol import BaseStationNetwork, MobileNode

class LiraSystem(LiraCore):
    """An end-to-end LIRA deployment over a fixed node population.

    Drive it with :meth:`tick` (one sampling period of true positions)
    and :meth:`adapt` (one server adaptation, typically every N ticks).
    Query results come from :meth:`evaluate_queries`; historic state
    from :attr:`history`.

    Args:
        faults: optional fault injector wrapped around the protocol
            loop; ``None`` is the perfect channel.
        policy: ``"lira"`` (default) or ``"random-drop"`` — the latter
            runs the paper's uncontrolled regime through the same
            protocol stack: a trivial one-region plan at Δ⊢ and
            server-side random admission at fraction z.
        policy_seed: seed for the Random Drop admission lottery.
        engine: ``"vector"`` (default) runs the node side on the
            struct-of-arrays :class:`~repro.server.node_engine.VectorNodeEngine`
            and the server on the batched array-ingest path;
            ``"object"`` runs the reference per-:class:`MobileNode` loop
            and per-message queue the vectorized path is validated
            against.  Both produce bit-identical behaviour at matched
            seeds.
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
        engine: str = "vector",
        incremental: bool = False,
    ) -> None:
        if engine not in NODE_ENGINES:
            raise ValueError(f"engine must be one of {NODE_ENGINES}")
        super().__init__(
            bounds,
            config or LiraConfig(l=49, alpha=64),
            reduction,
            server=MobileCQServer(
                bounds,
                n_nodes,
                queries,
                service_rate=service_rate,
                queue_capacity=queue_capacity,
                batch_ingest=engine == "vector",
            ),
            network=BaseStationNetwork(
                stations or place_uniform_stations(bounds, station_radius),
                downlink=injecting(faults),
            ),
            queue_capacity=queue_capacity,
            policy=policy,
            adaptive_throttle=adaptive_throttle,
            incremental=incremental,
            engine=engine,
        )
        self.n_nodes = n_nodes
        self.engine = engine
        self.faults = faults
        self.node_engine: ObjectNodeEngine | VectorNodeEngine
        if engine == "vector":
            self.node_engine = VectorNodeEngine(n_nodes, self.network, bounds)
        else:
            self.node_engine = ObjectNodeEngine(n_nodes, self.network)
        self.fleet = DeadReckoningFleet(n_nodes)
        self.history = TrajectoryStore(n_nodes)
        self.receive_substeps = max(1, receive_substeps)
        self._policy_rng = np.random.default_rng(policy_seed)
        self.current_time = 0.0

    @property
    def nodes(self) -> list[MobileNode]:
        """The object-path node population (``engine="object"`` only).

        The vectorized engine keeps node state in arrays; use the
        engine-agnostic accessors (``node_engine.stored_region_counts``,
        ``node_engine.handoff_counts``, …) instead.
        """
        if isinstance(self.node_engine, ObjectNodeEngine):
            return self.node_engine.nodes
        raise AttributeError(
            "per-node MobileNode objects exist only with engine='object'; "
            "use the node_engine accessors for the vectorized path"
        )

    def bootstrap(self, positions: np.ndarray, velocities: np.ndarray) -> None:
        """Register the population's initial motion models out-of-band.

        Node registration happens once, at association time, and is not
        part of the steady-state update load THROTLOOP manages — pushing
        the entire population through the bounded queue in one tick
        would fabricate an overload.  Seeds the fleet's node-side models,
        the server table, and the trajectory archive consistently.
        """
        t = 0.0
        all_ids = self.fleet.observe(t, positions, velocities)
        self.server.table.ingest(t, all_ids, positions[all_ids], velocities[all_ids])
        self.history.record(t, all_ids, positions[all_ids], velocities[all_ids])

    def adapt(self, positions: np.ndarray, speeds: np.ndarray) -> None:
        """One adaptation: measure load, set z, recompute + broadcast plan."""
        # Under REPRO_SANITIZE=1 any hidden global-RNG draw in the
        # adaptation path raises instead of silently de-seeding runs.
        with rng_discipline():
            self.observe_load()
            self.install(self.plan_for(positions, speeds), self.current_time)

    def tick(
        self, t: float, positions: np.ndarray, velocities: np.ndarray, dt: float
    ) -> int:
        """One sampling period: nodes decide, report; server ingests.

        Returns the number of reports sent.  The plan must have been
        installed (call :meth:`adapt` first); nodes falling outside
        every stored region use Δ⊢ conservatively.
        """
        if self.plan is None:
            raise RuntimeError("call adapt() before the first tick()")
        self.current_time = t
        active, rate_factor, uplink = tick_faults(
            self.faults, self.network, t, self.n_nodes
        )
        sender_ids, sender_pos, sender_vel, _, _ = run_tick(
            engine=self.node_engine,
            fleet=self.fleet,
            server=self.server,
            positions=positions,
            velocities=velocities,
            t=t,
            dt=dt,
            substeps=self.receive_substeps,
            default_delta=self.config.delta_min,
            admit=self.admit_fraction,
            admit_rng=self._policy_rng,
            active=active,
            rate_factor=rate_factor,
            uplink=uplink,
        )
        self.history.record(t, sender_ids, sender_pos, sender_vel)
        count_clean_uplink(self.faults, int(sender_ids.size))
        return int(sender_ids.size)

    def evaluate_queries(self, t: float | None = None) -> list[np.ndarray]:
        """Current CQ result sets from the server's believed positions."""
        return self.server.evaluate_queries(
            self.current_time if t is None else t
        )

    def stats(self) -> SystemStats:
        """A snapshot of system-level counters."""
        return build_stats(
            self.current_time, self.shedder.current_z, [self], self.faults, self.n_nodes
        )
