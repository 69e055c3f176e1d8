"""Workload definitions and seeded input generation.

Every input a run consumes is built here from ``--seed`` before any
timed region opens: road-vehicle frames from the paper's ~200 km² scene
(:func:`repro.roadnet.make_default_scene` + :class:`repro.trace.TraceGenerator`),
the query workload, and the stationary subset.  The system under test
only ever receives these arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Paper Table 2 shedder settings shared by the systems-loop workloads.
TABLE2 = {"l": 250, "alpha": 128, "fairness": 50.0, "delta_min": 5.0, "delta_max": 100.0}
STATION_RADIUS_M = 1_500.0


@dataclass(frozen=True)
class LoopSpec:
    """One systems-loop workload (closed loop: the next period starts
    when the previous one has been processed).

    Exactly one of ``mu_periods`` (THROTLOOP on; μ = N / (mu_periods·dt))
    and ``fixed_z`` (THROTLOOP off; μ = ``mu_share`` of the Δ⊢ report
    rate measured on the inputs) describes the load regime.
    """

    name: str
    n_nodes: int
    dt: float
    periods: int
    adapt_every: int
    n_queries: int
    check_every: int
    stationary_frac: float = 0.0
    mu_periods: float | None = None
    queue_frac: float | None = None
    fixed_z: float | None = None
    mu_share: float | None = None
    n_shards: int = 1
    query_side: float = 1_000.0

    def scaled(self, n_nodes: int, periods: int, n_queries: int) -> "LoopSpec":
        return LoopSpec(
            **{
                **self.__dict__,
                "n_nodes": n_nodes,
                "periods": periods,
                "n_queries": n_queries,
                "check_every": max(1, min(self.check_every, periods // 2)),
                "adapt_every": min(self.adapt_every, max(1, periods // 2)),
            }
        )


CITY = LoopSpec(
    name="city",
    n_nodes=100_000,
    dt=10.0,
    periods=60,
    adapt_every=10,
    n_queries=100,
    check_every=10,
    mu_periods=3.0,
    queue_frac=0.1,
)
CALM = LoopSpec(
    name="calm",
    n_nodes=20_000,
    dt=2.0,
    periods=100,
    adapt_every=1,
    # 100 queries of 2 km rather than 40 of 1 km: with 4k movers among
    # 20k nodes, small queries made the accuracy metrics' seed-to-seed
    # spread 0.26-0.36 (0.21-0.24 at 100 x 1 km, 0.06-0.12 at 100 x 2 km).
    n_queries=100,
    query_side=2_000.0,
    check_every=5,
    stationary_frac=0.8,
    fixed_z=0.6,
    mu_share=0.5,
)
# 50 periods a pass (two passes give 100 period samples, ten beyond
# p90): the pooled period costs ~240 ms against city's ~140 ms.
CITY_K2 = LoopSpec(**{**CITY.__dict__, "name": "city-k2", "n_shards": 2, "periods": 50})

LOOP_SPECS = {spec.name: spec for spec in (CITY, CALM, CITY_K2)}

#: Smoke-test sizes (``--size tiny``): every code path, seconds of work.
TINY = {"city": (3_000, 6, 10), "calm": (2_000, 6, 8), "city-k2": (3_000, 6, 10)}


@dataclass
class LoopInputs:
    """Seeded frames + queries for one systems-loop workload."""

    bounds: object
    positions: np.ndarray  # (periods + 2, N, 2)
    velocities: np.ndarray
    speeds: np.ndarray  # (periods + 2, N)
    queries: list
    service_rate: float
    queue_capacity: int


def make_loop_inputs(spec: LoopSpec, seed: int, part: int = 0) -> LoopInputs:
    """Frames 0 (bootstrap + first adapt), 1 (set-up tick), 2.. (timed).

    ``part`` selects one of the run's independent input sets (one per
    pass), all drawn from ``seed``.
    """
    from repro.motion import DeadReckoningFleet
    from repro.queries import QueryDistribution, generate_workload
    from repro.roadnet import make_default_scene
    from repro.trace import TraceGenerator

    seed = int(np.random.SeedSequence([seed, part]).generate_state(1)[0])
    network, traffic = make_default_scene()
    n_frames = spec.periods + 2
    generator = TraceGenerator(network, traffic, n_vehicles=spec.n_nodes, seed=seed)
    trace = generator.generate(
        duration=n_frames * spec.dt, dt=spec.dt, warmup=10 * spec.dt
    )
    positions = trace.positions
    velocities = trace.velocities
    if spec.stationary_frac > 0:
        rng = np.random.default_rng([seed, 1])
        parked = rng.random(spec.n_nodes) < spec.stationary_frac
        positions[:, parked] = positions[0, parked]
        velocities[:, parked] = 0.0
    speeds = np.hypot(velocities[..., 0], velocities[..., 1])
    queries = generate_workload(
        trace.bounds,
        spec.n_queries,
        spec.query_side,
        QueryDistribution.PROPORTIONAL,
        positions[0],
        seed=seed,
    )
    if spec.mu_periods is not None:
        service_rate = spec.n_nodes / (spec.mu_periods * spec.dt)
        queue_capacity = max(2, int(spec.n_nodes * spec.queue_frac))
    else:
        # λ(Δ⊢): the report rate of an unthrottled fleet on these frames.
        fleet = DeadReckoningFleet(spec.n_nodes)
        fleet.set_thresholds(TABLE2["delta_min"])
        fleet.observe(0.0, positions[0], velocities[0])
        sent = sum(
            int(fleet.observe(k * spec.dt, positions[k], velocities[k]).size)
            for k in range(1, n_frames)
        )
        full_rate = sent / ((n_frames - 1) * spec.dt)
        service_rate = max(1.0, spec.mu_share * full_rate)
        # One period of service: a burst larger than that cannot drain
        # before the next period's reports arrive.
        queue_capacity = max(2, int(service_rate * spec.dt))
    return LoopInputs(
        bounds=trace.bounds,
        positions=positions,
        velocities=velocities,
        speeds=speeds,
        queries=queries,
        service_rate=service_rate,
        queue_capacity=queue_capacity,
    )


def describe(spec: LoopSpec) -> dict:
    """The fixed parameters of a workload, for the run's details line."""
    return {
        **spec.__dict__,
        **TABLE2,
        "station_radius_m": STATION_RADIUS_M,
        "mode": "closed loop",
    }
