"""The systems-loop workloads: ``city``, ``calm`` and ``city-k2``.

A *pass* builds a fresh system over the workload's inputs, sets it up
(construction + ``bootstrap`` + first ``adapt`` + the first ``tick``,
whose one-off station assignment and, on ``city-k2``, worker-pool start
belong to set-up), then runs ``spec.periods`` timed periods.  A period
is one ``tick()`` followed by ``evaluate_queries()``; ``adapt()`` runs
after every ``spec.adapt_every``-th period and is timed on its own.

Set-up, periods and adaptations are timed in CPU seconds of the
benchmark process and its pool workers
(:func:`perfbench.measure.cpu_seconds`): the loop is closed and never
waits on I/O, so on an idle machine that is about its wall time, and
on a shared host it leaves out the stalls the host's other tenants
cause (measured on a 2-vCPU VM: a ``city`` period that took 150 ms in
one pass took 340 ms of wall time, 168 ms of CPU time, when replayed in
the next).  The host's load also moves its clock, and with it the CPU
time of the same work (``calm`` periods: 25-40 ms within ten minutes),
so a fixed reference loop (:func:`perfbench.measure.reference_seconds`)
runs before every period, and a run's times are scaled by
``REFERENCE_S`` over the median reference time of the run: the times
reported are CPU time at the reference speed (measured: ten ``calm``
runs spread 0.155 in CPU time and 0.051 scaled), except the period
p90, which the clock does not move and which is plain CPU time.  The
scale factor and the other period times (CPU, scaled, wall) are kept
in the details.

Untraced passes each run their own input set drawn from the seed.  A
traced run replays one input set plain and traced, and the two passes
must end in identical ``SystemStats``: the determinism check and the
proof that tracing changed no behaviour.  Output checks run between
timed regions on sampled periods.
"""

from __future__ import annotations

import gc
import statistics
import time
from pathlib import Path

import numpy as np

from perfbench import measure
from perfbench.tracing import (
    MODULE_HOOKS,
    Hook,
    ModuleRoot,
    Tracer,
    adapt_hooks,
    adapt_layer_metrics,
    memo_mark,
    self_ms,
    total_ms,
)
from perfbench.workloads import (
    STATION_RADIUS_M,
    TABLE2,
    LoopInputs,
    LoopSpec,
    make_loop_inputs,
)

SETUP_SAMPLES = 7
MIN_PASSES = 2


def build_system(spec: LoopSpec, inputs: LoopInputs):
    from repro.core import AnalyticReduction, LiraConfig
    from repro.server import LiraSystem, ShardedLiraSystem

    common = dict(
        bounds=inputs.bounds,
        n_nodes=spec.n_nodes,
        queries=inputs.queries,
        reduction=AnalyticReduction(TABLE2["delta_min"], TABLE2["delta_max"]),
        config=LiraConfig(**TABLE2),
        station_radius=STATION_RADIUS_M,
        adaptive_throttle=spec.fixed_z is None,
    )
    k = spec.n_shards
    if k == 1:
        system = LiraSystem(
            **common,
            service_rate=inputs.service_rate,
            queue_capacity=inputs.queue_capacity,
            incremental=True,
        )
        if spec.fixed_z is not None:
            system.shedder.set_throttle_fraction(spec.fixed_z)
        return system
    system = ShardedLiraSystem(
        **common,
        service_rate=inputs.service_rate / k,
        queue_capacity=max(2, inputs.queue_capacity // k),
        n_shards=k,
        n_workers=k,
    )
    if spec.fixed_z is not None:
        system.set_throttle_fraction(spec.fixed_z)
    return system


def set_up(spec: LoopSpec, inputs: LoopInputs):
    """Build + bootstrap + first adapt + first tick; returns (system, CPU s)."""
    start = measure.cpu_seconds()
    system = build_system(spec, inputs)
    system.bootstrap(inputs.positions[0], inputs.velocities[0])
    system.adapt(inputs.positions[0], inputs.speeds[0])
    system.tick(spec.dt, inputs.positions[1], inputs.velocities[1], spec.dt)
    return system, measure.cpu_seconds() - start


def close(system) -> None:
    if hasattr(system, "close"):
        system.close()


def current_z(system) -> float:
    return system.current_z if hasattr(system, "shards") else system.shedder.current_z


def shedders(system) -> list:
    if hasattr(system, "shards"):
        return [shard.shedder for shard in system.shards]
    return [system.shedder]


def hooks_for(spec: LoopSpec) -> list[Hook]:
    """Per-layer hooks on one system instance.

    On ``city-k2`` the per-shard tick (node engine, fleet, server) runs
    in pool workers and round-trips by pickling, so only the
    coordinator-side objects are wrapped; ``sharded.*`` counters cover
    the shard work.
    """
    hooks = [
        Hook("system.tick", ("tick",)),
        Hook("system.evaluate", ("evaluate_queries",)),
        Hook("system.adapt", ("adapt",)),
        Hook("history.record", ("history", "record")),
    ]
    if spec.n_shards == 1:
        hooks += [
            Hook("node_engine.thresholds", ("node_engine", "compute_thresholds")),
            Hook("node_engine.assign", ("node_engine", "assigner", "assign")),
            Hook("motion.observe", ("fleet", "observe")),
            Hook("cq_server.receive", ("server", "receive_reports")),
            Hook("cq_server.process", ("server", "process")),
            Hook("cq_server.evaluate", ("server", "evaluate_queries")),
            Hook("cq_server.measure", ("server", "take_load_measurement")),
        ]
        hooks += adapt_hooks((), incremental=True)
    else:
        for k in range(spec.n_shards):
            hooks += adapt_hooks(("shards", k), incremental=False)
    return hooks


def brute_force(positions: np.ndarray, queries: list) -> list[np.ndarray]:
    """Ids inside each query rectangle (half-open, like RangeQuery)."""
    x, y = positions[:, 0], positions[:, 1]
    out = []
    for query in queries:
        r = query.rect
        out.append(np.flatnonzero((x >= r.x1) & (x < r.x2) & (y >= r.y1) & (y < r.y2)))
    return out


def believed_positions(system, t: float, n_nodes: int) -> np.ndarray:
    """The server's believed positions at ``t`` (NaN for never-seen)."""
    if not hasattr(system, "shards"):
        return system.server.table.predict(t)
    believed = np.full((n_nodes, 2), np.nan)
    for shard in system.shards:
        ids, pos = shard.server.table.predict_known(t)
        believed[ids] = pos
    return believed


def check_queries(system, results, t, true_pos, queries, n_nodes):
    """(failure message or None, position error, containment error)."""
    from repro.metrics.accuracy import mean_containment_error, mean_position_error

    believed = believed_positions(system, t, n_nodes)
    expected = brute_force(believed, queries)
    failure = None
    if len(results) != len(expected) or not all(
        np.array_equal(np.sort(got), want) for got, want in zip(results, expected)
    ):
        failure = f"t={t:g}: evaluate_queries differs from a brute-force scan"
    truth = brute_force(true_pos, queries)
    return (
        failure,
        mean_position_error(results, believed, true_pos),
        mean_containment_error(truth, results),
    )


def run_pass(spec: LoopSpec, inputs: LoopInputs, tracer: Tracer | None = None) -> dict:
    """One set-up + timed phase; see the module docstring."""
    gc.collect()
    measure.reset_peak_rss()
    system, setup_s = set_up(spec, inputs)
    try:
        return _timed_phase(spec, inputs, system, setup_s, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
        close(system)


def _timed_phase(spec, inputs, system, setup_s, tracer) -> dict:
    sharded = hasattr(system, "shards")
    before = system.stats()
    memo_marks = [memo_mark(s) for s in shedders(system)]
    handoffs0 = system.total_cross_handoffs if sharded else 0
    if tracer is not None:
        tracer.install(system, hooks_for(spec))
        tracer.install(ModuleRoot(), MODULE_HOOKS)
    period_s: list[float] = []
    period_wall_s: list[float] = []
    reference_s: list[float] = []
    adapt_s: list[float] = []
    failures: list[str] = []
    pos_err: list[float] = []
    cont_err: list[float] = []
    queue_len: list[int] = []
    shard_max_s: list[float] = []
    overhead_s: list[float] = []
    skew: list[float] = []
    z_values = [current_z(system)]
    plan_reused: list[bool] = []
    positions, velocities, speeds = inputs.positions, inputs.velocities, inputs.speeds
    dt = spec.dt
    for i in range(spec.periods):
        k = i + 2
        t = k * dt
        if tracer is not None:
            tracer.period = i
        reference_s.append(measure.reference_seconds())
        start, cpu_start = time.perf_counter(), measure.cpu_seconds()
        system.tick(t, positions[k], velocities[k], dt)
        results = system.evaluate_queries()
        period_s.append(measure.cpu_seconds() - cpu_start)
        period_wall_s.append(time.perf_counter() - start)
        if sharded:
            shard_s = [shard.last_tick_seconds for shard in system.shards]
            shard_max_s.append(max(shard_s))
            overhead_s.append(system.last_tick_seconds - max(shard_s))
            sizes = [shard.ids.size for shard in system.shards]
            skew.append(max(sizes) / (sum(sizes) / len(sizes)))
            queue_len.append(sum(len(shard.server.queue) for shard in system.shards))
            owned = np.sort(system.owned_ids())
            if not np.array_equal(owned, np.arange(spec.n_nodes)):
                failures.append(f"t={t:g}: owned_ids() does not cover every node once")
        else:
            queue_len.append(len(system.server.queue))
        if (i + 1) % spec.check_every == 0:
            failure, p, c = check_queries(
                system, results, t, positions[k], inputs.queries, spec.n_nodes
            )
            if failure:
                failures.append(failure)
            pos_err.append(p)
            cont_err.append(c)
        if (i + 1) % spec.adapt_every == 0:
            cpu_start = measure.cpu_seconds()
            system.adapt(positions[k], speeds[k])
            adapt_s.append(measure.cpu_seconds() - cpu_start)
            z_values.append(current_z(system))
            plan_reused.append(
                any(getattr(s.session, "last_plan_reused", False) for s in shedders(system))
            )
    after = system.stats()
    sent = after.updates_sent - before.updates_sent
    applied = after.updates_processed - before.updates_processed
    out = {
        "setup_s": setup_s,
        "reference_s": reference_s,
        "period_s": period_s,
        "period_wall_s": period_wall_s,
        "adapt_s": adapt_s,
        "loop_s": sum(period_s) + sum(adapt_s),
        "pos_err": pos_err,
        "cont_err": cont_err,
        "failures": failures,
        "drop_frac": (sent - applied) / sent if sent else 0.0,
        "bytes_per_adapt": (after.broadcast_bytes - before.broadcast_bytes)
        / max(1, len(adapt_s)),
        # Inputs included: they are the same arrays on every commit.
        "peak_rss_mb": measure.peak_rss_mb(),
        "stats": after,
        "service_rate": inputs.service_rate,
        "queue_capacity": inputs.queue_capacity,
    }
    if tracer is None:
        return out
    n = spec.periods
    summary = tracer.summary()
    layers = {
        "node_engine.thresholds_ms": total_ms(summary, "node_engine.thresholds", n),
        "node_engine.assign_ms": total_ms(summary, "node_engine.assign", n),
        "node_engine.self_ms": self_ms(summary, "node_engine.thresholds", n),
        "node_engine.handoffs": (after.handoffs - before.handoffs) / n,
        "motion.observe_ms": total_ms(summary, "motion.observe", n),
        "motion.reports": sent / n,
        "history.record_ms": total_ms(summary, "history.record", n),
        "cq_server.receive_ms": total_ms(summary, "cq_server.receive", n),
        "cq_server.process_ms": total_ms(summary, "cq_server.process", n),
        "cq_server.evaluate_ms": total_ms(
            summary, "cq_server.evaluate" if not sharded else "system.evaluate", n
        ),
        "queue.dropped": (after.queue_drops - before.queue_drops) / n,
        "queue.length": sum(queue_len) / n,
        "system.tick_self_ms": self_ms(summary, "system.tick", n),
        "system.adapt_self_ms": self_ms(summary, "system.adapt", len(adapt_s)),
        "sharded.shard_tick_ms_max": 1e3 * sum(shard_max_s) / n if sharded else 0.0,
        "sharded.overhead_ms": 1e3 * sum(overhead_s) / n if sharded else 0.0,
        "sharded.cross_handoffs": (
            (system.total_cross_handoffs - handoffs0) / n if sharded else 0.0
        ),
        "sharded.load_skew": sum(skew) / n if sharded else 0.0,
    }
    layers.update(
        adapt_layer_metrics(
            tracer, summary, len(adapt_s), shedders(system), z_values, memo_marks,
            plan_reused,
        )
    )
    out["layers"] = layers
    out["summary"] = summary
    return out


def run(spec: LoopSpec, seed: int, seconds: float, trace: bool, spans_path: Path) -> dict:
    """One benchmark run of a systems-loop workload."""
    passes: list[dict] = []
    if trace:
        inputs = make_loop_inputs(spec, seed)
        plain = run_pass(spec, inputs)
        # Spans in CPU time of this process (pool workers' time is in
        # the ``sharded.*`` metrics instead).
        tracer = Tracer(clock=time.process_time)
        traced = run_pass(spec, inputs, tracer)
        tracer.write(spans_path)
        passes = [plain, traced]
    else:
        # At least MIN_PASSES; another only if it should end within
        # ``seconds`` at the pace so far.  Each pass runs its own input
        # set: the metrics then average over several traces, as one
        # trace's adaptation costs and query errors vary with its seed
        # (city adapt medians 72-90 ms over ten seeds).
        start = time.perf_counter()
        inputs = None
        while len(passes) < MIN_PASSES or (
            (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds
        ):
            inputs = None  # free the last pass's frames before building more
            inputs = make_loop_inputs(spec, seed, part=len(passes))
            passes.append(run_pass(spec, inputs))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        system, setup_s = set_up(spec, inputs)
        close(system)
        del system  # free it before the next one is built
        setups.append(setup_s)
    # One factor for the whole run: per pass, the factor's own noise
    # made the passes disagree and decided the pooled p90.
    speed = measure.speed_factor([s for p in passes for s in p["reference_s"]])
    failures = [f for p in passes for f in p["failures"]]
    if trace and passes[1]["stats"] != passes[0]["stats"]:
        failures.append("the traced pass ended in different SystemStats than the plain one")
    cpus = [s for p in passes for s in p["period_s"]]
    periods = [s * speed for s in cpus]
    walls = [s for p in passes for s in p["period_wall_s"]]
    adapts = [s * speed for p in passes for s in p["adapt_s"]]
    # Outcome metrics from a fixed set of passes (not the number that
    # fitted in ``seconds``), so that they are a function of the seed.
    scored = passes[:1] if trace else passes[:MIN_PASSES]
    pos_err = [e for p in scored for e in p["pos_err"]]
    cont_err = [e for p in scored for e in p["cont_err"]]
    result = {
        "attempted": len(periods),
        "failures": failures,
        "metrics": {
            "setup_s": speed * statistics.median(setups),
            "period_ms_p50": 1e3 * statistics.median(periods),
            # Unscaled: the slowest tenth of the periods does not move
            # with the host's clock the way typical periods do (ten city
            # runs: CPU p50 103-149 ms, scaled 140-156 ms; CPU p90
            # 148-171 ms, scaled 162-223 ms).
            "period_ms_p90": 1e3 * measure.nearest_rank(cpus, 90),
            # A mean: the median jumped between the costs of the few
            # adaptations (12 on city; ten runs spread 0.22, mean 0.13).
            "adapt_ms_mean": 1e3 * statistics.fmean(adapts),
            "loop_s": speed * statistics.median([p["loop_s"] for p in passes]),
            "position_error_m": statistics.fmean(pos_err),
            "containment_error": statistics.fmean(cont_err),
            "drop_frac": statistics.fmean(p["drop_frac"] for p in scored),
            "broadcast_bytes_per_adapt": statistics.fmean(
                p["bytes_per_adapt"] for p in scored
            ),
            "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in passes]),
        },
        "details": {
            "passes": len(passes),
            "periods_per_pass": spec.periods,
            "period_samples": len(periods),
            "speed_factor": speed,
            "period_cpu_ms_p50": 1e3 * statistics.median(cpus),
            "period_scaled_ms_p90": 1e3 * measure.nearest_rank(periods, 90),
            "period_wall_ms_p50": 1e3 * statistics.median(walls),
            "period_wall_ms_p90": 1e3 * measure.nearest_rank(walls, 90),
            "adapt_samples": len(adapts),
            "setup_samples": len(setups),
            "adapt_ms_p90": 1e3 * measure.nearest_rank(adapts, 90)
            if len(adapts) >= 100 else None,
            "adapt_ms_p50": 1e3 * statistics.median(adapts),
            "service_rate": [p["service_rate"] for p in passes],
            "queue_capacity": [p["queue_capacity"] for p in passes],
            "z_final": [p["stats"].z for p in passes],
        },
    }
    if trace:
        layers = dict(passes[1]["layers"])
        layers["trace.overhead_ratio"] = passes[1]["loop_s"] / passes[0]["loop_s"]
        layers["trace.missing_hooks"] = float(len(tracer.missing))
        result["layers"] = layers
        result["details"]["missing"] = tracer.missing
        result["details"]["self_ms_per_period"] = {
            name: round(entry["self_s"] * 1e3 / spec.periods, 4)
            for name, entry in passes[1]["summary"].items()
        }
        result["details"]["spans"] = str(spans_path)
    return result
