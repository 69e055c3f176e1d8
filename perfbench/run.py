"""The LIRA server benchmark: one workload, one seed, one JSON result.

Usage, from the repository root::

    python3 perfbench/run.py --workload city --seed 1 --seconds 24 --trace 0

Workloads (parameters and reasons are in ``BENCHMARK.json``):

* ``city``    — ``LiraSystem``, 100k road vehicles under THROTLOOP;
* ``calm``    — ``LiraSystem``, 20k mostly parked nodes at fixed z;
* ``city-k2`` — ``city`` on ``ShardedLiraSystem`` with two pool workers.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload once plain and once with spans around each layer's public
calls, and prints the per-layer metrics instead (with the tracing
overhead and any hook whose target no longer exists).  Timing units in
the per-layer set: data-path layers are ms per period, adapt-path
layers ms per adaptation; counts are per period.  End-to-end times
are CPU time scaled to a reference speed (``period_ms_p90`` unscaled),
per-layer times plain CPU time; none is wall time (see
:mod:`perfbench.systems_loop` for why).

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds details (machine, versions, seed, sample counts, missing hooks,
self time per span).  A failed output check sets ``correct`` to false
and the exit code to 1.  Spans of traced runs are written under
``.perfbench_run/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = Path(".perfbench_run")

UNITS = {
    "setup_s": "s",
    "period_ms_p50": "ms",
    "period_ms_p90": "ms",
    "adapt_ms_mean": "ms",
    "loop_s": "s",
    "position_error_m": "m",
    "containment_error": "ratio",
    "drop_frac": "ratio",
    "broadcast_bytes_per_adapt": "bytes",
    "peak_rss_mb": "MB",
}


#: Every per-layer metric and its unit, in output order; a layer a
#: workload does not exercise reports 0 (``sharded.*`` off ``city-k2``).
LAYERS = {
    "node_engine.thresholds_ms": "ms",
    "node_engine.assign_ms": "ms",
    "node_engine.self_ms": "ms",
    "node_engine.handoffs": "count",
    "motion.observe_ms": "ms",
    "motion.reports": "count",
    "history.record_ms": "ms",
    "cq_server.receive_ms": "ms",
    "cq_server.process_ms": "ms",
    "cq_server.evaluate_ms": "ms",
    "queue.dropped": "count",
    "queue.length": "count",
    "system.tick_self_ms": "ms",
    "system.adapt_self_ms": "ms",
    "statistics_grid.build_ms": "ms",
    "gridreduce.ms": "ms",
    "greedy.ms": "ms",
    "shedder.self_ms": "ms",
    "gridreduce.memo_hit_ratio": "ratio",
    "incremental.dirty_cell_frac": "ratio",
    "greedy.calls_per_adapt": "ratio",
    "plan.reused_frac": "ratio",
    "throtloop.z_mean": "ratio",
    "throtloop.z_changes": "count",
    "protocol.install_ms": "ms",
    "protocol.delta_install_frac": "ratio",
    "sharded.shard_tick_ms_max": "ms",
    "sharded.overhead_ms": "ms",
    "sharded.cross_handoffs": "count",
    "sharded.load_skew": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.missing_hooks": "count",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("city", "calm", "city-k2")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny: the smoke test's seconds-long version of each workload",
    )
    return parser


def workload_spec(args: argparse.Namespace):
    from perfbench import workloads

    spec = workloads.LOOP_SPECS[args.workload]
    if args.size == "tiny":
        spec = spec.scaled(*workloads.TINY[args.workload])
    return spec


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Exit through the ``finally`` blocks that shut down worker pools.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no LIRA sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy

    from perfbench import systems_loop, workloads

    spec = workload_spec(args)
    spans = RUN_DIR / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    result = systems_loop.run(spec, args.seed, args.seconds, bool(args.trace), spans)
    if args.trace:
        layers = result["layers"]
        metrics = {
            name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, unit in LAYERS.items()
        }
    else:
        metrics = {
            name: {"value": float(result["metrics"][name]), "unit": unit}
            for name, unit in UNITS.items()
        }
    failures = result["failures"]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "parameters": workloads.describe(spec),
        "failures": failures,
        **result["details"],
    }
    print(json.dumps(details, default=str))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": int(result["attempted"]),
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
