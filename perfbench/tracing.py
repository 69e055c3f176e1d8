"""In-memory span tracing, recorded from the benchmark's own files.

A :class:`Hook` names an attribute reachable from a root object (a bound
method of one instance, a function in a module, a method of a class).
:meth:`Tracer.install` swaps each one for a timing wrapper and
:meth:`Tracer.restore` puts the originals back.  A hook whose target no
longer exists is recorded in :attr:`Tracer.missing` instead of raising,
so a refactor that renames a layer shows up as lost coverage rather
than as a crash or a silently absent number.

Spans are kept in flat lists (name, start, end, parent span, period id)
and written out once, by :meth:`Tracer.write`, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

_ABSENT = object()


@dataclass(frozen=True)
class Hook:
    """One traced call site.

    ``path`` walks from the root object: strings are attribute names,
    integers index into sequences.  ``probe(args, kwargs, result)``, if
    given, returns a value recorded alongside the span (for example
    whether an install carried a delta).
    """

    name: str
    path: tuple
    probe: Callable[[tuple, dict, Any], Any] | None = None


class Tracer:
    """Records spans around hooked calls; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.periods: list[int] = []
        self.probes: dict[str, list] = defaultdict(list)
        self.missing: list[str] = []
        self.period = -1
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Installing hooks
    # ------------------------------------------------------------------

    def install(self, root: Any, hooks: list[Hook]) -> None:
        for hook in hooks:
            owner = root
            try:
                for step in hook.path[:-1]:
                    owner = owner[step] if isinstance(step, int) else getattr(owner, step)
                attr = hook.path[-1]
                original = getattr(owner, attr)
            except (AttributeError, IndexError, KeyError, TypeError):
                self.missing.append(hook.name + ":" + ".".join(map(str, hook.path)))
                continue
            if not callable(original):
                self.missing.append(hook.name + ":" + ".".join(map(str, hook.path)))
                continue
            self._wrap(owner, attr, original, hook)

    def _wrap(self, owner: Any, attr: str, original: Callable, hook: Hook) -> None:
        tracer = self
        name = hook.name
        probe = hook.probe

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.periods.append(tracer.period)
            tracer.ends.append(0.0)
            tracer._stack.append(index)
            tracer.starts.append(tracer.clock())
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.ends[index] = tracer.clock()
                tracer._stack.pop()
            if probe is not None:
                tracer.probes[name].append(probe(args, kwargs, result))
            return result

        # Restore exactly what was there: the raw class/module entry
        # (a classmethod object, say), or nothing for an instance that
        # only inherited the method from its class.
        previous = vars(owner).get(attr, _ABSENT) if hasattr(owner, "__dict__") else _ABSENT
        try:
            setattr(owner, attr, traced)
        except (AttributeError, TypeError):
            self.missing.append(name + ":read-only")
            return
        self._undo.append((owner, attr, previous))

    def restore(self) -> None:
        for owner, attr, previous in reversed(self._undo):
            if previous is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._undo.clear()

    # ------------------------------------------------------------------
    # Reading spans
    # ------------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self seconds.

        Self time is a span's duration minus the durations of its direct
        children (spans are properly nested on one thread).
        """
        child_time = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[index] - self.starts[index]
        out: dict[str, dict[str, float]] = {}
        for index, name in enumerate(self.names):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = self.ends[index] - self.starts[index]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[index]
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (start/end in seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for i, name in enumerate(self.names):
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": self.starts[i],
                            "end": self.ends[i],
                            "parent": self.parents[i],
                            "period": self.periods[i],
                        }
                    )
                    + "\n"
                )


def self_ms(summary: dict, name: str, per: int) -> float:
    """Self milliseconds of span ``name`` per unit of ``per``."""
    entry = summary.get(name)
    return entry["self_s"] * 1e3 / per if entry and per else 0.0


def total_ms(summary: dict, name: str, per: int) -> float:
    """Total milliseconds of span ``name`` per unit of ``per``."""
    entry = summary.get(name)
    return entry["total_s"] * 1e3 / per if entry and per else 0.0


def adapt_hooks(prefix: tuple, incremental: bool) -> list[Hook]:
    """Hooks for one shedder + network pair reachable at ``prefix``.

    Shared by the systems loop (``prefix=()`` on a ``LiraSystem``,
    ``("shards", k)`` per shard).  Only an incremental shedder has a
    session whose dirty mask to probe.
    """
    hooks = [
        Hook("shedder.adapt", prefix + ("shedder", "adapt")),
        Hook(
            "protocol.install",
            prefix + ("network", "install_plan"),
            probe=lambda a, k, r: k.get("delta", a[2] if len(a) > 2 else None)
            is not None,
        ),
    ]
    if incremental:
        hooks.append(
            Hook(
                "incremental.dirty_mask",
                prefix + ("shedder", "session", "dirty_mask"),
                probe=lambda a, k, mask: 1.0 if mask is None else float(mask.mean()),
            )
        )
    return hooks


#: Module-level names the adapt path looks up at call time.
MODULE_HOOKS = [
    Hook("statistics_grid.build", ("StatisticsGrid", "from_snapshot")),
    Hook("gridreduce", ("shedder_module", "grid_reduce")),
    Hook("greedy", ("shedder_module", "greedy_increment")),
]


class ModuleRoot:
    """The root object :data:`MODULE_HOOKS` paths start from."""

    def __init__(self) -> None:
        import repro.core.shedder as shedder_module
        from repro.core.statistics_grid import StatisticsGrid

        self.shedder_module = shedder_module
        self.StatisticsGrid = StatisticsGrid


def adapt_layer_metrics(
    tracer: Tracer,
    summary: dict,
    n_adapts: int,
    shedders: list,
    z_values: list[float],
    memo_marks: list[tuple[int, int]],
    plan_reused: list[bool],
) -> dict[str, float]:
    """Adapt-path per-layer metrics, each per adaptation.

    ``memo_marks`` are (hits, misses) of the GRIDREDUCE gain memo at the
    start of the traced phase, one per shedder (``(0, 0)`` without an
    incremental session); ``plan_reused`` one flag per adaptation.
    """
    hits = misses = 0
    for shedder, (hit0, miss0) in zip(shedders, memo_marks):
        session = getattr(shedder, "session", None)
        cache = getattr(session, "gridreduce", None)
        if cache is not None:
            hits += cache.hits - hit0
            misses += cache.misses - miss0
    dirty = tracer.probes.get("incremental.dirty_mask", [])
    installs = tracer.probes.get("protocol.install", [])
    greedy_calls = summary.get("greedy", {}).get("calls", 0)
    adapt_calls = summary.get("shedder.adapt", {}).get("calls", 0)
    changes = sum(1 for a, b in zip(z_values, z_values[1:]) if a != b)
    return {
        "statistics_grid.build_ms": total_ms(summary, "statistics_grid.build", n_adapts),
        "gridreduce.ms": total_ms(summary, "gridreduce", n_adapts),
        "greedy.ms": total_ms(summary, "greedy", n_adapts),
        "shedder.self_ms": self_ms(summary, "shedder.adapt", n_adapts),
        "gridreduce.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "incremental.dirty_cell_frac": sum(dirty) / len(dirty) if dirty else 0.0,
        "greedy.calls_per_adapt": greedy_calls / adapt_calls if adapt_calls else 0.0,
        "plan.reused_frac": sum(plan_reused) / len(plan_reused) if plan_reused else 0.0,
        "throtloop.z_mean": sum(z_values) / len(z_values) if z_values else 0.0,
        "throtloop.z_changes": float(changes),
        "protocol.install_ms": total_ms(summary, "protocol.install", n_adapts),
        "protocol.delta_install_frac": (
            sum(installs) / len(installs) if installs else 0.0
        ),
    }


def memo_mark(shedder: Any) -> tuple[int, int]:
    cache = getattr(getattr(shedder, "session", None), "gridreduce", None)
    return (cache.hits, cache.misses) if cache is not None else (0, 0)
