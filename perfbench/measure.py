"""Small measurement helpers: a CPU clock, a host-speed reference, a
tail percentile and resident memory."""

from __future__ import annotations

import math
import os
import resource
import statistics
import time

import numpy as np

#: CPU seconds :func:`reference_seconds` takes at the speed every
#: reported time is scaled to: about its time between the periods of a
#: systems-loop workload on the 2.1 GHz Xeon VM the benchmark's bounds
#: were set on (its data are out of cache then; back to back it takes
#: about 1.8 ms).
REFERENCE_S = 3.0e-3
_reference_data: tuple[np.ndarray, ...] | None = None


def _children_cpu_seconds(pid: int) -> float:
    """Run time of the running children of ``pid``, over all their threads."""
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                children = handle.read().split()
        except OSError:  # the thread ended
            continue
        for child in children:
            try:
                for ctid in os.listdir(f"/proc/{child}/task"):
                    with open(f"/proc/{child}/task/{ctid}/schedstat") as handle:
                        total += int(handle.read().split()[0])
            except OSError:  # the child ended; RUSAGE_CHILDREN has it once reaped
                continue
    return total / 1e9


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and its child processes.

    Counts every thread of this process, children already waited for
    (``RUSAGE_CHILDREN``) and every thread of the running ones (their
    ``schedstat`` run time), so work moved into a worker pool still
    counts.  With paravirtual steal accounting the kernel leaves out
    the time the hypervisor took the virtual CPU away, so on a shared
    host this clock counts the program's work, not its neighbours'.
    """
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        time.process_time()
        + reaped.ru_utime
        + reaped.ru_stime
        + _children_cpu_seconds(os.getpid())
    )


def reference_seconds() -> float:
    """CPU seconds of one run of a fixed loop that calls no LIRA code.

    It sorts, gathers and bins 100k doubles and runs a pure-Python
    loop, the kinds of work the LIRA loop does.  On a shared VM the CPU
    time of the same work moves by 20% and more within minutes as the
    host's load changes its clock; timed between the benchmark's timed
    regions, this loop tracks that.
    """
    global _reference_data
    if _reference_data is None:
        rng = np.random.default_rng(0)
        values = rng.random(100_000)
        index = rng.integers(0, values.size, values.size)
        _reference_data = (values, index, index % 1_000, np.empty_like(values))
    values, index, bins, scratch = _reference_data
    start = time.process_time()
    # In place: a fresh large array would make the loop's time depend on
    # the allocator's state (whether it maps new pages) as well.
    scratch[:] = values
    scratch.sort()
    np.take(values, index, out=scratch)
    np.bincount(bins, weights=scratch, minlength=1_000)
    total = 0
    for step in range(15_000):
        total += step
    return time.process_time() - start


def speed_factor(reference_samples: list[float]) -> float:
    """Multiplier taking CPU times measured alongside ``reference_samples``
    to the reference speed (:data:`REFERENCE_S`)."""
    return REFERENCE_S / statistics.median(reference_samples)


def nearest_rank(samples: list[float], q: float) -> float:
    """The nearest-rank q-th percentile: always an observed sample."""
    values = sorted(samples)
    rank = math.ceil(q / 100.0 * len(values))
    return values[max(rank, 1) - 1]


def _status_kb(field: str) -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return float(line.split()[1])
    raise RuntimeError(f"{field} not in /proc/self/status")


def peak_rss_mb() -> float:
    """Peak resident set size (since start or the last reset)."""
    return _status_kb("VmHWM") / 1024.0


def reset_peak_rss() -> bool:
    """Lower the peak-RSS mark to the current RSS (Linux >= 4.0).

    Lets one process measure the peak of a phase without the earlier
    input-generation peak masking it.  Returns False where unsupported.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True
