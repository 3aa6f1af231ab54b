"""CPU seconds and peak RSS of this process and its worker processes.

The verifier's socket runtime forks its workers, and a resident session
keeps them alive across operations, so ``RUSAGE_CHILDREN`` (reaped
children only) would miss them.  Live children are read from procfs;
reaped ones from ``getrusage``.  A child moves from the first set to the
second when it is reaped, so both readings of one delta must be taken
while no worker is being started or reaped — the benchmark reads them
only at operation boundaries.
"""

from __future__ import annotations

import os
import resource
from typing import Iterable, List


def _live_children(exclude: Iterable[int]) -> List[int]:
    skip = set(exclude)
    pids: List[int] = []
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children") as handle:
                pids += [int(p) for p in handle.read().split()]
        except OSError:
            continue  # thread ended between listdir and open
    return [pid for pid in pids if pid not in skip]


def _child_cpu_seconds(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/schedstat") as handle:
            return int(handle.read().split()[0]) / 1e9
    except (OSError, ValueError, IndexError):
        return 0.0  # exited since the listing; it is in RUSAGE_CHILDREN


def _child_peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def cpu_seconds(exclude: Iterable[int] = ()) -> float:
    """User+system CPU of this process, its reaped children and its live
    children (``exclude``: pids of benchmark helpers, not workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
    return total + sum(
        _child_cpu_seconds(pid) for pid in _live_children(exclude)
    )


def peak_rss_mb(exclude: Iterable[int] = ()) -> float:
    """Largest resident set any one process reached: this one, any
    reaped child, any live child — the paper's per-worker memory
    headline, measured rather than modeled."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    for pid in _live_children(exclude):
        peak_kb = max(peak_kb, _child_peak_rss_kb(pid))
    return peak_kb / 1024.0
