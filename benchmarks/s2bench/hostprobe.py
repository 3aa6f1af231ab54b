"""Host-speed probe: what one guest-CPU-second was worth while a sample ran.

The sandbox is a 2-vCPU VM on a shared host.  Identical code measured
back to back moves by 1.5-3x for tens of seconds at a time (measured:
a fixed pure-Python loop took 116, 170 and 360 ms in plateaus within one
minute), and guest CPU time inflates by the same factor, so neither
longer runs nor CPU-time metrics repeat.  What does repeat is the ratio
between the workload and a fixed piece of interpreter work executed *at
the same moment*.

So a helper process executes one fixed kernel unit every ``GAP_S`` and
logs ``(perf_counter, cpu seconds of the unit)``.  ``perf_counter`` is
CLOCK_MONOTONIC on Linux and therefore comparable across processes.  A
sample taken over ``[t0, t1]`` is divided by the mean reading inside
that window over ``REFERENCE_UNIT_S``: the result is the wall time the
sample would have had on a host that runs the unit in exactly
``REFERENCE_UNIT_S``.  On the development box this cut the spread of
run medians from 23 % (raw) to 4-5 % on the in-process runtime and from
18 % to 3 % on the socket runtime; calibrating in the benchmark thread
before and after each sample instead only reached 11-15 %.

The probe costs ~12 % of one vCPU, the same on every run and commit.
Its CPU time is read with ``process_time`` so waiting behind the
workload's own processes does not count as host slowness.
"""

from __future__ import annotations

import bisect
import json
import select
import statistics
import subprocess
import sys
import time
from typing import List, Sequence, Tuple

#: Nominal CPU seconds of one kernel unit.  Normalised seconds equal
#: wall seconds on a host that runs the unit in exactly this time (the
#: development box does when the host is quiet and the probe's CPU is
#: cold from its sleep).
REFERENCE_UNIT_S = 0.004
#: Sleep between units.
GAP_S = 0.03
#: Shorter samples widen their window to this much, so that a 45 ms
#: query is scaled by ~15 readings, not by one.
MIN_WINDOW_S = 0.5


class Kernel:
    """Fixed interpreter-bound work: tuple-keyed dict traffic over a
    table larger than L1, small allocations, integer arithmetic — the
    same mix the routing and BDD layers spend their time on."""

    def __init__(self, size: int = 1 << 15) -> None:
        self._size = size
        self._table = {(i, i * 7 & 1023): i for i in range(size)}

    def unit(self) -> int:
        table, size = self._table, self._size
        acc, x = 0, 12345
        out: List[Tuple[int, int]] = []
        for _ in range(4000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            i = x % size
            value = table.get((i, i * 7 & 1023), 0)
            acc += value ^ (x >> 7)
            out.append((value, acc & 255))
            if len(out) > 256:
                out.clear()
        return acc


def _probe_main() -> None:
    """Child process: log units until stdin becomes readable."""
    kernel = Kernel()
    readings: List[Tuple[float, float]] = []
    while True:
        started = time.perf_counter()
        cpu = time.process_time()
        kernel.unit()
        readings.append((started, time.process_time() - cpu))
        ready, _, _ = select.select([sys.stdin], [], [], GAP_S)
        if ready:
            break
    json.dump(readings, sys.stdout)


class HostProbe:
    """Owns the probe process; after :meth:`stop` it scales samples."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        self.pid = self._proc.pid
        self._times: List[float] = []
        self._units: List[float] = []

    def stop(self) -> None:
        """End the probe, wait for it, and load its readings."""
        out, _ = self._proc.communicate(b"\n", timeout=30)
        if self._proc.returncode != 0:
            raise RuntimeError(
                f"host probe exited with {self._proc.returncode}"
            )
        readings = json.loads(out)
        if not readings:
            raise RuntimeError("host probe recorded no readings")
        self._times = [t for t, _ in readings]
        self._units = [u for _, u in readings]

    def kill(self) -> None:
        """Abort path: make sure the child is gone."""
        if self._proc.poll() is None:
            self._proc.kill()
            self._proc.wait()

    # -- scaling ---------------------------------------------------------

    def slowdown(self, start: float, end: float) -> float:
        """Mean unit time over ``[start, end]`` / the reference (>1: the
        host was slower than nominal while the sample ran)."""
        pad = max(0.05, (MIN_WINDOW_S - (end - start)) / 2)
        lo = bisect.bisect_left(self._times, start - pad)
        hi = bisect.bisect_right(self._times, end + pad)
        window = self._units[lo:hi]
        if not window:  # probe starved: fall back to the nearest reading
            nearest = min(max(lo, 0), len(self._units) - 1)
            window = self._units[nearest:nearest + 1]
        return statistics.fmean(window) / REFERENCE_UNIT_S

    def normalise(self, seconds: float, start: float, end: float) -> float:
        return seconds / self.slowdown(start, end)

    def summary(self, start: float, end: float) -> Tuple[float, float, int]:
        """(median slowdown, p90/p10 ratio, readings) over a phase, for
        the record's ``host`` block."""
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_right(self._times, end)
        units: Sequence[float] = self._units[lo:hi] or self._units
        median = statistics.median(units) / REFERENCE_UNIT_S
        if len(units) < 10:
            return median, 1.0, len(units)
        deciles = statistics.quantiles(units, n=10)
        return median, deciles[8] / deciles[0], len(units)


if __name__ == "__main__":
    _probe_main()
