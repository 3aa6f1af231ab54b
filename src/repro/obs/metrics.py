"""Counters, gauges, and histograms for one verification run.

A :class:`MetricsRegistry` is snapshot-able mid-run: instruments are
created on first use and hold plain Python numbers, so ``snapshot()`` is
a cheap dict copy that can be taken between CPO rounds without pausing
the pipeline.  Increments are guarded by one registry-wide lock — the
socket channels' receive and heartbeat threads update counters
concurrently with the controller — which
costs a few hundred nanoseconds per event at the per-batch/per-round
granularity the pipeline uses (never per BDD operation).

Workers' own numbers are not instruments: each worker reports a flat
status map, and :func:`fold_statuses` turns the fleet's latest statuses
into ``worker<N>.*`` gauges when a snapshot is read.
"""

from __future__ import annotations

import json
import os
import random
import threading
import zlib
from typing import Any, Dict, List, Optional


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.value = 0
        self._lock = lock

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time value; also tracks the maximum it ever held."""

    __slots__ = ("name", "value", "high_water", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.value = 0.0
        self.high_water = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value
            if value > self.high_water:
                self.high_water = value


class Histogram:
    """A distribution of observations with bounded memory.

    Up to :data:`RESERVOIR_SIZE` observations are retained verbatim, so
    percentiles are *exact* for any run that records fewer events than
    the cap (batch verifications record thousands, not millions).  Past
    the cap — a resident ``repro serve`` session observing every query —
    the retained set becomes a uniform reservoir sample (Vitter's
    algorithm R, seeded deterministically from the instrument name), so
    percentiles degrade gracefully to an unbiased approximation while
    ``count``/``sum``/``mean``/``min``/``max`` stay exact.
    """

    RESERVOIR_SIZE = 8192

    __slots__ = (
        "name",
        "values",
        "_lock",
        "_cap",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_rng",
    )

    def __init__(
        self,
        name: str,
        lock: threading.Lock,
        reservoir_size: Optional[int] = None,
    ) -> None:
        self.name = name
        self.values: List[float] = []
        self._lock = lock
        self._cap = max(1, reservoir_size or self.RESERVOIR_SIZE)
        self._count = 0
        self._sum = 0.0
        self._min = 0.0
        self._max = 0.0
        # Deterministic per-name seed: identical runs sample identically.
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))

    def observe(self, value: float) -> None:
        with self._lock:
            if self._count == 0:
                self._min = self._max = value
            else:
                if value < self._min:
                    self._min = value
                if value > self._max:
                    self._max = value
            self._count += 1
            self._sum += value
            if len(self.values) < self._cap:
                self.values.append(value)
            else:
                # Algorithm R: the n-th observation (1-based; _count was
                # just incremented, so _count == n here) must be kept
                # with probability cap/n.  randrange(_count) draws
                # uniformly from [0, n), so P(slot < cap) == cap/n —
                # drawing over [0, n-1) or using the pre-increment count
                # would oversample late arrivals.
                slot = self._rng.randrange(self._count)
                if slot < self._cap:
                    self.values[slot] = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._sum

    @property
    def sampled(self) -> bool:
        """True once the reservoir overflowed and percentiles are
        approximate rather than exact."""
        return self._count > self._cap

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0..100), linear interpolation.

        Exact while ``count <= RESERVOIR_SIZE``; computed over a uniform
        sample (unbiased, approximate) once the reservoir overflows.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile {p} out of range [0, 100]")
        with self._lock:
            values = sorted(self.values)
        if not values:
            return 0.0
        if len(values) == 1:
            return values[0]
        rank = (p / 100.0) * (len(values) - 1)
        low = int(rank)
        frac = rank - low
        if low + 1 >= len(values):
            return values[-1]
        return values[low] * (1 - frac) + values[low + 1] * frac

    def summary(self) -> Dict[str, float]:
        with self._lock:
            count = self._count
            total = self._sum
            low, high = self._min, self._max
            sampled = count > self._cap
        if not count:
            return {"count": 0}
        result = {
            "count": count,
            "sum": total,
            "mean": total / count,
            "min": low,
            "max": high,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }
        if sampled:
            result["sampled"] = True
        return result


class MetricsRegistry:
    """Get-or-create registry of named instruments for one run."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        found = self._counters.get(name)
        if found is None:
            with self._lock:
                found = self._counters.setdefault(
                    name, Counter(name, self._lock)
                )
        return found

    def gauge(self, name: str) -> Gauge:
        found = self._gauges.get(name)
        if found is None:
            with self._lock:
                found = self._gauges.setdefault(name, Gauge(name, self._lock))
        return found

    def set_gauges(self, values: Dict[str, float]) -> None:
        """Set several gauges at once (e.g. a health snapshot: serving
        epoch, admission queue depth, degraded flag)."""
        for name, value in values.items():
            self.gauge(name).set(value)

    def histogram(self, name: str) -> Histogram:
        found = self._histograms.get(name)
        if found is None:
            with self._lock:
                found = self._histograms.setdefault(
                    name, Histogram(name, self._lock)
                )
        return found

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready view of every instrument, safe to take mid-run."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: {"value": gauge.value, "high_water": gauge.high_water}
                for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: histogram.summary()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def write_json(
        self, path: str, extra: Optional[Dict[str, Any]] = None
    ) -> None:
        """Persist a snapshot (plus run-level ``extra`` sections)."""
        payload = self.snapshot()
        if extra:
            payload.update(extra)
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True, default=str)
            handle.write("\n")


def fold_statuses(
    snapshot: Dict[str, Any], statuses: Dict[str, Dict[str, Any]]
) -> Dict[str, Any]:
    """Fold per-worker statuses (keyed ``worker<N>``) into ``snapshot``'s
    gauges as ``worker<N>.<field>``; returns ``snapshot``.

    Non-numeric fields (the worker's last phase) are left out, so every
    folded gauge renders as a number.
    """
    gauges = snapshot.setdefault("gauges", {})
    for worker, status in statuses.items():
        for name, value in status.items():
            if isinstance(value, (int, float)):
                gauges[f"{worker}.{name}"] = {"value": value}
    return snapshot
