"""Measurement mechanics shared by the workloads.

Noise hygiene lives here so every workload gets the same treatment:

* ``gc.collect()`` before each timed sample; the collector stays enabled
  during it, as it is for a user.
* one closed-loop client: the next operation starts when the previous
  one has returned;
* CPU is read at operation boundaries only (see ``procstat``);
* every store directory is a fresh one under the run's scratch
  directory, whose filesystem type goes into the record (the store
  ``fsync``s, so tmpfs and ext4 differ).
"""

from __future__ import annotations

import gc
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Sequence

from .oracle import Ledger
from .procstat import cpu_seconds, peak_rss_mb
from .trace import Tracer


@dataclass
class Sample:
    """One timed operation, as measured (scaling happens at the end)."""

    start: float
    end: float
    cpu: float
    traced: bool

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Bench:
    """What a workload needs from the runner."""

    def __init__(
        self,
        seconds: float,
        trace: bool,
        smoke: bool,
        scratch: str,
        helper_pids: Sequence[int],
        inject_wrong_verdict: bool = False,
    ) -> None:
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.scratch = scratch
        self.helper_pids = tuple(helper_pids)
        self.inject_wrong_verdict = inject_wrong_verdict
        self.tracer = Tracer(enabled=trace)
        self.ledger = Ledger()
        self.samples: Dict[str, List[Sample]] = {}
        # Values a workload hands straight to the per-layer table:
        # counts from public stats objects and derived ratios.
        self.layer: Dict[str, float] = {}
        # Peak RSS is read when the first loop reaches its minimum count:
        # every run has the same history up to there, whereas the number
        # of operations after it depends on how fast the host is today.
        self.peak_rss_mb = 0.0
        self._stores = 0

    def store_dir(self) -> str:
        self._stores += 1
        path = os.path.join(self.scratch, f"store-{self._stores:03d}")
        os.makedirs(path)
        return path

    @contextmanager
    def timed(self, kind: str, collect: bool = True) -> Iterator[None]:
        """Time one operation of ``kind``; its spans share an op id."""
        if collect:
            gc.collect()
        cpu = cpu_seconds(self.helper_pids)
        start = time.perf_counter()
        with self.tracer.operation(), self.tracer.span(kind):
            yield
        end = time.perf_counter()
        cpu = cpu_seconds(self.helper_pids) - cpu
        self.samples.setdefault(kind, []).append(
            Sample(start, end, cpu, self.tracer.enabled)
        )

    def loop(
        self,
        budget: float,
        minimum: int,
        body: Callable[[int], None],
        step: int = 1,
    ) -> int:
        """Closed loop: call ``body(i)`` until ``budget`` seconds have
        passed and at least ``minimum`` calls were made, always ending
        on a multiple of ``step`` (delta workloads undo what they did).
        In a traced run every other group of ``step`` calls runs with
        the tracer off: their ratio is the benchmark's own overhead."""
        deadline = time.perf_counter() + budget
        done = 0
        while done < minimum or done % step or time.perf_counter() < deadline:
            self.tracer.enabled = self.trace and (done // step) % 2 == 0
            body(done)
            done += 1
            if done == minimum and not self.peak_rss_mb:
                self.peak_rss_mb = peak_rss_mb(self.helper_pids)
        self.tracer.enabled = self.trace
        return done
