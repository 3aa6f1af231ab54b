"""Streaming worker telemetry: frames, the worker-side source, and the
controller-side collector.

The post-mortem observability stack (trace shards + ``repro report``)
answers "what happened"; this module answers "what is happening".  Every
worker owns a :class:`TelemetrySource` that periodically emits a compact
**telemetry frame** — a flat JSON-safe dict carrying round progress, RIB
and BDD node counts, GC/op-cache rates, supervision health, and the
current span stack.  Frames travel over whatever channel the runtime
already has:

* the socket runtime piggybacks the frame on the existing per-dispatch
  resource telemetry tuple — no extra round trips, no new connections;
* in-process workers (the sequential runtime) hand the frame straight
  to a sink callable at phase boundaries.

The controller folds frames into its shared ``MetricsRegistry`` as
``worker<N>.*`` gauges (rendered as labelled series by the OpenMetrics
exporter) and keeps the latest frame per worker for ``statusz``.  The
collector is churn-aware: each frame carries ``(incarnation, seq)`` so a
respawned worker's restart from seq 0 is accepted, stale or duplicated
frames are dropped, and skipped sequence numbers are counted as lost
(and journalled) rather than silently ignored.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional

from .metrics import MetricsRegistry

#: Schema version stamped into every frame.
FRAME_VERSION = 1

#: Resource-mirror fields copied from ``WorkerResources`` into frames.
_RESOURCE_FIELDS = (
    "candidate_routes",
    "bdd_nodes",
    "fib_entries",
    "current_bytes",
    "peak_bytes",
    "retries",
    "respawns",
)

#: Engine counters worth streaming (a subset of ``BddEngine.counters``).
_ENGINE_FIELDS = (
    "node_count",
    "peak_node_count",
    "ops",
    "cache_hit_rate",
    "cache_entries",
    "gc_runs",
    "gc_reclaimed_nodes",
)


def validate_frame(frame: Any) -> Optional[str]:
    """Structural check on a frame; returns a problem string or None.

    The wire can tear (chaos faults corrupt payloads), so the collector
    refuses anything that does not look like a frame instead of folding
    garbage into the registry.
    """
    if not isinstance(frame, dict):
        return f"frame is {type(frame).__name__}, not dict"
    for key, kinds in (
        ("v", (int,)),
        ("worker", (int,)),
        ("incarnation", (int,)),
        ("seq", (int,)),
        ("ts", (int, float)),
        ("epoch", (int,)),
        ("stats", (dict,)),
    ):
        if key not in frame:
            return f"frame missing key {key!r}"
        if not isinstance(frame[key], kinds) or isinstance(
            frame[key], bool
        ):
            return f"frame key {key!r} has type {type(frame[key]).__name__}"
    if frame["v"] != FRAME_VERSION:
        return f"frame version {frame['v']} != {FRAME_VERSION}"
    if frame["seq"] < 1:
        return f"frame seq {frame['seq']} < 1"
    for name, value in frame["stats"].items():
        if not isinstance(name, str):
            return "frame stats key is not a string"
        if not isinstance(value, (int, float)):
            return f"frame stat {name!r} is not numeric"
    return None


class TelemetrySource:
    """Worker-side frame producer with interval gating.

    One source per worker incarnation stream.  ``maybe_frame()`` is
    called at phase boundaries / after dispatches and returns a frame
    only when at least ``interval`` seconds elapsed since the last one
    (``interval <= 0`` disables the source entirely; ``force=True``
    bypasses the gate for end-of-phase flushes).  Sequence numbers are
    per-incarnation and monotonic; a respawn calls :meth:`reincarnate`.
    """

    def __init__(
        self,
        worker: Any,
        interval: float = 0.25,
        incarnation: int = 0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.worker = worker
        self.interval = interval
        self.incarnation = incarnation
        self._clock = clock
        self._seq = 0
        self._last: Optional[float] = None  # None → first call always emits

    @property
    def enabled(self) -> bool:
        return self.interval > 0

    def reincarnate(self, incarnation: Optional[int] = None) -> None:
        """Start a fresh sequence stream after a respawn/reset."""
        self.incarnation = (
            incarnation if incarnation is not None else self.incarnation + 1
        )
        self._seq = 0
        self._last = None

    def maybe_frame(
        self, phase: Optional[str] = None, force: bool = False
    ) -> Optional[Dict[str, Any]]:
        if not self.enabled:
            return None
        now = self._clock()
        if (
            not force
            and self._last is not None
            and now - self._last < self.interval
        ):
            return None
        self._last = now
        return self.frame(phase)

    def frame(self, phase: Optional[str] = None) -> Dict[str, Any]:
        """Build one frame unconditionally (seq is consumed)."""
        worker = self.worker
        self._seq += 1
        stats: Dict[str, float] = {}
        resources = getattr(worker, "resources", None)
        if resources is not None:
            for field in _RESOURCE_FIELDS:
                stats[field] = int(getattr(resources, field, 0) or 0)
            stats["oom"] = int(bool(getattr(resources, "oom", False)))
        engine = getattr(worker, "engine", None)
        if engine is not None:
            counters = engine.counters()
            for field in _ENGINE_FIELDS:
                value = counters.get(field, 0)
                stats[f"engine.{field}"] = (
                    round(float(value), 6)
                    if isinstance(value, float)
                    else int(value)
                )
        stats["pending_packets"] = int(
            getattr(worker, "pending_packets", 0) or 0
        )
        stats["duplicate_batches"] = int(
            getattr(worker, "duplicate_batches", 0) or 0
        )
        tracer = getattr(worker, "tracer", None)
        spans: List[str] = (
            tracer.span_stack() if tracer is not None else []
        )
        return {
            "v": FRAME_VERSION,
            "worker": int(getattr(worker, "worker_id", -1)),
            "incarnation": self.incarnation,
            "seq": self._seq,
            "ts": time.time(),
            "epoch": int(getattr(worker, "epoch", -1)),
            "round": int(getattr(worker, "last_round", -1)),
            "phase": phase,
            "spans": spans,
            "stats": stats,
        }


class TelemetryCollector:
    """Controller-side fold-in point for frames from every runtime.

    ``ingest()`` is thread-safe (proxy relays run on the socket
    runtime's phase threads) and returns a disposition
    string — ``"ok"``, ``"stale"``, ``"gap"`` (accepted, but sequence
    numbers were skipped), or ``"invalid"`` — mostly for tests; callers
    may ignore it.
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        journal: Optional[Any] = None,
    ) -> None:
        self.metrics = metrics
        self.journal = journal
        self._lock = threading.Lock()
        self._latest: Dict[int, Dict[str, Any]] = {}
        self.frames_total = 0
        self.frames_invalid = 0
        self.frames_stale = 0
        self.frames_lost = 0

    def ingest(self, frame: Any) -> str:
        problem = validate_frame(frame)
        if problem is not None:
            with self._lock:
                self.frames_invalid += 1
            self.metrics.counter("telemetry.frames_invalid").inc()
            return "invalid"
        worker = frame["worker"]
        disposition = "ok"
        lost = 0
        with self._lock:
            previous = self._latest.get(worker)
            if previous is not None:
                p_inc, p_seq = previous["incarnation"], previous["seq"]
                if frame["incarnation"] < p_inc or (
                    frame["incarnation"] == p_inc and frame["seq"] <= p_seq
                ):
                    self.frames_stale += 1
                    disposition = "stale"
                elif (
                    frame["incarnation"] == p_inc
                    and frame["seq"] > p_seq + 1
                ):
                    lost = frame["seq"] - p_seq - 1
                    self.frames_lost += lost
                    disposition = "gap"
            elif frame["seq"] > 1:
                # First frame we ever saw from this worker already has
                # seq > 1: everything before it was lost in transit.
                lost = frame["seq"] - 1
                self.frames_lost += lost
                disposition = "gap"
            if disposition != "stale":
                self._latest[worker] = frame
                self.frames_total += 1
        if disposition == "stale":
            self.metrics.counter("telemetry.frames_stale").inc()
            return disposition
        self.metrics.counter("telemetry.frames").inc()
        if lost:
            self.metrics.counter("telemetry.frames_lost").inc(lost)
            if self.journal is not None:
                self.journal.record(
                    "telemetry_gap",
                    worker=worker,
                    lost=lost,
                    seq=frame["seq"],
                    incarnation=frame["incarnation"],
                )
        self._fold(frame)
        return disposition

    def _fold(self, frame: Dict[str, Any]) -> None:
        worker = frame["worker"]
        gauges: Dict[str, float] = {
            f"worker{worker}.epoch": frame["epoch"],
            f"worker{worker}.round": frame["round"],
            f"worker{worker}.incarnation": frame["incarnation"],
            f"worker{worker}.telemetry_seq": frame["seq"],
        }
        for name, value in frame["stats"].items():
            gauges[f"worker{worker}.{name}"] = value
        self.metrics.set_gauges(gauges)

    # -- reading ------------------------------------------------------

    def latest(self) -> Dict[int, Dict[str, Any]]:
        """Latest accepted frame per worker (copies)."""
        with self._lock:
            return {w: dict(f) for w, f in self._latest.items()}

    def worker_summary(self) -> Dict[str, Dict[str, Any]]:
        """Compact per-worker health block for ``health``/``statusz``."""
        now = time.time()
        with self._lock:
            frames = {w: f for w, f in self._latest.items()}
        summary: Dict[str, Dict[str, Any]] = {}
        for worker, frame in sorted(frames.items()):
            summary[f"worker{worker}"] = {
                "epoch": frame["epoch"],
                "round": frame["round"],
                "incarnation": frame["incarnation"],
                "seq": frame["seq"],
                "phase": frame.get("phase"),
                "age_seconds": round(max(0.0, now - frame["ts"]), 3),
                "respawns": frame["stats"].get("respawns", 0),
                "oom": bool(frame["stats"].get("oom", 0)),
            }
        return summary

    def summary(self) -> Dict[str, Any]:
        """Counter block for metrics snapshots."""
        with self._lock:
            return {
                "frames": self.frames_total,
                "frames_invalid": self.frames_invalid,
                "frames_stale": self.frames_stale,
                "frames_lost": self.frames_lost,
                "workers": sorted(self._latest),
            }
