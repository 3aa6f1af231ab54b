"""Nested-span tracing for the distributed pipeline.

One :class:`Tracer` per *participant* (the controller and each worker)
records :class:`SpanRecord` entries lock-free: spans are appended to a
per-tracer list (safe under the GIL — each tracer is driven by one phase
thread at a time) and, when a ``sink`` path is configured, written
incrementally as JSON lines with a flush per span.  Incremental writes
are what make trace shards survive a killed worker process: everything
up to (at most) one torn final line is on disk, and the merge layer
(:mod:`repro.obs.merge`) tolerates the tear.

Timestamps are ``time.perf_counter()``, i.e. ``CLOCK_MONOTONIC`` on
Linux — a *system-wide* clock, so spans recorded by forked worker
processes are directly comparable with the controller's and the merged
timeline needs no cross-process clock reconciliation (timestamps are
normalized to the run's earliest span at export time).

The disabled path is a no-op guard: ``Tracer(enabled=False)`` (or the
shared :data:`NULL_TRACER`) hands out one preallocated :data:`NULL_SPAN`
whose ``__enter__``/``__exit__``/``set`` do nothing, so instrumentation
can stay compiled into the hot paths.

RPC stitching: the caller opens a span with ``flow="out"`` and a
``flow_id`` it ships in-band with the request; the callee's handler span
carries the same id with ``flow="in"``.  The Chrome export turns each
pair into flow-arrow events, drawing the caller→callee edge across
process tracks in Perfetto.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: JSONL shard schema version, written in each shard's meta line.
SCHEMA_VERSION = 1


@dataclass
class SpanRecord:
    """One finished span, as recorded and serialized."""

    name: str
    start: float                 # perf_counter seconds
    duration: float              # seconds
    process: str                 # participant label ("controller", "worker0")
    tid: int                     # track within the participant
    span_id: int
    parent_id: Optional[int] = None
    flow_id: Optional[int] = None    # RPC stitching id (caller == callee)
    flow: Optional[str] = None       # "out" (caller) | "in" (callee)
    category: str = "run"
    attrs: Dict[str, Any] = field(default_factory=dict)

    def as_line(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "type": "span",
            "name": self.name,
            "cat": self.category,
            "ts": self.start,
            "dur": self.duration,
            "proc": self.process,
            "tid": self.tid,
            "id": self.span_id,
        }
        if self.parent_id is not None:
            record["parent"] = self.parent_id
        if self.flow_id is not None:
            record["flow_id"] = self.flow_id
            record["flow"] = self.flow
        if self.attrs:
            record["attrs"] = self.attrs
        return record


class _NullSpan:
    """The disabled-tracing span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False

    def begin(self) -> "_NullSpan":
        return self

    def end(self) -> None:
        pass

    def set(self, **_attrs) -> "_NullSpan":
        return self


#: Shared no-op span handed out by disabled tracers (no allocation).
NULL_SPAN = _NullSpan()


class Span:
    """A live span: a context manager, or :meth:`begin` ... :meth:`end`."""

    __slots__ = (
        "_tracer", "name", "category", "start", "attrs",
        "span_id", "parent_id", "flow_id", "flow",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        category: str,
        flow_id: Optional[int],
        flow: Optional[str],
        attrs: Dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self.flow_id = flow_id
        self.flow = flow
        self.attrs = attrs
        self.span_id = tracer._next_id()
        self.parent_id: Optional[int] = None
        self.start = 0.0

    def set(self, **attrs) -> "Span":
        """Attach attributes to the span (merged into any given at open)."""
        self.attrs.update(attrs)
        return self

    def begin(self) -> "Span":
        """Start the span without entering it: spans begun one after
        another are siblings, each closed by its own :meth:`end` — the
        shape of calls issued together and settled later."""
        stack = self._tracer._stack()
        if stack:
            self.parent_id = stack[-1].span_id
        self.start = self._tracer.clock()
        return self

    def __enter__(self) -> "Span":
        self.begin()
        self._tracer._stack().append(self)
        return self

    def __exit__(self, *_exc) -> bool:
        self.end()
        return False

    def end(self) -> None:
        """Close and record the span (exactly once)."""
        end = self._tracer.clock()
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:          # tolerate out-of-order exits
            stack.remove(self)
        self._tracer._record(
            SpanRecord(
                name=self.name,
                start=self.start,
                duration=end - self.start,
                process=self._tracer.process,
                tid=self._tracer._tid(),
                span_id=self.span_id,
                parent_id=self.parent_id,
                flow_id=self.flow_id,
                flow=self.flow,
                category=self.category,
                attrs=self.attrs,
            )
        )


class Tracer:
    """Records nested spans for one participant of a run.

    ``sink`` (a file path) enables incremental JSONL shard output; without
    it spans are only kept in memory (``records``) for direct export.
    """

    def __init__(
        self,
        process: str = "main",
        enabled: bool = True,
        sink: Optional[str] = None,
        incarnation: int = 0,
        clock=time.perf_counter,
    ) -> None:
        self.process = process
        self.enabled = enabled
        self.incarnation = incarnation
        self.clock = clock
        self.records: List[SpanRecord] = []
        self._sink_path = sink
        self._sink = None
        self._local = threading.local()
        self._tids: Dict[int, int] = {}
        self._id_counter = 0
        if enabled and sink is not None:
            self._open_sink()

    # -- internals -------------------------------------------------------

    def _open_sink(self) -> None:
        directory = os.path.dirname(self._sink_path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._sink = open(self._sink_path, "a", encoding="utf-8")
        self._write_line(
            {
                "type": "meta",
                "schema": SCHEMA_VERSION,
                "process": self.process,
                "incarnation": self.incarnation,
                "os_pid": os.getpid(),
            }
        )

    def _write_line(self, payload: Dict[str, Any]) -> None:
        self._sink.write(json.dumps(payload, default=str) + "\n")
        self._sink.flush()

    def _next_id(self) -> int:
        self._id_counter += 1
        return self._id_counter

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _tid(self) -> int:
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            tid = self._tids.setdefault(ident, len(self._tids))
        return tid

    def _record(self, record: SpanRecord) -> None:
        self.records.append(record)
        if self._sink is not None:
            self._write_line(record.as_line())

    # -- public API ------------------------------------------------------

    def span(
        self,
        name: str,
        category: str = "run",
        flow_id: Optional[int] = None,
        flow: Optional[str] = None,
        **attrs,
    ):
        """Open a span; use as a context manager.  No-op when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, category, flow_id, flow, attrs)

    def instant(self, name: str, category: str = "event", **attrs) -> None:
        """Record a zero-duration marker (e.g. a fault injection)."""
        if not self.enabled:
            return
        now = self.clock()
        stack = self._stack()
        self._record(
            SpanRecord(
                name=name,
                start=now,
                duration=0.0,
                process=self.process,
                tid=self._tid(),
                span_id=self._next_id(),
                parent_id=stack[-1].span_id if stack else None,
                category=category,
                attrs=attrs,
            )
        )

    def export_jsonl(self, path: str) -> int:
        """Write every in-memory span to ``path``; returns the span count."""
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps(
                    {
                        "type": "meta",
                        "schema": SCHEMA_VERSION,
                        "process": self.process,
                        "incarnation": self.incarnation,
                        "os_pid": os.getpid(),
                    }
                )
                + "\n"
            )
            for record in self.records:
                handle.write(json.dumps(record.as_line(), default=str) + "\n")
        return len(self.records)

    def finish(self) -> None:
        """Close the sink (idempotent); in-memory records are kept."""
        if self._sink is not None:
            try:
                self._sink.close()
            finally:
                self._sink = None


class _NullTracer(Tracer):
    """The shared disabled tracer; ``span`` short-circuits to NULL_SPAN."""

    def __init__(self) -> None:
        super().__init__(process="null", enabled=False)

    def span(self, name, category="run", flow_id=None, flow=None, **attrs):
        return NULL_SPAN

    def instant(self, name, category="event", **attrs) -> None:
        return None


#: Shared disabled tracer: the default for every instrumented component.
NULL_TRACER = _NullTracer()


class stopwatch:
    """Minimal elapsed-time context manager (the ``perf_counter`` idiom).

    Replaces the hand-rolled ``started = perf_counter(); ... ; elapsed =
    perf_counter() - started`` blocks::

        with stopwatch() as timer:
            do_work()
        row.wall_seconds = timer.seconds

    ``seconds`` reads live while the block is still open, so it can also
    feed incremental accumulators mid-flight.
    """

    __slots__ = ("_clock", "_start", "_stop")

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._start = clock()
        self._stop: Optional[float] = None

    def __enter__(self) -> "stopwatch":
        self._start = self._clock()
        self._stop = None
        return self

    def __exit__(self, *_exc) -> bool:
        self._stop = self._clock()
        return False

    @property
    def seconds(self) -> float:
        end = self._stop if self._stop is not None else self._clock()
        return end - self._start
