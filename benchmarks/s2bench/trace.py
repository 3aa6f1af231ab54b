"""The benchmark's own spans and counts, recorded from outside.

Spans wrap the calls the benchmark makes into each layer's public
functions (spans inside the program are a later issue).  Each records
name, start, end, the span that caused it and the id of the workload
operation (one verify / delta / query) it belongs to.  Everything stays
in memory until :meth:`Tracer.write`.  A span's *self time* is its
duration minus the part its child spans cover.

A disabled tracer still runs the wrapped call, so workload code is the
same traced and untraced; end-to-end metrics come from untraced runs.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the span that caused it
    op: Optional[int]      # workload operation it belongs to


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._op: Optional[int] = None
        self._next_op = 0

    @contextmanager
    def operation(self) -> Iterator[Optional[int]]:
        """All spans opened inside share one operation id."""
        self._op, self._next_op = self._next_op, self._next_op + 1
        try:
            yield self._op
        finally:
            self._op = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        started = time.perf_counter()
        span = Span(name, started, started, parent, self._op)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    # -- reduction -------------------------------------------------------

    def self_times(
        self, op: Optional[int] = None
    ) -> Dict[str, List[Tuple[float, float, float]]]:
        """Span name -> (self seconds, start, end) per occurrence;
        ``op`` restricts it to one operation's spans."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        result: Dict[str, List[Tuple[float, float, float]]] = {}
        for index, span in enumerate(self.spans):
            if op is None or span.op == op:
                result.setdefault(span.name, []).append(
                    (span.end - span.start - covered[index], span.start, span.end)
                )
        return result

    def write(self, path: str, extra: Dict) -> None:
        """``extra`` carries the run's identity and the counts read from
        public stats objects at the span boundaries."""
        payload = dict(extra)
        payload["spans"] = [
            {"id": index, **asdict(span)}
            for index, span in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
