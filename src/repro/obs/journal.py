"""Bounded structured event journal for resident sessions.

A :class:`VerifierSession` lives for days; its history — epoch commits,
delta classifications, worker respawns, stale-epoch rejections,
degradations, ground-truth spot checks — is what an operator pages
through when the fleet misbehaves.  :class:`EventJournal` keeps that
history as typed, timestamped records with a **monotonic sequence
number**, bounded in memory (oldest records drop, with the drop count
retained so readers can detect the gap) and optionally mirrored to a
JSONL sink so a crash post-mortem still has the full tail on disk.

Records are plain data: ``seq`` (1-based, never reused), ``ts`` (wall
clock), ``kind`` (one of :data:`EVENT_KINDS`), and a flat JSON-safe
``attrs`` dict.  Consumers replay with ``events(since=seq)`` — the
``eventsz`` API op and ``repro top`` poll exactly that way.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

#: The closed taxonomy of journal record kinds.  ``record()`` rejects
#: anything else so dashboards can rely on the set being stable.
EVENT_KINDS = frozenset(
    {
        "boot",  # session came up (warm or cold)
        "epoch_commit",  # a new CommittedView was published
        "delta_classified",  # admission classified a delta (full/dirty-shard)
        "worker_respawn",  # supervisor respawned a worker
        "stale_epoch_rejection",  # a fenced RPC from an old epoch was refused
        "degraded",  # session fell back to read-only
        "ground_truth",  # concrete-packet spot check result
        "drain",  # session started draining for shutdown
        "load_shed",  # admission queue refused a delta
        "worker_lost",  # respawn budget exhausted; worker left the fleet
        "shard_reassigned",  # a lost worker's state migrated to a survivor
        "worker_rejoined",  # a blacklisted host healed and was rebalanced in
    }
)


@dataclass(frozen=True)
class JournalEvent:
    """One typed, timestamped record."""

    seq: int
    ts: float
    kind: str
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JournalEvent":
        return cls(
            seq=int(payload["seq"]),
            ts=float(payload["ts"]),
            kind=str(payload["kind"]),
            attrs=dict(payload.get("attrs", {})),
        )


class EventJournal:
    """Bounded in-memory ring of :class:`JournalEvent` records.

    Thread safe; ``record()`` is called from the mutator thread, the
    supervisor (inside RPC retries) and the controller, while
    API handlers read concurrently.  When more than ``capacity`` events
    accumulate the oldest are dropped — ``dropped`` counts them and
    ``first_seq`` names the oldest still retained, so a reader that asks
    for ``since=0`` can tell replay is partial.
    """

    def __init__(
        self,
        capacity: int = 512,
        sink_path: Optional[str] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if capacity < 1:
            raise ValueError("journal capacity must be >= 1")
        self.capacity = capacity
        self._events: List[JournalEvent] = []
        self._lock = threading.Lock()
        self._clock = clock
        self._seq = 0
        self._dropped = 0
        self._sink_path = sink_path
        self._sink = None
        if sink_path:
            directory = os.path.dirname(sink_path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._sink = open(sink_path, "a", encoding="utf-8")

    # -- writing ------------------------------------------------------

    def record(self, kind: str, **attrs: Any) -> JournalEvent:
        """Append one record; returns it (with its assigned seq)."""
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown journal event kind: {kind!r}")
        with self._lock:
            self._seq += 1
            event = JournalEvent(
                seq=self._seq, ts=self._clock(), kind=kind, attrs=attrs
            )
            self._events.append(event)
            if len(self._events) > self.capacity:
                overflow = len(self._events) - self.capacity
                del self._events[:overflow]
                self._dropped += overflow
            if self._sink is not None:
                try:
                    self._sink.write(
                        json.dumps(event.to_dict(), sort_keys=True) + "\n"
                    )
                    self._sink.flush()
                except OSError:
                    # Disk trouble must never take the session down; the
                    # in-memory ring stays authoritative.
                    self._sink = None
        return event

    # -- reading ------------------------------------------------------

    def events(
        self, since: int = 0, limit: Optional[int] = None
    ) -> List[JournalEvent]:
        """Records with ``seq > since``, oldest first, up to ``limit``
        (the **newest** matching records when limit truncates)."""
        with self._lock:
            matched = [e for e in self._events if e.seq > since]
        if limit is not None and limit >= 0 and len(matched) > limit:
            matched = matched[-limit:]
        return matched

    def tail(self, n: int) -> List[JournalEvent]:
        with self._lock:
            return self._events[-n:] if n > 0 else []

    @property
    def last_seq(self) -> int:
        with self._lock:
            return self._seq

    @property
    def first_seq(self) -> int:
        """Seq of the oldest retained record (0 when empty)."""
        with self._lock:
            return self._events[0].seq if self._events else 0

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    def describe(self) -> Dict[str, Any]:
        """Compact stats block for health/status payloads."""
        with self._lock:
            return {
                "last_seq": self._seq,
                "first_seq": self._events[0].seq if self._events else 0,
                "retained": len(self._events),
                "dropped": self._dropped,
                "capacity": self.capacity,
                "sink": self._sink_path,
            }

    def close(self) -> None:
        with self._lock:
            if self._sink is not None:
                try:
                    self._sink.close()
                except OSError:
                    pass
                self._sink = None


def read_journal(path: str) -> List[JournalEvent]:
    """Load a JSONL journal sink back into records (skips torn tail
    lines, which happen when the process died mid-write)."""
    events: List[JournalEvent] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(JournalEvent.from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError):
                continue
    return events


def journal_gaps(events: List[JournalEvent]) -> List[int]:
    """Seq numbers missing from an ordered replay (for CI gap checks)."""
    gaps: List[int] = []
    previous: Optional[int] = None
    for event in events:
        if previous is not None and event.seq > previous + 1:
            gaps.extend(range(previous + 1, event.seq))
        previous = event.seq
    return gaps
