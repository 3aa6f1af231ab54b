"""Sidecars: the communication layer between controller and workers (§3.2).

Each worker (and the controller) has a sidecar holding the node→worker
assignment; all cross-worker traffic flows sidecar→sidecar.  The in-process
transport delivers objects directly but counts the *measured* serialized
size of every message against the sender (``rpc_bytes_sent``,
``rpc_messages_sent``), so the communication columns of the figures come
from real payloads, not guesses.

Route batches are stamped with a per-sender sequence number so receivers
can discard duplicated deliveries, and an optional
:class:`~repro.dist.faults.FaultPlan` can drop or duplicate batches at
this layer — the injection point for lost-message experiments (the CPO
detects drops and forces an extra round, which heals the mailboxes).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from ..bdd.serialize import SendDedupCache
from ..obs.metrics import MetricsRegistry
from .faults import FaultPlan
from .message import PacketBatch, RouteBatch, measured_size
from .worker import Worker


class Sidecar:
    """One worker's sidecar.  ``peers`` is filled by the controller."""

    def __init__(
        self,
        worker: Worker,
        fault_plan: Optional[FaultPlan] = None,
        metrics: Optional[MetricsRegistry] = None,
        dedup_packets: bool = True,
    ) -> None:
        self.worker = worker
        self.peers: Dict[int, "Sidecar"] = {}
        self.fault_plan = fault_plan
        self.metrics = metrics
        self.dedup_packets = dedup_packets
        # Per-peer memory of symbolic-packet payloads already shipped
        # there.  Content-hashed, so it stays valid across engine GCs on
        # either side (node ids never appear in the wire format).
        self._packet_dedup: Dict[int, SendDedupCache] = {}
        self._sequence = 0
        self.batches_dropped = 0
        self.batches_duplicated = 0
        # Per-round outbox for the pipelined exchange path: batches are
        # queued (charged immediately) and shipped by flush_routes() as
        # one coalesced delivery per target worker.
        self._outbox: Dict[int, List[RouteBatch]] = {}

    @property
    def worker_id(self) -> int:
        return self.worker.worker_id

    def register_peers(self, sidecars: List["Sidecar"]) -> None:
        self.peers = {s.worker_id: s for s in sidecars}

    # -- sending (charged to this worker) --------------------------------

    def _record(self, counter: str, size: int) -> None:
        if self.metrics is None:
            return
        self.metrics.counter(counter).inc()
        self.metrics.counter("rpc.bytes_sent").inc(size)
        self.metrics.histogram("rpc.batch_bytes").observe(size)

    def queue_routes(self, batch: RouteBatch) -> int:
        """Queue one batch for the round's pipelined flush.

        The batch is stamped with this sender's next sequence number and
        its measured size is charged now, and the fault plan may drop or
        duplicate it here; delivery is deferred to :meth:`flush_routes`,
        which ships every target's batches in one coalesced call per peer.
        """
        self._sequence += 1
        batch = replace(batch, sequence=self._sequence)
        size = measured_size(batch)
        self.worker.resources.charge_rpc(size, messages=1)
        self._record("rpc.route_batches", size)
        action = "deliver"
        if self.fault_plan is not None:
            action = self.fault_plan.on_batch(
                batch.source_worker, batch.round_token
            )
        if action == "drop":
            self.batches_dropped += 1
            return size
        self._outbox.setdefault(batch.target_worker, []).append(batch)
        if action == "duplicate":
            # Redeliver the same sequence number: the receiver dedupes,
            # but the duplicate bytes are still charged to the sender.
            self.batches_duplicated += 1
            self.worker.resources.charge_rpc(size, messages=1)
            self._record("rpc.route_batches", size)
            self._outbox[batch.target_worker].append(batch)
        return size

    def flush_routes(self) -> List:
        """Ship the queued round, one ``deliver_routes_many`` per target.

        Remote peers that support pipelined calls (``call_nowait``) are
        issued without waiting and their result handles returned — the
        caller **must** settle every handle before Phase B pulls, since
        mailboxes must be filled before they are read.  In-process peers
        deliver synchronously here and contribute no handle.
        """
        outbox, self._outbox = self._outbox, {}
        handles: List = []
        with self.worker.tracer.span(
            "sidecar.flush_routes",
            category="rpc",
            targets=len(outbox),
            batches=sum(len(b) for b in outbox.values()),
        ):
            for target_id in sorted(outbox):
                batches = tuple(outbox[target_id])
                target = self.peers[target_id].worker
                nowait = getattr(target, "call_nowait", None)
                if nowait is not None:
                    handles.append(nowait("deliver_routes_many", batches))
                else:
                    target.deliver_routes_many(batches)
        return handles

    def send_packets(self, batch: PacketBatch) -> int:
        # Packet batches are not subject to drop/duplicate injection:
        # symbolic packets are not retransmitted round-over-round the way
        # route advertisements are, so the fault model for the data plane
        # is worker crashes (recovered by query replay), not lost batches.
        size = measured_size(batch)
        duplicates = 0
        saved = 0
        if self.dedup_packets:
            cache = self._packet_dedup.get(batch.target_worker)
            if cache is None:
                cache = SendDedupCache()
                self._packet_dedup[batch.target_worker] = cache
            saved_before = cache.bytes_saved
            for envelope in batch.envelopes:
                duplicate, _wire = cache.offer(envelope.payload)
                duplicates += duplicate
            saved = cache.bytes_saved - saved_before
        # Payloads the peer has already seen travel as digest references;
        # only the delta is charged to the sender's byte count.
        wire = max(size - saved, 0)
        self.worker.resources.charge_rpc(wire, messages=1)
        self._record("rpc.packet_batches", wire)
        if self.metrics is not None and duplicates:
            self.metrics.counter("rpc.dedup_packets").inc(duplicates)
            self.metrics.counter("rpc.dedup_bytes_saved").inc(saved)
        with self.worker.tracer.span(
            "sidecar.send_packets",
            category="rpc",
            target=batch.target_worker,
            bytes=wire,
            packets=len(batch.envelopes),
            dedup_hits=duplicates,
        ):
            self.peers[batch.target_worker].worker.deliver_packets(batch)
        return wire

    # -- cache invalidation ----------------------------------------------

    def on_peer_respawn(self, worker_id: int) -> None:
        """Drop the dedup memory aimed at a respawned peer.

        The peer's fresh incarnation has no receive-side memory, so
        digest references toward it would under-charge the sender (and a
        real dedup transport would fail to resolve them).  Counters are
        discarded with the cache: savings already banked were real —
        they happened against the dead incarnation.
        """
        self._packet_dedup.pop(worker_id, None)

    def invalidate_send_caches(self) -> None:
        """Forget every peer's dedup memory (e.g. on a full reset)."""
        self._packet_dedup.clear()

    def dedup_counters(self) -> Dict[str, int]:
        """Aggregate send-dedup telemetry across this sidecar's peers."""
        hits = misses = saved = 0
        for cache in self._packet_dedup.values():
            hits += cache.hits
            misses += cache.misses
            saved += cache.bytes_saved
        return {"hits": hits, "misses": misses, "bytes_saved": saved}
