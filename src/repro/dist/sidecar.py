"""Sidecars: the communication layer between controller and workers (§3.2).

Each worker (and the controller) has a sidecar holding the node→worker
assignment; all cross-worker traffic flows sidecar→sidecar.  Every
message — route batch or packet batch, on either runtime — is charged to
the sender at its pickled size from :func:`~repro.dist.message.measured_size`
(``rpc_bytes_sent``, ``rpc_messages_sent``), so the communication columns
of the figures come from real payloads, not guesses.

Route batches ride the BGP and OSPF supersteps: the CPO relays each
worker's ``step`` outbound batches through the sender's
:meth:`Sidecar.queue_routes` and hands the copies it returns to the
receivers' next ``step``.  Each batch is stamped with a per-sender
sequence number so receivers can discard duplicated deliveries, and an
optional :class:`~repro.dist.faults.FaultPlan` can drop or duplicate
batches at this layer — the injection point for lost-message experiments
(the CPO detects drops, forces an extra round and has the next step ship
every export, which heals the mailboxes).  The plan counts what it
fires; the receivers' ``step`` replies count the duplicates they
discarded.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

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
    ) -> None:
        self.worker = worker
        self.peers: Dict[int, "Sidecar"] = {}
        self.fault_plan = fault_plan
        self.metrics = metrics
        self._sequence = 0

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

    def queue_routes(self, batch: RouteBatch) -> Tuple[RouteBatch, ...]:
        """Stamp one outbound batch for the receiver's next step; returns
        the copies to deliver: none if the fault plan drops it, two (one
        sequence number) if it duplicates it.

        The stamped batch's measured size is charged to this sender once
        per copy put on the wire, a dropped one included.
        """
        self._sequence += 1
        batch = replace(batch, sequence=self._sequence)
        size = measured_size(batch)
        self.worker.resources.charge_rpc(size, messages=1)
        self._record("rpc.route_batches", size)
        action = "deliver"
        if self.fault_plan is not None:
            action = self.fault_plan.on_batch(batch.source_worker)
        if action == "drop":
            return ()
        if action == "duplicate":
            # Redeliver the same sequence number: the receiver dedupes,
            # but the duplicate bytes are still charged to the sender.
            self.worker.resources.charge_rpc(size, messages=1)
            self._record("rpc.route_batches", size)
            return (batch, batch)
        return (batch,)

    def send_packets(self, batch: PacketBatch):
        """Issue one batch's delivery; the caller settles the returned
        handle before the target drains.  Packet batches are not subject
        to drop/duplicate injection: symbolic packets are not resent
        round-over-round the way route advertisements are, so the data
        plane's fault model is worker crashes (query replay)."""
        size = measured_size(batch)
        self.worker.resources.charge_rpc(size, messages=1)
        self._record("rpc.packet_batches", size)
        with self.worker.tracer.span(
            "sidecar.send_packets",
            category="rpc",
            target=batch.target_worker,
            bytes=size,
            packets=len(batch.envelopes),
        ):
            return self.peers[batch.target_worker].worker.call_nowait(
                "deliver_packets", batch
            )
