"""Sidecars: the communication layer between controller and workers (§3.2).

Each worker (and the controller) has a sidecar holding the node→worker
assignment; all cross-worker traffic flows sidecar→sidecar.  Every
message — route batch or packet batch, on either runtime — is charged to
the sender at its pickled size from :func:`~repro.dist.message.measured_size`
(``rpc_bytes_sent``, ``rpc_messages_sent``), so the communication columns
of the figures come from real payloads, not guesses.

Route batches are stamped with a per-sender sequence number so receivers
can discard duplicated deliveries, and an optional
:class:`~repro.dist.faults.FaultPlan` can drop or duplicate batches at
this layer — the injection point for lost-message experiments (the CPO
detects drops and forces an extra round, which heals the mailboxes).
The plan counts what it fires; the receivers' ``deliver_routes_many``
replies count the duplicates they discarded.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

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
            action = self.fault_plan.on_batch(batch.source_worker)
        if action == "drop":
            return size
        self._outbox.setdefault(batch.target_worker, []).append(batch)
        if action == "duplicate":
            # Redeliver the same sequence number: the receiver dedupes,
            # but the duplicate bytes are still charged to the sender.
            self.worker.resources.charge_rpc(size, messages=1)
            self._record("rpc.route_batches", size)
            self._outbox[batch.target_worker].append(batch)
        return size

    def flush_routes(self) -> List:
        """Ship the queued round, one ``deliver_routes_many`` per target.

        Every delivery is issued without waiting (``call_nowait``) and
        its handle returned: the caller **must** settle every handle
        before Phase B pulls, since mailboxes must be filled before they
        are read.
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
                handles.append(
                    self.peers[target_id].worker.call_nowait(
                        "deliver_routes_many", tuple(outbox[target_id])
                    )
                )
        return handles

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
