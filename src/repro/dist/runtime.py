"""The in-process worker pool.

A worker pool gives workers their execution contexts.
:class:`LocalWorkerPool` holds the in-process ones behind the same
supervision surface as :class:`~repro.dist.socket_runtime.
SocketWorkerPool` (``respawn``, ``reconfigure``, ``update_snapshot``),
so the controller never asks which runtime it drives.  Code reaches
either pool's workers only through ``call_nowait``: an in-process
:meth:`~repro.dist.worker.Worker.call_nowait` runs the command as it is
issued, and every worker a fan-out's calls failed on is reset here, as
a socket worker is respawned.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

from ..config.loader import Snapshot
from ..obs.tracer import Tracer
from .faults import FaultPlan
from .resources import WorkerResources
from .worker import Worker


class LocalWorkerPool:
    """In-process workers, respawned by an in-place :meth:`Worker.reset`.

    Like the socket pool, it keeps each worker's identity across
    respawns and rebuilds it from the pool's *current* snapshot and
    ``assignment`` (which the supervisor's OSPF restore slices by).
    Call faults fire at :meth:`Worker.call_nowait`, the
    surface the socket proxy injects at too, and a
    ``host_loss``/``respawn_fail`` plan fails the respawn here.
    """

    managed = True  # a respawn can always build a fresh context

    def __init__(
        self,
        snapshot: Snapshot,
        assignment: Dict[str, int],
        num_workers: int,
        capacity: int,
        max_hops: int = 24,
        fault_plan: Optional[FaultPlan] = None,
        trace_dir: Optional[str] = None,
    ) -> None:
        self._snapshot, self.assignment = snapshot, assignment
        self._fault_plan = fault_plan
        # In-process workers write their own trace shards too, so the
        # merged timeline has one track per worker regardless of runtime.
        self._tracers = [
            Tracer(
                process=f"worker{i}",
                sink=os.path.join(trace_dir, f"worker{i}.0.jsonl"),
            )
            for i in range(num_workers)
        ] if trace_dir else []
        self.proxies: List[Worker] = [
            Worker(
                worker_id=i,
                snapshot=snapshot,
                assignment=assignment,
                resources=WorkerResources(
                    name=f"worker{i}", capacity=capacity
                ),
                max_hops=max_hops,
                tracer=self._tracers[i] if self._tracers else None,
            )
            for i in range(num_workers)
        ]
        for worker in self.proxies:
            worker.fault_plan = fault_plan

    def update_snapshot(
        self, snapshot: Snapshot, assignment: Dict[str, int]
    ) -> None:
        """Point future respawns at the current snapshot/assignment."""
        self._snapshot, self.assignment = snapshot, assignment

    def _rebuild(self, worker: Worker) -> None:
        worker.snapshot = self._snapshot
        worker.assignment = self.assignment
        worker.reset()

    def reconfigure(
        self,
        snapshot: Snapshot,
        assignment: Dict[str, int],
        workers: Sequence[Worker],
    ) -> None:
        """Rebuild ``workers`` on a new snapshot (logical respawn)."""
        self.update_snapshot(snapshot, assignment)
        for worker in workers:
            self._rebuild(worker)

    def respawn(self, worker_id: int) -> Worker:
        """Reset the worker in place; raises :class:`RespawnError` when
        the fault plan fails the respawn."""
        if self._fault_plan is not None:
            self._fault_plan.check_respawn(worker_id)
        worker = self.proxies[worker_id]
        self._rebuild(worker)
        worker.resources.respawns += 1
        return worker

    def channel_counters(self, worker_id: int) -> Dict[str, int]:
        return {}  # in-process workers have no channel

    def transport_counters(self, lost) -> None:
        return None  # ... and so no transport section to report

    def close(self) -> None:
        for tracer in self._tracers:
            tracer.finish()
