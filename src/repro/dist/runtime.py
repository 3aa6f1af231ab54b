"""Execution backends for worker phases.

The orchestrators express each phase as "run this thunk on every worker";
the runtime decides how.  In-process workers execute one by one in a
deterministic order (:class:`SequentialRuntime`).  Socket workers are
driven through a thread pool (:class:`ThreadedRuntime`): each thread
blocks on its worker's channel, so the worker processes compute
concurrently.

A worker pool gives workers their execution contexts.
:class:`LocalWorkerPool` holds the in-process ones behind the same
supervision surface as :class:`~repro.dist.socket_runtime.
SocketWorkerPool` (``respawn``, ``reconfigure``, ``update_snapshot``),
so the controller never asks which runtime it drives.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from ..config.loader import Snapshot
from ..obs.tracer import Tracer
from .faults import FaultPlan
from .resources import WorkerResources
from .worker import Worker

T = TypeVar("T")


class Runtime:
    """Maps thunks over workers; subclasses choose the execution policy."""

    def map(self, thunks: Sequence[Callable[[], T]]) -> List[T]:
        raise NotImplementedError

    def close(self) -> None:
        """Release any pooled resources (idempotent)."""

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class SequentialRuntime(Runtime):
    """Deterministic in-order execution (the default)."""

    def map(self, thunks: Sequence[Callable[[], T]]) -> List[T]:
        return [thunk() for thunk in thunks]


class ThreadedRuntime(Runtime):
    """One thread per worker phase, joined at the phase barrier."""

    def __init__(self, max_threads: Optional[int] = None) -> None:
        self._pool = ThreadPoolExecutor(max_workers=max_threads or 16)

    def map(self, thunks: Sequence[Callable[[], T]]) -> List[T]:
        futures = [self._pool.submit(thunk) for thunk in thunks]
        # Wait for *every* future before surfacing a failure: recovery
        # (worker respawn, shard replay) must not start while sibling
        # phase thunks are still mutating worker state.
        results: List[T] = []
        first_error: Optional[BaseException] = None
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                if first_error is None:
                    first_error = exc
                results.append(None)  # type: ignore[arg-type]
        if first_error is not None:
            raise first_error
        return results

    def close(self) -> None:
        self._pool.shutdown(wait=True)


class LocalWorkerPool:
    """In-process workers, respawned by an in-place :meth:`Worker.reset`.

    Like the socket pool, it keeps each worker's identity across
    respawns and rebuilds it from the pool's *current* snapshot and
    assignment.  In-process fault injection happens inside the worker
    phases (the socket runtime injects at the proxy call layer), and a
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
        self._snapshot, self._assignment = snapshot, assignment
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
            worker.fault_injector = fault_plan

    def update_snapshot(
        self, snapshot: Snapshot, assignment: Dict[str, int]
    ) -> None:
        """Point future respawns at the current snapshot/assignment."""
        self._snapshot, self._assignment = snapshot, assignment

    def _rebuild(self, worker: Worker) -> None:
        worker.snapshot = self._snapshot
        worker.assignment = self._assignment
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
