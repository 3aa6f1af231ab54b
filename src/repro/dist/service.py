"""The worker-side service: command dispatch behind a worker listener.

A :class:`WorkerService` starts *unconfigured* — a socket worker can be
launched as a bare listener (``repro worker``) and receive its identity
over the wire via ``__configure__`` — and reconfiguration is a logical
respawn: the old tracer shard is finished and a fresh
:class:`~repro.dist.worker.Worker` is built at the next incarnation.

``dispatch`` never raises: every response is ``("ok", (result,
status))`` or ``("exc", (name, message, traceback, status))``, where
``status`` is the worker's :meth:`~repro.dist.worker.Worker.status`
taken after the command (``None`` before ``__configure__``).  Proxies
mirror its memory counters — including the peak a
:class:`~repro.dist.resources.SimulatedOOM` was raised at — and keep
the whole map as the worker's latest status, so the controller never
spends a round trip to learn a worker's numbers.
"""

from __future__ import annotations

import os
import traceback
from typing import Any, Dict, Optional, Tuple

from ..obs.tracer import NULL_TRACER, Tracer
from .resources import WorkerResources
from .worker import Worker


class WorkerService:
    """Executes worker commands; transport-agnostic.

    One instance serves one worker process for its whole lifetime,
    across reconfigurations (incarnations).
    """

    def __init__(self) -> None:
        self.worker: Optional[Worker] = None
        self.resources: Optional[WorkerResources] = None
        self.tracer = NULL_TRACER
        self.incarnation = -1

    @property
    def configured(self) -> bool:
        return self.worker is not None

    def configure(
        self,
        worker_id: int,
        snapshot,
        assignment: Dict[str, int],
        capacity: int,
        max_hops: int,
        trace_dir: Optional[str] = None,
        incarnation: int = 0,
    ) -> None:
        """(Re)build the worker; a reconfigure is a logical respawn."""
        if self.tracer is not NULL_TRACER:
            self.tracer.finish()
        self.resources = WorkerResources(
            name=f"worker{worker_id}", capacity=capacity
        )
        self.tracer = NULL_TRACER
        if trace_dir:
            # Each (worker, lifetime) gets its own shard file; the merge
            # layer folds all incarnations onto one process track.
            self.tracer = Tracer(
                process=f"worker{worker_id}",
                sink=os.path.join(
                    trace_dir, f"worker{worker_id}.{incarnation}.jsonl"
                ),
                incarnation=incarnation,
            )
        self.worker = Worker(
            worker_id=worker_id,
            snapshot=snapshot,
            assignment=assignment,
            resources=self.resources,
            max_hops=max_hops,
            tracer=self.tracer,
        )
        self.incarnation = incarnation

    def dispatch(
        self, command: str, args: tuple, flow_id: Optional[int] = None
    ) -> Tuple[str, Any]:
        """Execute one command; never raises — failures are relayed.

        Only names in :attr:`Worker.COMMANDS` run: a peer must not reach
        local-only methods (``reset``, ``status``) or private ones
        through the wire.
        """
        try:
            if command not in Worker.COMMANDS:
                raise LookupError(f"{command!r} is not a worker command")
            if self.worker is None:
                raise RuntimeError(
                    f"worker service is not configured (got {command!r} "
                    "before __configure__)"
                )
            with self.tracer.span(
                f"handle.{command}",
                category="rpc",
                flow_id=flow_id,
                flow="in" if flow_id is not None else None,
            ):
                result = getattr(self.worker, command)(*args)
            return "ok", (result, self.worker.status())
        except Exception as exc:  # noqa: BLE001 — relayed to the controller
            return "exc", (
                type(exc).__name__,
                str(exc),
                traceback.format_exc(),
                self.worker.status() if self.worker is not None else None,
            )

    def finish(self) -> None:
        if self.tracer is not NULL_TRACER:
            self.tracer.finish()
            self.tracer = NULL_TRACER
