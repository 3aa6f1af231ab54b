"""The worker-side service: command dispatch behind a worker listener.

A :class:`WorkerService` starts *unconfigured* — a socket worker can be
launched as a bare listener (``repro worker``) and receive its identity
over the wire via ``__configure__`` — and reconfiguration is a logical
respawn: the old tracer shard is finished and a fresh
:class:`~repro.dist.worker.Worker` is built at the next incarnation.

``dispatch`` never raises: every response is ``("ok", (result,
telemetry))`` or ``("exc", (name, message, traceback))``.  The telemetry
7-tuple piggybacks the worker's resource counters, so proxies track
memory peaks without extra round trips, and ends in an interval-gated
:mod:`repro.obs.telemetry` frame (``None`` when streaming is off or no
frame is due) that proxies forward to the controller's collector.
"""

from __future__ import annotations

import os
import traceback
from typing import Any, Dict, Optional, Tuple

from ..obs.tracer import NULL_TRACER, Tracer
from ..obs.telemetry import TelemetrySource
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
        self.telemetry: Optional[TelemetrySource] = None

    @property
    def configured(self) -> bool:
        return self.worker is not None

    def configure(
        self,
        worker_id: int,
        snapshot,
        assignment: Dict[str, int],
        capacity: int,
        cost_model,
        max_hops: int,
        trace_dir: Optional[str] = None,
        incarnation: int = 0,
        telemetry_interval: float = 0.0,
    ) -> None:
        """(Re)build the worker; a reconfigure is a logical respawn."""
        if self.tracer is not NULL_TRACER:
            self.tracer.finish()
        self.resources = WorkerResources(
            name=f"worker{worker_id}", capacity=capacity, model=cost_model
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
        # Streaming telemetry: interval-gated, sequence numbers scoped
        # per incarnation so the collector sees a respawn as a fresh
        # stream rather than a seq regression.
        self.telemetry = (
            TelemetrySource(
                self.worker,
                interval=telemetry_interval,
                incarnation=incarnation,
            )
            if telemetry_interval > 0
            else None
        )

    def dispatch(
        self, command: str, args: tuple, flow_id: Optional[int] = None
    ) -> Tuple[str, Any]:
        """Execute one command; never raises — failures are relayed.

        Only names in :attr:`Worker.COMMANDS` run: a peer must not reach
        local-only methods (``reset``, ``attach_telemetry``) or private
        ones through the wire.
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
            resources = self.resources
            # PullOutcome travels fine; attach fresh memory telemetry so
            # the proxy mirror can track the peak without extra round
            # trips.  The optional seventh element is an interval-gated
            # streaming frame for the controller's collector.
            frame = (
                self.telemetry.maybe_frame(phase=command)
                if self.telemetry is not None
                else None
            )
            telemetry = (
                resources.current_bytes,
                resources.peak_bytes,
                resources.candidate_routes,
                resources.bdd_nodes,
                resources.fib_entries,
                resources.oom,
                frame,
            )
            return "ok", (result, telemetry)
        except Exception as exc:  # noqa: BLE001 — relayed to the controller
            return "exc", (
                type(exc).__name__,
                str(exc),
                traceback.format_exc(),
            )

    def finish(self) -> None:
        if self.tracer is not NULL_TRACER:
            self.tracer.finish()
            self.tracer = NULL_TRACER
