"""The high-level S2 public API.

:class:`S2Verifier` is the one-stop entry point a user sees::

    from repro import S2Verifier, S2Options
    from repro.net.fattree import build_fattree

    snapshot = build_fattree(8)
    verifier = S2Verifier(snapshot, S2Options(num_workers=8, num_shards=20))
    result = verifier.verify()          # all-pair reachability by default
    print(result.summary())

It owns an :class:`~repro.dist.controller.S2Controller`, turns resource
exhaustion (:class:`~repro.dist.resources.SimulatedOOM`,
:class:`~repro.bdd.engine.BddOverflowError`) into a structured
:class:`VerificationResult` instead of a traceback, and bundles the stats
the benchmark harness consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..bdd.engine import BddOverflowError
from ..obs.tracer import stopwatch
from ..config.loader import Snapshot
from ..dataplane.forwarding import FinalPacket
from ..dataplane.queries import (
    MultipathViolation,
    PropertyViolation,
    Query,
    ReachabilityResult,
)
from ..dist.controller import S2Controller, S2Options
from ..dist.cpo import ControlPlaneStats
from ..dist.dpo import DataPlaneStats
from ..dist.faults import WorkerFailure
from ..dist.resources import ClusterReport, SimulatedOOM
from ..net.ip import Prefix


@dataclass
class VerificationResult:
    """Everything one verification run produced."""

    status: str          # "ok" | "oom" | "bdd-overflow" | "worker-failure"
    snapshot_name: str
    num_workers: int
    num_shards: int
    wall_seconds: float = 0.0
    peak_worker_bytes: int = 0
    total_routes: int = 0
    error: Optional[str] = None
    cp_stats: Optional[ControlPlaneStats] = None
    dp_stats: Optional[DataPlaneStats] = None
    report: Optional[ClusterReport] = None
    reachability: Optional[ReachabilityResult] = None
    reachable_pairs: int = 0
    checked_pairs: int = 0
    loop_violations: List[PropertyViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def summary(self) -> str:
        if not self.ok:
            return (
                f"{self.snapshot_name}: {self.status.upper()} "
                f"({self.error})"
            )
        return (
            f"{self.snapshot_name}: OK — {self.reachable_pairs}/"
            f"{self.checked_pairs} pairs reachable, "
            f"{self.total_routes} routes, "
            f"peak {self.peak_worker_bytes / 1e6:.1f} MB/worker, "
            f"{self.wall_seconds:.2f}s wall"
        )


class S2Verifier:
    """Distributed configuration verification of one snapshot."""

    def __init__(
        self, snapshot: Snapshot, options: Optional[S2Options] = None
    ) -> None:
        self.snapshot = snapshot
        self.options = options or S2Options()
        self.controller = S2Controller(snapshot, self.options)

    @classmethod
    def resume(
        cls, snapshot: Snapshot, options: S2Options
    ) -> "S2Verifier":
        """Reattach to a killed run (``options.store_dir`` required).

        The resumed run restores the OSPF checkpoint, skips every shard
        the run manifest records as converged, and completes the rest —
        producing the same RIBs and verdicts the uninterrupted run would
        have.
        """
        verifier = cls.__new__(cls)
        verifier.snapshot = snapshot
        verifier.options = options
        verifier.controller = S2Controller.resume(snapshot, options)
        return verifier

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self.controller.close()

    def __enter__(self) -> "S2Verifier":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- pieces (usable individually) ----------------------------------------

    def run_control_plane(self) -> ControlPlaneStats:
        return self.controller.run_control_plane()

    def checker(self):
        return self.controller.checker()

    def collected_ribs(self):
        return self.controller.collected_ribs()

    # -- the one-shot entry point ----------------------------------------------

    def verify(
        self,
        query: Optional[Query] = None,
        check_loops: bool = False,
    ) -> VerificationResult:
        """Full pipeline: control plane → data plane → property checking.

        Defaults to the paper's all-pair reachability.  Resource
        exhaustion is reported in the result's ``status`` — the paper's
        figures treat OOM as a data point, not a crash.
        """
        result = VerificationResult(
            status="ok",
            snapshot_name=self.snapshot.name,
            num_workers=self.options.num_workers,
            num_shards=max(1, self.options.num_shards),
        )
        tracer = self.controller.tracer
        with stopwatch() as clock, tracer.span(
            "verify", snapshot=self.snapshot.name
        ) as span:
            try:
                result.cp_stats = self.controller.run_control_plane()
                result.total_routes = self.controller.total_route_count()
                checker = self.controller.checker()
                result.dp_stats = self.controller.dpo.stats
                if query is None:
                    holders = self.controller.prefix_holders()
                    query = Query(
                        sources=tuple(holders), destinations=tuple(holders)
                    )
                with tracer.span("check.reachability", category="check"):
                    result.reachability = checker.check_reachability(query)
                result.reachable_pairs = len(result.reachability.pairs())
                result.checked_pairs = len(query.sources) * max(
                    1, len(query.destinations)
                )
                if check_loops:
                    with tracer.span("check.loops", category="check"):
                        result.loop_violations = checker.check_loop_free(
                            Query(sources=query.sources)
                        )
            except SimulatedOOM as exc:
                result.status = "oom"
                result.error = str(exc)
            except BddOverflowError as exc:
                result.status = "bdd-overflow"
                result.error = str(exc)
            except WorkerFailure as exc:
                # Supervision and replay are exhausted, or the last
                # worker is lost, in either phase: report it, with the
                # control plane's stats so far, don't traceback.
                result.status = "worker-failure"
                result.error = str(exc)
                result.cp_stats = self.controller.cpo.stats
            span.set(status=result.status, routes=result.total_routes)
        result.wall_seconds = clock.seconds
        result.report = self.controller.report()
        result.peak_worker_bytes = result.report.peak_worker_bytes
        return result


def verify_snapshot(
    snapshot: Snapshot, options: Optional[S2Options] = None, **verify_kwargs
) -> VerificationResult:
    """Convenience: construct, verify, and clean up in one call."""
    with S2Verifier(snapshot, options) as verifier:
        return verifier.verify(**verify_kwargs)
