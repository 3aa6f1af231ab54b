"""The data plane orchestrator (DPO, §3.2, §4.3).

Workflow: (1) every worker builds the FIBs of its nodes from the route
store and compiles forwarding/ACL predicates into its *own* BDD engine;
(2) symbolic packets are injected at the query's sources and forwarded in
bulk-synchronous supersteps — each worker drains its local queue, packets
crossing a segment boundary are serialized, shipped by the sidecars, and
re-encoded into the receiving worker's engine.  Finals are collected back
into the controller's engine for property checking.

Both phases are timed with the wall clock (``predicate_seconds`` and
``forward_seconds``, Figure 10's two phases); every worker's BDD
operations are also counted.  Per phase, the busiest worker's operations
(``*_busiest_ops``) are the §4.3 parallelism argument as a count: engines
on different workers proceed in parallel, so a step lasts as long as its
busiest worker's share.  Unlike the clock, the counts do not depend on
the machine; they move by a few percent with Python's string-hash seed,
which reorders set iteration and so the BDD operation caches' hits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..bdd.engine import BddEngine
from ..bdd.headerspace import HeaderEncoding
from ..bdd.serialize import deserialize, serialize
from ..dataplane.forwarding import FinalPacket
from ..dataplane.queries import PropertyChecker
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer, stopwatch
from .faults import RetryPolicy, WorkerFailure
from .runtime import Runtime, SequentialRuntime
from .sidecar import Sidecar
from .storage import RouteStore
from .worker import Worker


@dataclass
class DataPlaneStats:
    predicate_seconds: float = 0.0
    forward_seconds: float = 0.0
    # BDD operations on the critical path: the busiest worker's ops in a
    # build, and in each superstep (a superstep ends with its busiest
    # worker), summed.  Workers on their own cores run the rest alongside.
    predicate_busiest_ops: int = 0
    forward_busiest_ops: int = 0
    supersteps: int = 0
    packets_crossed: int = 0
    finals: int = 0
    # -- engine health ---------------------------------------------------
    peak_worker_nodes: int = 0     # max node_count any worker engine hit
    gc_reclaimed_nodes: int = 0    # nodes freed by between-query GCs
    boundary_collections: int = 0  # query boundaries that collected
    payloads_reused: int = 0       # received payloads the memo resolved
    dedup_bytes_saved: int = 0     # wire bytes saved by send-side dedup
    # -- fault tolerance -------------------------------------------------
    worker_failures: int = 0   # WorkerFailures seen during build/forward
    query_replays: int = 0     # queries rerun after a worker recovery


class DataPlaneOrchestrator:
    def __init__(
        self,
        workers: Sequence[Worker],
        sidecars: Sequence[Sidecar],
        encoding: Optional[HeaderEncoding] = None,
        runtime: Optional[Runtime] = None,
        node_limit: int = 1 << 24,
        controller_node_limit: int = 1 << 24,
        bdd_kernel: str = "flat",
        supervisor=None,
        retry_policy: Optional[RetryPolicy] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.workers = list(workers)
        self.sidecars = list(sidecars)
        self.encoding = encoding or HeaderEncoding()
        self.runtime = runtime or SequentialRuntime()
        self.node_limit = node_limit
        self.bdd_kernel = bdd_kernel
        self.engine: BddEngine = self.encoding.make_engine(
            node_limit=controller_node_limit, kernel=bdd_kernel
        )
        self.supervisor = supervisor
        self.retry_policy = retry_policy or RetryPolicy()
        self.tracer = tracer or NULL_TRACER
        self.metrics = metrics
        self.stats = DataPlaneStats()
        self._built = False
        self._store: Optional[RouteStore] = None
        self._transits: List[str] = []

    # -- fleet membership ------------------------------------------------

    def drop_worker(self, worker_id: int) -> None:
        """Remove a lost worker (loss migration).

        Worker and sidecar are dropped in tandem so the forward loop's
        ``zip(self.workers, self.sidecars, ...)`` stays aligned; the
        caller invalidates the build so the next query reloads the
        migrated routes from the store.
        """
        self.workers = [w for w in self.workers if w.worker_id != worker_id]
        self.sidecars = [
            s for s in self.sidecars if s.worker_id != worker_id
        ]
        self._built = False

    def set_fleet(
        self, workers: Sequence[Worker], sidecars: Sequence[Sidecar]
    ) -> None:
        """Rebind the active fleet (a healed worker rejoined)."""
        self.workers = list(workers)
        self.sidecars = list(sidecars)
        self._built = False

    # -- fault handling --------------------------------------------------

    def _recover(self, failure: WorkerFailure) -> None:
        self.stats.worker_failures += 1
        if self.supervisor is None:
            raise failure
        self.supervisor.recover(failure)

    # -- phase 1: FIBs + predicates --------------------------------------

    def build(self, store: RouteStore) -> None:
        """Build FIBs and predicates on every worker.

        Queries are the recovery unit of the DPV phase: a worker failure
        here (or mid-forward) resets ``_built``, the supervisor recovers
        the worker, and the whole build reruns — ``build_dataplane`` is
        idempotent (fresh engine per call), and a recovered worker's
        routes come back from the store plus its OSPF checkpoint.
        """
        self._store = store
        attempts = 0
        while True:
            try:
                self._build_once(store)
                return
            except WorkerFailure as failure:
                attempts += 1
                self._built = False
                if attempts > self.retry_policy.max_query_retries:
                    raise
                self._recover(failure)

    def invalidate(self) -> None:
        """Force the next :meth:`build` to run — the serving path calls
        this after every committed delta so FIBs and predicates reflect
        the new routes."""
        self._built = False

    def _build_once(self, store: RouteStore) -> None:
        if self._built:
            return
        with stopwatch() as clock, self.tracer.span(
            "dpo.build", category="dpo"
        ) as span:
            ops_list = self.runtime.map(
                [
                    (
                        lambda w=w: w.build_dataplane(
                            store.directory,
                            self.encoding,
                            self.node_limit,
                            self.bdd_kernel,
                        )
                    )
                    for w in self.workers
                ]
            )
            for worker, ops in zip(self.workers, ops_list):
                worker.resources.bdd_ops += ops
            self.stats.predicate_busiest_ops += max(ops_list, default=0)
            span.set(bdd_ops=sum(ops_list))
        self.stats.predicate_seconds += clock.seconds
        self._built = True

    # -- waypoints ------------------------------------------------------------

    def install_waypoints(self, transits: Sequence[str]) -> None:
        # Remembered so a mid-query recovery (which rebuilds the data
        # plane from scratch) can re-install them before the replay.
        self._transits = list(transits)
        for worker in self.workers:
            worker.clear_waypoints()
            for index, transit in enumerate(transits):
                worker.set_waypoint_bit(transit, index)

    # -- phase 2: forwarding -----------------------------------------------------

    def forward(
        self, sources: Sequence[str], header_bdd: int, trace: bool = False
    ) -> List[FinalPacket]:
        """Distributed symbolic forwarding; finals land in ``self.engine``.

        ``header_bdd`` is a BDD in the *controller's* engine; it is
        serialized once and re-encoded by each worker hosting a source.
        A worker failure mid-query is recovered by respawning the worker,
        rebuilding the data plane (from the route store), and replaying
        the query from injection — queries are stateless between runs.
        """
        assert self._built, "call build() before forward()"
        source_list = list(sources)  # a one-shot iterable survives replays
        attempts = 0
        while True:
            try:
                return self._forward_once(source_list, header_bdd, trace)
            except WorkerFailure as failure:
                attempts += 1
                if attempts > self.retry_policy.max_query_retries:
                    raise
                self._recover(failure)
                self._built = False
                assert self._store is not None
                self.build(self._store)
                self.install_waypoints(self._transits)
                self.stats.query_replays += 1

    def _forward_once(
        self, source_list: List[str], header_bdd: int, trace: bool = False
    ) -> List[FinalPacket]:
        with stopwatch() as clock, self.tracer.span(
            "dpo.forward", category="dpo", sources=len(source_list)
        ) as span:
            payload = serialize(self.engine, header_bdd)
            for worker in self.workers:
                worker.reset_dataplane_run()
                worker.inject_header(source_list, payload, trace)
            superstep = 0
            while True:
                with self.tracer.span(
                    "dpo.superstep", category="dpo", step=superstep
                ) as step_span:
                    results = self.runtime.map(
                        [w.drain for w in self.workers]
                    )
                    batch_count = 0
                    crossed = 0
                    for worker, sidecar, (_, batches, ops) in zip(
                        self.workers, self.sidecars, results
                    ):
                        worker.resources.bdd_ops += ops
                        for batch in batches.values():
                            crossed += len(batch.envelopes)
                            sidecar.send_packets(batch)
                            batch_count += 1
                    self.stats.forward_busiest_ops += max(
                        (ops for _, _, ops in results), default=0
                    )
                    step_span.set(batches=batch_count, crossed=crossed)
                self.stats.packets_crossed += crossed
                superstep += 1
                self.stats.supersteps += 1
                if self.metrics is not None:
                    self.metrics.counter("dpo.supersteps").inc()
                    self.metrics.counter("dpo.packets_crossed").inc(crossed)
                # Every worker drained to exhaustion and nothing was
                # delivered, so every queue is empty.
                if batch_count == 0:
                    break
            with self.tracer.span("dpo.collect_finals", category="dpo"):
                finals = self._collect_finals()
            self.stats.finals += len(finals)
            span.set(supersteps=superstep, finals=len(finals))
        self.stats.forward_seconds += clock.seconds
        collections = self.stats.boundary_collections
        reused = self.stats.payloads_reused
        # Outside forward_seconds and the dpo.forward span: the fold makes
        # one counters call per worker, which is not query work.
        with self.tracer.span("dpo.engine_metrics", category="dpo") as span:
            self._publish_engine_metrics()
            # This query's share (0, not negative, after a respawned
            # worker restarted its counts).
            span.set(
                boundary_collections=max(
                    0, self.stats.boundary_collections - collections
                ),
                payloads_reused=max(0, self.stats.payloads_reused - reused),
            )
        return finals

    def worker_engine_counters(self) -> List[Dict[str, float]]:
        """Per-worker engine health counters (post-build; may be empty)."""
        return [worker.engine_counters() for worker in self.workers]

    def _publish_engine_metrics(self) -> None:
        """Fold worker engine + sidecar dedup telemetry into the stats
        (and the metrics registry, when one is attached)."""
        nodes = 0
        peak = 0
        reclaimed = 0
        collections = 0
        reused = 0
        hits = 0.0
        misses = 0.0
        for counters in self.worker_engine_counters():
            if not counters:
                continue
            nodes += int(counters.get("node_count", 0))
            peak = max(peak, int(counters.get("peak_node_count", 0)))
            reclaimed += int(counters.get("gc_reclaimed_nodes", 0))
            # Workers collect only at query boundaries.
            collections += int(counters.get("gc_runs", 0))
            reused += int(counters.get("payloads_reused", 0))
            hits += counters.get("cache_hits", 0)
            misses += counters.get("cache_misses", 0)
        saved = sum(
            sidecar.dedup_counters()["bytes_saved"]
            for sidecar in self.sidecars
        )
        self.stats.peak_worker_nodes = max(self.stats.peak_worker_nodes, peak)
        self.stats.gc_reclaimed_nodes = reclaimed
        self.stats.boundary_collections = collections
        self.stats.payloads_reused = reused
        self.stats.dedup_bytes_saved = saved
        if self.metrics is None:
            return
        self.metrics.gauge("bdd.node_count").set(nodes)
        self.metrics.gauge("bdd.peak_worker_node_count").set(peak)
        self.metrics.gauge("bdd.gc_reclaimed_nodes").set(reclaimed)
        self.metrics.gauge("rpc.dedup_bytes_saved").set(saved)
        lookups = hits + misses
        if lookups:
            self.metrics.gauge("bdd.cache_hit_rate").set(hits / lookups)

    def _collect_finals(self) -> List[FinalPacket]:
        finals: List[FinalPacket] = []
        for worker in self.workers:
            for record in worker.collect_finals():
                finals.append(
                    FinalPacket(
                        state=record["state"],
                        node=record["node"],
                        bdd=deserialize(self.engine, record["payload"]),
                        source=record["source"],
                        hops=record["hops"],
                        path=record["path"],
                        out_port=record["out_port"],
                    )
                )
        return finals

    # -- property checking ------------------------------------------------------------

    def checker(self) -> PropertyChecker:
        return PropertyChecker(
            self.engine,
            self.encoding,
            self.forward,
            install_waypoints=self.install_waypoints,
        )
