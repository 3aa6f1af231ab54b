"""The data plane orchestrator (DPO, §3.2, §4.3).

Workflow: (1) every worker builds the FIBs of its nodes from the route
store and compiles forwarding/ACL predicates into its *own* BDD engine;
(2) symbolic packets are injected at the query's sources and forwarded in
bulk-synchronous supersteps — each worker drains its local queue, packets
crossing a segment boundary are serialized, shipped by the sidecars, and
re-encoded into the receiving worker's engine.  Finals are collected back
into the controller's engine for property checking.

Both phases are timed with the wall clock (``predicate_seconds`` and
``forward_seconds``, Figure 10's two phases); every worker's BDD work is
also counted.  Per phase, the busiest worker's share is the §4.3
parallelism argument as a count: engines on different workers proceed in
parallel, so a step lasts as long as its busiest worker's share — nodes
built for the predicate phase (``predicate_busiest_nodes``), operations
for forwarding (``forward_busiest_ops``).  Unlike the clock, the counts
do not depend on the machine; the forwarding ops move by a few percent
with Python's string-hash seed, which reorders set iteration and so the
BDD operation caches' hits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..bdd.engine import BddEngine
from ..bdd.headerspace import HeaderEncoding
from ..bdd.serialize import deserialize, serialize
from ..dataplane.forwarding import FinalPacket
from ..dataplane.queries import PropertyChecker
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer, stopwatch
from .faults import RetryPolicy, WorkerFailure
from .fleet import Fleet, settle_all
from .storage import RouteStore

#: Node-table capacity of the controller's engine, where finals land.
CONTROLLER_NODE_LIMIT = 1 << 24


@dataclass
class DataPlaneStats:
    predicate_seconds: float = 0.0
    forward_seconds: float = 0.0
    # BDD work on the critical path: the nodes the busiest worker's build
    # leaves in its fresh engine (the trie compile is mk calls, mostly no
    # apply op), and each superstep's busiest worker's ops, summed.
    # Workers on their own cores run the rest alongside.
    predicate_busiest_nodes: int = 0
    forward_busiest_ops: int = 0
    supersteps: int = 0
    packets_crossed: int = 0
    finals: int = 0
    # -- engine health ---------------------------------------------------
    peak_worker_nodes: int = 0     # max node_count any worker engine hit
    gc_reclaimed_nodes: int = 0    # nodes freed by between-query GCs
    boundary_collections: int = 0  # query boundaries that collected
    payloads_reused: int = 0       # received payloads the memo resolved
    # Always 0: packet batches are charged at their measured size.  Kept
    # because s2bench reports it as ``dpo.dedup_bytes_saved``.
    dedup_bytes_saved: int = 0
    # -- fault tolerance -------------------------------------------------
    worker_failures: int = 0   # WorkerFailures seen during build/forward
    query_replays: int = 0     # queries rerun after a worker recovery


class DataPlaneOrchestrator:
    def __init__(
        self,
        fleet: Fleet,
        encoding: Optional[HeaderEncoding] = None,
        node_limit: int = 1 << 24,
        supervisor=None,
        retry_policy: Optional[RetryPolicy] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        # Read at every query: a loss or rejoin takes effect at the next
        # build (the controller invalidates it).
        self.fleet = fleet
        self.encoding = encoding or HeaderEncoding()
        self.node_limit = node_limit
        self.engine: BddEngine = self.encoding.make_engine(
            node_limit=CONTROLLER_NODE_LIMIT
        )
        self.supervisor = supervisor
        self.retry_policy = retry_policy or RetryPolicy()
        self.tracer = tracer or NULL_TRACER
        self.metrics = metrics
        self.stats = DataPlaneStats()
        self._built = False
        self._store: Optional[RouteStore] = None
        self._transits: List[str] = []

    # -- fault handling --------------------------------------------------

    def _replaying(self, unit: Callable[[], Any], rebuild: bool) -> Any:
        """Run ``unit``; after a :class:`WorkerFailure`, recover the
        worker and rerun it (rebuilding the data plane first when
        ``rebuild``), at most ``max_query_retries`` times."""
        attempts = 0
        while True:
            try:
                return unit()
            except WorkerFailure as failure:
                attempts += 1
                if attempts > self.retry_policy.max_query_retries:
                    raise
                self.stats.worker_failures += 1
                if self.supervisor is None:
                    raise
                self.supervisor.recover(failure)
                if rebuild:
                    self._built = False
                    assert self._store is not None
                    self.build(self._store)
                    self.install_waypoints(self._transits)
                    self.stats.query_replays += 1

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
        self._replaying(lambda: self._build_once(store), rebuild=False)

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
            built = self.fleet.call_all(
                "build_dataplane",
                store.directory,
                self.encoding,
                self.node_limit,
            )
            for worker, (ops, _) in zip(self.fleet.workers, built):
                worker.resources.bdd_ops += ops
            self.stats.predicate_busiest_nodes += max(
                (nodes for _, nodes in built), default=0
            )
            span.set(bdd_ops=sum(ops for ops, _ in built))
        self.stats.predicate_seconds += clock.seconds
        self._built = True

    # -- waypoints ------------------------------------------------------------

    def install_waypoints(self, transits: Sequence[str]) -> None:
        # Remembered so a mid-query recovery (which rebuilds the data
        # plane from scratch) can re-install them before the replay.
        self._transits = list(transits)
        self.fleet.call_all("clear_waypoints")
        for index, transit in enumerate(transits):
            self.fleet.call_all("set_waypoint_bit", transit, index)

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
        return self._replaying(
            lambda: self._forward_once(source_list, header_bdd, trace),
            rebuild=True,
        )

    def _forward_once(
        self, source_list: List[str], header_bdd: int, trace: bool = False
    ) -> List[FinalPacket]:
        with stopwatch() as clock, self.tracer.span(
            "dpo.forward", category="dpo", sources=len(source_list)
        ) as span:
            payload = serialize(self.engine, header_bdd)
            self.fleet.call_all("reset_dataplane_run")
            self.fleet.call_all("inject_header", source_list, payload, trace)
            superstep = 0
            while True:
                with self.tracer.span(
                    "dpo.superstep", category="dpo", step=superstep
                ) as step_span:
                    results = self.fleet.call_all("drain")
                    deliveries = []
                    crossed = 0
                    for worker, sidecar, (_, batches, ops) in zip(
                        self.fleet.workers, self.fleet.sidecars, results
                    ):
                        worker.resources.bdd_ops += ops
                        for batch in batches.values():
                            crossed += len(batch.envelopes)
                            deliveries.append(sidecar.send_packets(batch))
                    settle_all(deliveries)  # lands before the next drain
                    batch_count = len(deliveries)
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
        # Outside forward_seconds and the dpo.forward span: the fold reads
        # every worker's status, which is not query work.
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
        """Per-worker engine health counters, the ``engine.*`` fields of
        each worker's status (empty before a build)."""
        return [
            {
                name[len("engine."):]: value
                for name, value in worker.status().items()
                if name.startswith("engine.")
            }
            for worker in self.fleet.workers
        ]

    def _publish_engine_metrics(self) -> None:
        """Fold worker engine counters into the stats (and the metrics
        registry, when one is attached)."""
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
        self.stats.peak_worker_nodes = max(self.stats.peak_worker_nodes, peak)
        self.stats.gc_reclaimed_nodes = reclaimed
        self.stats.boundary_collections = collections
        self.stats.payloads_reused = reused
        if self.metrics is None:
            return
        self.metrics.gauge("bdd.node_count").set(nodes)
        self.metrics.gauge("bdd.peak_worker_node_count").set(peak)
        self.metrics.gauge("bdd.gc_reclaimed_nodes").set(reclaimed)
        lookups = hits + misses
        if lookups:
            self.metrics.gauge("bdd.cache_hit_rate").set(hits / lookups)

    def _collect_finals(self) -> List[FinalPacket]:
        finals: List[FinalPacket] = []
        for records in self.fleet.call_all("collect_finals"):
            for record in records:
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
