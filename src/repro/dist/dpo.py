"""The data plane orchestrator (DPO, §3.2, §4.3).

Workflow: (1) every worker builds the FIBs of its nodes from the route
store (after an announce-only epoch it patches them within the recomputed
prefixes instead); (2) symbolic packets are injected at the query's
sources and forwarded in bulk-synchronous supersteps — each worker drains
its local queue, compiling a device's forwarding/ACL predicates into its
*own* BDD engine on the first packet that reaches it; packets crossing a
segment boundary are serialized, shipped by the sidecars, and re-encoded
into the receiving worker's engine.  Finals are collected back into the
controller's engine for property checking.  Reachability of classes no
ACL touches needs no packet at all (:meth:`DataPlaneOrchestrator.
reach_by_closure`), so an ACL-free all-pair check compiles nothing.

Both phases are timed with the wall clock (``predicate_seconds`` and
``forward_seconds``, Figure 10's two phases; phase 1 is the build plus
an explicit :meth:`DataPlaneOrchestrator.compile_all`, which Figure 10
drives); every worker's BDD work is also counted.  Per phase, the
busiest worker's share is the §4.3 parallelism argument as a count:
engines on different workers proceed in parallel, so a step lasts as
long as its busiest worker's share — nodes built for the predicate phase
(``predicate_busiest_nodes``), operations for forwarding
(``forward_busiest_ops``).  Unlike the clock, the counts
do not depend on the machine; the forwarding ops move by a few percent
with Python's string-hash seed, which reorders set iteration and so the
BDD operation caches' hits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple,
)

from ..bdd.engine import FALSE, OP_OR, TRUE, BddEngine
from ..bdd.headerspace import HeaderEncoding
from ..bdd.serialize import deserialize, serialize
from ..dataplane.classes import (
    Action,
    child_classes,
    class_atoms,
    closure_pairs,
    nearest_parents,
    shortest_first,
    with_ancestors,
)
from ..dataplane.forwarding import DEFAULT_MAX_HOPS, FinalPacket
from ..dataplane.queries import PropertyChecker, Query
from ..net.ip import Prefix
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer, stopwatch
from .fleet import Fleet, settle_all
from .message import DataPlanePatch
from .storage import RouteStore

#: Node-table capacity of the controller's engine, where finals land.
CONTROLLER_NODE_LIMIT = 1 << 24


@dataclass
class DataPlaneStats:
    predicate_seconds: float = 0.0
    forward_seconds: float = 0.0
    # BDD work on the critical path: the nodes the busiest worker's engine
    # holds after compile_all (the trie compile is mk calls, mostly no
    # apply op), and each superstep's busiest worker's ops, summed.
    # Workers on their own cores run the rest alongside.
    predicate_busiest_nodes: int = 0
    forward_busiest_ops: int = 0
    # Devices whose predicates a worker compiled, on a first packet or
    # in compile_all; 0 for a closure-only check.
    devices_compiled: int = 0
    builds: int = 0            # data-plane builds from empty
    patches: int = 0           # ... and patches within the dirty prefixes
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
    # -- destination-class closure (reachability) -------------------------
    closure_seconds: float = 0.0
    closure_classes: int = 0   # classes the header touched, closed or not
    closure_groups: int = 0    # groups of classes with equal actions
    closure_pairs: int = 0     # pairs answered by closure
    symbolic_classes: int = 0  # ACL-touched classes left to forwarding
    # -- fault tolerance -------------------------------------------------
    worker_failures: int = 0   # WorkerFailures recovered in build/forward
    query_replays: int = 0     # queries rerun after a worker recovery


class DataPlaneOrchestrator:
    def __init__(
        self,
        fleet: Fleet,
        supervisor,
        store: RouteStore,
        encoding: Optional[HeaderEncoding] = None,
        node_limit: int = 1 << 24,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        max_hops: int = DEFAULT_MAX_HOPS,
        foreign: Callable[[], Dict[int, Tuple[int, ...]]] = dict,
    ) -> None:
        # Read at every query: a loss or rejoin takes effect at the next
        # build (the controller invalidates it).
        self.fleet = fleet
        # The route store the FIBs are built from, and its flush indices
        # a build reads from every writer's file (the reader rule).
        self.store = store
        self.foreign = foreign
        self.encoding = encoding or HeaderEncoding()
        self.node_limit = node_limit
        self.engine: BddEngine = self.encoding.make_engine(
            node_limit=CONTROLLER_NODE_LIMIT
        )
        self.supervisor = supervisor
        self.tracer = tracer or NULL_TRACER
        self.metrics = metrics
        self.stats = DataPlaneStats()
        self._built = False
        self._transits: List[str] = []
        # The workers' hop bound, which the closure applies as theirs.
        self.max_hops = max_hops
        # Per build: the destination classes, each one's nearest parent,
        # children and atom (in the controller engine), and memoized per
        # class: every device's action, and whether an ACL touches it.
        self._classes: FrozenSet[Prefix] = frozenset()
        self._parents: Dict[Prefix, Optional[Prefix]] = {}
        self._children: Dict[Prefix, List[Prefix]] = {}
        self._atoms: Dict[Prefix, int] = {}
        self._rows: Dict[Prefix, Dict[str, Action]] = {}
        self._touched: Set[Prefix] = set()

    # -- fault handling --------------------------------------------------

    def _rebuild(self, failed: int) -> None:
        """The ``on_recovered`` hook of a replayed query: count the
        ``failed`` workers, rebuild the data plane from the store and
        reinstall the waypoints first."""
        self.stats.worker_failures += failed
        self._built = False
        self.build()
        self._install_waypoints()
        self.stats.query_replays += 1

    # -- phase 1: FIBs ------------------------------------------------------

    def build(self, patch: Optional[DataPlanePatch] = None) -> None:
        """Build the FIBs on every worker, from empty or by ``patch``.

        Queries are the recovery unit of the DPV phase: a worker failure
        here (or mid-forward) resets ``_built``, the supervisor recovers
        the worker, and the whole build reruns from empty on every
        worker — ``build_dataplane`` without a patch is idempotent
        (fresh engine per call), and a recovered worker's routes come
        back from the store plus its OSPF checkpoint.
        """
        pending = [patch]

        def recovered(failed: int) -> None:
            self.stats.worker_failures += failed
            pending[0] = None

        self.supervisor.replay(
            lambda: self._build_once(pending[0]), recovered
        )

    def invalidate(self) -> None:
        """Force the next :meth:`build` to run — the serving path calls
        this after every committed delta so the FIBs reflect the new
        routes.  The classes stay until that build: a patch edits
        them."""
        self._built = False
        self._rows = {}
        self._touched = set()

    def _set_classes(self, prefixes: FrozenSet[Prefix]) -> None:
        """Take the union of the workers' FIB prefixes as the classes,
        build their atoms, and drop the memoized actions.

        The controller engine is never collected, so a class whose
        children are the previous build's keeps its atom; only new
        classes and those whose children changed build one."""
        classes = shortest_first(prefixes)
        parents = nearest_parents(classes)
        children = child_classes(parents)
        previous, kept = self._children, self._atoms
        stale = [
            prefix
            for prefix in classes
            if prefix not in self._classes
            or children.get(prefix) != previous.get(prefix)
        ]
        built = class_atoms(self.engine, self.encoding, stale, parents)
        stale_set = set(stale)
        self._atoms = {}
        for prefix in classes:
            atom = (built if prefix in stale_set else kept).get(prefix)
            if atom is not None:  # absent: the children cover the class
                self._atoms[prefix] = atom
        self._classes, self._parents, self._children = (
            prefixes, parents, children,
        )
        self._rows = {}
        self._touched = set()

    def _build_once(self, patch: Optional[DataPlanePatch]) -> None:
        if self._built:
            return
        with stopwatch() as clock, self.tracer.span(
            "dpo.build", category="dpo", patch=patch is not None
        ):
            # No index is foreign while the membership is unchanged.
            foreign = self.foreign()
            built = self.fleet.call_all(
                "build_dataplane",
                self.store.directory,
                self.encoding,
                self.node_limit,
                patch,
                *((foreign,) if foreign else ()),
            )
        self.stats.predicate_seconds += clock.seconds
        classes = frozenset().union(*built)
        if patch is None:
            self.stats.builds += 1
        else:
            self.stats.patches += 1
            classes |= self._classes - patch.prefixes
        self._set_classes(classes)
        self._built = True

    def compile_all(self) -> None:
        """Compile every device's predicates now, through the hook a
        first packet calls: Figure 10's phase 1, timed into
        ``predicate_seconds``, with the busiest worker's node count."""

        def compile_once():
            self._build_once(None)
            return self.fleet.call_all("compile_devices")

        def recovered(failed: int) -> None:
            self.stats.worker_failures += failed
            self._built = False

        with stopwatch() as clock, self.tracer.span(
            "dpo.compile", category="dpo"
        ) as span:
            compiled = self.supervisor.replay(compile_once, recovered)
            devices = sum(count for count, _ in compiled)
            span.set(compiled=devices)
        self.stats.predicate_seconds += clock.seconds
        self.stats.devices_compiled += devices
        self.stats.predicate_busiest_nodes += max(
            (nodes for _, nodes in compiled), default=0
        )

    # -- waypoints ------------------------------------------------------------

    def install_waypoints(self, transits: Sequence[str]) -> None:
        # Remembered so a mid-query recovery (which rebuilds the data
        # plane from scratch) can re-install them before the replay.
        self._transits = list(transits)
        self.supervisor.replay(self._install_waypoints, self._rebuild)

    def _install_waypoints(self) -> None:
        self.fleet.call_all("clear_waypoints")
        for index, transit in enumerate(self._transits):
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
        return self.supervisor.replay(
            lambda: self._forward_once(source_list, header_bdd, trace),
            self._rebuild,
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
                    for worker, sidecar, (_, batches, ops, compiled) in zip(
                        self.fleet.workers, self.fleet.sidecars, results
                    ):
                        worker.resources.bdd_ops += ops
                        self.stats.devices_compiled += compiled
                        for batch in batches.values():
                            crossed += len(batch.envelopes)
                            deliveries.append(sidecar.send_packets(batch))
                    settle_all(deliveries)  # lands before the next drain
                    batch_count = len(deliveries)
                    self.stats.forward_busiest_ops += max(
                        (result[2] for result in results), default=0
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

    # -- reachability by destination-class closure ----------------------------

    def reach_by_closure(
        self, query: Query, header: int
    ) -> Tuple[Dict[Tuple[str, str], int], int]:
        """The reachable pairs of every class ``header`` touches that no
        ACL touches, and the residual header space left to forwarding.

        With a waypoint bit installed the bits live inside the symbolic
        packets, so the whole header is the residual.  Pairs are
        ``header ∧ ⋁ atoms`` over the classes by which the source reaches
        the destination; a FALSE pair is never stored.
        """
        assert self._built, "call build() before reach_by_closure()"
        if self._transits:
            return {}, header
        engine = self.engine
        with stopwatch() as clock, self.tracer.span(
            "dpo.closure", category="dpo"
        ) as span:
            # The header's share of each class it touches.
            shares: Dict[Prefix, int] = {}
            for prefix, atom in self._atoms.items():
                share = atom if header == TRUE else engine.and_(header, atom)
                if share != FALSE:
                    shares[prefix] = share
            self.supervisor.replay(
                lambda: self._fetch_rows(list(shares)), self._rebuild
            )
            symbolic = [p for p in shares if p in self._touched]
            residual = engine.apply_many(
                OP_OR, (shares[p] for p in symbolic)
            )
            closed = {
                p: self._rows[p] for p in shares if p not in self._touched
            }
            groups, pairs = closure_pairs(
                closed, query.sources, query.destinations, self.max_hops
            )
            group_bdds = [
                engine.apply_many(OP_OR, (shares[p] for p in members))
                for members in groups
            ]
            reachable = {
                pair: engine.apply_many(
                    OP_OR, (group_bdds[index] for index in indexes)
                )
                for pair, indexes in pairs.items()
            }
            span.set(
                classes=len(shares),
                groups=len(groups),
                pairs=len(reachable),
                symbolic_classes=len(symbolic),
            )
        stats = self.stats
        stats.closure_seconds += clock.seconds
        stats.closure_classes += len(shares)
        stats.closure_groups += len(groups)
        stats.closure_pairs += len(reachable)
        stats.symbolic_classes += len(symbolic)
        if self.metrics is not None:
            self.metrics.counter("dpo.closure_pairs").inc(len(reachable))
            self.metrics.counter("dpo.symbolic_classes").inc(len(symbolic))
        return reachable, residual

    def _fetch_rows(self, wanted: List[Prefix]) -> None:
        """Fetch every device's actions for the ``wanted`` classes not
        memoized yet: one ``class_actions`` fan-out, device ids on the
        wire.  After a replay's rebuild the memo is empty again, so the
        missing set is taken inside the replayed unit."""
        missing = [p for p in wanted if p not in self._rows]
        if not missing:
            return
        request = with_ancestors(missing, self._parents)
        fresh: List[Dict[str, Action]] = [{} for _ in request]
        for rows, touched in self.fleet.call_all("class_actions", request):
            for device, actions in rows.items():
                for row, action in zip(fresh, actions):
                    row[device] = action
            self._touched.update(touched)
        self._rows.update(zip(request, fresh))

    # -- property checking ------------------------------------------------------------

    def checker(self) -> PropertyChecker:
        return PropertyChecker(
            self.engine,
            self.encoding,
            self.forward,
            install_waypoints=self.install_waypoints,
            reach_by_closure=self.reach_by_closure,
        )
