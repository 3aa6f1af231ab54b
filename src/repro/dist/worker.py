"""The S2 worker (§3.2): real nodes, shadow nodes, and per-worker DPV.

A worker hosts the :class:`~repro.routing.node.RouterNode` models of its
assigned switches ("real" nodes) and lightweight :class:`ShadowNode`
stand-ins for every switch hosted elsewhere.  A real node pulling routes
calls ``neighbor.advertise(...)`` without knowing which kind it got —
shadows answer from the worker's mailbox, which the sidecars fill with the
boundary advertisements of remote workers each round (the batched
equivalent of the paper's RPC relay, Figure 2).

Rounds are two-phase (compute exports, then pull), i.e. Jacobi iteration:
every node reads neighbor state as of the round start.  This is what makes
the distributed fixed point independent of how nodes are spread across
workers — S2's RIBs match the monolithic engine's exactly.

For the data plane the worker owns a private BDD engine (§4.3 option 2),
builds FIBs for its real nodes from the route store, compiles predicates,
and forwards symbolic packets; packets leaving its segment are serialized
into :class:`~repro.dist.message.PacketEnvelope` batches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..bdd.engine import BddEngine
from ..bdd.headerspace import HeaderEncoding
from ..bdd.serialize import SerializedBdd, deserialize, serialize
from ..config.loader import Snapshot
from ..dataplane.fib import NextHopResolver, build_fib
from ..dataplane.forwarding import (
    FinalPacket,
    ForwardingContext,
    PacketBuffer,
    SymbolicPacket,
)
from ..dataplane.predicates import compile_predicates
from ..net.ip import Prefix
from ..obs.tracer import NULL_TRACER, Tracer
from ..routing.node import Advertisement, RouterNode
from .faults import FaultPlan, InjectedWorkerCrash, StaleEpochError
from ..routing.ospf import OspfProcess
from ..routing.route import Route
from .message import (
    BoundaryExports,
    OspfExports,
    PacketBatch,
    PacketEnvelope,
    RouteBatch,
)
from .resources import WorkerResources
from .sharding import PrefixShard
from .storage import RouteStore, ShardRoutes


# What a shadow answers for a peer whose batch carried nothing: one shared
# object, so the puller's identity skip fires round after round.
_NO_ROUTES: Advertisement = ()

# A query boundary collects the data-plane engine only once its node table
# has grown past this multiple of the live count the previous collection
# left.  On the dpv-ft8 query pool the working set sits at ~1.7x the
# predicate footprint: 2x kept cycling collections (each one flushing the
# op cache), 4x holds the whole pool to the first boundary's collection.
_GC_GROWTH = 4


class Settled:
    """A call that already ran: ``result()`` returns its value or raises
    its error, like the socket proxy's pending calls once they land."""

    __slots__ = ("_value", "_error")

    def __init__(
        self, value: Any = None, error: Optional[BaseException] = None
    ) -> None:
        self._value, self._error = value, error

    def result(self) -> Any:
        if self._error is not None:
            raise self._error
        return self._value


class ShadowNode:
    """Stand-in for a switch hosted on another worker (§3.2).

    Behaves exactly like a real node from a neighbor's point of view: its
    ``advertise`` returns the routes the real node exported this round —
    read from the worker's mailbox instead of computed locally.
    """

    def __init__(self, name: str, worker: "Worker") -> None:
        self.name = name
        self._worker = worker

    def advertise(self, to_peer_addr: int, round_token: int = -1) -> Advertisement:
        return self._worker.mailbox.get((self.name, to_peer_addr), _NO_ROUTES)

    def advertise_ospf(
        self, to_peer_addr: int = None
    ) -> Dict[Prefix, Tuple[int, frozenset]]:
        return self._worker.ospf_mailbox.get((self.name, to_peer_addr), {})


@dataclass
class PullOutcome:
    changed: bool
    updates_processed: int
    candidate_routes: int
    # Hostnames whose RIB changed this round; what makes a
    # non-convergence diagnosable (the enriched ConvergenceError).
    changed_nodes: Tuple[str, ...] = ()
    # Change-driven rounds: exports returned unchanged from the previous
    # round (this round's phase A) and sessions whose import was skipped.
    exports_reused: int = 0
    imports_skipped: int = 0


class Worker:
    """One S2 worker: a segment's switch models plus the DPV context."""

    #: The remote surface: every method a controller may invoke over the
    #: wire, with exactly these signatures.  :meth:`call_nowait` refuses
    #: any other name, and the socket proxy's forwarders are generated
    #: from this table, so a new command is one method plus one entry.
    COMMANDS = frozenset((
        "ping",
        # serving
        "begin_epoch", "rebind_snapshot",
        # control plane
        "begin_shard", "compute_exports", "deliver_routes_many",
        "pull_round", "observed_dependencies", "flush_shard",
        # OSPF
        "has_ospf", "compute_ospf_exports", "pull_ospf_round",
        "install_ospf_routes", "export_ospf_state", "restore_ospf_state",
        # data plane
        "build_dataplane", "set_waypoint_bit", "clear_waypoints",
        "inject_header", "deliver_packets", "drain", "collect_finals",
        "reset_dataplane_run",
    ))

    def __init__(
        self,
        worker_id: int,
        snapshot: Snapshot,
        assignment: Dict[str, int],
        resources: Optional[WorkerResources] = None,
        max_hops: int = 24,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.worker_id = worker_id
        self.snapshot = snapshot
        self.assignment = assignment
        self.max_hops = max_hops
        self.tracer = tracer or NULL_TRACER
        self.resources = resources or WorkerResources(name=f"worker{worker_id}")
        self.nodes: Dict[str, RouterNode] = {}
        self.ospf: Dict[str, OspfProcess] = {}
        self._shadows: Dict[str, ShadowNode] = {}
        self.mailbox: Dict[Tuple[str, int], Advertisement] = {}
        self.ospf_mailbox: Dict[
            Tuple[str, int], Dict[Prefix, Tuple[int, frozenset]]
        ] = {}
        # Fault-tolerance state: the (controller-installed) injector for
        # in-process runtimes, per-source batch dedup, and the snapshot
        # of installed OSPF routes that checkpoint/replay ships around.
        self.fault_injector: Optional[FaultPlan] = None
        self._batch_sequences: Dict[int, int] = {}
        self.duplicate_batches = 0
        self._ospf_installed: Dict[str, Tuple] = {}
        # Serving epoch (-1 = never seeded).  A fresh or respawned worker
        # starts stale on purpose: it must fail the epoch fence until the
        # session (or the supervisor's recovery path) seeds it.
        self.epoch: int = -1
        self.last_round: int = -1
        self.last_phase: Optional[str] = None  # the last phase finished
        self._exports_reused = 0  # phase A's count, reported by phase B
        self._build_nodes()
        # -- data-plane state (populated by the DPO phase) --
        self.engine: Optional[BddEngine] = None
        self.encoding: Optional[HeaderEncoding] = None
        self.context: Optional[ForwardingContext] = None
        self._buffer: Optional[PacketBuffer] = None
        self._finals: List[FinalPacket] = []
        self._fib_entries = 0
        # Live node count the last collection left; 0 after a build, so
        # the first query boundary always collects.
        self._gc_floor = 0
        self._drop_engine_memos()
        # Received payloads resolved through the receive memo.
        self.payloads_reused = 0

    def _drop_engine_memos(self) -> None:
        """Forget cached node ids: the engine is new or renamed them.

        Both memos live from one build or collection to the next.
        """
        # node id -> serialized payload (what drain and finals ship)
        self._serialize_memo: Dict[int, SerializedBdd] = {}
        # serialized payload -> node id (what deliver_packets received)
        self._receive_memo: Dict[SerializedBdd, int] = {}

    def _build_nodes(self) -> None:
        for hostname, owner in sorted(self.assignment.items()):
            if owner == self.worker_id:
                config = self.snapshot.configs[hostname]
                self.nodes[hostname] = RouterNode(
                    config, self.snapshot.topology
                )
                self.ospf[hostname] = OspfProcess(
                    config, self.snapshot.topology
                )
        self.resources.node_count = len(self.nodes)

    # -- supervision -----------------------------------------------------

    def call_nowait(self, command: str, *args) -> Settled:
        """Run one of :attr:`COMMANDS` now, as the socket proxy's
        ``call_nowait`` issues it; ``result()`` raises any failure,
        including the refusal of any other name."""
        try:
            if command not in self.COMMANDS:
                raise LookupError(f"{command!r} is not a worker command")
            return Settled(getattr(self, command)(*args))
        except Exception as exc:  # noqa: BLE001 — raised at result()
            return Settled(error=exc)

    def ping(self) -> str:
        """Liveness probe; the heartbeat path of the supervisor."""
        return "pong"

    def status(self) -> Dict[str, Any]:
        """This worker's counters as one flat map: memory, the data-plane
        engine (``engine.*``, absent before a build), redelivered batches,
        and where the worker is (epoch, round, last phase).

        Local, not a command: the socket service appends it to every
        reply.  It reads only scalars and ``len()``, so a scrape thread
        may call it on a live in-process worker.
        """
        resources = self.resources
        status: Dict[str, Any] = {
            "epoch": self.epoch,
            "round": self.last_round,
            "phase": self.last_phase,
            "candidate_routes": resources.candidate_routes,
            "bdd_nodes": resources.bdd_nodes,
            "fib_entries": resources.fib_entries,
            "current_bytes": resources.current_bytes,
            "peak_bytes": resources.peak_bytes,
            "oom": resources.oom,
            "duplicate_batches": self.duplicate_batches,
        }
        engine = self.engine
        if engine is not None:
            for name, value in engine.counters().items():
                status["engine." + name] = value
            status["engine.gc_floor"] = self._gc_floor
            status["engine.payloads_reused"] = self.payloads_reused
        return status

    def reset(self) -> None:
        """Rebuild this worker from scratch *in place* (identity kept).

        The in-process equivalent of respawning a crashed worker process:
        every RIB, mailbox, shadow, and data-plane structure is discarded
        and the node models are rebuilt from the snapshot.  The caller
        (the supervisor) restores the OSPF checkpoint afterwards and the
        CPO replays the interrupted shard.
        """
        self.nodes.clear()
        self.ospf.clear()
        self._shadows.clear()
        self.mailbox.clear()
        self.ospf_mailbox.clear()
        self._batch_sequences.clear()
        self._ospf_installed = {}
        self.epoch = -1
        self.last_round = -1
        self.last_phase = None
        self._build_nodes()
        self.engine = None
        self.encoding = None
        self.context = None
        self._buffer = None
        self._finals = []
        self._fib_entries = 0
        self._gc_floor = 0
        self._drop_engine_memos()
        self.payloads_reused = 0

    def _inject(self, site: str, round_token: Optional[int] = None) -> None:
        """Consult the fault plan at an in-process phase boundary."""
        if self.fault_injector is None:
            return
        spec = self.fault_injector.on_phase(self.worker_id, site, round_token)
        if spec is None:
            return
        if spec.kind in ("crash", "host_loss"):
            raise InjectedWorkerCrash(
                f"worker {self.worker_id} crashed (injected, at {site})",
                worker_id=self.worker_id,
                command=site,
            )
        if spec.kind == "delay":
            time.sleep(spec.delay)

    # -- node resolution -------------------------------------------------

    def _resolve(self, name: str):
        node = self.nodes.get(name)
        if node is not None:
            return node
        shadow = self._shadows.get(name)
        if shadow is None:
            shadow = ShadowNode(name, self)
            self._shadows[name] = shadow
        return shadow

    def owns(self, name: str) -> bool:
        return name in self.nodes

    # -- serving: epoch fence and in-place snapshot rebind -----------------

    def begin_epoch(self, epoch: int) -> int:
        """Seed the worker's serving epoch; returns the installed value."""
        self.epoch = epoch
        return self.epoch

    def _fence_epoch(self, expected: Optional[int]) -> None:
        if expected is not None and self.epoch != expected:
            raise StaleEpochError(
                f"worker {self.worker_id} is at epoch {self.epoch}, "
                f"controller expects {expected}",
                worker_id=self.worker_id,
                command="begin_shard",
            )

    def rebind_snapshot(
        self,
        snapshot: Snapshot,
        changed_hosts: Sequence[str] = (),
        epoch: Optional[int] = None,
    ) -> None:
        """Swap in a delta'd snapshot without discarding resident state.

        The incremental path for announce-only deltas: topology, the
        assignment, and the IGP result are unchanged by construction, so
        only the changed devices' node models are rebuilt (their OSPF
        routes reinstalled from the retained checkpoint); every other
        node keeps its warm state.  ``epoch``, when given, seeds the
        fence in the same call — one RPC instead of two per worker.
        """
        self.snapshot = snapshot
        for hostname in changed_hosts:
            if self.assignment.get(hostname) != self.worker_id:
                continue
            config = snapshot.configs[hostname]
            self.nodes[hostname] = RouterNode(config, snapshot.topology)
            self.ospf[hostname] = OspfProcess(config, snapshot.topology)
            for route in self._ospf_installed.get(hostname, ()):
                self.nodes[hostname].main_rib.add(route)
        self.mailbox.clear()
        self.ospf_mailbox.clear()
        if epoch is not None:
            self.epoch = epoch

    # -- control plane: shard lifecycle ------------------------------------

    def begin_shard(
        self, shard: Optional[PrefixShard], epoch: Optional[int] = None
    ) -> None:
        self._fence_epoch(epoch)
        prefixes = shard.prefixes if shard is not None else None
        for node in self.nodes.values():
            node.begin_shard(prefixes)
        self.mailbox.clear()

    def finish_shard(self) -> ShardRoutes:
        """Collect the shard's selected routes and free the RIBs."""
        result: ShardRoutes = {}
        for hostname, node in self.nodes.items():
            selected = node.finish_shard()
            if selected:
                result[hostname] = selected
            node.begin_shard(frozenset())  # free per-shard memory
        self.mailbox.clear()
        self.update_memory(enforce=False)
        return result

    def observed_dependencies(self) -> set:
        """Runtime-discovered (prefix, watched-prefix) dependencies (§7),
        aggregated across this worker's real nodes for the current shard."""
        found: set = set()
        for node in self.nodes.values():
            found |= node.observed_dependencies
        return found

    def flush_shard(self, store_dir: str, shard_index: int) -> Tuple[int, int]:
        """Finish the shard and persist it (§3.1: write to disk).

        Returns ``(bytes written, selected routes)``.  In the socket
        runtime this happens inside the worker process, so converged RIBs
        never travel over the wire.
        """
        self._inject("flush_shard")
        with self.tracer.span(
            "worker.flush", category="cpo", shard=shard_index
        ) as span:
            shard_routes = self.finish_shard()
            written = RouteStore(store_dir).write_shard(
                self.worker_id, shard_index, shard_routes
            )
            selected = sum(
                len(routes)
                for node_routes in shard_routes.values()
                for routes in node_routes.values()
            )
            span.set(bytes=written, selected=selected)
        self.last_phase = "flush_shard"
        return written, selected

    # -- control plane: one round (two phases) ---------------------------------

    def compute_exports(self, round_token: int) -> Dict[int, RouteBatch]:
        """Phase A: every real node computes this round's exports.

        Local sessions are warmed into the node's export cache; sessions
        whose importer lives elsewhere are batched per target worker.
        """
        self._inject("compute_exports", round_token)
        self.last_round = round_token
        boundary: Dict[int, BoundaryExports] = {}
        computed = self._node_total("exports_computed")
        reused = self._node_total("exports_reused")
        with self.tracer.span(
            "worker.exports", category="cpo", round=round_token
        ) as span:
            for hostname, node in sorted(self.nodes.items()):
                for session in node.sessions:
                    exports = node.advertise(session.peer_ip, round_token)
                    owner = self.assignment.get(session.neighbor)
                    if owner is None or owner == self.worker_id:
                        continue
                    boundary.setdefault(owner, {})[
                        (hostname, session.peer_ip)
                    ] = exports
            self._exports_reused = self._node_total("exports_reused") - reused
            span.set(
                boundary_targets=len(boundary),
                computed=self._node_total("exports_computed") - computed,
                reused=self._exports_reused,
            )
        self.last_phase = "compute_exports"
        return {
            target: RouteBatch(
                source_worker=self.worker_id,
                target_worker=target,
                round_token=round_token,
                exports=exports,
            )
            for target, exports in boundary.items()
        }

    def deliver_routes(self, batch: RouteBatch) -> None:
        """Sidecar delivery: fill the mailbox the shadows answer from.

        Deliveries are deduplicated by the batch's per-sender sequence
        number: an RPC transport may redeliver on retry, and applying a
        batch twice must not double-count (the mailbox overwrite is
        idempotent, but the worker's status should show it happened).
        """
        last = self._batch_sequences.get(batch.source_worker)
        if last is not None and batch.sequence == last:
            self.duplicate_batches += 1
            return
        if batch.sequence:
            self._batch_sequences[batch.source_worker] = batch.sequence
        for key, routes in batch.exports.items():
            self.mailbox[key] = routes
        if batch.ospf_exports:
            for key, vector in batch.ospf_exports.items():
                self.ospf_mailbox[key] = vector

    def deliver_routes_many(self, batches: Sequence[RouteBatch]) -> None:
        """Deliver one round's worth of batches in a single call.

        The pipelined exchange path coalesces every batch bound for this
        worker into one RPC per round, so a remote runtime pays one
        round trip per (sender set, receiver) instead of one per batch.
        Dedup semantics are per-batch, identical to repeated
        :meth:`deliver_routes` calls.
        """
        for batch in batches:
            self.deliver_routes(batch)

    def pull_round(self, round_token: int) -> PullOutcome:
        """Phase B: every real node pulls from its (real or shadow) peers."""
        self._inject("pull_round", round_token)
        self.last_round = round_token
        changed_nodes: List[str] = []
        skipped = self._node_total("imports_skipped")
        with self.tracer.span(
            "worker.pull", category="cpo", round=round_token
        ) as span:
            for hostname in sorted(self.nodes):
                node = self.nodes[hostname]
                if node.pull_round(self._resolve, round_token):
                    changed_nodes.append(hostname)
            # A node's count cannot change after its own pull, so the
            # per-round update work equals the end-of-round total.
            candidates = sum(
                node.route_count() for node in self.nodes.values()
            )
            skipped = self._node_total("imports_skipped") - skipped
            span.set(
                updates=candidates,
                changed=len(changed_nodes),
                imports_skipped=skipped,
            )
        # The round's memory estimate, taken before anything else touches
        # this worker's state (the next round's deliveries).
        self.update_memory()
        self.last_phase = "pull_round"
        reused, self._exports_reused = self._exports_reused, 0
        return PullOutcome(
            changed=bool(changed_nodes),
            updates_processed=candidates,
            candidate_routes=candidates,
            changed_nodes=tuple(changed_nodes),
            exports_reused=reused,
            imports_skipped=skipped,
        )

    def _node_total(self, counter: str) -> int:
        """Sum one of the nodes' change-driven round counters."""
        return sum(getattr(node, counter) for node in self.nodes.values())

    # -- control plane: OSPF rounds ----------------------------------------------

    def has_ospf(self) -> bool:
        return any(process.enabled for process in self.ospf.values())

    def compute_ospf_exports(self) -> Dict[int, RouteBatch]:
        boundary: Dict[int, OspfExports] = {}
        for hostname, process in sorted(self.ospf.items()):
            if not process.enabled:
                continue
            for adjacency in process.adjacencies:
                owner = self.assignment.get(adjacency.neighbor)
                if owner is None or owner == self.worker_id:
                    continue
                # The remote puller identifies itself by its own local
                # address, which is this adjacency's peer address.
                boundary.setdefault(owner, {})[
                    (hostname, adjacency.peer_addr)
                ] = process.advertise_ospf(adjacency.peer_addr)
        return {
            target: RouteBatch(
                source_worker=self.worker_id,
                target_worker=target,
                round_token=-1,
                exports={},
                ospf_exports=exports,
            )
            for target, exports in boundary.items()
        }

    def pull_ospf_round(self) -> bool:
        self._inject("pull_ospf_round", -1)
        changed = False
        with self.tracer.span("worker.ospf_pull", category="cpo") as span:
            for hostname in sorted(self.ospf):
                process = self.ospf[hostname]
                changed |= process.pull_round(self._resolve_ospf)
            span.set(changed=changed)
        return changed

    def _resolve_ospf(self, name: str):
        process = self.ospf.get(name)
        if process is not None:
            return process
        return self._resolve(name)  # shadow answers advertise_ospf

    def install_ospf_routes(self) -> None:
        for hostname, process in self.ospf.items():
            node = self.nodes[hostname]
            routes = tuple(process.routes())
            for route in routes:
                node.main_rib.add(route)
            if routes:
                self._ospf_installed[hostname] = routes

    # -- OSPF checkpoint (respawn replay / resume) -----------------------

    def export_ospf_state(self) -> Dict[str, Tuple]:
        """The installed OSPF routes, as checkpointed by the supervisor."""
        return dict(self._ospf_installed)

    def restore_ospf_state(self, state: Optional[Dict[str, Tuple]]) -> None:
        """Reinstall a checkpointed OSPF result without re-running the IGP.

        ``MainRib.add`` dedupes, so restoring on a worker that already
        holds (some of) the routes is harmless — the property respawn
        replay and resume both lean on.
        """
        if not state:
            return
        for hostname, routes in state.items():
            node = self.nodes.get(hostname)
            if node is None:
                continue
            for route in routes:
                node.main_rib.add(route)
        self._ospf_installed = dict(state)

    # -- resource accounting -------------------------------------------------------

    def update_memory(self, enforce: bool = True) -> int:
        candidates = sum(node.route_count() for node in self.nodes.values())
        candidates += sum(len(routes) for routes in self.mailbox.values())
        bdd_nodes = self.engine.node_count if self.engine is not None else 0
        return self.resources.update_memory(
            candidates,
            bdd_nodes,
            fib_entries=self._fib_entries,
            enforce=enforce,
        )

    # -- data plane -------------------------------------------------------------------

    def build_dataplane(
        self,
        store_dir: str,
        encoding: HeaderEncoding,
        node_limit: int = 1 << 24,
    ) -> Tuple[int, int]:
        """Build FIBs (from the route store) and compile predicates into
        this worker's private engine.  Returns the BDD ops spent and the
        nodes the fresh engine holds afterwards (phase 1 of Figure 10).
        Idempotent: a rebuild (after worker recovery or a commit) starts
        from a fresh engine and FIB count."""
        self._inject("build_dataplane")
        # Release the previous data plane before allocating the next, so
        # a rebuild never holds two engines (and two op caches) at once.
        self.engine = self.context = self._buffer = None
        self._drop_engine_memos()
        resolver = NextHopResolver.from_snapshot(self.snapshot)
        self.encoding = encoding
        self._fib_entries = 0
        self.engine = encoding.make_engine(node_limit=node_limit)
        self.engine.tracer = self.tracer if self.tracer.enabled else None
        self.context = ForwardingContext(
            self.engine,
            encoding,
            self.snapshot.topology,
            max_hops=self.max_hops,
        )
        self._buffer = PacketBuffer(self.engine)
        with self.tracer.span("worker.build_dataplane", category="dpo") as span:
            merged = RouteStore(store_dir).merged_routes(self.worker_id)
            ops_before = self.engine.ops
            for hostname, node in sorted(self.nodes.items()):
                with self.engine.batch("bdd.compile", node=hostname):
                    main_routes: List[Route] = []
                    for prefix in node.main_rib.prefixes():
                        main_routes.extend(node.main_rib.routes_for(prefix))
                    fib = build_fib(
                        hostname,
                        node.local_prefixes,
                        main_routes,
                        merged.get(hostname, {}),
                        resolver,
                    )
                    self._fib_entries += len(fib)
                    self.context.add_node(
                        compile_predicates(
                            self.snapshot.configs[hostname],
                            fib,
                            self.engine,
                            self.encoding,
                        )
                    )
            ops = self.engine.ops - ops_before
            nodes = self.engine.node_count
            span.set(fib_entries=self._fib_entries, bdd_ops=ops, nodes=nodes)
        # The compiled predicates are the engine's permanent roots: they
        # must survive every between-query GC for the lifetime of this
        # data plane.
        for predicates in self.context.predicates.values():
            for root in predicates.roots():
                self.engine.add_root(root)
        self._gc_floor = 0
        self.update_memory()
        self.last_phase = "build_dataplane"
        return ops, nodes

    def set_waypoint_bit(self, node: str, metadata_index: int) -> None:
        if self.context is not None and self.owns(node):
            self.context.set_waypoint_bit(node, metadata_index)

    def clear_waypoints(self) -> None:
        if self.context is not None:
            self.context.waypoint_bits.clear()

    def inject_header(self, sources: List[str], header_payload, trace: bool) -> None:
        """Inject a (serialized) header-space BDD at owned source nodes."""
        assert self.engine is not None and self.context is not None
        header = deserialize(self.engine, header_payload)
        for source in sources:
            if not self.owns(source):
                continue
            self._buffer.push(
                SymbolicPacket(
                    bdd=header,
                    node=source,
                    in_port=None,
                    hops=0,
                    source=source,
                    path=(source,) if trace else None,
                )
            )

    def deliver_packets(self, batch: PacketBatch) -> None:
        """Queue a peer's symbolic packets in this worker's engine.

        Payloads are canonical tuples (equal after a pickle round trip),
        so one already rebuilt since the last collection is looked up in
        the receive memo instead of re-running its ``mk`` calls.
        """
        assert self.engine is not None
        memo = self._receive_memo
        for envelope in batch.envelopes:
            bdd = memo.get(envelope.payload)
            if bdd is None:
                bdd = deserialize(self.engine, envelope.payload)
                memo[envelope.payload] = bdd
            else:
                self.payloads_reused += 1
            self._buffer.push(
                SymbolicPacket(
                    bdd=bdd,
                    node=envelope.node,
                    in_port=envelope.in_port,
                    hops=envelope.hops,
                    source=envelope.source,
                    path=envelope.path,
                )
            )

    def drain(self) -> Tuple[int, Dict[int, PacketBatch], int]:
        """Process the local queue to exhaustion (one DPO superstep).

        Returns (finals produced, per-target outgoing batches, BDD ops).
        """
        self._inject("drain")
        assert self.context is not None and self.engine is not None
        ops_before = self.engine.ops
        outgoing: Dict[int, List[PacketEnvelope]] = {}
        produced = 0
        with self.tracer.span("worker.drain", category="dpo") as span:
            waves = 0
            while self._buffer:
                with self.engine.batch("bdd.wave", wave=waves):
                    waves += 1
                    for packet in self._buffer.pop_wave():
                        finals, forwarded = self.context.process(packet)
                        self._finals.extend(finals)
                        produced += len(finals)
                        for hop in forwarded:
                            owner = self.assignment.get(
                                hop.node, self.worker_id
                            )
                            if owner == self.worker_id:
                                self._buffer.push(hop)
                            else:
                                outgoing.setdefault(owner, []).append(
                                    PacketEnvelope(
                                        payload=self._serialized(hop.bdd),
                                        node=hop.node,
                                        in_port=hop.in_port,
                                        hops=hop.hops,
                                        source=hop.source,
                                        path=hop.path,
                                    )
                                )
            span.set(
                waves=waves,
                finals=produced,
                bdd_ops=self.engine.ops - ops_before,
            )
        self.update_memory()
        self.last_phase = "drain"
        batches = {
            target: PacketBatch(
                source_worker=self.worker_id,
                target_worker=target,
                envelopes=tuple(envelopes),
            )
            for target, envelopes in outgoing.items()
        }
        return produced, batches, self.engine.ops - ops_before

    def _serialized(self, bdd: int) -> SerializedBdd:
        """Serialize a node id, memoized until the next GC renames ids.

        The same symbolic packet routinely leaves a worker several times
        (ECMP fans a wave out to many peers, and repeated queries revisit
        the same predicates), so the children-first DFS is worth caching.
        """
        payload = self._serialize_memo.get(bdd)
        if payload is None:
            payload = serialize(self.engine, bdd)
            self._serialize_memo[bdd] = payload
        return payload

    def collect_finals(self) -> List[dict]:
        """Serialize accumulated finals for the controller's engine."""
        assert self.engine is not None
        collected = []
        for final in self._finals:
            collected.append(
                {
                    "state": final.state,
                    "node": final.node,
                    "payload": self._serialized(final.bdd),
                    "source": final.source,
                    "hops": final.hops,
                    "path": final.path,
                    "out_port": final.out_port,
                }
            )
        return collected

    def reset_dataplane_run(self) -> None:
        """Clear per-query state (queue + finals), keeping predicates.

        This is the between-query boundary, and the one point where a
        worker's engine can be safely garbage-collected: the previous
        query's finals have been serialized to the controller, so the
        compiled predicates (the registered roots) are the only node ids
        that must survive.  It collects only on growth — once the node
        table exceeds ``_GC_GROWTH`` times the live count the previous
        collection left — so queries in between share a warm node table,
        op cache and both payload memos, while the footprint stays
        bounded by that multiple of the predicate footprint.  The floor
        is 0 after a build, so the first boundary always collects.
        """
        assert self.engine is not None
        self._buffer = PacketBuffer(self.engine)
        self._finals.clear()
        if self.engine.node_count > _GC_GROWTH * self._gc_floor:
            self.collect_engine_garbage()

    def collect_engine_garbage(self) -> int:
        """Mark-and-sweep the data-plane engine from the predicate roots.

        Only valid when no query is in flight (empty buffer and finals —
        their node ids are not registered as roots).  Ids are renamed, so
        both payload memos go and the live count becomes the new growth
        floor.  Returns the number of nodes reclaimed by this collection.
        """
        if self.engine is None or self.context is None:
            return 0
        before = self.engine.node_count
        remap = self.engine.collect_garbage()
        for predicates in self.context.predicates.values():
            predicates.remap(remap)
        self._drop_engine_memos()
        self._gc_floor = self.engine.node_count
        self.update_memory(enforce=False)
        return before - self.engine.node_count
