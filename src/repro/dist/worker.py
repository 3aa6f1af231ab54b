"""The S2 worker (§3.2): real nodes, shadow nodes, and per-worker DPV.

A worker hosts the :class:`~repro.routing.node.RouterNode` models of its
assigned switches ("real" nodes) and lightweight :class:`ShadowNode`
stand-ins for every switch hosted elsewhere.  A real node pulling routes
calls ``neighbor.advertise(...)`` without knowing which kind it got —
shadows answer from the worker's mailbox, which each ``step`` fills with
the boundary advertisements remote workers changed (the batched
equivalent of the paper's RPC relay, Figure 2).

Rounds are two-phase (compute exports, then pull), i.e. Jacobi iteration:
every node reads neighbor state as of the round start.  This is what makes
the distributed fixed point independent of how nodes are spread across
workers — S2's RIBs match the monolithic engine's exactly.  One ``step``
call is one superstep: it delivers the previous round's inbound batches,
pulls that round, and computes the next round's exports.

For the data plane the worker owns a private BDD engine (§4.3 option 2),
builds FIBs for its real nodes from the route store (or patches them after
an announce-only epoch), compiles a device's predicates on the first
symbolic packet that reaches it, and forwards symbolic packets; packets
leaving its segment are serialized into
:class:`~repro.dist.message.PacketEnvelope` batches.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, replace
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..bdd.engine import BddEngine
from ..bdd.headerspace import HeaderEncoding
from ..bdd.serialize import SerializedBdd, deserialize, serialize
from ..config.ast import DeviceConfig
from ..config.loader import Snapshot
from ..dataplane.classes import (
    RECEIVE,
    SINK,
    Action,
    device_actions,
    parent_indexes,
)
from ..dataplane.fib import Fib, FibAction, NextHopResolver, fib_entry
from ..dataplane.forwarding import (
    FinalPacket,
    ForwardingContext,
    PacketBuffer,
    SymbolicPacket,
)
from ..dataplane.predicates import PortPredicates, compile_predicates
from ..net.ip import Prefix
from ..obs.tracer import NULL_TRACER, Tracer
from ..routing.node import Advertisement, RouterNode
from .faults import (
    CRASH_KINDS,
    FaultPlan,
    InjectedWorkerCrash,
    StaleEpochError,
)
from ..routing.ospf import OspfProcess
from ..routing.route import BgpRoute
from .message import (
    BoundaryExports,
    DataPlanePatch,
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
    # Per-prefix route transforms (export and import) this round: run, or
    # carried over because the route was the one transformed last time.
    transforms_computed: int = 0
    transforms_reused: int = 0
    # §7 refinement: the (prefix, watch) dependencies this worker's nodes
    # observed since ``begin_shard`` whose watch lies outside the batch's
    # union — a DPDG edge the packing missed; the CPO grows the batch.
    unmet_dependencies: FrozenSet[Tuple[Prefix, Prefix]] = frozenset()


def _acl_bound(config, iface: str, direction: str) -> bool:
    """Whether ``iface`` filters with a defined ACL in ``direction``
    (``acl_in`` / ``acl_out``), as :func:`compile_predicates` binds one."""
    interface = config.interfaces.get(iface) if config is not None else None
    name = getattr(interface, direction, None)
    return name is not None and name in config.acls


class Worker:
    """One S2 worker: a segment's switch models plus the DPV context."""

    #: The remote surface: every method a controller may invoke, on
    #: either runtime only through ``call_nowait``, which refuses any
    #: other name; a new command is one method plus one entry.
    COMMANDS = frozenset((
        "ping",
        # serving
        "begin_epoch", "rebind_snapshot",
        # control plane
        "begin_shard", "step", "flush_shard",
        # OSPF
        "install_ospf_routes", "export_ospf_state", "restore_ospf_state",
        # data plane
        "build_dataplane", "set_waypoint_bit", "clear_waypoints",
        "inject_header", "deliver_packets", "drain", "collect_finals",
        "reset_dataplane_run", "class_actions", "compile_devices",
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
        # Boundary session -> the export tuple last shipped on it: a step
        # ships only the sessions whose tuple is not this one.
        self._shipped: Dict[Tuple[str, int], Advertisement] = {}
        self.ospf_mailbox: Dict[
            Tuple[str, int], Dict[Prefix, Tuple[int, frozenset]]
        ] = {}
        # Fault-tolerance state: the pool-installed fault plan that
        # ``call_nowait`` consults, per-source batch dedup, and the snapshot
        # of installed OSPF routes that checkpoint/replay ships around.
        self.fault_plan: Optional[FaultPlan] = None
        self._batch_sequences: Dict[int, int] = {}
        self.duplicate_batches = 0
        self._ospf_installed: Dict[str, Tuple] = {}
        # Serving epoch (-1 = never seeded).  A fresh or respawned worker
        # starts stale on purpose: it must fail the epoch fence until the
        # session (or the supervisor's recovery path) seeds it.
        self.epoch: int = -1
        self.last_round: int = -1
        self.last_phase: Optional[str] = None  # the last phase finished
        # Phase A's round counters (``_node_totals``), reported by phase B.
        self._phase_a: Counter = Counter()
        # The batch's selected routes between its first and last flush.
        self._selected: Optional[ShardRoutes] = None
        self._build_nodes()
        # -- data-plane state (populated by the DPO phase) --
        self.engine: Optional[BddEngine] = None
        self.encoding: Optional[HeaderEncoding] = None
        self.context: Optional[ForwardingContext] = None
        self._buffer: Optional[PacketBuffer] = None
        self._finals: List[FinalPacket] = []
        self._fibs: Dict[str, Fib] = {}
        self._fib_entries = 0
        self._resolver: Optional[NextHopResolver] = None
        # Devices compiled by this worker, counted where the compile runs.
        self.devices_compiled = 0
        # Live node count the last collection left plus what compiles
        # added since; 0 after a build, so the first query boundary
        # always collects.  Nodes from ``_gc_mark`` up were created after
        # the collection or build; ``_gc_counted`` are those a compile
        # counted into the floor.
        self._gc_floor = 0
        self._gc_mark = 0
        self._gc_counted: Set[int] = set()
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
        including the refusal of any other name.

        Injected call faults apply here, as at the proxy: a delay sleeps,
        and a crash fails the call with :class:`InjectedWorkerCrash`
        before the command runs.  Every call is counted in
        ``resources.calls``.
        """
        self.resources.calls += 1
        try:
            if command not in self.COMMANDS:
                raise LookupError(f"{command!r} is not a worker command")
            if self.fault_plan is not None:
                spec = self.fault_plan.on_call(self.worker_id, command)
                if spec is not None and spec.kind in CRASH_KINDS:
                    raise InjectedWorkerCrash(
                        f"worker {self.worker_id} crashed (injected, at "
                        f"{command})",
                        worker_id=self.worker_id,
                        command=command,
                    )
                if spec is not None:
                    time.sleep(spec.delay)
            return Settled(getattr(self, command)(*args))
        except Exception as exc:  # noqa: BLE001 — raised at result()
            return Settled(error=exc)

    def ping(self) -> str:
        """A round trip that touches no state: a probe for tests and
        operators (the supervisor detects failures by the round calls)."""
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
        self._clear_mailboxes()
        self._batch_sequences.clear()
        self._ospf_installed = {}
        self.epoch = -1
        self.last_round = -1
        self.last_phase = None
        self._selected = None
        self._build_nodes()
        self.engine = None
        self.encoding = None
        self.context = None
        self._buffer = None
        self._finals = []
        self._fibs = {}
        self._fib_entries = 0
        self._resolver = None
        self.devices_compiled = 0
        self._gc_floor = self._gc_mark = 0
        self._gc_counted = set()
        self._drop_engine_memos()
        self.payloads_reused = 0

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
        configs: Dict[str, DeviceConfig],
        epoch: Optional[int] = None,
    ) -> None:
        """Swap in the changed devices' configs without discarding
        resident state.

        The incremental path for announce-only deltas: topology, the
        assignment, and the IGP result are unchanged by construction, so
        ``configs`` holds only the changed hosts.  Every worker patches
        its snapshot's config map (``_egress`` reads peers' ACLs), and
        rebuilds the node models of the hosts it owns (their OSPF routes
        reinstalled from the retained checkpoint); every other node keeps
        its warm state.  ``epoch``, when given, seeds the fence in the
        same call — one RPC instead of two per worker.
        """
        snapshot = self.snapshot = replace(
            self.snapshot, configs={**self.snapshot.configs, **configs}
        )
        for hostname, config in configs.items():
            if self.assignment.get(hostname) != self.worker_id:
                continue
            self.nodes[hostname] = RouterNode(config, snapshot.topology)
            self.ospf[hostname] = OspfProcess(config, snapshot.topology)
            for route in self._ospf_installed.get(hostname, ()):
                self.nodes[hostname].main_rib.add(route)
        self._clear_mailboxes()
        if epoch is not None:
            self.epoch = epoch

    # -- control plane: shard lifecycle ------------------------------------

    def begin_shard(
        self, shard: Optional[PrefixShard], epoch: Optional[int] = None
    ) -> None:
        """Start converging ``shard``'s prefixes (a batch's union of
        shards, or None for every prefix) from an empty state."""
        self._fence_epoch(epoch)
        prefixes = shard.prefixes if shard is not None else None
        for node in self.nodes.values():
            node.begin_shard(prefixes)
        self._clear_mailboxes()
        self._selected = None

    def _clear_mailboxes(self) -> None:
        """Forget every received advertisement and, with them, what was
        shipped: the next step must ship every boundary session."""
        self.mailbox.clear()
        self.ospf_mailbox.clear()
        self._shipped.clear()

    def finish_shard(self) -> ShardRoutes:
        """Collect the shard's selected routes and free the RIBs."""
        result: ShardRoutes = {}
        for hostname, node in self.nodes.items():
            selected = node.finish_shard()
            if selected:
                result[hostname] = selected
            node.begin_shard(frozenset())  # free per-shard memory
        self._clear_mailboxes()
        self.update_memory(enforce=False)
        return result

    def flush_shard(
        self,
        store_dir: str,
        parts: Sequence[Tuple[int, Optional[PrefixShard]]],
    ) -> List[Tuple[int, int]]:
        """Persist a converged batch's routes (§3.1: write to disk), one
        file per ``(flush index, shard)`` part.

        The first flush after ``begin_shard`` finishes the RIBs; each
        part takes only ``shard``'s prefixes (None: every converged
        route).  Returns ``(bytes written, selected routes)`` per part.
        In the socket runtime this happens inside the worker process, so
        converged RIBs never travel over the wire.
        """
        if self._selected is None:
            self._selected = self.finish_shard()
        results = []
        for shard_index, shard in parts:
            with self.tracer.span(
                "worker.flush", category="cpo", shard=shard_index
            ) as span:
                shard_routes = self._take_selected(shard)
                written = RouteStore(store_dir).write_shard(
                    self.worker_id, shard_index, shard_routes
                )
                selected = sum(
                    len(routes)
                    for node_routes in shard_routes.values()
                    for routes in node_routes.values()
                )
                span.set(bytes=written, selected=selected)
            results.append((written, selected))
        self.last_phase = "flush_shard"
        return results

    def _take_selected(self, shard: Optional[PrefixShard]) -> ShardRoutes:
        """Remove and return ``shard``'s part of the finished batch."""
        selected = self._selected
        if shard is None:
            self._selected = {}
            return selected
        taken: ShardRoutes = {}
        for hostname, routes in selected.items():
            part = {
                prefix: routes.pop(prefix)
                for prefix in shard.prefixes
                if prefix in routes
            }
            if part:
                taken[hostname] = part
        return taken

    # -- control plane: one superstep per round ---------------------------

    def step(
        self,
        round_token: int,
        inbound: Sequence[RouteBatch] = (),
        full: bool = False,
        ospf: bool = False,
    ) -> Tuple[int, Any, Tuple[RouteBatch, ...]]:
        """One superstep: deliver ``inbound`` (round ``round_token - 1``'s
        boundary batches, deduplicated per sender), pull that round
        (not at round 0), then compute round ``round_token``'s exports.

        Returns ``(duplicates discarded, the pull's outcome or None,
        outbound batches)``; the outcome is a :class:`PullOutcome`, or
        with ``ospf`` (an IGP round) the changed flag.  BGP ships only
        the boundary sessions whose export changed since it last shipped
        them, or every one when ``full``.
        """
        before = self.duplicate_batches
        for batch in inbound:
            self.deliver_routes(batch)
        outcome = None
        if round_token > 0:
            outcome = (
                self.pull_ospf_round() if ospf
                else self.pull_round(round_token - 1)
            )
        outbound = (
            self.compute_ospf_exports() if ospf
            else self.compute_exports(round_token, full)
        )
        self.last_phase = "step"
        return (
            self.duplicate_batches - before, outcome, tuple(outbound.values())
        )

    def compute_exports(
        self, round_token: int, full: bool = True
    ) -> Dict[int, RouteBatch]:
        """Phase A: every real node computes this round's exports.

        Local sessions are warmed into the node's export cache; sessions
        whose importer lives elsewhere are batched per target worker —
        unless not ``full`` and the tuple is the one last shipped (a node
        returns the same tuple while its state has not moved), which the
        receiver's mailbox still holds.
        """
        self.last_round = round_token
        boundary: Dict[int, BoundaryExports] = {}
        shipped = self._shipped
        before = self._node_totals()
        with self.tracer.span(
            "worker.exports", category="cpo", round=round_token
        ) as span:
            for hostname, node in sorted(self.nodes.items()):
                for session in node.sessions:
                    exports = node.advertise(session.peer_ip, round_token)
                    owner = self.assignment.get(session.neighbor)
                    if owner is None or owner == self.worker_id:
                        continue
                    key = (hostname, session.peer_ip)
                    if not full and shipped.get(key) is exports:
                        continue
                    shipped[key] = exports
                    boundary.setdefault(owner, {})[key] = exports
            delta = self._phase_a = self._node_totals()
            delta.subtract(before)
            span.set(
                boundary_targets=len(boundary),
                shipped=sum(map(len, boundary.values())),
                computed=delta["exports_computed"],
                reused=delta["exports_reused"],
                transforms_computed=delta["transforms_computed"],
                transforms_reused=delta["transforms_reused"],
            )
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
        """One inbound batch of a step: fill the mailbox the shadows
        answer from.

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

    def pull_round(self, round_token: int) -> PullOutcome:
        """Phase B: every real node pulls from its (real or shadow) peers."""
        self.last_round = round_token
        changed_nodes: List[str] = []
        before = self._node_totals()
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
            delta = self._node_totals()
            delta.subtract(before)
            span.set(
                updates=candidates,
                changed=len(changed_nodes),
                imports_skipped=delta["imports_skipped"],
                transforms_computed=delta["transforms_computed"],
                transforms_reused=delta["transforms_reused"],
            )
        # The round's memory estimate, taken before anything else touches
        # this worker's state (the next round's deliveries).
        self.update_memory()
        phase_a, self._phase_a = self._phase_a, Counter()
        both = phase_a + delta
        return PullOutcome(
            changed=bool(changed_nodes),
            updates_processed=candidates,
            candidate_routes=candidates,
            changed_nodes=tuple(changed_nodes),
            exports_reused=phase_a["exports_reused"],
            imports_skipped=delta["imports_skipped"],
            transforms_computed=both["transforms_computed"],
            transforms_reused=both["transforms_reused"],
            unmet_dependencies=frozenset().union(
                *(node.observed_dependencies for node in self.nodes.values())
            ),
        )

    _ROUND_COUNTERS = (
        "exports_computed", "exports_reused", "imports_skipped",
        "transforms_computed", "transforms_reused",
    )

    def _node_totals(self) -> Counter:
        """The nodes' change-driven round counters, summed."""
        return Counter({
            counter: sum(getattr(n, counter) for n in self.nodes.values())
            for counter in self._ROUND_COUNTERS
        })

    # -- control plane: OSPF rounds ----------------------------------------------

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
        patch: Optional[DataPlanePatch] = None,
        foreign: Optional[Dict[int, Tuple[int, ...]]] = None,
    ) -> FrozenSet[Prefix]:
        """Build this worker's FIBs from the route store.  No predicate
        is compiled here: the forwarding context compiles a device on
        the first symbolic packet that reaches it.

        It reads its own shard files, but every writer's of a ``foreign``
        flush index (:meth:`RouteStore.shard_files`), keeping its nodes.
        Without ``patch`` the build starts from an empty data plane (a
        fresh engine, no FIB) and reads every flush index: a cold build,
        a full delta, a rebalance and every rebuild after a recovery.
        With one (an announce-only epoch) it keeps the data plane, reads
        only the patch's flush indices, recomputes the entry of every
        patch prefix on each owned device, and drops the compiled
        predicates of every device whose FIB changed; a worker with no
        data plane to patch (respawned) builds from empty instead.
        Either way the FIBs equal a fresh build from the same store.

        Returns the FIB prefixes of the encoding's family — the
        destination classes this worker contributes — among the patch's
        prefixes when patching.
        """
        if self.context is None:
            patch = None
        if patch is None:
            self._empty_dataplane(encoding, node_limit)
            wanted, indices = None, None
        else:
            wanted, indices = patch.prefixes, patch.flush_indices
        with self.tracer.span(
            "worker.build_dataplane", category="dpo", patch=patch is not None
        ) as span:
            store = RouteStore(store_dir)
            routes = store.merged_routes(
                store.shard_files([self.worker_id], indices, foreign)
            )
            changed = 0
            for hostname, node in sorted(self.nodes.items()):
                if self._patch_fib(
                    hostname, node, routes.get(hostname, {}), wanted
                ):
                    changed += 1
                    self._drop_predicates(hostname)
            self._fib_entries = sum(len(fib) for fib in self._fibs.values())
            span.set(fib_entries=self._fib_entries, devices_changed=changed)
        # What a fresh data plane holds: no waypoint bit and no memoized
        # id; the first query boundary collects.
        self.context.waypoint_bits.clear()
        self._drop_engine_memos()
        self._gc_floor = 0
        self._gc_mark = self.engine.node_count
        self._gc_counted = set()
        self.update_memory()
        self.last_phase = "build_dataplane"
        width = encoding.address_bits
        return frozenset(
            prefix
            for fib in self._fibs.values()
            for prefix in (fib.prefixes() if wanted is None else wanted)
            if prefix.width == width
            and (wanted is None or fib.entry_for(prefix) is not None)
        )

    def _empty_dataplane(
        self, encoding: HeaderEncoding, node_limit: int
    ) -> None:
        """A fresh engine and forwarding context, and no FIB."""
        # Release the previous data plane before allocating the next, so
        # a rebuild never holds two engines (and two op caches) at once.
        self.engine = self.context = self._buffer = None
        self._fibs = {}
        self._resolver = NextHopResolver.from_snapshot(self.snapshot)
        self.encoding = encoding
        self.engine = encoding.make_engine(node_limit=node_limit)
        self.engine.tracer = self.tracer if self.tracer.enabled else None
        self.context = ForwardingContext(
            self.engine,
            encoding,
            self.snapshot.topology,
            max_hops=self.max_hops,
            compile=self._compile_device,
        )
        self._buffer = PacketBuffer(self.engine)

    def _patch_fib(
        self,
        hostname: str,
        node: RouterNode,
        bgp: Dict[Prefix, Tuple[BgpRoute, ...]],
        wanted: Optional[FrozenSet[Prefix]],
    ) -> bool:
        """Recompute ``hostname``'s FIB entry of every ``wanted`` prefix
        (None: every prefix the node routes or originates); whether any
        entry changed."""
        fib = self._fibs.get(hostname)
        if fib is None:
            fib = self._fibs[hostname] = Fib(hostname)
        main = node.main_rib
        local = node.local_prefixes
        if wanted is None:
            wanted = local.union(main.prefixes(), bgp)
        changed = False
        for prefix in wanted:
            entry = fib_entry(
                hostname,
                prefix,
                prefix in local,
                main.routes_for(prefix),
                bgp.get(prefix, ()),
                self._resolver,
            )
            if entry == fib.entry_for(prefix):
                continue
            changed = True
            if entry is None:
                fib.remove(prefix)
            else:
                fib.add(entry)
        return changed

    def _drop_predicates(self, hostname: str) -> None:
        """Forget a device's compiled predicates and release their
        roots; its next packet compiles them again."""
        predicates = self.context.predicates.pop(hostname, None)
        if predicates is not None:
            for root in predicates.roots():
                self.engine.remove_root(root)

    def _compile_device(self, hostname: str) -> PortPredicates:
        """The forwarding context's compile hook: one owned device's
        predicates, registered as engine roots at once so they survive
        every query-boundary collection while this data plane lives.
        The nodes they add to the live set raise the growth floor, so
        a compile is never mistaken for garbage."""
        with self.engine.batch("bdd.compile", node=hostname):
            predicates = compile_predicates(
                self.snapshot.configs[hostname],
                self._fibs[hostname],
                self.engine,
                self.encoding,
            )
        for root in predicates.roots():
            self.engine.add_root(root)
        self._gc_floor += self._newly_live(predicates.roots())
        self.devices_compiled += 1
        return predicates

    def _newly_live(self, roots: Iterable[int]) -> int:
        """How many nodes ``roots`` add to the engine's live set: those
        created since the last collection or build (ids from
        ``_gc_mark`` up; a child's id is below its parent's) that no
        earlier compile counted."""
        engine, mark, counted = self.engine, self._gc_mark, self._gc_counted
        stack = [u for u in roots if u >= mark]
        added = 0
        while stack:
            u = stack.pop()
            if u < mark or u in counted:
                continue
            counted.add(u)
            added += 1
            stack.append(engine.low_of(u))
            stack.append(engine.high_of(u))
        return added

    def compile_devices(self) -> Tuple[int, int]:
        """Compile every owned device not compiled yet, through the hook
        a first packet calls (Figure 10 drives phase 1 with it).
        Returns the devices compiled and the engine's node count
        afterwards."""
        assert self.context is not None
        before = self.devices_compiled
        for hostname in sorted(self.nodes):
            self.context.predicates_for(hostname)
        self.update_memory()
        self.last_phase = "compile_devices"
        return self.devices_compiled - before, self.engine.node_count

    def class_actions(
        self, classes: Sequence[Prefix]
    ) -> Tuple[Dict[str, Tuple[Action, ...]], FrozenSet[Prefix]]:
        """Each owned device's action per destination class, and the
        classes an ACL touches on this worker.

        ``classes`` is upward-closed and shortest first
        (:func:`~repro.dataplane.classes.with_ancestors`).  Successors are
        read from the forwarding adjacency, so an egress port with no peer
        is a sink, exactly where the symbolic forwarder exits.  A class is
        touched where a device forwards it out of a port with an outbound
        ACL, or onto a peer port with an inbound one.
        """
        assert self.context is not None
        parents = parent_indexes(classes)
        rows: Dict[str, Tuple[Action, ...]] = {}
        touched = set()
        for hostname in sorted(self._fibs):
            entry_for = self._fibs[hostname].entry_for
            # Entries leaving by the same ports share one action.
            by_ports: Dict[Tuple[str, ...], Tuple[Action, bool]] = {}

            def own(prefix: Prefix) -> Optional[Tuple[Action, bool]]:
                entry = entry_for(prefix)
                if entry is None:
                    return None
                if entry.action is FibAction.RECEIVE:
                    return RECEIVE, False
                if entry.action is FibAction.DROP:
                    return SINK, False
                ports = tuple(hop.iface for hop in entry.next_hops)
                found = by_ports.get(ports)
                if found is None:
                    found = by_ports[ports] = self._egress(hostname, ports)
                return found

            actions = device_actions(classes, parents, own)
            rows[hostname] = tuple(action for action, _ in actions)
            touched.update(
                prefix
                for prefix, (_, acl) in zip(classes, actions)
                if acl
            )
        self.last_phase = "class_actions"
        return rows, frozenset(touched)

    def _egress(
        self, hostname: str, ports: Sequence[str]
    ) -> Tuple[Action, bool]:
        """Forwarding out of ``ports`` as a class action, and whether an
        ACL sits on any of them or on their peers' ingress ports."""
        configs = self.snapshot.configs
        successors = set()
        touched = False
        for iface in set(ports):
            touched |= _acl_bound(configs.get(hostname), iface, "acl_out")
            peer = self.context.adjacency.get((hostname, iface))
            if peer is not None:
                successors.add(peer[0])
                touched |= _acl_bound(configs.get(peer[0]), peer[1], "acl_in")
        return tuple(sorted(successors)), touched

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

    def drain(self) -> Tuple[int, Dict[int, PacketBatch], int, int]:
        """Process the local queue to exhaustion (one DPO superstep).

        Returns (finals produced, per-target outgoing batches, BDD ops,
        devices compiled on their first packet).
        """
        assert self.context is not None and self.engine is not None
        ops_before = self.engine.ops
        compiled_before = self.devices_compiled
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
            compiled = self.devices_compiled - compiled_before
            span.set(
                waves=waves,
                finals=produced,
                bdd_ops=self.engine.ops - ops_before,
                compiled=compiled,
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
        return produced, batches, self.engine.ops - ops_before, compiled

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
        self._gc_floor = self._gc_mark = self.engine.node_count
        self._gc_counted = set()
        self.update_memory(enforce=False)
        return before - self.engine.node_count
