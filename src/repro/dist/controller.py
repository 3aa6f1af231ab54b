"""The S2 controller (§3.2): parser, partitioner, CPO, and DPO.

:class:`S2Controller` wires the whole distributed pipeline together for
one snapshot: partition the topology, instantiate workers and sidecars,
run the sharded control-plane fixed point, build the distributed data
plane, and hand out a property checker.  :mod:`repro.core` wraps this in
the high-level :class:`~repro.core.s2.S2Verifier` API.

The controller owns the set of workers as one :class:`~repro.dist.fleet.
Fleet` — active workers and sidecars, lost-worker records, the serving
epoch — which the supervisor and both orchestrators read at every
phase.  Both runtimes sit behind one worker-pool surface (``respawn``,
``reconfigure``, ``update_snapshot``; see :class:`~repro.dist.runtime.
LocalWorkerPool`) and one call surface, ``call_nowait``: every worker
call is a ``Fleet.call_all`` fan-out (or a sidecar delivery) inside a
replayed unit, so nothing past construction asks which one runs.

The controller is also where fault tolerance comes together:

* every unit of worker work (shard, OSPF and its checkpoint, build,
  query, fan-out) runs in :meth:`WorkerSupervisor.replay`: the pool
  respawns or resets every worker that failed in a fan-out, they rejoin
  with their OSPF checkpoint (and epoch), and the unit reruns once;
* a worker whose respawn budget is spent is declared lost; after a loss
  or a rejoin (:meth:`S2Controller.rejoin_worker`) the assignment is
  always :meth:`S2Controller._plan_partition` around the lost set;
* losing the last worker (:class:`~repro.dist.faults.RespawnError`) or
  spending the replay budget fails the run typed, as the data plane does;
* with a persistent ``store_dir``, a :class:`~repro.dist.storage.
  RunManifest` records the shard packing, converged shards and the OSPF
  checkpoint, and
  :meth:`S2Controller.resume` restarts a killed run, skipping them.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..bdd.headerspace import HeaderEncoding
from ..config.loader import Snapshot
from ..net.ip import Prefix
from ..obs.metrics import MetricsRegistry, fold_statuses
from ..obs.tracer import NULL_TRACER, Tracer
from ..obs.merge import merge_shards
from ..routing.engine import BgpResult
from .cpo import ControlPlaneOrchestrator, ControlPlaneStats
from .dpo import DataPlaneOrchestrator, DataPlaneStats
from .faults import (
    FaultPlan,
    RespawnError,
    RetryPolicy,
    StaleEpochError,
    WorkerFailure,
)
from .fleet import Fleet
from .message import DataPlanePatch
from .partition import (
    PartitionResult,
    estimate_loads,
    partition,
    plan_reassignment,
)
from .resources import DEFAULT_WORKER_CAPACITY, ClusterReport
from .runtime import LocalWorkerPool
from .sharding import (
    PrefixShard,
    make_shards,
    route_slots,
    validate_shards,
)
from .sidecar import Sidecar
from .storage import RouteStore, RunManifest, Written

#: Worker pools: in-process workers run each call as it is issued
#: (``sequential``); ``socket`` puts every worker behind a TCP server —
#: forked on this machine, or dialed via ``worker_hosts`` — and a phase's
#: calls are all on the wire before the controller waits on one.
RUNTIMES = ("sequential", "socket")

#: Failed respawns of one worker, within one recovery, before it is
#: declared lost and its nodes move to the survivors.
RESPAWN_BUDGET = 2


@dataclass
class S2Options:
    """Tuning knobs of an S2 run (defaults mirror the paper's setup at
    model scale: METIS partitioning, 100GB-per-worker; prefix sharding
    is off unless ``num_shards`` > 1)."""

    num_workers: int = 4
    partition_scheme: str = "metis"
    num_shards: int = 0                  # 0 disables prefix sharding;
    #                                  sets the flush and carry-over unit:
    #                                  the CPO converges as many shards as
    #                                  worker_capacity admits as one batch
    worker_capacity: int = DEFAULT_WORKER_CAPACITY  # UNLIMITED_CAPACITY
    #                                  accounts memory without enforcing it
    encoding: HeaderEncoding = field(default_factory=HeaderEncoding)
    node_limit: int = 1 << 22            # per-worker BDD table capacity
    max_rounds: int = 200
    max_hops: int = 24
    runtime: str = "sequential"      # one of RUNTIMES
    worker_hosts: Optional[Sequence[str]] = None  # socket runtime: dial
    #                                  these host:port listeners instead
    #                                  of forking local workers
    seed: int = 7
    store_dir: Optional[str] = None  # persistent iff set: manifest +
    #                                  OSPF checkpoint, resumable
    # -- fault tolerance -------------------------------------------------
    fault_plan: Optional[FaultPlan] = None
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    # -- observability ---------------------------------------------------
    # Like the supervision knobs, these are excluded from the options
    # fingerprint: they change how a run is observed, never its results.
    trace_out: Optional[str] = None      # merged Chrome trace-event file
    trace_dir: Optional[str] = None      # per-participant JSONL shards
    metrics_out: Optional[str] = None    # metrics snapshot JSON

    def __post_init__(self) -> None:
        if self.runtime not in RUNTIMES:
            raise ValueError(
                f"unknown runtime {self.runtime!r}; expected one of "
                f"{RUNTIMES}"
            )


def options_fingerprint(options: S2Options, snapshot: Snapshot) -> str:
    """A digest of everything that shapes a run's *results*.

    Stored in the manifest and checked by :meth:`S2Controller.resume`:
    resuming with options that would change the computed RIBs (different
    sharding, partitioning, seed, or snapshot) is refused.  Supervision
    knobs (``fault_plan``, ``retry_policy``, ``runtime``) are excluded on
    purpose — they change *how* the run executes, never what it computes,
    so a crashed socket-runtime run may be resumed sequentially.
    """
    payload = {
        "version": 2,
        "snapshot": snapshot.name,
        "nodes": sorted(snapshot.configs),
        "num_workers": options.num_workers,
        "partition_scheme": options.partition_scheme,
        "num_shards": options.num_shards,
        "seed": options.seed,
        "max_rounds": options.max_rounds,
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    )
    return digest.hexdigest()[:16]


class WorkerSupervisor:
    """Recovers failed workers and replays checkpoints into them.

    One recovery has three steps: (1) the pool gives the worker a fresh
    execution context — a new process or connection for socket workers,
    an in-place :meth:`~repro.dist.worker.Worker.reset` in-process —
    keeping the proxy/worker *identity* so orchestrator and sidecar
    references stay valid; (2) replay the OSPF checkpoint taken after
    the IGP fixed point, and the serving epoch, into it; (3)
    :meth:`replay` reruns the interrupted unit of work (shard, query,
    fan-out), which is idempotent.  Every worker that failed in one
    fan-out is recovered before the one rerun.

    Respawn itself can fail (dead host, ``respawn_fail``/``host_loss``
    injection).  Each recovery retries up to ``RESPAWN_BUDGET``
    times — except against an *unmanaged* pool (connect-mode socket
    hosts), where a refused re-dial means the host is gone and the
    budget is one.  A worker whose budget is spent is declared **lost**:
    journaled, then handed to :attr:`on_loss` (the controller's
    membership hook) so the run continues on the survivors.
    """

    def __init__(
        self,
        fleet: Fleet,
        store: RouteStore,
        pool,
        persistent: bool = False,
        policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.fleet = fleet
        self.store = store
        self.pool = pool
        self.persistent = persistent
        self.policy = policy or RetryPolicy()
        # The IGP checkpoint as one union keyed by host (None until
        # taken), of which a restore sends each worker the hosts it owns
        # under the pool's assignment.  Every active worker holds it:
        # each respawn and membership change restores it.
        self._ospf: Optional[Dict[str, Tuple]] = None
        self.recoveries = 0
        # Loss hook: ``on_loss(worker_id, cause)`` must either remove
        # the worker from the fleet (handing its nodes over) or
        # raise; installed by :class:`S2Controller`.
        self.on_loss: Optional[Any] = None
        self.stale_epoch_rejections = 0
        # Serving mode: the session's event journal, when attached —
        # respawns and stale-epoch rejections become typed records.
        self.journal: Optional[Any] = None

    # -- replay -----------------------------------------------------------

    def replay(
        self,
        unit: Callable[[], Any],
        on_recovered: Optional[Callable[[int], None]] = None,
    ) -> Any:
        """Run the idempotent ``unit``; on a :class:`WorkerFailure`,
        :meth:`recover` every worker it names (one lost meanwhile needs
        none) and :meth:`_restore` them (its failures are recovered
        alike), call ``on_recovered`` with the number of failures, and
        rerun it.  Re-raises once one worker would be recovered more
        than ``policy.max_replays`` times within this unit.
        """
        recovered: Counter = Counter()
        respawned: Dict[int, Any] = {}
        failed = 0
        while True:
            try:
                if respawned:
                    self._restore(list(respawned.values()))
                    respawned.clear()
                count, failed = failed, 0
                if count and on_recovered is not None:
                    on_recovered(count)
                return unit()
            except WorkerFailure as failure:
                ids = [each.worker_id for each in failure.failures]
                recovered.update(ids)
                if max(recovered[i] for i in ids) > self.policy.max_replays:
                    raise
                failed += len(ids)
                for each in failure.failures:
                    if each.worker_id not in self.fleet.lost:
                        respawned[each.worker_id] = self.recover(each)

    # -- OSPF checkpoint --------------------------------------------------

    def _restore(self, workers: Optional[List[Any]] = None) -> None:
        """Install each worker's part of the checkpoint; given respawned
        ``workers``, on those still active, with the serving epoch
        (fresh execution contexts come up at epoch -1, which the fence
        refuses)."""
        if workers is not None:
            workers = [w for w in workers if self.fleet.get(w.worker_id) is w]
        checkpoint, owner = self._ospf, self.pool.assignment
        self.fleet.call_all(
            "restore_ospf_state",
            workers=workers,
            each=lambda worker: (None if checkpoint is None else {
                host: routes
                for host, routes in checkpoint.items()
                if owner.get(host) == worker.worker_id
            },),
        )
        epoch = self.fleet.epoch
        if workers is not None and epoch is not None:
            self.fleet.call_all("begin_epoch", epoch, workers=workers)

    def checkpoint_ospf(self) -> List[int]:
        """Capture every worker's installed IGP routes: one fan-out, the
        last step of the IGP's replayed unit.  Returns the writers: the
        workers whose checkpoint files hold the result."""
        states = self.fleet.call_all("export_ospf_state")
        writers = self.fleet.active_ids
        self._ospf = {}
        for worker_id, state in zip(writers, states):
            self._ospf.update(state)
            if self.persistent:
                self.store.write_ospf_state(worker_id, state)
        return writers

    def restore_ospf(
        self,
        writers: Sequence[int],
        on_recovered: Optional[Callable[[int], None]] = None,
    ) -> bool:
        """Resume path: restore the IGP result from the union of its
        ``writers``' checkpoint files, skipping rounds; False when none
        is recorded or a file is missing (the caller reruns the IGP).
        A fleet already holding the checkpoint (an announce epoch on
        resident workers) needs neither the read nor the fan-out."""
        if self._ospf is not None:
            return True
        if not writers:
            return False
        union: Dict[str, Tuple] = {}
        for writer in writers:
            state = self.store.read_ospf_state(writer)
            if state is None:
                return False
            union.update(state)
        self._ospf = union
        self.replay(self._restore, on_recovered)
        return True

    # -- recovery ---------------------------------------------------------

    def recover(self, failure: WorkerFailure) -> Any:
        """Respawn the failed worker and return it; raises RespawnError
        on failure.

        When the respawn budget is spent the worker is declared lost and
        :attr:`on_loss` hands its nodes over instead — returning normally
        so :meth:`replay` reruns the unit on the survivors only.
        """
        worker_id = failure.worker_id
        worker = self.fleet.get(worker_id) if worker_id is not None else None
        if worker is None:
            raise failure
        self.recoveries += 1
        epoch = self.fleet.epoch
        if isinstance(failure, StaleEpochError):
            self.stale_epoch_rejections += 1
            if self.journal is not None:
                self.journal.record(
                    "stale_epoch_rejection",
                    worker=worker_id,
                    epoch=epoch,
                    command=failure.command,
                )
        if self.journal is not None:
            self.journal.record(
                "worker_respawn",
                worker=worker_id,
                reason=type(failure).__name__,
                epoch=epoch,
                recoveries=self.recoveries,
            )
        # Connect-mode socket host: respawn re-dials the same address,
        # so one refused attempt means the host is gone.
        budget = RESPAWN_BUDGET if self.pool.managed else 1
        for _attempt in range(budget):
            try:
                return self.pool.respawn(worker_id)
            except RespawnError as exc:
                cause = exc
        # Budget spent: the worker is lost.  Without a loss hook
        # (standalone supervisor) the RespawnError propagates.
        if self.journal is not None:
            self.journal.record(
                "worker_lost",
                worker=worker_id,
                reason=str(cause),
                epoch=epoch,
                survivors=max(0, len(self.fleet.workers) - 1),
            )
        if self.on_loss is None:
            raise cause
        self.on_loss(worker_id, cause)
        return worker

    def forget_checkpoints(self) -> None:
        """Drop the in-memory OSPF checkpoints (full reconfigure: the
        old IGP result no longer describes the snapshot)."""
        self._ospf = None


class S2Controller:
    """Owns the worker fleet, the orchestrators, and the route store."""

    def __init__(
        self,
        snapshot: Snapshot,
        options: Optional[S2Options] = None,
        resuming: bool = False,
    ) -> None:
        self.snapshot = snapshot
        self.options = options or S2Options()
        opts = self.options
        self.partition: PartitionResult = self._plan_partition()
        self._footprint_cache: Optional[tuple] = None
        self.store = RouteStore(opts.store_dir)
        # -- observability -------------------------------------------------
        # Tracing is on iff an output was requested; shards always live in
        # a directory (derived from trace_out when none was given) so the
        # socket runtime and the merge step share one layout.
        self.trace_dir: Optional[str] = opts.trace_dir or (
            opts.trace_out + ".shards" if opts.trace_out else None
        )
        self.metrics = MetricsRegistry()
        if self.trace_dir:
            self.tracer: Tracer = Tracer(
                process="controller",
                sink=os.path.join(self.trace_dir, "controller.jsonl"),
            )
        else:
            self.tracer = NULL_TRACER
        if opts.fault_plan is not None:
            opts.fault_plan.observer = self._observe_fault
        pool_args = dict(
            snapshot=snapshot,
            assignment=self.partition.assignment,
            num_workers=opts.num_workers,
            capacity=opts.worker_capacity,
            max_hops=opts.max_hops,
            fault_plan=opts.fault_plan,
            trace_dir=self.trace_dir,
        )
        if opts.runtime == "socket":
            # Workers behind TCP servers speaking the framed RPC protocol
            # (repro.dist.transport): localhost processes by default, or
            # remote listeners via worker_hosts.
            from .socket_runtime import SocketWorkerPool

            self._pool = SocketWorkerPool(
                retry_policy=opts.retry_policy,
                tracer=self.tracer,
                metrics=self.metrics,
                worker_hosts=opts.worker_hosts,
                **pool_args,
            )
        else:
            self._pool = LocalWorkerPool(**pool_args)
        sidecars = [
            Sidecar(worker, fault_plan=opts.fault_plan, metrics=self.metrics)
            for worker in self._pool.proxies
        ]
        # The peer map is the whole roster, fixed for the run: batches
        # are addressed by the current assignment, which never names a
        # lost worker.
        for sidecar in sidecars:
            sidecar.register_peers(sidecars)
        self.fleet = Fleet(self._pool.proxies, sidecars)
        # -- checkpoint/resume state --------------------------------------
        manifest: Optional[RunManifest] = None
        if resuming:
            manifest = self.store.read_manifest()
            if manifest is None:
                raise ValueError(
                    f"nothing to resume: no manifest in {self.store.directory}"
                )
            fingerprint = options_fingerprint(opts, snapshot)
            if manifest.options_hash != fingerprint:
                raise ValueError(
                    "refusing to resume: the store was written with "
                    f"incompatible options (manifest hash "
                    f"{manifest.options_hash}, current {fingerprint})"
                )
        elif opts.store_dir is not None:
            # A fresh run over a reused spool directory: stale shards
            # from an earlier (possibly killed) run must not pollute
            # merged_routes.
            self.store.clear_run_state()
        self.shards: List[PrefixShard] = (
            self._adopt_packing(manifest)
            if manifest is not None
            else self._build_shards()
        )
        self.supervisor = WorkerSupervisor(
            self.fleet,
            self.store,
            self._pool,
            persistent=opts.store_dir is not None,
            policy=opts.retry_policy,
        )
        self.supervisor.on_loss = self._handle_worker_loss
        self.dpo = DataPlaneOrchestrator(
            self.fleet,
            self.supervisor,
            self.store,
            encoding=opts.encoding,
            node_limit=opts.node_limit,
            tracer=self.tracer,
            metrics=self.metrics,
            max_hops=opts.max_hops,
            foreign=self.foreign_indices,
        )
        self.start_run(manifest)

    def _observe_fault(
        self, kind: str, worker_id: Optional[int], command: Optional[str]
    ) -> None:
        """FaultPlan observer: count injections and mark the timeline."""
        self.metrics.counter(f"faults.{kind}").inc()
        self.tracer.instant(
            "fault.injected", kind=kind, worker=worker_id, command=command
        )

    def _plan_partition(self, lost: Sequence[int] = ()) -> PartitionResult:
        """The canonical partition of the current snapshot, re-planned
        around each ``lost`` worker: a shrunken fleet keeps its
        reassignment overlay across deltas and rejoins."""
        opts = self.options
        result = partition(
            self.snapshot,
            opts.num_workers,
            scheme=opts.partition_scheme,
            seed=opts.seed,
        )
        loads = estimate_loads(self.snapshot) if lost else None
        for lost_id in lost:
            result = replace(
                result,
                assignment=plan_reassignment(
                    result.assignment,
                    lost_id,
                    self.fleet.active_ids,
                    node_loads=loads,
                ),
            )
        return result

    def _footprint(self) -> Dict[int, Tuple[int, int]]:
        """Per worker ``(nodes, route slots)`` of the current partition
        (:func:`~repro.dist.sharding.route_slots`), what the CPO admits
        shards into a batch against; computed once per partition."""
        cached = self._footprint_cache
        if (
            cached is None
            or cached[0] is not self.snapshot
            or cached[1] is not self.partition
        ):
            assignment = self.partition.assignment
            nodes = Counter(assignment.values())
            slots = route_slots(self.snapshot, assignment)
            cached = self._footprint_cache = (
                self.snapshot,
                self.partition,
                {wid: (nodes[wid], slots[wid]) for wid in nodes},
            )
        return cached[2]

    def foreign_indices(self) -> Dict[int, Tuple[int, ...]]:
        """Each recorded flush index not written by the current fleet
        under the current assignment, with its writers: a reader of one
        reads every writer's file (none while the membership is
        unchanged)."""
        current = (tuple(self.fleet.active_ids), self.partition.digest)
        return {
            index: record[0]
            for index, record in self.cpo.written.items()
            if record != current
        }

    def _build_shards(
        self, previous: Sequence[PrefixShard] = ()
    ) -> List[PrefixShard]:
        """The current snapshot's prefix shards (none when unsharded),
        packed sticky to ``previous`` when given."""
        opts = self.options
        if not (opts.num_shards and opts.num_shards > 1):
            return []
        shards = make_shards(
            self.snapshot, opts.num_shards, seed=opts.seed, previous=previous
        )
        problems = validate_shards(shards, self.snapshot)
        if problems:
            raise ValueError(f"invalid shards: {problems[:3]}")
        return shards

    def _adopt_packing(self, manifest: RunManifest) -> List[PrefixShard]:
        """Resume: the manifest's packing when it still covers the
        snapshot — the flush indices on disk refer to it.  Otherwise
        pack cold and drop every converged mark, so all shards
        recompute."""
        if not (self.options.num_shards and self.options.num_shards > 1):
            return []
        stored = manifest.packing()
        if stored is not None and not validate_shards(stored, self.snapshot):
            return stored
        shards = self._build_shards()
        manifest.shards.clear()
        manifest.record_packing(shards)
        self.store.write_manifest(manifest)
        return shards

    # -- resume -----------------------------------------------------------

    @classmethod
    def resume(
        cls, snapshot: Snapshot, options: S2Options
    ) -> "S2Controller":
        """Reattach to a killed run's persistent store and continue it.

        The controller adopts the manifest's shard packing (or, when it
        no longer covers the snapshot, packs cold and trusts no converged
        mark); the next :meth:`run_control_plane` restores the OSPF
        checkpoint (if taken) and skips every shard the manifest records
        as converged; only the interrupted remainder is recomputed.
        """
        if options is None or options.store_dir is None:
            raise ValueError("resume() requires options.store_dir")
        return cls(snapshot, options, resuming=True)

    def start_run(
        self,
        manifest: Optional[RunManifest] = None,
        carried: Optional[Written] = None,
        ospf_writers: Sequence[int] = (),
    ) -> None:
        """Bind a fresh orchestrator for one control-plane run.

        Serving reruns the control plane once per committed delta and
        wants per-epoch stats, so each recompute gets its own CPO while
        the fleet and supervisor carry over.  On a persistent
        store the run records into ``manifest`` (a resumed one) or into
        a fresh manifest written here, where the ``carried`` flush
        indices count as converged, with their writers, and
        ``ospf_writers`` name the checkpoint files of an IGP result the
        delta left unchanged.
        """
        opts = self.options
        if manifest is None and opts.store_dir is not None:
            manifest = RunManifest(
                options_hash=options_fingerprint(opts, self.snapshot),
                seed=opts.seed,
                num_workers=opts.num_workers,
                num_shards=max(1, len(self.shards)),
                ospf_done=bool(ospf_writers),
                ospf_writers=list(ospf_writers),
                epoch=self.fleet.epoch or 0,  # 0 outside serving
            )
            manifest.record_packing(self.shards)
            for index, (writers, layout) in (carried or {}).items():
                manifest.mark_shard(index, 0, writers, layout)
            self.store.write_manifest(manifest)
        self.manifest = manifest
        self.cpo = ControlPlaneOrchestrator(
            self.fleet,
            self.store,
            self.supervisor,
            self._footprint,
            lambda: self.partition.digest,
            ospf=any(
                c.ospf is not None for c in self.snapshot.configs.values()
            ),
            max_rounds=opts.max_rounds,
            fault_plan=opts.fault_plan,
            manifest=manifest,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        self._cp_done = False

    # -- serving support (epoch-fenced deltas) -----------------------------

    def begin_epoch(self, epoch: int) -> None:
        """Seed every worker — and the fence plumbing — with ``epoch``.

        From here on, ``begin_shard`` carries the epoch and any worker
        at a different one (a respawn that missed the delta, a healed
        partition survivor) raises :class:`StaleEpochError` and goes
        through supervisor recovery before touching the shard.  A worker
        that died *between* epochs surfaces in this (idempotent) fan-out.
        """
        self.fleet.epoch = epoch
        self.supervisor.replay(
            lambda: self.fleet.call_all("begin_epoch", epoch)
        )

    def rebind_snapshot(
        self,
        snapshot: Snapshot,
        changed_hosts: Sequence[str] = (),
        epoch: Optional[int] = None,
    ) -> None:
        """Incremental rebind for announce-only deltas.

        Topology, partition, and the IGP result are unchanged, so every
        worker gets only the changed hosts' configs, and rebuilds the
        router models of those it owns (their installed OSPF routes
        replayed from the worker's live checkpoint); the shards are
        repacked sticky to the current ones, and the caller then
        recomputes just the dirty shards.
        """
        self.snapshot = snapshot
        self.shards = self._build_shards(previous=self.shards)
        configs = {host: snapshot.configs[host] for host in changed_hosts}
        # A worker respawned mid-epoch is re-seeded from the pool's
        # spawn args; those must describe the *current* snapshot.
        self._pool.update_snapshot(snapshot, self.partition.assignment)
        self.supervisor.replay(
            lambda: self.fleet.call_all("rebind_snapshot", configs, epoch)
        )
        if epoch is not None:
            self.fleet.epoch = epoch
        self.dpo.invalidate()
        self._cp_done = False

    def reconfigure(
        self, snapshot: Snapshot, epoch: Optional[int] = None
    ) -> None:
        """Full rebind for topology/policy deltas.

        Repartitions the new snapshot and logically respawns every
        worker on it; the IGP fixed point and all shards recompute.
        """
        self.snapshot = snapshot
        self.partition = self._plan_partition(sorted(self.fleet.lost))
        # Old-snapshot IGP checkpoints are meaningless for the new one;
        # drop them *before* any recovery so a respawn mid-reconfigure
        # doesn't restore stale OSPF state.
        self.supervisor.forget_checkpoints()
        self._reconfigure_fleet()
        self.shards = self._build_shards()
        if epoch is not None:
            self.begin_epoch(epoch)
        self.dpo.invalidate()
        self._cp_done = False

    def _reconfigure_fleet(self) -> None:
        """Logically respawn every active worker on the current snapshot
        and assignment, recovering workers that fail on the way."""
        # Read at every attempt: a recovery that declared a worker lost
        # re-planned the assignment and shrank the fleet under us.
        self.supervisor.replay(
            lambda: self._pool.reconfigure(
                self.snapshot, self.partition.assignment, self.fleet.workers
            )
        )

    def _rebuild_fleet(self) -> None:
        """After a membership change: respawn the active workers on the
        new assignment, restore each one's hosts of the IGP checkpoint,
        and re-seed the serving epoch so the fence admits them."""
        self._reconfigure_fleet()
        self.supervisor.replay(self.supervisor._restore)
        if self.fleet.epoch is not None:
            self.begin_epoch(self.fleet.epoch)
        self.dpo.invalidate()

    def rebuild_data_plane(
        self, dirty: Optional[AbstractSet[Prefix]] = None
    ) -> DataPlaneStats:
        """Rebuild the distributed data plane from the current store.

        ``dirty`` is an announce-only epoch's dirty prefix set, given
        when the epoch's control plane ran with no recovery: the workers
        then patch their data planes within it and the recomputed shards
        (:meth:`_patch_for`).
        Otherwise they build from empty.
        """
        self.dpo.invalidate()
        self.dpo.build(self._patch_for(dirty))
        return self.dpo.stats

    def _patch_for(
        self, dirty: Optional[AbstractSet[Prefix]]
    ) -> Optional[DataPlanePatch]:
        """The flush indices this run recomputed and the prefixes whose
        FIB entries can have changed: ``dirty`` plus those shards'
        prefixes.  None without ``dirty`` or without shards (one
        unsharded flush holds every prefix)."""
        if dirty is None or not self.shards:
            return None
        flushed = self.cpo.flushed
        return DataPlanePatch(
            flush_indices=tuple(sorted(flushed)),
            prefixes=frozenset(dirty).union(
                *(s.prefixes for s in self.shards if s.index in flushed)
            ),
        )

    # -- permanent loss and rejoin -----------------------------------------

    def capacity(self) -> Dict[str, Any]:
        """Degraded-capacity summary (serving surfaces re-export this)."""
        return self.fleet.capacity()

    def _handle_worker_loss(
        self, worker_id: int, cause: WorkerFailure
    ) -> None:
        """The supervisor's ``on_loss`` hook: mark the worker lost and
        run the membership tail, so the run stays *distributed* on the
        survivors (which read the indices it wrote from its files).
        Raises :class:`RespawnError`, naming every lost worker, when no
        survivors remain: the run has nowhere left to go."""
        orphans = list(self.partition.assignment.values()).count(worker_id)
        # Quarantine the dead worker: the fleet freezes its identity,
        # stats, and transport counters; the pool keeps its slot, since
        # ``respawn`` doubles as the heal probe.
        self.fleet.mark_lost(
            worker_id,
            f"{type(cause).__name__}: {cause}",
            self._pool.channel_counters(worker_id),
        )
        self.cpo.stats.workers_lost += 1
        self.metrics.counter("cluster.workers_lost").inc()
        if not self.fleet.workers:
            lost = ", ".join(map(str, sorted(self.fleet.lost)))
            raise RespawnError(
                f"workers {lost} are lost and no survivors remain",
                worker_id=worker_id,
            )
        reassigned = sum(
            worker_id in writers for writers, _ in self.cpo.written.values()
        )
        self.cpo.stats.shards_reassigned += reassigned
        self._membership_changed(
            "worker.lost", "shard_reassigned", worker=worker_id,
            shards=reassigned, nodes=orphans,
            survivors=len(self.fleet.workers),
        )

    def rejoin_worker(
        self, worker_id: int, epoch: Optional[int] = None
    ) -> bool:
        """Probe a lost worker's host and rebalance nodes back onto it.

        Returns False while the host is still down (the caller re-arms
        its backoff timer).  On success the worker returns to the fleet
        and the membership tail runs, as after a loss.
        """
        if worker_id not in self.fleet.lost:
            raise ValueError(f"worker {worker_id} is not lost")
        try:
            self._pool.respawn(worker_id)
        except RespawnError:
            return False
        self.fleet.rejoin(worker_id)
        if epoch is not None:
            self.fleet.epoch = epoch
        self._membership_changed(
            "worker.rejoined", "worker_rejoined", worker=worker_id,
            epoch=self.fleet.epoch, active=len(self.fleet.workers),
        )
        return True

    def _membership_changed(
        self, instant: str, record: str, **fields: Any
    ) -> None:
        """The tail of a loss or a rejoin: re-plan around the lost set
        (whatever order it formed in), record the change (before the
        rebuild, so a cascading loss cannot erase it), and rebuild the
        active workers.  The store is not touched: a file stays keyed
        by its writer, and the readers follow the flush records."""
        self.partition = self._plan_partition(sorted(self.fleet.lost))
        self.metrics.gauge("cluster.active_workers").set(
            len(self.fleet.workers)
        )
        self.tracer.instant(instant, **fields)
        if self.supervisor.journal is not None:
            self.supervisor.journal.record(record, **fields)
        self._rebuild_fleet()

    # -- pipeline ---------------------------------------------------------

    def run_control_plane(self) -> ControlPlaneStats:
        """The sharded fixed point on the fleet.  A :class:`WorkerFailure`
        escaping the CPO (the last worker lost, or a spent replay budget)
        propagates: :class:`~repro.core.s2.S2Verifier` reports status
        ``worker-failure`` and a serving session degrades read-only."""
        stats = self.cpo.run(self.shards if self.shards else None)
        self._cp_done = True
        return stats

    def build_data_plane(self) -> DataPlaneStats:
        if not self._cp_done:
            self.run_control_plane()
        self.dpo.build()
        return self.dpo.stats

    def checker(self):
        self.build_data_plane()
        return self.dpo.checker()

    # -- results ------------------------------------------------------------

    def report(self) -> ClusterReport:
        # Lost workers' stats are frozen at their last observed values
        # and stay in the report: dropping them would make totals like
        # total_respawns go *down* when a worker is declared lost.
        return ClusterReport(
            workers=[worker.resources for worker, _ in self.fleet.roster()]
        )

    def collected_ribs(
        self,
        base: Optional[BgpResult] = None,
        dirty: Optional[AbstractSet[Prefix]] = None,
    ) -> BgpResult:
        """Merge the stored shards the active workers read (the reader
        rule of :meth:`RouteStore.shard_files`): the network-wide RIBs.

        This is the oracle interface the equivalence tests compare against
        the monolithic engine.  Given the previous epoch's RIBs as
        ``base`` and an announce-only epoch's ``dirty`` set (as for
        :meth:`rebuild_data_plane`), only the recomputed shards' files
        are read: ``base`` outside the patch's prefixes, those files
        inside it.
        """
        patch = self._patch_for(dirty) if base is not None else None
        merged: BgpResult = {}
        if patch is not None:
            inside = patch.prefixes
            for node, routes in base.items():
                merged[node] = {
                    prefix: selected
                    for prefix, selected in routes.items()
                    if prefix not in inside
                }
        indices = patch.flush_indices if patch is not None else None
        files = self.store.shard_files(
            self.fleet.active_ids, indices, self.foreign_indices()
        )
        for node, routes in self.store.merged_routes(files).items():
            merged.setdefault(node, {}).update(routes)
        for name in self.snapshot.configs:
            merged.setdefault(name, {})
        return merged

    def total_route_count(self) -> int:
        return sum(
            len(routes)
            for node_routes in self.collected_ribs().values()
            for routes in node_routes.values()
        )

    def prefix_holders(self) -> List[str]:
        holders = []
        for hostname, config in sorted(self.snapshot.configs.items()):
            if config.bgp is not None and config.bgp.networks:
                holders.append(hostname)
        return holders

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The registry snapshot plus folded pipeline and worker numbers.

        Safe to take mid-run, from any thread: instruments are live, the
        stats dataclasses are whatever the orchestrators have accumulated
        so far, and worker statuses are read without a round trip.
        """
        snapshot = fold_statuses(
            self.metrics.snapshot(), self.fleet.statuses()
        )
        snapshot["control_plane"] = asdict(self.cpo.stats)
        snapshot["data_plane"] = asdict(self.dpo.stats)
        snapshot["workers"] = [
            dict(asdict(worker.resources), lost=lost)
            for worker, lost in self.fleet.roster()
        ]
        if self.options.fault_plan is not None:
            snapshot["faults_fired"] = dict(
                self.options.fault_plan.fired_by_kind
            )
        snapshot["recoveries"] = self.supervisor.recoveries
        snapshot["worker_calls"] = self.worker_calls()
        snapshot["storage"] = self.storage_counts()
        snapshot["capacity"] = self.capacity()
        # Worker statuses the socket proxies received (none in-process).
        snapshot["telemetry"] = {
            "frames": snapshot["counters"].get("telemetry.frames", 0)
        }
        transport = self._pool.transport_counters(self.fleet.lost)
        if transport is not None:
            snapshot["transport"] = transport
        return snapshot

    def worker_calls(self) -> int:
        """Commands issued to workers so far (``resources.calls``, charged
        at ``call_nowait`` on both runtimes), lost workers included."""
        return sum(worker.resources.calls for worker, _ in self.fleet.roster())

    def storage_counts(self) -> Dict[str, int]:
        """The route store's metadata operations so far: the controller
        store's durable writes (temp create + fsync + rename) and
        unlinks, plus one worker file per ``flush_shard`` reply."""
        workers = int(
            self.metrics.counter("storage.worker_writes").value
        )
        return {
            "durable_writes": self.store.durable_writes + workers,
            "controller_writes": self.store.durable_writes,
            "worker_writes": workers,
            "unlinks": self.store.unlinks,
        }

    def _finalize_observability(self) -> None:
        """Flush tracers, merge trace shards, write the metrics file.

        Runs as the innermost step of :meth:`close`, after the worker
        pool is down — socket-runtime shards are complete only once
        their writers have exited.
        """
        opts = self.options
        if self.tracer.enabled:
            with self.tracer.span("controller.finalize") as span:
                span.set(worker_calls=self.worker_calls(), **{
                    f"storage_{name}": count
                    for name, count in self.storage_counts().items()
                })
            self.tracer.finish()
            if opts.trace_out and self.trace_dir:
                merge_shards(
                    self.trace_dir,
                    opts.trace_out,
                    run_metadata={
                        "snapshot": self.snapshot.name,
                        "runtime": opts.runtime,
                        "num_workers": opts.num_workers,
                        "num_shards": opts.num_shards,
                    },
                )
        if opts.metrics_out:
            self.metrics.write_json(
                opts.metrics_out, extra=self.metrics_snapshot()
            )

    def close(self) -> None:
        """Tear everything down; no step may mask another's cleanup."""
        try:
            self._pool.close()
        finally:
            try:
                self.store.close()
            finally:
                self._finalize_observability()

    def __enter__(self) -> "S2Controller":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
