"""The S2 controller (§3.2): parser, partitioner, CPO, and DPO.

:class:`S2Controller` wires the whole distributed pipeline together for
one snapshot: partition the topology, instantiate workers and sidecars,
run the sharded control-plane fixed point, build the distributed data
plane, and hand out a property checker.  :mod:`repro.core` wraps this in
the high-level :class:`~repro.core.s2.S2Verifier` API.

The controller owns the set of workers as one :class:`~repro.dist.fleet.
Fleet` — active workers and sidecars, lost-worker records, the serving
epoch — which the supervisor and both orchestrators read at every
phase; every phase fans out through ``Fleet.call_all``.  Both runtimes
sit behind one worker-pool surface (``respawn``, ``reconfigure``,
``update_snapshot``; see :class:`~repro.dist.runtime.LocalWorkerPool`)
and one call surface (``call_nowait``), so nothing past construction
asks which one runs.

The controller is also where fault tolerance comes together:

* a :class:`WorkerSupervisor` recovers failed workers (the pool respawns
  a socket worker's process or resets an in-process worker in place)
  and replays the OSPF checkpoint into them, so the CPO can rerun the
  interrupted shard;
* a worker whose respawn budget is spent is declared lost: the fleet
  records it, its shards migrate to the survivors, and
  :meth:`S2Controller.rejoin_worker` rebalances them back once the host
  heals;
* if recovery itself fails (:class:`~repro.dist.faults.RespawnError`) or
  the retry budget is exhausted, :meth:`S2Controller.run_control_plane`
  degrades to the monolithic :class:`~repro.routing.engine.
  SimulationEngine` and writes *bit-identical* per-shard results into
  the route store (the engines are equivalence-tested);
* with a persistent ``store_dir``, a :class:`~repro.dist.storage.
  RunManifest` records converged shards and the OSPF checkpoint, and
  :meth:`S2Controller.resume` restarts a killed run, skipping them.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence

from ..bdd.headerspace import HeaderEncoding
from ..config.loader import Snapshot
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
from .partition import (
    PartitionResult,
    estimate_loads,
    partition,
    plan_reassignment,
)
from .resources import (
    DEFAULT_WORKER_CAPACITY,
    ClusterReport,
    WorkerResources,
)
from .runtime import LocalWorkerPool
from .sharding import PrefixShard, make_shards, validate_shards
from .sidecar import Sidecar
from .storage import RouteStore, RunManifest, ShardRoutes

#: Worker pools: in-process workers run each call as it is issued
#: (``sequential``); ``socket`` puts every worker behind a TCP server —
#: forked on this machine, or dialed via ``worker_hosts`` — and a phase's
#: calls are all on the wire before the controller waits on one.
RUNTIMES = ("sequential", "socket")


@dataclass
class S2Options:
    """Tuning knobs of an S2 run (defaults mirror the paper's setup at
    model scale: METIS partitioning, 20 shards, 100GB-per-worker)."""

    num_workers: int = 4
    partition_scheme: str = "metis"
    num_shards: int = 0                  # 0 disables prefix sharding
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
    refine_shards: bool = False      # §7 runtime dependency refinement
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
        "version": 1,
        "snapshot": snapshot.name,
        "nodes": sorted(snapshot.configs),
        "num_workers": options.num_workers,
        "partition_scheme": options.partition_scheme,
        "num_shards": options.num_shards,
        "seed": options.seed,
        "max_rounds": options.max_rounds,
        "refine_shards": options.refine_shards,
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
    the IGP fixed point; (3) the caller (CPO/DPO) replays the
    interrupted unit of work (shard or query), which is idempotent.

    Respawn itself can fail (dead host, ``respawn_fail``/``host_loss``
    injection).  Each recovery retries up to ``policy.respawn_budget``
    times — except against an *unmanaged* pool (connect-mode socket
    hosts), where a refused re-dial means the host is gone and the
    budget is one.  A worker whose budget is spent is declared **lost**:
    journaled, then handed to :attr:`on_loss` (the controller's shard
    migration hook) so the run continues on the survivors.  Without a
    hook the :class:`RespawnError` propagates — the legacy
    all-or-nothing degradation.
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
        self._ospf_states: Dict[int, Any] = {}
        self.recoveries = 0
        # Loss migration hook: ``on_loss(worker_id, cause)`` must either
        # remove the worker from the fleet (migrating its state) or
        # raise; installed by :class:`S2Controller`.
        self.on_loss: Optional[Any] = None
        self.stale_epoch_rejections = 0
        # Serving mode: the session's event journal, when attached —
        # respawns and stale-epoch rejections become typed records.
        self.journal: Optional[Any] = None

    # -- OSPF checkpoint --------------------------------------------------

    def checkpoint_ospf(self) -> None:
        """Capture every worker's installed IGP routes (once, post-IGP)."""
        for worker in self.fleet.workers:
            state = worker.export_ospf_state()
            self._ospf_states[worker.worker_id] = state
            if self.persistent:
                self.store.write_ospf_state(worker.worker_id, state)

    def restore_ospf(self) -> bool:
        """Resume path: reload the IGP result from the store, skip rounds.

        Returns False when any worker's checkpoint is missing, in which
        case the caller falls back to re-running the IGP fixed point.
        """
        states: Dict[int, Any] = {}
        for worker in self.fleet.workers:
            state = self.store.read_ospf_state(worker.worker_id)
            if state is None:
                return False
            states[worker.worker_id] = state
        for worker in self.fleet.workers:
            worker.restore_ospf_state(states[worker.worker_id])
        self._ospf_states = states
        return True

    # -- recovery ---------------------------------------------------------

    def recover(self, failure: WorkerFailure) -> None:
        """Bring the failed worker back; raises RespawnError on failure.

        When the respawn budget is spent the worker is declared lost and
        :attr:`on_loss` migrates its shards instead — returning normally
        so the caller's retry loop replays the unit on the survivors.
        """
        worker_id = failure.worker_id
        if worker_id is None or self.fleet.get(worker_id) is None:
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
        budget = max(1, self.policy.respawn_budget)
        if not self.pool.managed:
            # Connect-mode socket host: respawn re-dials the same
            # address, so one refused attempt means the host is gone.
            budget = 1
        for _attempt in range(budget):
            try:
                worker = self.pool.respawn(worker_id)
                break
            except RespawnError as exc:
                cause = exc
        else:
            self.declare_lost(worker_id, cause)
            return
        worker.restore_ospf_state(self._ospf_states.get(worker_id))
        if epoch is not None:
            # Fresh execution contexts come up at epoch -1 (stale by
            # construction); re-seed before the shard replay so the
            # fence admits the recovered worker.
            worker.begin_epoch(epoch)

    def declare_lost(self, worker_id: int, cause: RespawnError) -> None:
        """Budget spent: journal the loss and hand off to the migration
        hook.  Without a hook (standalone supervisor) the RespawnError
        propagates and the caller degrades as before."""
        if self.journal is not None:
            self.journal.record(
                "worker_lost",
                worker=worker_id,
                reason=str(cause),
                epoch=self.fleet.epoch,
                survivors=max(0, len(self.fleet.workers) - 1),
            )
        if self.on_loss is None:
            raise cause
        self.on_loss(worker_id, cause)

    def merge_ospf_checkpoints(self) -> None:
        """Install the union of every checkpoint on every active worker.

        After a loss migration a survivor owns nodes whose IGP state was
        checkpointed by the dead worker; ``restore_ospf_state`` ignores
        hostnames the worker doesn't own, so the union is safe to replay
        everywhere — and it keeps each per-worker checkpoint
        self-sufficient for the *next* recovery.  Checkpoints of workers
        that left the fleet are dropped.
        """
        union: Dict[str, Any] = {}
        for state in self._ospf_states.values():
            if state:
                union.update(state)
        self._ospf_states = {}
        if not union:
            return
        for worker in self.fleet.workers:
            worker.restore_ospf_state(dict(union))
            self._ospf_states[worker.worker_id] = dict(union)
            if self.persistent:
                self.store.write_ospf_state(worker.worker_id, dict(union))

    def forget_checkpoints(self) -> None:
        """Drop the in-memory OSPF checkpoints (full reconfigure: the
        old IGP result no longer describes the snapshot)."""
        self._ospf_states.clear()


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
        self.shards: List[PrefixShard] = self._build_shards()
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
            encoding=opts.encoding,
            node_limit=opts.node_limit,
            supervisor=self.supervisor,
            retry_policy=opts.retry_policy,
            tracer=self.tracer,
            metrics=self.metrics,
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

    def _build_shards(self) -> List[PrefixShard]:
        """The current snapshot's prefix shards (none when unsharded)."""
        opts = self.options
        if not (opts.num_shards and opts.num_shards > 1):
            return []
        shards = make_shards(self.snapshot, opts.num_shards, seed=opts.seed)
        problems = validate_shards(shards, self.snapshot)
        if problems:
            raise ValueError(f"invalid shards: {problems[:3]}")
        return shards

    # -- resume -----------------------------------------------------------

    @classmethod
    def resume(
        cls, snapshot: Snapshot, options: S2Options
    ) -> "S2Controller":
        """Reattach to a killed run's persistent store and continue it.

        The next :meth:`run_control_plane` restores the OSPF checkpoint
        (if taken) and skips every shard the manifest records as
        converged; only the interrupted remainder is recomputed.
        """
        if options is None or options.store_dir is None:
            raise ValueError("resume() requires options.store_dir")
        return cls(snapshot, options, resuming=True)

    def start_run(
        self,
        manifest: Optional[RunManifest] = None,
        carried: Sequence[int] = (),
        ospf_done: bool = False,
    ) -> None:
        """Bind a fresh orchestrator for one control-plane run.

        Serving reruns the control plane once per committed delta and
        wants per-epoch stats, so each recompute gets its own CPO while
        the fleet and supervisor carry over.  On a persistent
        store the run records into ``manifest`` (a resumed one) or into
        a fresh manifest written here, where the ``carried`` flush
        indices count as converged and ``ospf_done`` marks an IGP result
        the delta left unchanged.
        """
        opts = self.options
        if manifest is None and opts.store_dir is not None:
            manifest = RunManifest(
                options_hash=options_fingerprint(opts, self.snapshot),
                seed=opts.seed,
                num_workers=opts.num_workers,
                num_shards=max(1, len(self.shards)),
                ospf_done=ospf_done,
                epoch=self.fleet.epoch or 0,  # 0 outside serving
            )
            for index in carried:
                manifest.mark_shard(index)
            self.store.write_manifest(manifest)
        self.manifest = manifest
        self.cpo = ControlPlaneOrchestrator(
            self.fleet,
            self.store,
            max_rounds=opts.max_rounds,
            fault_plan=opts.fault_plan,
            supervisor=self.supervisor,
            retry_policy=opts.retry_policy,
            manifest=manifest,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        self._cp_done = False

    # -- serving support (epoch-fenced deltas) -----------------------------

    def _on_each_worker(self, command: str, *args) -> None:
        """Run ``command`` on every worker in turn, healing one failure
        per worker.

        A worker that died *between* epochs (no shard in flight, so the
        CPO's replay machinery never sees it) first surfaces here when
        the next delta fans out.  Route the failure through supervisor
        recovery — respawn from the pool's current configure args, OSPF
        checkpoint restore, epoch re-seed — then retry once on the
        recovered worker; a second failure propagates to the caller.
        A worker declared *lost* during recovery needs no retry — the
        migration already rebuilt the survivors.
        """
        for worker in self.fleet.workers:
            worker_id = worker.worker_id
            try:
                worker.call_nowait(command, *args).result()
            except WorkerFailure as failure:
                if failure.worker_id is None:
                    failure.worker_id = worker_id
                self.supervisor.recover(failure)
                if worker_id not in self.fleet.lost:
                    worker.call_nowait(command, *args).result()

    def begin_epoch(self, epoch: int) -> None:
        """Seed every worker — and the fence plumbing — with ``epoch``.

        From here on, ``begin_shard`` carries the epoch and any worker
        at a different one (a respawn that missed the delta, a healed
        partition survivor) raises :class:`StaleEpochError` and goes
        through supervisor recovery before touching the shard.
        """
        self.fleet.epoch = epoch
        self._on_each_worker("begin_epoch", epoch)

    def rebind_snapshot(
        self,
        snapshot: Snapshot,
        changed_hosts: Sequence[str] = (),
        epoch: Optional[int] = None,
    ) -> None:
        """Incremental rebind for announce-only deltas.

        Topology, partition, and the IGP result are unchanged, so only
        the changed hosts' router models are rebuilt (their installed
        OSPF routes replayed from the worker's live checkpoint); the
        caller then recomputes just the dirty shards.
        """
        self.snapshot = snapshot
        changed = tuple(changed_hosts)
        # A worker respawned mid-epoch is re-seeded from the pool's
        # spawn args; those must describe the *current* snapshot.
        self._pool.update_snapshot(snapshot, self.partition.assignment)
        self._on_each_worker("rebind_snapshot", snapshot, changed, epoch)
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
        attempts = 0
        while True:
            try:
                # Refetched every attempt: a recovery that declared a
                # worker lost re-planned the assignment under us.
                self._pool.reconfigure(
                    self.snapshot, self.partition.assignment,
                    self.fleet.workers,
                )
                break
            except WorkerFailure as failure:
                attempts += 1
                if attempts > len(self.fleet.workers):
                    raise
                self.supervisor.recover(failure)

    def _rebuild_fleet(self) -> None:
        """After a membership change: respawn the active workers on the
        new assignment, replay the merged IGP checkpoint, and re-seed
        the serving epoch so the fence admits them."""
        self._reconfigure_fleet()
        self.supervisor.merge_ospf_checkpoints()
        if self.fleet.epoch is not None:
            self.fleet.call_all("begin_epoch", self.fleet.epoch)
        self.dpo.invalidate()

    def rebuild_data_plane(self) -> DataPlaneStats:
        """Force a fresh distributed data plane from the current store."""
        self.dpo.invalidate()
        self.dpo.build(self.store)
        return self.dpo.stats

    # -- permanent loss: shard reassignment --------------------------------

    def capacity(self) -> Dict[str, Any]:
        """Degraded-capacity summary (serving surfaces re-export this)."""
        return self.fleet.capacity()

    def _handle_worker_loss(
        self, worker_id: int, cause: WorkerFailure
    ) -> None:
        """Migrate a dead worker's shards to the survivors.

        Installed as the supervisor's ``on_loss`` hook.  The run stays
        *distributed*: the lost worker's nodes are reassigned across the
        survivors (heaviest first), its persisted shard files merge into
        the adopters', the union OSPF checkpoint replays everywhere, and
        the caller's retry loop replays the interrupted unit on the
        shrunken fleet.  Raises :class:`RespawnError` when no survivors
        remain — the sequential fallback's cue.
        """
        survivors = [i for i in self.fleet.active_ids if i != worker_id]
        if not survivors:
            raise RespawnError(
                f"worker {worker_id} is lost and no survivors remain",
                worker_id=worker_id,
            )
        orphans = sum(
            1 for owner in self.partition.assignment.values()
            if owner == worker_id
        )
        new_assignment = plan_reassignment(
            self.partition.assignment,
            worker_id,
            survivors,
            node_loads=estimate_loads(self.snapshot),
        )
        self.partition = replace(self.partition, assignment=new_assignment)
        # Quarantine the dead worker: the fleet freezes its identity,
        # stats, and transport counters; the pool keeps its slot, since
        # ``respawn`` doubles as the heal probe.
        self.fleet.mark_lost(
            worker_id,
            f"{type(cause).__name__}: {cause}",
            self._pool.channel_counters(worker_id),
        )
        migrated = self._migrate_store_files(worker_id, new_assignment)
        # Account the loss *before* rebuilding the survivors: a cascade
        # (another worker dying during the rebuild) must not erase the
        # record of this one.
        active = len(self.fleet.workers)
        self.cpo.stats.workers_lost += 1
        self.cpo.stats.shards_reassigned += migrated
        self.metrics.counter("cluster.workers_lost").inc()
        self.metrics.gauge("cluster.active_workers").set(active)
        self.tracer.instant(
            "worker.lost", worker=worker_id, survivors=active,
            shards=migrated,
        )
        if self.supervisor.journal is not None:
            self.supervisor.journal.record(
                "shard_reassigned",
                worker=worker_id,
                shards=migrated,
                nodes=orphans,
                survivors=active,
            )
        self._rebuild_fleet()

    def _migrate_store_files(
        self, worker_id: int, assignment: Dict[str, int]
    ) -> int:
        """Merge the lost worker's flushed shard files into the adopters'.

        ``collected_ribs`` and ``build_dataplane`` read per-worker merged
        stores, so after migration the survivors' files must jointly
        cover every node the dead worker owned.  Returns the number of
        shard files migrated.
        """
        migrated = 0
        for shard_index in self.store.worker_shard_indices(worker_id):
            routes = self.store.read_shard(worker_id, shard_index)
            adopted: Dict[int, ShardRoutes] = {}
            for node, prefixes in routes.items():
                owner = assignment.get(node)
                if owner is None or owner == worker_id:
                    continue
                adopted.setdefault(owner, {})[node] = prefixes
            for owner, nodes in sorted(adopted.items()):
                self.store.merge_into_shard(owner, shard_index, nodes)
            migrated += 1
        self.store.delete_worker_files(worker_id)
        return migrated

    def rejoin_worker(
        self, worker_id: int, epoch: Optional[int] = None
    ) -> bool:
        """Probe a lost worker's host and rebalance shards back onto it.

        Returns False while the host is still down (the caller re-arms
        its backoff timer).  On success the canonical partition for the
        now-larger fleet is restored (re-planned around any *still*-lost
        workers), the store's shard files are re-keyed to it, and the
        rejoined worker comes back epoch-fenced like any respawn.
        """
        if worker_id not in self.fleet.lost:
            raise ValueError(f"worker {worker_id} is not lost")
        try:
            self._pool.respawn(worker_id)
        except RespawnError:
            return False
        self.fleet.rejoin(worker_id)
        self.partition = self._plan_partition(sorted(self.fleet.lost))
        self._repartition_store(self.partition.assignment)
        if epoch is not None:
            self.fleet.epoch = epoch
        self._rebuild_fleet()
        active = len(self.fleet.workers)
        self.metrics.gauge("cluster.active_workers").set(active)
        self.tracer.instant("worker.rejoined", worker=worker_id, active=active)
        if self.supervisor.journal is not None:
            self.supervisor.journal.record(
                "worker_rejoined",
                worker=worker_id,
                epoch=self.fleet.epoch,
                active=active,
            )
        return True

    def _repartition_store(self, assignment: Dict[str, int]) -> int:
        """Re-key every persisted shard file to ``assignment``'s owners.

        Content is untouched — the same (node, prefix) routes land in
        the owning worker's file at the same flush index, so the merged
        RIBs stay bit-identical across the rebalance.
        """
        active = self.fleet.active_ids
        indices = sorted(
            {
                index
                for wid in active
                for index in self.store.worker_shard_indices(wid)
            }
        )
        for shard_index in indices:
            combined: ShardRoutes = {}
            for wid in active:
                try:
                    combined.update(self.store.read_shard(wid, shard_index))
                except FileNotFoundError:
                    continue
            per_worker: Dict[int, ShardRoutes] = {wid: {} for wid in active}
            for node, prefixes in combined.items():
                owner = assignment.get(node)
                if owner in per_worker:
                    per_worker[owner][node] = prefixes
            for wid, routes in per_worker.items():
                self.store.write_shard(wid, shard_index, routes)
        return len(indices)

    # -- pipeline ---------------------------------------------------------

    def run_control_plane(self) -> ControlPlaneStats:
        """The sharded fixed point, with graceful degradation.

        A :class:`WorkerFailure` escaping the CPO means supervision is
        out of options (respawn failed, or the shard retry budget is
        spent); rather than abandon the run, the controller recomputes
        the remaining shards on the monolithic engine — slower, but
        bit-identical (the engines are equivalence-tested) — and the
        stats record the degradation.
        """
        try:
            stats = self.cpo.run(
                self.shards if self.shards else None,
                refine=self.options.refine_shards,
            )
        except WorkerFailure:
            stats = self._sequential_fallback()
        self._cp_done = True
        return stats

    def _sequential_fallback(self) -> ControlPlaneStats:
        """Recompute unfinished shards on the monolithic engine."""
        from ..routing.engine import SimulationEngine

        stats = self.cpo.stats
        stats.sequential_fallback = True
        engine = SimulationEngine(
            self.snapshot, max_rounds=self.options.max_rounds
        )
        engine.run_ospf()
        shard_list: List[Optional[PrefixShard]] = (
            list(self.shards) if self.shards else [None]
        )
        for shard in shard_list:
            flush_index = shard.index if shard is not None else 0
            if self.manifest is not None and self.manifest.is_shard_done(
                flush_index
            ):
                continue
            result = engine.run_bgp_shard(
                shard.prefixes if shard is not None else None
            )
            # Keyed by the *current* assignment's owners: after a loss
            # migration only the survivors exist, and collected_ribs()
            # reads exactly their files.
            per_worker: Dict[int, Dict] = {
                worker_id: {}
                for worker_id in sorted(set(self.partition.assignment.values()))
            }
            selected_total = 0
            for hostname, selected in result.items():
                if not selected:
                    continue  # the workers' flush omits empty nodes too
                owner = self.partition.assignment[hostname]
                per_worker[owner][hostname] = selected
                selected_total += sum(
                    len(routes) for routes in selected.values()
                )
            for worker_id, routes in per_worker.items():
                stats.route_flush_bytes += self.store.write_shard(
                    worker_id, flush_index, routes
                )
            stats.total_selected_routes += selected_total
            stats.shards_run += 1
            if self.manifest is not None:
                self.manifest.mark_shard(flush_index)
                self.store.write_manifest(self.manifest)
        stats.bgp_rounds += engine.stats.bgp_rounds
        stats.ospf_rounds += engine.stats.ospf_rounds
        return stats

    def build_data_plane(self) -> DataPlaneStats:
        if not self._cp_done:
            self.run_control_plane()
        self.dpo.build(self.store)
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

    def collected_ribs(self) -> BgpResult:
        """Merge every worker's stored shards: the network-wide RIBs.

        This is the oracle interface the equivalence tests compare against
        the monolithic engine.
        """
        merged: BgpResult = {}
        for worker in self.fleet.workers:
            for node, routes in self.store.merged_routes(
                worker.worker_id
            ).items():
                merged[node] = dict(routes)
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
        def _worker_entry(r: WorkerResources, lost: bool) -> Dict[str, Any]:
            return {
                "name": r.name,
                "candidate_routes": r.candidate_routes,
                "bdd_nodes": r.bdd_nodes,
                "fib_entries": r.fib_entries,
                "peak_bytes": r.peak_bytes,
                "current_bytes": r.current_bytes,
                "route_work": r.route_work,
                "bdd_ops": r.bdd_ops,
                "rpc_bytes_sent": r.rpc_bytes_sent,
                "rpc_messages_sent": r.rpc_messages_sent,
                "retries": r.retries,
                "respawns": r.respawns,
                "oom": r.oom,
                "lost": lost,
            }

        snapshot["workers"] = [
            _worker_entry(worker.resources, lost)
            for worker, lost in self.fleet.roster()
        ]
        if self.options.fault_plan is not None:
            snapshot["faults_fired"] = dict(
                self.options.fault_plan.fired_by_kind
            )
        snapshot["recoveries"] = self.supervisor.recoveries
        snapshot["capacity"] = self.capacity()
        # Worker statuses the socket proxies received (none in-process).
        snapshot["telemetry"] = {
            "frames": snapshot["counters"].get("telemetry.frames", 0)
        }
        transport = self._pool.transport_counters(self.fleet.lost)
        if transport is not None:
            snapshot["transport"] = transport
        return snapshot

    def _finalize_observability(self) -> None:
        """Flush tracers, merge trace shards, write the metrics file.

        Runs as the innermost step of :meth:`close`, after the worker
        pool is down — socket-runtime shards are complete only once
        their writers have exited.
        """
        opts = self.options
        if self.tracer.enabled:
            with self.tracer.span("controller.finalize"):
                pass
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
