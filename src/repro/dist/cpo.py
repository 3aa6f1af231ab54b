"""The control plane orchestrator (CPO, §4.2).

Schedules protocols in sequence (IGPs before BGP), and for BGP runs the
distributed fixed point once per prefix shard: each round every worker
computes its nodes' exports (phase A), the sidecars ship the boundary
advertisements (measured bytes), and every worker's nodes pull and merge
(phase B).  The round repeats until *all* workers report no change —
Algorithm 1 with the pull relays batched per worker pair.

When a shard converges, its routes are flushed to the
:class:`~repro.dist.storage.RouteStore` and the in-memory RIBs are freed,
which is exactly what bounds the per-worker peak at one shard (§4.5).

Fault tolerance rides on shard idempotency: ``begin_shard`` fully resets
per-shard state, so when a :class:`~repro.dist.faults.WorkerFailure`
surfaces mid-fixed-point the CPO asks the supervisor to recover the
worker (respawn/reset + OSPF checkpoint replay) and simply replays the
whole shard from round 0 — bit-identical to the fault-free run.  Dropped
sidecar batches are healed by the rounds themselves (exports are resent
in full every round); the only hazard is a drop in the would-be-final
round, so the CPO refuses to declare convergence in any round where the
fault plan dropped a batch.  A :class:`~repro.dist.storage.RunManifest`
records converged shards, letting :meth:`run` skip them on resume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer, stopwatch
from ..routing.engine import ConvergenceError
from .faults import FaultPlan, RetryPolicy, WorkerFailure
from .runtime import Runtime, SequentialRuntime
from .sharding import PrefixShard
from .sidecar import Sidecar
from .storage import RouteStore, RunManifest
from .worker import PullOutcome, Worker


@dataclass
class ControlPlaneStats:
    bgp_rounds: int = 0
    ospf_rounds: int = 0
    shards_run: int = 0
    shards_merged: int = 0  # §7 refinement: shards absorbed into reruns
    modeled_wall_time: float = 0.0
    measured_seconds: float = 0.0
    route_flush_bytes: int = 0
    peak_candidate_routes: int = 0  # summed over workers, any instant
    total_selected_routes: int = 0
    # -- fault tolerance -------------------------------------------------
    worker_failures: int = 0        # WorkerFailures seen during BGP/OSPF
    shard_replays: int = 0          # shards rerun after a recovery
    ospf_replays: int = 0           # OSPF fixed points rerun after recovery
    forced_rounds: int = 0          # extra rounds forced by dropped batches
    shards_skipped: int = 0         # shards skipped on resume (manifest)
    ospf_restored: bool = False     # OSPF came from a checkpoint, not rounds
    heartbeat_probes: int = 0
    sequential_fallback: bool = False  # degraded to the monolithic engine
    batches_dropped: int = 0        # injected at the sidecars
    batches_duplicated: int = 0     # injected at the sidecars
    duplicates_discarded: int = 0   # receiver-side sequence dedup hits
    pipelined_deliveries: int = 0   # coalesced in-flight sends per round
    # -- change-driven rounds ------------------------------------------
    exports_reused: int = 0         # export tuples carried over unchanged
    imports_skipped: int = 0        # sessions whose advertisement was the
                                    # object already merged
    workers_lost: int = 0           # respawn budget spent; left the fleet
    shards_reassigned: int = 0      # shard files migrated to survivors


class ControlPlaneOrchestrator:
    def __init__(
        self,
        workers: Sequence[Worker],
        sidecars: Sequence[Sidecar],
        store: RouteStore,
        runtime: Optional[Runtime] = None,
        max_rounds: int = 200,
        fault_plan: Optional[FaultPlan] = None,
        supervisor=None,
        retry_policy: Optional[RetryPolicy] = None,
        manifest: Optional[RunManifest] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.workers = list(workers)
        self.sidecars = list(sidecars)
        self.store = store
        self.runtime = runtime or SequentialRuntime()
        self.max_rounds = max_rounds
        self.fault_plan = fault_plan
        self.supervisor = supervisor
        self.retry_policy = retry_policy or RetryPolicy()
        self.manifest = manifest
        self.tracer = tracer or NULL_TRACER
        self.metrics = metrics
        self.stats = ControlPlaneStats()
        # Epoch fence (serving mode): when set, every begin_shard carries
        # it and a worker at any other epoch refuses the shard, which
        # surfaces as a WorkerFailure and routes through recovery.
        self.epoch: Optional[int] = None

    # -- fleet membership ----------------------------------------------------

    def drop_worker(self, worker_id: int) -> None:
        """Remove a lost worker from the round loop (loss migration).

        The caller replays the interrupted shard afterwards; every
        round's thunks are built fresh from ``self.workers``, so the
        shrunken fleet takes effect at the next phase.
        """
        self.workers = [w for w in self.workers if w.worker_id != worker_id]
        self.sidecars = [
            s for s in self.sidecars if s.worker_id != worker_id
        ]

    def set_fleet(
        self, workers: Sequence[Worker], sidecars: Sequence[Sidecar]
    ) -> None:
        """Rebind the active fleet (a healed worker rejoined)."""
        self.workers = list(workers)
        self.sidecars = list(sidecars)

    # -- helpers ------------------------------------------------------------

    def _modeled_barrier(self, deltas: List[float]) -> None:
        """Advance the modeled wall clock by the slowest worker's phase."""
        if deltas:
            self.stats.modeled_wall_time += max(deltas)

    def _recover(self, failure: WorkerFailure) -> None:
        """Hand a worker failure to the supervisor (or give up)."""
        self.stats.worker_failures += 1
        if self.supervisor is None:
            raise failure
        self.supervisor.recover(failure)

    def _heartbeat(self) -> None:
        """Probe worker liveness; a dead worker surfaces as WorkerFailure."""
        self.stats.heartbeat_probes += 1
        for worker in self.workers:
            answer = worker.ping()
            if answer != "pong":
                raise WorkerFailure(
                    f"worker {worker.worker_id} failed its heartbeat "
                    f"(answered {answer!r})",
                    worker_id=worker.worker_id,
                    command="ping",
                )

    def _exchange(self, batch_maps) -> int:
        """Ship one round's boundary batches, pipelined.

        Every sender's batches are queued first, then all outboxes flush
        before any delivery is awaited — remote deliveries for the whole
        round are in flight together instead of call-and-wait one batch
        at a time.  Settling every handle before returning is the
        delivery barrier phase B's pulls depend on.
        """
        sent = 0
        for sidecar, batches in zip(self.sidecars, batch_maps):
            for batch in batches.values():
                sidecar.queue_routes(batch)
                sent += 1
        handles = []
        for sidecar in self.sidecars:
            handles.extend(sidecar.flush_routes())
        for handle in handles:
            handle.result()
        self.stats.pipelined_deliveries += len(handles)
        return sent

    def _collect_fault_telemetry(self) -> None:
        """Fold sidecar and worker fault counters into the stats."""
        self.stats.batches_dropped = sum(
            s.batches_dropped for s in self.sidecars
        )
        self.stats.batches_duplicated = sum(
            s.batches_duplicated for s in self.sidecars
        )
        try:
            self.stats.duplicates_discarded = sum(
                worker.fault_counters().get("duplicate_batches", 0)
                for worker in self.workers
            )
        except WorkerFailure:
            pass  # telemetry must never fail a finished run

    # -- OSPF phase -----------------------------------------------------------

    def run_ospf(self) -> None:
        """The IGP fixed point, with shard-style failure recovery.

        On a worker failure the recovered worker rejoins with an empty
        IGP state and the whole loop reruns: distance-vector convergence
        is monotone from any mixed state, so the fixed point (and hence
        the installed routes) is identical to the fault-free run.
        """
        attempts = 0
        while True:
            try:
                self._run_ospf_once()
                return
            except WorkerFailure as failure:
                attempts += 1
                if attempts > self.retry_policy.max_shard_retries:
                    raise
                self._recover(failure)
                self.stats.ospf_replays += 1

    def _run_ospf_once(self) -> None:
        if not any(worker.has_ospf() for worker in self.workers):
            return
        if self.fault_plan is not None:
            self.fault_plan.set_context(round_token=-1)
        with self.tracer.span("cpo.ospf", category="cpo") as ospf_span:
            for _round in range(self.max_rounds):
                with self.tracer.span(
                    "cpo.ospf_round", category="cpo", round=_round
                ):
                    batch_maps = self.runtime.map(
                        [w.compute_ospf_exports for w in self.workers]
                    )
                    self._exchange(batch_maps)
                    changed_flags = self.runtime.map(
                        [w.pull_ospf_round for w in self.workers]
                    )
                self.stats.ospf_rounds += 1
                if self.metrics is not None:
                    self.metrics.counter("cpo.ospf_rounds").inc()
                dropped = (
                    self.fault_plan.consume_drops()
                    if self.fault_plan is not None
                    else 0
                )
                if not any(changed_flags):
                    if dropped == 0:
                        break
                    self.stats.forced_rounds += 1
            else:
                raise ConvergenceError(
                    f"OSPF did not converge within {self.max_rounds} rounds",
                    rounds=self.max_rounds,
                )
            ospf_span.set(rounds=self.stats.ospf_rounds)
            self.runtime.map(
                [w.install_ospf_routes for w in self.workers]
            )

    # -- BGP phase ------------------------------------------------------------------

    def run_bgp_shard(self, shard: Optional[PrefixShard]) -> None:
        """Converge one shard and flush it, replaying after recoveries.

        A shard is the recovery unit: ``begin_shard`` (at the top of the
        fixed point) fully resets per-shard state on every worker, so a
        replay after respawning the failed worker reproduces the same
        RIBs the fault-free run would have flushed.
        """
        attempts = 0
        while True:
            try:
                self._converge_shard(shard)
                self._flush_shard(shard.index if shard is not None else 0)
                return
            except WorkerFailure as failure:
                attempts += 1
                if attempts > self.retry_policy.max_shard_retries:
                    raise
                self._recover(failure)
                self.stats.shard_replays += 1

    def _converge_shard(self, shard: Optional[PrefixShard]) -> None:
        shard_index = shard.index if shard is not None else 0
        if self.fault_plan is not None:
            self.fault_plan.set_context(shard=shard_index)
        for worker in self.workers:
            worker.begin_shard(shard, self.epoch)
        heartbeat_every = self.retry_policy.heartbeat_interval_rounds
        last_outcomes = []
        with self.tracer.span(
            "cpo.shard", category="cpo", shard=shard_index
        ) as shard_span:
            try:
                self._converge_shard_rounds(
                    shard, shard_index, heartbeat_every, last_outcomes
                )
            finally:
                shard_span.set(rounds=self.stats.bgp_rounds)

    def _converge_shard_rounds(
        self,
        shard: Optional[PrefixShard],
        shard_index: int,
        heartbeat_every: int,
        last_outcomes: List[PullOutcome],
    ) -> None:
        for round_token in range(self.max_rounds):
            if self.fault_plan is not None:
                self.fault_plan.set_context(round_token=round_token)
            clocks_before = [w.resources.modeled_time for w in self.workers]
            with self.tracer.span(
                "cpo.round", category="cpo", shard=shard_index,
                round=round_token,
            ):
                # Phase A: snapshot exports, batch the boundary ones.
                with self.tracer.span("cpo.exports", category="cpo"):
                    batch_maps = self.runtime.map(
                        [
                            (lambda w=w: w.compute_exports(round_token))
                            for w in self.workers
                        ]
                    )
                with self.tracer.span("cpo.exchange", category="cpo") as ex:
                    sent = self._exchange(batch_maps)
                    ex.set(batches=sent)
                # Phase B: pull and merge.
                with self.tracer.span("cpo.pull", category="cpo"):
                    outcomes = self.runtime.map(
                        [
                            (lambda w=w: w.pull_round(round_token))
                            for w in self.workers
                        ]
                    )
            del last_outcomes[:]
            last_outcomes.extend(outcomes)
            candidate_total = 0
            for worker, outcome in zip(self.workers, outcomes):
                worker.update_memory()
                worker.resources.charge_route_round(outcome.updates_processed)
                candidate_total += outcome.candidate_routes
                self.stats.exports_reused += outcome.exports_reused
                self.stats.imports_skipped += outcome.imports_skipped
            self.stats.peak_candidate_routes = max(
                self.stats.peak_candidate_routes, candidate_total
            )
            if self.metrics is not None:
                self.metrics.counter("cpo.bgp_rounds").inc()
                self.metrics.gauge("cpo.candidate_routes").set(
                    candidate_total
                )
            # The round ends at a barrier: the slowest worker (route work
            # plus its share of RPC) bounds the modeled wall clock.
            self._modeled_barrier(
                [
                    w.resources.modeled_time - before
                    for w, before in zip(self.workers, clocks_before)
                ]
            )
            self.stats.bgp_rounds += 1
            dropped = (
                self.fault_plan.consume_drops()
                if self.fault_plan is not None
                else 0
            )
            if not any(outcome.changed for outcome in outcomes):
                if dropped == 0:
                    break
                # A batch was dropped this round: a "no change" verdict
                # may rest on a stale mailbox.  Exports are re-sent in
                # full every round, so one extra round heals the state
                # (the resent tuple is not the stale one the puller
                # merged, so its identity skip cannot hide the heal).
                self.stats.forced_rounds += 1
            if heartbeat_every and (round_token + 1) % heartbeat_every == 0:
                self._heartbeat()
        else:
            still_changing = {
                worker.worker_id: list(outcome.changed_nodes)
                for worker, outcome in zip(self.workers, last_outcomes)
                if outcome.changed
            }
            raise ConvergenceError(
                f"BGP did not converge within {self.max_rounds} rounds",
                shard_index=shard.index if shard is not None else 0,
                rounds=self.max_rounds,
                still_changing=still_changing,
            )

    def _flush_shard(self, flush_index: int) -> None:
        """Flush the converged shard to persistent storage, freeing RIBs."""
        with self.tracer.span(
            "cpo.flush", category="cpo", shard=flush_index
        ) as span:
            directory = self.store.directory
            results = self.runtime.map(
                [
                    (lambda w=w: w.flush_shard(directory, flush_index))
                    for w in self.workers
                ]
            )
            flush_deltas = []
            flushed_bytes = 0
            for worker, (written, selected) in zip(self.workers, results):
                self.stats.route_flush_bytes += written
                flushed_bytes += written
                self.stats.total_selected_routes += selected
                flush_deltas.append(worker.resources.charge_shard_overhead())
            span.set(bytes=flushed_bytes)
        if self.metrics is not None:
            self.metrics.counter("cpo.flush_bytes").inc(flushed_bytes)
        self._modeled_barrier(flush_deltas)
        self.stats.shards_run += 1

    # -- checkpoint/resume ----------------------------------------------------

    def _checkpoint_ospf(self) -> None:
        """Record the IGP result for respawn replay (and resume)."""
        if self.supervisor is not None:
            self.supervisor.checkpoint_ospf()
        if self.manifest is not None:
            self.manifest.ospf_done = True
            self.store.write_manifest(self.manifest)

    def _mark_shard_done(self, flush_index: int, rounds: int) -> None:
        if self.manifest is None:
            return
        self.manifest.mark_shard(flush_index, rounds=rounds)
        self.store.write_manifest(self.manifest)

    # -- §7 extension: runtime dependency refinement --------------------------

    def _collect_observed_dependencies(self) -> set:
        found: set = set()
        for deps in self.runtime.map(
            [w.observed_dependencies for w in self.workers]
        ):
            found |= deps
        return found

    def run_bgp_refining(self, shards: Sequence[PrefixShard]) -> None:
        """Run shards with runtime dependency refinement (§7).

        After a shard converges, workers report any prefix dependency
        they observed pointing *outside* the shard (an unforeseen
        dependency the DPDG missed).  The affected shards are merged and
        the union recomputed; since flush indices grow monotonically, a
        recomputation simply supersedes earlier results for its prefixes.

        (Refinement reshapes the shard list as it runs, so refined runs
        are not resumable: the manifest's flush indices would not line
        up across a restart.  Worker recovery still applies.)
        """
        pending: List[PrefixShard] = list(shards)
        flush_index = 0
        while pending:
            shard = pending.pop(0)
            attempts = 0
            while True:
                try:
                    self._converge_shard(shard)
                    break
                except WorkerFailure as failure:
                    attempts += 1
                    if attempts > self.retry_policy.max_shard_retries:
                        raise
                    self._recover(failure)
                    self.stats.shard_replays += 1
            unmet = {
                watch
                for _prefix, watch in self._collect_observed_dependencies()
                if watch not in shard
            }
            if unmet:
                absorbed = [
                    other
                    for other in pending
                    if other.prefixes & unmet
                ]
                merged_prefixes = set(shard.prefixes)
                for other in absorbed:
                    pending.remove(other)
                    merged_prefixes |= other.prefixes
                # Watches held by *already flushed* shards simply join the
                # merged shard: the recomputation's higher flush index
                # supersedes their earlier results for those prefixes.
                merged_prefixes |= unmet
                self.stats.shards_merged += 1 + len(absorbed)
                pending.insert(
                    0,
                    PrefixShard(
                        index=shard.index,
                        prefixes=frozenset(merged_prefixes),
                    ),
                )
                continue
            self._flush_shard(flush_index)
            flush_index += 1

    def run(
        self,
        shards: Optional[Sequence[PrefixShard]] = None,
        refine: bool = False,
    ) -> ControlPlaneStats:
        """IGPs first, then BGP over every shard (None = single pass).

        With a manifest attached (persistent store), OSPF is restored
        from its checkpoint when already done, converged shards are
        skipped, and every newly converged shard is recorded — the
        substrate of :meth:`~repro.dist.controller.S2Controller.resume`.
        """
        with stopwatch() as clock, self.tracer.span(
            "cpo.run", category="cpo"
        ) as span:
            if (
                self.manifest is not None
                and self.manifest.ospf_done
                and self.supervisor is not None
                and self.supervisor.restore_ospf()
            ):
                self.stats.ospf_restored = True
            else:
                self.run_ospf()
                self._checkpoint_ospf()
            if shards and refine:
                self.run_bgp_refining(shards)
            elif shards:
                for shard in shards:
                    if (
                        self.manifest is not None
                        and self.manifest.is_shard_done(shard.index)
                    ):
                        self.stats.shards_skipped += 1
                        continue
                    rounds_before = self.stats.bgp_rounds
                    self.run_bgp_shard(shard)
                    self._mark_shard_done(
                        shard.index, self.stats.bgp_rounds - rounds_before
                    )
            else:
                if self.manifest is not None and self.manifest.is_shard_done(
                    0
                ):
                    self.stats.shards_skipped += 1
                else:
                    rounds_before = self.stats.bgp_rounds
                    self.run_bgp_shard(None)
                    self._mark_shard_done(
                        0, self.stats.bgp_rounds - rounds_before
                    )
            self._collect_fault_telemetry()
            span.set(
                bgp_rounds=self.stats.bgp_rounds,
                shards=self.stats.shards_run,
            )
        self.stats.measured_seconds = clock.seconds
        return self.stats
