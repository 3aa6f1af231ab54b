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

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer, stopwatch
from ..routing.engine import ConvergenceError
from .faults import FaultPlan, RetryPolicy, WorkerFailure
from .fleet import Fleet, settle_all
from .sharding import PrefixShard
from .storage import RouteStore, RunManifest
from .worker import PullOutcome


@dataclass
class ControlPlaneStats:
    bgp_rounds: int = 0
    ospf_rounds: int = 0
    shards_run: int = 0
    shards_merged: int = 0  # §7 refinement: shards absorbed into reruns
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
        fleet: Fleet,
        store: RouteStore,
        max_rounds: int = 200,
        fault_plan: Optional[FaultPlan] = None,
        supervisor=None,
        retry_policy: Optional[RetryPolicy] = None,
        manifest: Optional[RunManifest] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        # Read at every phase: a loss or rejoin takes effect at the next.
        self.fleet = fleet
        self.store = store
        self.max_rounds = max_rounds
        self.fault_plan = fault_plan
        self.supervisor = supervisor
        self.retry_policy = retry_policy or RetryPolicy()
        self.manifest = manifest
        self.tracer = tracer or NULL_TRACER
        self.metrics = metrics
        self.stats = ControlPlaneStats()

    # -- helpers ------------------------------------------------------------

    def _replaying(self, unit: Callable[[], None], replays: str) -> None:
        """Run ``unit``; after a :class:`WorkerFailure`, have the
        supervisor recover the worker (or give up) and rerun the unit,
        at most ``max_shard_retries`` times, counting each rerun in
        ``stats.<replays>``."""
        attempts = 0
        while True:
            try:
                return unit()
            except WorkerFailure as failure:
                attempts += 1
                if attempts > self.retry_policy.max_shard_retries:
                    raise
                self.stats.worker_failures += 1
                if self.supervisor is None:
                    raise
                self.supervisor.recover(failure)
                setattr(self.stats, replays, getattr(self.stats, replays) + 1)

    def _heartbeat(self) -> None:
        """Probe worker liveness; a dead worker surfaces as WorkerFailure."""
        self.stats.heartbeat_probes += 1
        answers = self.fleet.call_all("ping")
        for worker, answer in zip(self.fleet.workers, answers):
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
        for sidecar, batches in zip(self.fleet.sidecars, batch_maps):
            for batch in batches.values():
                sidecar.queue_routes(batch)
                sent += 1
        handles = []
        for sidecar in self.fleet.sidecars:
            handles.extend(sidecar.flush_routes())
        settle_all(handles)
        self.stats.pipelined_deliveries += len(handles)
        return sent

    def _collect_fault_counts(self) -> None:
        """Fold sidecar and worker fault counters into the stats."""
        self.stats.batches_dropped = sum(
            s.batches_dropped for s in self.fleet.sidecars
        )
        self.stats.batches_duplicated = sum(
            s.batches_duplicated for s in self.fleet.sidecars
        )
        self.stats.duplicates_discarded = sum(
            worker.status().get("duplicate_batches", 0)
            for worker in self.fleet.workers
        )

    # -- OSPF phase -----------------------------------------------------------

    def run_ospf(self) -> None:
        """The IGP fixed point, with shard-style failure recovery.

        On a worker failure the recovered worker rejoins with an empty
        IGP state and the whole loop reruns: distance-vector convergence
        is monotone from any mixed state, so the fixed point (and hence
        the installed routes) is identical to the fault-free run.
        """
        self._replaying(self._run_ospf_once, "ospf_replays")

    def _run_ospf_once(self) -> None:
        if not any(worker.has_ospf() for worker in self.fleet.workers):
            return
        if self.fault_plan is not None:
            self.fault_plan.set_context(round_token=-1)
        with self.tracer.span("cpo.ospf", category="cpo") as ospf_span:
            for _round in range(self.max_rounds):
                with self.tracer.span(
                    "cpo.ospf_round", category="cpo", round=_round
                ):
                    self._exchange(
                        self.fleet.call_all("compute_ospf_exports")
                    )
                    changed_flags = self.fleet.call_all("pull_ospf_round")
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
            self.fleet.call_all("install_ospf_routes")

    # -- BGP phase ------------------------------------------------------------------

    def run_bgp_shard(self, shard: Optional[PrefixShard]) -> None:
        """Converge one shard and flush it, replaying after recoveries.

        A shard is the recovery unit: ``begin_shard`` (at the top of the
        fixed point) fully resets per-shard state on every worker, so a
        replay after respawning the failed worker reproduces the same
        RIBs the fault-free run would have flushed.
        """

        def converge_and_flush() -> None:
            self._converge_shard(shard)
            self._flush_shard(shard.index if shard is not None else 0)

        self._replaying(converge_and_flush, "shard_replays")

    def _converge_shard(self, shard: Optional[PrefixShard]) -> None:
        shard_index = shard.index if shard is not None else 0
        if self.fault_plan is not None:
            self.fault_plan.set_context(shard=shard_index)
        # Epoch fence (serving mode): a worker at any other epoch refuses
        # the shard, which surfaces as a WorkerFailure and routes through
        # recovery.
        self.fleet.call_all("begin_shard", shard, self.fleet.epoch)
        with self.tracer.span(
            "cpo.shard", category="cpo", shard=shard_index
        ) as shard_span:
            try:
                self._converge_shard_rounds(shard_index)
            finally:
                shard_span.set(rounds=self.stats.bgp_rounds)

    def _converge_shard_rounds(self, shard_index: int) -> None:
        heartbeat_every = self.retry_policy.heartbeat_interval_rounds
        outcomes: List[PullOutcome] = []
        for round_token in range(self.max_rounds):
            if self.fault_plan is not None:
                self.fault_plan.set_context(round_token=round_token)
            with self.tracer.span(
                "cpo.round", category="cpo", shard=shard_index,
                round=round_token,
            ):
                # Phase A: snapshot exports, batch the boundary ones.
                with self.tracer.span("cpo.exports", category="cpo"):
                    batch_maps = self.fleet.call_all(
                        "compute_exports", round_token
                    )
                with self.tracer.span("cpo.exchange", category="cpo") as ex:
                    sent = self._exchange(batch_maps)
                    ex.set(batches=sent)
                # Phase B: pull and merge.
                with self.tracer.span("cpo.pull", category="cpo"):
                    outcomes = self.fleet.call_all("pull_round", round_token)
            candidate_total = 0
            for worker, outcome in zip(self.fleet.workers, outcomes):
                worker.resources.route_work += outcome.updates_processed
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
                for worker, outcome in zip(self.fleet.workers, outcomes)
                if outcome.changed
            }
            raise ConvergenceError(
                f"BGP did not converge within {self.max_rounds} rounds",
                shard_index=shard_index,
                rounds=self.max_rounds,
                still_changing=still_changing,
            )

    def _flush_shard(self, flush_index: int) -> None:
        """Flush the converged shard to persistent storage, freeing RIBs."""
        with self.tracer.span(
            "cpo.flush", category="cpo", shard=flush_index
        ) as span:
            results = self.fleet.call_all(
                "flush_shard", self.store.directory, flush_index
            )
            flushed_bytes = 0
            for written, selected in results:
                self.stats.route_flush_bytes += written
                flushed_bytes += written
                self.stats.total_selected_routes += selected
            span.set(bytes=flushed_bytes)
        if self.metrics is not None:
            self.metrics.counter("cpo.flush_bytes").inc(flushed_bytes)
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
        for deps in self.fleet.call_all("observed_dependencies"):
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
            self._replaying(
                lambda: self._converge_shard(shard), "shard_replays"
            )
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
            else:
                for shard in shards or [None]:
                    index = shard.index if shard is not None else 0
                    if (
                        self.manifest is not None
                        and self.manifest.is_shard_done(index)
                    ):
                        self.stats.shards_skipped += 1
                        continue
                    rounds_before = self.stats.bgp_rounds
                    self.run_bgp_shard(shard)
                    self._mark_shard_done(
                        index, self.stats.bgp_rounds - rounds_before
                    )
            self._collect_fault_counts()
            span.set(
                bgp_rounds=self.stats.bgp_rounds,
                shards=self.stats.shards_run,
            )
        self.stats.measured_seconds = clock.seconds
        return self.stats
