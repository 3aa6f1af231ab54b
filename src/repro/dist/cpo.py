"""The control plane orchestrator (CPO, §4.2).

Schedules protocols in sequence (IGPs before BGP), and for BGP runs the
distributed fixed point once per *batch* of prefix shards.  A round is
one superstep, one ``step`` fan-out: every worker applies the boundary
advertisements relayed to it, its nodes pull and merge the previous
round, and it computes this round's exports; the controller relays the
outbound batches through the senders' sidecars (measured bytes) as the
next step's inbound.  Only a boundary session whose export changed is
shipped (round 0, and the step after a dropped batch, ship all), and
the receiver's mailbox keeps the rest.  The rounds repeat until *all*
workers report no change — Algorithm 1 with the pull relays batched
per worker pair.

A batch is every pending shard, in order, that the modeled worker
ceiling admits at once (:func:`~repro.dist.sharding.plan_batches`): a
shard joins while, on every worker, the resting bytes plus its route
slots (:func:`~repro.dist.sharding.route_slots`) times the batch's
prefixes times ``ROUTE_BYTES`` stay within ``worker_capacity``.  Under
a ceiling that admits no two shards this is the per-shard run, which
bounds the per-worker peak at one shard (§4.5); with memory to spare
the whole network converges as one fixed point, since sharding only
slows a run that fits (the paper's Fig 4).  Shards are unions of DPDG
components, so a union of shards converges to the same routes.

A batch grows when the DPDG missed a dependency (§7 refinement): each
pull reports the conditional watches a worker's nodes consulted outside
the batch's union, and a batch that converges with any joins every shard
holding one (pending or already flushed) plus any watch no shard holds,
then converges again.  With the complete DPDG growth never fires.

When a batch converges, the workers flush it in one fan-out that writes
each shard's routes to its own file in the
:class:`~repro.dist.storage.RouteStore` (and frees the RIBs): the shard
stays the flush, carry-over and resume unit.  A flushed shard
that a later batch absorbs is rewritten atomically at its own index.

Fault tolerance rides on batch idempotency: ``begin_shard`` fully
resets per-shard state, so when a :class:`~repro.dist.faults.
WorkerFailure` surfaces anywhere in a batch, ``WorkerSupervisor.replay``
recovers the worker and reruns the whole batch, as grown so far, from
round 0 — bit-identical to the fault-free run; the flush is the unit's
last fan-out, so no replay follows a landed flush.  A dropped sidecar
batch leaves a stale mailbox entry, so the step after it ships every
export in full, and the CPO refuses to declare convergence in any round
where the fault plan dropped a batch.  A
:class:`~repro.dist.storage.RunManifest` marks each shard as soon as its
flush lands, letting :meth:`run` skip it on resume — an index only while
the manifest's packing still gives it the same prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import (
    AbstractSet, Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Set,
    Tuple,
)

from ..net.ip import Prefix
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer, stopwatch
from ..routing.engine import ConvergenceError
from .faults import FaultPlan
from .fleet import Fleet
from .message import RouteBatch
from .resources import ROUTE_BYTES, memory_bytes
from .sharding import PrefixShard, plan_batches
from .storage import RouteStore, RunManifest
from .worker import PullOutcome


@dataclass
class ControlPlaneStats:
    bgp_rounds: int = 0
    ospf_rounds: int = 0
    shards_run: int = 0
    batches_run: int = 0            # fixed points, one per batch of shards
    shards_merged: int = 0          # §7 refinement: shards a batch grew by
    measured_seconds: float = 0.0
    route_flush_bytes: int = 0
    peak_candidate_routes: int = 0  # summed over workers, any instant
    total_selected_routes: int = 0
    # -- fault tolerance -------------------------------------------------
    worker_failures: int = 0        # WorkerFailures recovered in BGP/OSPF
    shard_replays: int = 0          # batches rerun after a recovery
    ospf_replays: int = 0           # OSPF fixed points rerun after recovery
    forced_rounds: int = 0          # extra rounds forced by dropped batches
    shards_skipped: int = 0         # shards skipped on resume (manifest)
    ospf_restored: bool = False     # OSPF came from a checkpoint, not rounds
    batches_dropped: int = 0        # the plan's fired drops
    batches_duplicated: int = 0     # the plan's fired duplicates
    duplicates_discarded: int = 0   # receiver-side sequence dedup hits
    pipelined_deliveries: int = 0   # coalesced in-flight sends per round
    # -- change-driven rounds ------------------------------------------
    exports_reused: int = 0         # export tuples carried over unchanged
    imports_skipped: int = 0        # sessions whose advertisement was the
                                    # object already merged
    transforms_computed: int = 0    # per-prefix export/import transforms run
    transforms_reused: int = 0      # ... and carried over: same input route
    workers_lost: int = 0           # respawn budget spent; left the fleet
    shards_reassigned: int = 0      # shard files migrated to survivors


class ControlPlaneOrchestrator:
    def __init__(
        self,
        fleet: Fleet,
        store: RouteStore,
        supervisor,
        footprint: Callable[[], Dict[int, Tuple[int, int]]],
        ospf: bool = False,
        max_rounds: int = 200,
        fault_plan: Optional[FaultPlan] = None,
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
        # worker id -> (nodes, route slots) of the current partition,
        # what the batch planner admits shards against.
        self.footprint = footprint
        self.ospf = ospf  # some node of the snapshot runs OSPF
        self.manifest = manifest
        self.tracer = tracer or NULL_TRACER
        self.metrics = metrics
        self.stats = ControlPlaneStats()
        # Flush indices this run wrote: what a data-plane patch rereads.
        self.flushed: Set[int] = set()

    # -- helpers ------------------------------------------------------------

    def _recovered(self, counter: str, failed: int) -> None:
        """``on_recovered`` of a replayed unit: count the ``failed``
        workers, and the rerun in ``stats.<counter>``."""
        self.stats.worker_failures += failed
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)

    def _step(
        self, round_token: int, inbound: Dict[int, List[RouteBatch]],
        full: bool, ospf: bool = False,
    ) -> List[Tuple[int, Any, Tuple[RouteBatch, ...]]]:
        """One superstep fan-out: each worker gets its ``inbound`` batches;
        the duplicates the receivers discarded are counted here."""
        results = self.fleet.call_all(
            "step",
            each=lambda w: (
                round_token, inbound.get(w.worker_id, ()), full, ospf
            ),
        )
        self.stats.duplicates_discarded += sum(r[0] for r in results)
        return results

    def _relay(self, results) -> Tuple[Dict[int, List[RouteBatch]], int]:
        """Queue every step's outbound batches through its sender's
        sidecar (where the plan may drop or duplicate them); returns each
        receiver's next inbound and how many batches the plan dropped."""
        inbound: Dict[int, List[RouteBatch]] = {}
        for sidecar, (_, _, outbound) in zip(self.fleet.sidecars, results):
            for batch in outbound:
                copies = sidecar.queue_routes(batch)
                if copies:
                    inbound.setdefault(batch.target_worker, []).extend(copies)
                    self.stats.pipelined_deliveries += 1
        plan = self.fault_plan
        return inbound, plan.consume_drops() if plan is not None else 0

    def _converged(self, changed: bool, dropped: int) -> bool:
        """Whether a round that ``changed`` nothing ends the fixed point:
        not if the plan ``dropped`` one of its batches, since the "no
        change" may rest on a stale mailbox.  The next step ships every
        export in full, so one forced round heals it (the resent tuple is
        not the stale one the puller merged, so its identity skip cannot
        hide the heal)."""
        if not changed and dropped:
            self.stats.forced_rounds += 1
        return not (changed or dropped)

    # -- OSPF phase -----------------------------------------------------------

    def run_ospf(self) -> None:
        """The IGP fixed point and its checkpoint as one replayed unit.

        On a worker failure (the checkpoint's fan-out included) the
        recovered worker rejoins with an empty IGP state and the whole
        loop reruns: distance-vector convergence is monotone from any
        mixed state, so the fixed point (and hence the installed routes)
        is identical to the fault-free run.
        """

        def igp() -> None:
            if self.ospf:
                self._run_ospf_once()
            self.supervisor.checkpoint_ospf()

        self.supervisor.replay(igp, partial(self._recovered, "ospf_replays"))
        if self.manifest is not None:
            self.manifest.ospf_done = True
            self.store.write_manifest(self.manifest)

    def _run_ospf_once(self) -> None:
        """IGP steps until no worker changes; the fault plan's round is
        -1 throughout, and every step ships every export."""
        if self.fault_plan is not None:
            self.fault_plan.set_context(round_token=-1)
        inbound: Dict[int, List[RouteBatch]] = {}
        dropped = 0
        with self.tracer.span("cpo.ospf", category="cpo") as ospf_span:
            for token in range(self.max_rounds + 1):
                with self.tracer.span(
                    "cpo.ospf_step", category="cpo", round=token
                ):
                    results = self._step(token, inbound, True, ospf=True)
                if token:
                    self.stats.ospf_rounds += 1
                    if self.metrics is not None:
                        self.metrics.counter("cpo.ospf_rounds").inc()
                    if self._converged(any(r[1] for r in results), dropped):
                        break
                if token == self.max_rounds:
                    raise ConvergenceError(
                        f"OSPF did not converge within {self.max_rounds} "
                        "rounds",
                        rounds=self.max_rounds,
                    )
                inbound, dropped = self._relay(results)
            ospf_span.set(rounds=self.stats.ospf_rounds)
            self.fleet.call_all("install_ospf_routes")

    # -- BGP phase ------------------------------------------------------------------

    def run_batch(
        self,
        batch: Sequence[Optional[PrefixShard]],
        pending: Optional[List[PrefixShard]] = None,
        packing: Sequence[PrefixShard] = (),
    ) -> None:
        """Converge a batch of shards as one fixed point, then flush
        each shard to its own file, replaying after recoveries.

        The batch is the recovery unit: ``begin_shard`` (at the top of
        the fixed point) fully resets per-shard state on every worker,
        so a replay after respawning the failed worker reproduces the
        RIBs the fault-free run would have flushed.  Shards are unions
        of DPDG components, so the batch's union converges to the same
        routes as its shards one by one.  The flush is one fan-out, the
        unit's last, and marks every shard in the manifest once it lands.

        A batch that converges with watches outside its union (§7: the
        DPDG missed a dependency) grows by every shard of ``packing``
        holding one — taken out of ``pending``, or to be rewritten if
        already flushed — and by any watch no shard holds, and converges
        again.  Growth is a correctness step: it is not planned against
        the ceiling, and a replay keeps it.
        """
        batch = list(batch)
        extra: set = set()  # watches no shard of the packing holds
        grown: List[int] = []

        def converge_and_flush() -> None:
            while True:
                union = _union(batch, extra)
                rounds, dependencies = self._converge_shard(
                    union, _indices(batch), grown
                )
                if not dependencies:
                    break
                watches = {watch for _, watch in dependencies}
                for holder in packing:
                    if watches.isdisjoint(holder.prefixes):
                        continue
                    if pending and holder in pending:
                        pending.remove(holder)
                    batch.append(holder)
                    grown.append(holder.index)
                    self.stats.shards_merged += 1
                    watches -= holder.prefixes
                extra.update(watches)
            indices = _indices(batch)
            self._flush_shards([
                (index, shard if union is not shard else None)
                for shard, index in zip(batch, indices)
            ])
            for index in indices:
                self._mark_shard_done(index, rounds)

        self.supervisor.replay(
            converge_and_flush, partial(self._recovered, "shard_replays")
        )
        self.stats.batches_run += 1

    def _batch_limits(self) -> List[Tuple[int, int]]:
        """Per active worker, ``(free bytes, bytes per prefix)`` under
        its ceiling: free is the capacity less the worker's modeled
        bytes with no shard loaded, and a prefix costs its route slots
        times ``ROUTE_BYTES``."""
        footprint = self.footprint()
        limits = []
        for worker in self.fleet.workers:
            nodes, slots = footprint.get(worker.worker_id, (0, 0))
            resources = worker.resources
            resting = memory_bytes(
                0, resources.bdd_nodes, nodes, resources.fib_entries
            )
            limits.append((resources.capacity - resting, slots * ROUTE_BYTES))
        return limits

    def _converge_shard(
        self,
        shard: Optional[PrefixShard],
        flush_indices: Sequence[int] = (),
        grown: Sequence[int] = (),
    ) -> Tuple[int, FrozenSet[Tuple[Prefix, Prefix]]]:
        """Converge ``shard`` (a batch's union of shards, None for every
        prefix) as one fixed point; returns its rounds and the (prefix,
        watch) dependencies the workers observed outside it.  The fault
        plan's shard context is the batch's ``flush_indices`` (default:
        the shard's own index); ``grown`` names the shards growth
        absorbed into the batch, for the trace."""
        indices = list(flush_indices) or _indices([shard])
        if self.fault_plan is not None:
            self.fault_plan.set_context(shard=indices)
        # Epoch fence (serving mode): a worker at any other epoch refuses
        # the shard, which surfaces as a WorkerFailure and routes through
        # recovery.
        self.fleet.call_all("begin_shard", shard, self.fleet.epoch)
        rounds_before = self.stats.bgp_rounds
        with self.tracer.span(
            "cpo.shard", category="cpo", shard=indices[0], shards=indices
        ) as shard_span:
            if grown:
                shard_span.set(grown=list(grown))
            try:
                outcomes = self._converge_shard_rounds(indices[0])
            finally:
                shard_span.set(rounds=self.stats.bgp_rounds - rounds_before)
        return self.stats.bgp_rounds - rounds_before, frozenset().union(
            *(outcome.unmet_dependencies for outcome in outcomes)
        )

    def _converge_shard_rounds(self, shard_index: int) -> List[PullOutcome]:
        """Run steps until no worker changes in a round; returns that
        round's outcomes.

        Step ``t`` pulls round ``t - 1`` and computes round ``t``'s
        exports, so the plan's round context during step ``t`` and the
        relay of its batches is ``t``.  Round 0 ships every export, and
        so does the step after a relay the plan dropped a batch from.
        """
        outcomes: List[PullOutcome] = []
        inbound: Dict[int, List[RouteBatch]] = {}
        full, dropped = True, 0
        for round_token in range(self.max_rounds + 1):
            if self.fault_plan is not None:
                self.fault_plan.set_context(round_token=round_token)
            with self.tracer.span(
                "cpo.step", category="cpo", shard=shard_index,
                round=round_token, full=full,
            ) as span:
                results = self._step(round_token, inbound, full)
                if round_token:
                    outcomes = [result[1] for result in results]
                    self._account(outcomes)
                    if self._converged(
                        any(outcome.changed for outcome in outcomes), dropped
                    ):
                        return outcomes
                if round_token == self.max_rounds:
                    break
                inbound, dropped = self._relay(results)
                full = bool(dropped)
                span.set(batches=sum(map(len, inbound.values())))
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

    def _account(self, outcomes: Sequence[PullOutcome]) -> None:
        """Fold one round's pull outcomes into the stats and metrics."""
        candidate_total = 0
        for worker, outcome in zip(self.fleet.workers, outcomes):
            worker.resources.route_work += outcome.updates_processed
            candidate_total += outcome.candidate_routes
            self.stats.exports_reused += outcome.exports_reused
            self.stats.imports_skipped += outcome.imports_skipped
            self.stats.transforms_computed += outcome.transforms_computed
            self.stats.transforms_reused += outcome.transforms_reused
        self.stats.peak_candidate_routes = max(
            self.stats.peak_candidate_routes, candidate_total
        )
        if self.metrics is not None:
            self.metrics.counter("cpo.bgp_rounds").inc()
            self.metrics.gauge("cpo.candidate_routes").set(candidate_total)
        self.stats.bgp_rounds += 1

    def _flush_shards(
        self, parts: Sequence[Tuple[int, Optional[PrefixShard]]]
    ) -> None:
        """Flush a converged batch to persistent storage in one fan-out,
        one file per ``(flush index, shard)`` part on each worker
        (``shard``: only its prefixes, one shard of a batch; None: every
        converged route).  The plan's shard context is the parts'
        indices."""
        indices = [index for index, _shard in parts]
        if self.fault_plan is not None:
            self.fault_plan.set_context(shard=indices)
        with self.tracer.span(
            "cpo.flush", category="cpo", shard=indices[0], shards=indices
        ) as span:
            replies = self.fleet.call_all(
                "flush_shard", self.store.directory, parts
            )
            self.flushed.update(indices)
            flushed_bytes = 0
            for per_shard in replies:
                for written, selected in per_shard:
                    flushed_bytes += written
                    self.stats.total_selected_routes += selected
            self.stats.route_flush_bytes += flushed_bytes
            span.set(bytes=flushed_bytes)
        if self.metrics is not None:
            self.metrics.counter("cpo.flush_bytes").inc(flushed_bytes)
            # One durable write per worker and shard (each writes a file).
            self.metrics.counter("storage.worker_writes").inc(
                len(replies) * len(parts)
            )
        self.stats.shards_run += len(parts)

    # -- checkpoint/resume ----------------------------------------------------

    def _mark_shard_done(self, flush_index: int, rounds: int) -> None:
        if self.manifest is None:
            return
        self.manifest.mark_shard(flush_index, rounds=rounds)
        self.store.write_manifest(self.manifest)

    def run(
        self, shards: Optional[Sequence[PrefixShard]] = None
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
                and self.supervisor.restore_ospf(
                    partial(self._recovered, "ospf_replays")
                )
            ):
                self.stats.ospf_restored = True
            else:
                self.run_ospf()
            pending: List[Optional[PrefixShard]] = []
            for shard in shards or [None]:
                if self.manifest is not None and self.manifest.converged(shard):
                    self.stats.shards_skipped += 1
                else:
                    pending.append(shard)
            while pending:
                # Planned batch by batch: a loss mid-run moves nodes onto
                # the survivors, and the next batch sees it.
                batch = (
                    plan_batches(pending, self._batch_limits())[0]
                    if pending[0] is not None
                    else pending[:1]
                )
                del pending[: len(batch)]
                self.run_batch(batch, pending, shards or ())
            if self.fault_plan is not None:
                self.stats.batches_dropped = self.fault_plan.count("drop")
                self.stats.batches_duplicated = self.fault_plan.count(
                    "duplicate"
                )
            span.set(
                bgp_rounds=self.stats.bgp_rounds,
                shards=self.stats.shards_run,
                batches=self.stats.batches_run,
            )
        self.stats.measured_seconds = clock.seconds
        return self.stats


def _indices(batch: Sequence[Optional[PrefixShard]]) -> List[int]:
    """The batch's flush indices (0 for the single pass of an unsharded
    run)."""
    return [shard.index if shard is not None else 0 for shard in batch]


def _union(
    batch: Sequence[Optional[PrefixShard]], extra: AbstractSet[Prefix] = ()
) -> Optional[PrefixShard]:
    """One shard holding the batch's prefixes and ``extra``, at its first
    index."""
    if len(batch) == 1 and not extra:
        return batch[0]
    return PrefixShard(
        index=batch[0].index,
        prefixes=frozenset(extra).union(*(shard.prefixes for shard in batch)),
    )
