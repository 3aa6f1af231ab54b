"""The resident verifier behind ``repro serve``.

A :class:`VerifierSession` wraps one :class:`~repro.dist.controller.
S2Controller` and keeps it *converged*: the worker fleet stays up
between requests, holding the committed epoch's state, and every
accepted delta advances a monotonically-increasing **epoch**.

Self-healing rests on four mechanisms:

* **Epoch fencing** — every delta bumps the epoch and re-seeds it into
  each worker; ``begin_shard`` carries the expected epoch, so a worker
  that respawned (fresh contexts boot at epoch ``-1``) or rejoined
  after a partition with stale state is *rejected*, routed through
  :meth:`~repro.dist.controller.WorkerSupervisor.recover` (respawn +
  OSPF checkpoint + epoch re-seed), and the shard replays.
* **Read/write separation** — queries read the last *committed* view
  (reachability matrix + RIBs), swapped atomically after each epoch
  commits.  A query during a recompute sees the previous epoch, never
  torn state.
* **Bounded admission** — deltas queue up to ``queue_limit``; beyond
  that :class:`SessionBusyError` sheds load explicitly.
* **Graceful degradation** — a recompute that fails terminally (worker
  recovery and shard replay exhausted, or the last worker lost) flips
  the session to *degraded*: the previous epoch keeps serving read-only
  and further deltas are refused.

A delta commits in steps: classify it; rebind the snapshot (announce:
changed hosts only, clean shards carried over) or reconfigure (full);
run the control plane over the shards left to recompute; rebuild the
data plane — after an announce-only epoch whose control plane
recovered nothing, each worker patches its FIBs within the dirty
prefixes and the recomputed shards and drops the compiled predicates
of the devices whose FIB changed; otherwise every worker builds from
empty; persist the epoch; recheck reachability;
swap in the view, whose RIBs are the previous view's with the
recomputed shards' prefixes read back (after a patch) or every shard
reread (otherwise).

Commits are two-phase on disk: the manifest (tagged with the epoch, and
holding the shard packing) is written, then the ``EPOCH`` tag file.  A warm
boot (:class:`VerifierSession` over an existing store) trusts the RIB
files only when the two agree — otherwise (torn commit, damaged
manifest) it raises the typed storage error internally and falls back
to a cold start.

Every commit rechecks all-pair reachability between the endpoints, but
only over the header space the epoch can have changed.  Forwarding is
destination-based, and an announce-only delta changes nothing but
``bgp.networks``: the only FIB entries that can differ are those for the
epoch's dirty prefixes (their BGP routes and the RECEIVE entries of
originations; ACLs, connected, static and OSPF routes are untouched).
An entry for prefix ``p`` matches only destinations in ``p``, so with
``D`` the union of the dirty prefixes, every packet outside ``D`` meets
the same entries and is forwarded exactly as in the committed epoch::

    reach'(s, d) = (reach(s, d) ∧ ¬D) ∨ forward_D(s, d)

where ``forward_D`` is the distributed all-pair forward with the injected
header restricted to ``D``.  The committed per-pair BDDs are kept for
that (in the DPO's controller engine, which is never collected).  The
full recheck is the same rule with ``D = TRUE``; it is taken on boot, for
a full delta, on a rebalance, when the endpoint set changed, and when
the supervisor recovered a worker during the epoch.  An empty ``D``
(the same config re-applied) forwards nothing.
"""

from __future__ import annotations

import os
import queue
import shutil
import tempfile
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, replace as dc_replace
from typing import Any, Callable, Dict, FrozenSet, Optional, Tuple

from ..bdd.engine import FALSE, TRUE, BddEngine
from ..config.loader import Snapshot
from ..dataplane.queries import Query
from ..dist.controller import S2Controller, S2Options
from ..dist.storage import CorruptShardError, EpochMismatchError, RouteStore
from ..net.ip import Prefix
from ..obs.journal import EventJournal
from ..obs.openmetrics import render_openmetrics
from ..routing.engine import BgpResult
from .deltas import DeltaClassification, DeltaError, classify


class SessionError(RuntimeError):
    """Base of the serving layer's refusals."""


class SessionBusyError(SessionError):
    """The admission queue is full; retry later (explicit load shed)."""


class SessionDegradedError(SessionError):
    """The session is read-only: a recompute failed terminally."""


class SessionClosedError(SessionError):
    """The session was closed (or has no committed epoch to serve)."""


class SessionDrainingError(SessionClosedError):
    """The session is shutting down: queued deltas are still finishing,
    but new ones are refused.  Subclasses :class:`SessionClosedError`
    so callers that only know "closed" still behave correctly; the API
    maps it to its own ``draining`` code."""


class UnknownEndpointError(SessionError):
    """A query named a node outside the committed endpoint set."""


@dataclass(frozen=True)
class CommittedView:
    """One epoch's queryable state; immutable, swapped atomically."""

    epoch: int
    endpoints: Tuple[str, ...]
    pairs: FrozenSet[Tuple[str, str]]
    ribs: BgpResult

    def holds(self, src: str, dst: str) -> bool:
        return (src, dst) in self.pairs


@dataclass(frozen=True)
class QueryResult:
    holds: bool
    epoch: int
    degraded: bool = False


@dataclass(frozen=True)
class DeltaResult:
    """What one committed delta did."""

    epoch: int
    kind: str                    # "announce" | "full"
    shards_recomputed: int
    shards_reused: int
    dirty_prefixes: int
    reachable_pairs: int
    lost_pairs: Tuple[Tuple[str, str], ...] = ()
    gained_pairs: Tuple[Tuple[str, str], ...] = ()
    # Always False: read only by the s2bench serve ledger, until that
    # ledger drops it (ROADMAP item 7).
    sequential_fallback: bool = False


# Per (source, destination): the BDD of packets that arrive.
Reachable = Dict[Tuple[str, str], int]


def merge_recheck(
    engine: BddEngine, committed: Reachable, fresh: Reachable, within: int
) -> Reachable:
    """``(committed ∧ ¬within) ∨ fresh`` per pair, FALSE pairs dropped:
    the committed epoch outside the rechecked header space, the fresh
    forward inside it."""
    outside = engine.not_(within)
    merged: Reachable = {}
    for pair in sorted(committed.keys() | fresh.keys()):
        bdd = engine.or_(
            engine.and_(committed.get(pair, FALSE), outside),
            fresh.get(pair, FALSE),
        )
        if bdd != FALSE:
            merged[pair] = bdd
    return merged


_STOP = object()

# While a worker is lost the mutator probes for its heal between deltas:
# first after HEAL_PROBE_BASE seconds, then HEAL_PROBE_FACTOR times
# longer after each probe that heals nothing, up to HEAL_PROBE_MAX.
HEAL_PROBE_BASE = 0.25
HEAL_PROBE_FACTOR = 2.0
HEAL_PROBE_MAX = 30.0


class VerifierSession:
    """A persistent, delta-accepting verifier over one worker fleet."""

    def __init__(
        self,
        snapshot: Snapshot,
        options: Optional[S2Options] = None,
        queue_limit: int = 8,
        warm_boot: bool = True,
        ground_truth_every: int = 0,
        journal_capacity: int = 512,
    ) -> None:
        opts = dc_replace(options) if options is not None else S2Options()
        self._owned_store = False
        if opts.store_dir is None:
            # Epoch commits and respawn re-seeding live on the store, so
            # a session is always persistent — anonymous ones own a
            # temp spool removed on close.
            opts.store_dir = tempfile.mkdtemp(prefix="s2-serve-")
            self._owned_store = True
        self.options = opts
        self.snapshot = snapshot
        self.epoch = 0
        self.degraded = False
        self.degraded_reason: Optional[str] = None
        self.warm_booted = False
        self.boot_fallback: Optional[str] = None
        self._closed = False
        self._draining = False
        self._recomputing = False
        self._view_lock = threading.Lock()
        self._committed: Optional[CommittedView] = None
        # The committed view's per-pair reachable BDDs, in the DPO's
        # controller engine; read and written by the mutator only.
        self._reachable: Reachable = {}
        # The structured event journal: bounded in memory, mirrored to a
        # JSONL sink on the store so post-mortems survive the process.
        self.journal = EventJournal(
            capacity=journal_capacity,
            sink_path=os.path.join(opts.store_dir, "journal.jsonl"),
        )
        self.last_commit_ts: Optional[float] = None
        # Post-commit spot check: every Nth committed epoch, walk sampled
        # concrete packets through the committed FIBs (no BDDs) and
        # compare against the symbolic verdicts (0 = off).
        self._ground_truth_every = max(0, ground_truth_every)
        self._commits = 0
        self._calls = 0  # worker calls issued up to the last commit
        self.last_ground_truth: Optional[Dict[str, Any]] = None
        self._queue: "queue.Queue" = queue.Queue(maxsize=max(1, queue_limit))
        self._controller = self._boot(warm_boot)
        self.journal.record(
            "boot",
            warm=self.warm_booted,
            fallback=self.boot_fallback,
            epoch=self.epoch,
            snapshot=snapshot.name,
            runtime=opts.runtime,
            workers=opts.num_workers,
        )
        self._commit_view()
        self._mutator = threading.Thread(
            target=self._mutate_loop, name="serve-mutator", daemon=True
        )
        self._mutator.start()

    # -- boot --------------------------------------------------------------

    def _boot(self, warm_boot: bool) -> S2Controller:
        if warm_boot:
            try:
                controller = self._try_warm_boot()
            except (CorruptShardError, EpochMismatchError, ValueError) as exc:
                # Typed damage — torn manifest JSON, epoch tag/manifest
                # disagreement, incompatible options hash.  The store
                # cannot be trusted; record why and start cold.
                self.boot_fallback = f"{type(exc).__name__}: {exc}"
            else:
                if controller is not None:
                    self.warm_booted = True
                    return controller
        return self._cold_start()

    def _try_warm_boot(self) -> Optional[S2Controller]:
        """Adopt an existing store's committed epoch; None = nothing there.

        Raises the typed storage errors (:class:`CorruptShardError`,
        :class:`EpochMismatchError`) or ``ValueError`` (options hash)
        when the store exists but cannot be trusted.
        """
        probe = RouteStore(self.options.store_dir)
        manifest = probe.read_manifest()
        if manifest is None:
            return None
        tag = probe.read_epoch_tag()
        if tag is None or tag != manifest.epoch:
            raise EpochMismatchError(manifest.epoch, tag)
        controller = S2Controller.resume(self.snapshot, self.options)
        # Attach the journal before any control-plane work: a worker
        # permanently lost *during boot* must still leave a record.
        controller.supervisor.journal = self.journal
        self.epoch = manifest.epoch
        controller.begin_epoch(self.epoch)
        controller.run_control_plane()
        controller.build_data_plane()
        return controller

    def _cold_start(self) -> S2Controller:
        controller = S2Controller(self.snapshot, self.options)
        controller.supervisor.journal = self.journal
        self.epoch = 0
        controller.begin_epoch(0)
        controller.run_control_plane()
        controller.build_data_plane()
        return controller

    # -- committed view ----------------------------------------------------

    def _commit_view(
        self,
        dirty: Optional[FrozenSet[Prefix]] = None,
        full_reason: str = "boot",
        recoveries: int = 0,
    ) -> Tuple[Optional[CommittedView], CommittedView]:
        """Persist the epoch (manifest, then tag), recheck, swap the view.

        ``dirty`` is the epoch's dirty prefix set when its delta allows
        the dirty-space recheck (``recoveries`` is the supervisor's count
        when the epoch began); None takes the full one for
        ``full_reason``.  With ``dirty`` the RIB view is the previous
        one with the recomputed shards' prefixes replaced.
        """
        controller = self._controller
        manifest = controller.manifest
        if manifest is not None:
            manifest.epoch = self.epoch
            controller.store.write_manifest(manifest)
            controller.store.write_epoch_tag(self.epoch)
        endpoints = tuple(controller.prefix_holders())
        previous = self._committed
        started = time.perf_counter()
        reachable, recheck, prefixes = self._recheck(
            endpoints, dirty, full_reason, recoveries
        )
        recheck_ms = (time.perf_counter() - started) * 1000.0
        view = CommittedView(
            epoch=self.epoch,
            endpoints=endpoints,
            pairs=frozenset(reachable),
            ribs=(
                controller.collected_ribs(previous.ribs, dirty)
                if dirty is not None
                else controller.collected_ribs()
            ),
        )
        self._reachable = reachable
        with self._view_lock:
            self._committed = view
        self.last_commit_ts = time.time()
        calls, self._calls = self._calls, controller.worker_calls()
        self.journal.record(
            "epoch_commit",
            epoch=self.epoch,
            rpcs=self._calls - calls,
            endpoints=len(endpoints),
            reachable_pairs=len(view.pairs),
            recheck=recheck,
            recheck_prefixes=prefixes,
            recheck_ms=round(recheck_ms, 3),
        )
        if self._ground_truth_every:
            self._commits += 1
            if (self._commits - 1) % self._ground_truth_every == 0:
                self._ground_truth_check(view)
        self._publish_gauges()
        return previous, view

    def _recheck(
        self,
        endpoints: Tuple[str, ...],
        dirty: Optional[FrozenSet[Prefix]],
        full_reason: str,
        recoveries: int,
    ) -> Tuple[Reachable, str, Optional[int]]:
        """The epoch's per-pair reachable BDDs (FALSE pairs dropped),
        the ``recheck`` journal tag, and the prefix count of ``D``.

        The dirty-space rule is the module docstring's.  Prefixes of the
        other address family are left out of ``D``: the predicates
        compile only the encoding's family.  A changed endpoint set, or
        a worker recovered at any point of the epoch (the dirty forward
        included), sends the commit down the full path.
        """
        controller = self._controller
        dpo = controller.dpo
        if dirty is not None and self._committed.endpoints != endpoints:
            dirty, full_reason = None, "endpoints"
        if dirty is None:
            within, carried, prefixes = TRUE, {}, None
        else:
            family = [
                p for p in dirty if p.width == dpo.encoding.address_bits
            ]
            within = dpo.encoding.prefix_set_bdd(dpo.engine, family)
            carried, prefixes = self._reachable, len(family)
        fresh: Reachable = {}
        if within != FALSE:
            fresh = controller.checker().check_reachability(
                Query(sources=endpoints, destinations=endpoints),
                within=within,
            ).reachable
        recovered = controller.supervisor.recoveries != recoveries
        if dirty is not None and recovered:
            return self._recheck(endpoints, None, "recovery", recoveries)
        reachable = merge_recheck(dpo.engine, carried, fresh, within)
        tag = "dirty" if dirty is not None else f"full:{full_reason}"
        return reachable, tag, prefixes

    def _ground_truth_check(self, view: CommittedView) -> None:
        """Audit the committed epoch with concrete packet walks.

        A mismatch does not degrade the session (queries keep serving
        the committed view), but it is surfaced in :meth:`health` and
        the ``serve.groundtruth_mismatches`` gauge — a symbolic verdict
        the concrete FIB walk contradicts is exactly the regression this
        spot check exists to catch.
        """
        from ..dataplane.verifier import verifier_from_ribs
        from ..groundtruth import audit_verifier

        try:
            dpv = verifier_from_ribs(self.snapshot, view.ribs)
            report = audit_verifier(
                dpv, seed=view.epoch, witnesses=1, near_misses=1
            )
            self.last_ground_truth = {
                "epoch": view.epoch,
                "ok": report.ok,
                "packets_walked": report.packets_walked,
                "mismatches": [
                    m.describe() for m in report.mismatches[:10]
                ],
            }
        except Exception as exc:  # noqa: BLE001 — a check, not the service
            self.last_ground_truth = {
                "epoch": view.epoch,
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
            }
        self.journal.record(
            "ground_truth",
            epoch=view.epoch,
            ok=bool(self.last_ground_truth.get("ok")),
            mismatches=len(self.last_ground_truth.get("mismatches", ())),
            error=self.last_ground_truth.get("error"),
        )

    def _publish_gauges(self) -> None:
        capacity = self._controller.capacity()
        gauges = {
            "serve.epoch": self.epoch,
            "serve.queue_depth": self._queue.qsize(),
            "serve.degraded": 1 if self.degraded else 0,
            "active_workers": capacity["active_workers"],
            "lost_workers": capacity["lost_workers"],
            "serve.capacity_ratio": capacity["capacity_ratio"],
        }
        if self.last_ground_truth is not None:
            # -1 flags an audit that failed to run at all.
            gauges["serve.groundtruth_mismatches"] = (
                -1
                if "error" in self.last_ground_truth
                else len(self.last_ground_truth.get("mismatches", ()))
            )
        self._controller.metrics.set_gauges(gauges)

    def _view(self) -> CommittedView:
        with self._view_lock:
            view = self._committed
        if view is None:
            raise SessionClosedError("no committed epoch yet")
        return view

    # -- reads (always served, never torn) ---------------------------------

    def query(self, src: str, dst: str) -> QueryResult:
        started = time.perf_counter()
        try:
            view = self._view()
            unknown = [n for n in (src, dst) if n not in view.endpoints]
            if unknown:
                raise UnknownEndpointError(
                    f"not in the committed endpoint set: {', '.join(unknown)}"
                )
            return QueryResult(
                holds=view.holds(src, dst),
                epoch=view.epoch,
                degraded=self.degraded,
            )
        finally:
            # Bounded-reservoir histogram: a resident session can absorb
            # millions of queries without growing.
            self._controller.metrics.histogram(
                "serve.query_latency"
            ).observe(time.perf_counter() - started)

    def routes(self, node: str) -> Dict[str, int]:
        """Per-prefix selected-route counts of one node's committed RIB."""
        view = self._view()
        if node not in view.ribs:
            raise UnknownEndpointError(f"unknown node {node!r}")
        return {
            str(prefix): len(selected)
            for prefix, selected in sorted(view.ribs[node].items())
        }

    def reachability(self) -> CommittedView:
        return self._view()

    def health(self) -> Dict[str, Any]:
        with self._view_lock:
            view = self._committed
        if self.degraded:
            status = "degraded"
        elif self._draining:
            status = "draining"
        elif self._recomputing or not self._queue.empty():
            status = "recomputing"
        else:
            status = "serving"
        supervisor = self._controller.supervisor
        capacity = self._controller.capacity()
        now = time.time()
        return {
            "status": status,
            "epoch": view.epoch if view is not None else None,
            "queue_depth": self._queue.qsize(),
            "degraded_reason": self.degraded_reason,
            "warm_boot": self.warm_booted,
            "boot_fallback": self.boot_fallback,
            "endpoints": len(view.endpoints) if view is not None else 0,
            "snapshot": self.snapshot.name,
            "workers": capacity["active_workers"],
            "capacity": capacity,
            "runtime": self.options.runtime,
            "ground_truth": self.last_ground_truth,
            # Machine-monitorable liveness: a scraper can alert on a
            # stalled journal sequence or a stale last-commit timestamp
            # without parsing prose.
            "journal": self.journal.describe(),
            "last_commit_ts": self.last_commit_ts,
            "last_commit_age_seconds": (
                now - self.last_commit_ts
                if self.last_commit_ts is not None
                else None
            ),
            "worker_health": {
                "recoveries": supervisor.recoveries,
                "stale_epoch_rejections": supervisor.stale_epoch_rejections,
                "workers": self._controller.fleet.statuses(),
            },
        }

    def statusz(self) -> Dict[str, Any]:
        """:meth:`health` plus the query-latency summary — the payload
        behind the ``statusz`` API op and ``repro top``."""
        status = self.health()
        status["query_latency"] = self._controller.metrics.histogram(
            "serve.query_latency"
        ).summary()
        return status

    def metrics_snapshot(self) -> Dict[str, Any]:
        return self._controller.metrics_snapshot()

    def openmetrics(self) -> str:
        """The session's metrics in OpenMetrics text format."""
        return render_openmetrics(self.metrics_snapshot())

    # -- writes (single mutator thread, bounded admission) -----------------

    def submit_delta(self, delta) -> Future:
        """Enqueue a delta; the Future resolves to a :class:`DeltaResult`."""
        if self._closed:
            if self._draining:
                raise SessionDrainingError(
                    "session is draining; new deltas refused"
                )
            raise SessionClosedError("session is closed")
        if self.degraded:
            raise SessionDegradedError(
                self.degraded_reason or "session is degraded"
            )
        future: Future = Future()
        try:
            self._queue.put_nowait((delta, future))
        except queue.Full:
            self.journal.record(
                "load_shed",
                queue_limit=self._queue.maxsize,
                epoch=self.epoch,
            )
            raise SessionBusyError(
                f"admission queue is full "
                f"({self._queue.maxsize} deltas pending)"
            ) from None
        return future

    def apply_delta(self, delta, timeout: Optional[float] = None) -> DeltaResult:
        return self.submit_delta(delta).result(timeout)

    def _mutate_loop(self) -> None:
        """Apply queued deltas and, while a worker is lost, probe for its
        heal at a backoff deadline.  A delta finishing past the deadline
        runs the probe before the next delta, so traffic cannot starve
        it; every fleet mutation stays on this thread."""
        delay = HEAL_PROBE_BASE
        next_probe: Optional[float] = None
        while True:
            lost = self._controller.fleet.lost
            if not lost or self.degraded or self._closed:
                delay, next_probe = HEAL_PROBE_BASE, None
            elif next_probe is None:
                next_probe = time.monotonic() + delay
            elif time.monotonic() >= next_probe:
                try:
                    healed = self._run(self._rebalance)
                except Exception:  # noqa: BLE001 — _run degraded the session
                    healed = False
                delay = (
                    HEAL_PROBE_BASE
                    if healed
                    else min(delay * HEAL_PROBE_FACTOR, HEAL_PROBE_MAX)
                )
                next_probe = None
                continue
            try:
                item = self._queue.get(
                    timeout=(
                        None
                        if next_probe is None
                        else max(0.0, next_probe - time.monotonic())
                    )
                )
            except queue.Empty:
                continue
            if item is _STOP:
                return
            delta, future = item
            if not future.set_running_or_notify_cancel():
                continue
            if self.degraded:
                future.set_exception(
                    SessionDegradedError(
                        self.degraded_reason or "session is degraded"
                    )
                )
                continue
            try:
                future.set_result(self._run(lambda: self._apply(delta)))
            except BaseException as exc:  # noqa: BLE001 — relayed
                future.set_exception(exc)

    def _run(self, event: Callable[[], Any]) -> Any:
        """Run one epoch event (a delta or a rebalance) on the mutator.

        A failure degrades the session and propagates, except a rejected
        delta (:class:`DeltaError` — bad hostname, unparsable text, no
        such link), which is refused before any state was touched.
        """
        self._recomputing = True
        try:
            return event()
        except DeltaError:
            raise
        except BaseException as exc:  # noqa: BLE001 — degradation ladder
            self.degraded = True
            self.degraded_reason = f"{type(exc).__name__}: {exc}"
            self.journal.record(
                "degraded",
                reason=self.degraded_reason,
                epoch=self.epoch,
            )
            self._publish_gauges()
            raise
        finally:
            self._recomputing = False

    def _apply(self, delta) -> DeltaResult:
        old_snapshot = self.snapshot
        new_snapshot, changed_hosts = delta.apply(old_snapshot)
        classification = classify(old_snapshot, new_snapshot, changed_hosts)
        epoch = self.epoch + 1
        self.journal.record(
            "delta_classified",
            delta_kind=classification.kind,
            incremental=classification.incremental,
            dirty_prefixes=len(classification.dirty_prefixes),
            changed_hosts=len(classification.changed_hosts),
            epoch=epoch,
        )
        controller = self._controller
        recoveries = controller.supervisor.recoveries
        if classification.incremental:
            self._prepare_incremental(new_snapshot, classification, epoch)
        else:
            self._prepare_full(new_snapshot, epoch)
        stats = controller.run_control_plane()
        if not classification.incremental:
            dirty, reason = None, "delta"
        elif controller.supervisor.recoveries != recoveries:
            dirty, reason = None, "recovery"
        else:
            dirty, reason = classification.dirty_prefixes, ""
        controller.rebuild_data_plane(dirty)
        self.snapshot = new_snapshot
        self.epoch = epoch
        previous, view = self._commit_view(dirty, reason, recoveries)
        return DeltaResult(
            epoch=epoch,
            kind=classification.kind,
            shards_recomputed=stats.shards_run,
            shards_reused=stats.shards_skipped,
            dirty_prefixes=len(classification.dirty_prefixes),
            reachable_pairs=len(view.pairs),
            lost_pairs=(
                tuple(sorted(previous.pairs - view.pairs))
                if previous is not None
                else ()
            ),
            gained_pairs=(
                tuple(sorted(view.pairs - previous.pairs))
                if previous is not None
                else ()
            ),
        )

    def _rebalance(self) -> bool:
        """Probe every lost worker; rebalance each healed one back in.

        Runs on the mutator thread.  A successful rejoin is a capacity
        change, so it lands as a fresh committed epoch; a host that is
        still down simply keeps the session at reduced capacity.
        """
        controller = self._controller
        healed = False
        for worker_id in sorted(controller.fleet.lost):
            epoch = self.epoch + 1
            if not controller.rejoin_worker(worker_id, epoch=epoch):
                continue
            self.epoch = epoch
            healed = True
        if healed:
            controller.rebuild_data_plane()
            self._commit_view(full_reason="rebalance")
        return healed

    def _prepare_incremental(
        self,
        new_snapshot: Snapshot,
        classification: DeltaClassification,
        epoch: int,
    ) -> None:
        """Announce-only path: carry clean shards over, recompute dirty
        (the new CPO counts the carried ones as ``shards_skipped``)."""
        controller = self._controller
        store = controller.store
        old_manifest = controller.manifest
        converged: Dict[Tuple[str, ...], int] = {}
        if old_manifest is not None:
            for index_text, prefixes in old_manifest.shard_prefixes.items():
                if old_manifest.is_shard_done(int(index_text)):
                    converged[tuple(prefixes)] = int(index_text)
        # Same topology and partition: rebuild only the changed hosts'
        # router models, seeding the new epoch in the same RPC; the
        # shards are repacked sticky, so clean ones keep their index.
        controller.rebind_snapshot(
            new_snapshot, classification.changed_hosts, epoch
        )
        # A shard is *clean* when it holds no dirty prefix and exactly
        # the prefixes of a converged flush index of the old epoch.
        dirty = classification.dirty_prefixes
        carry: Dict[int, int] = {}
        for shard in controller.shards:
            if shard.prefixes & dirty:
                continue
            old_index = converged.get(tuple(shard.prefix_list()))
            if old_index is not None:
                carry[shard.index] = old_index
        # A shard with any worker's file missing is recomputed instead.
        workers = [worker.worker_id for worker in controller.fleet.workers]
        present = set.intersection(
            *(set(store.worker_shard_indices(w)) for w in workers)
        )
        carry = {new: old for new, old in carry.items() if old in present}
        # A clean shard under its old index keeps its files in place; one
        # the packer moved (a cold repack) is read out before the reset.
        moved = {
            new: {w: store.read_shard_payload(w, old) for w in workers}
            for new, old in carry.items()
            if new != old
        }
        store.clear_shard_files(
            keep=[new for new, old in carry.items() if new == old]
        )
        for new_index, per_worker in moved.items():
            for worker_id, data in per_worker.items():
                store.write_shard_payload(worker_id, new_index, data)
        # Announce-only: the IGP result is unchanged.
        controller.start_run(carried=carry, ospf_done=True)

    def _prepare_full(self, new_snapshot: Snapshot, epoch: int) -> None:
        """Topology/policy path: repartition, respawn, recompute all."""
        controller = self._controller
        controller.reconfigure(new_snapshot, epoch)
        controller.store.clear_run_state()
        controller.start_run()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        # Draining before closed: new deltas get the typed refusal while
        # queued ones still finish.
        self._draining = True
        self._closed = True
        self.journal.record(
            "drain", epoch=self.epoch, queued=self._queue.qsize()
        )
        self._queue.put(_STOP)  # drains queued deltas first
        self._mutator.join(timeout=120)
        self._draining = False
        try:
            self._controller.close()
        finally:
            self.journal.close()
            if self._owned_store:
                shutil.rmtree(self.options.store_dir, ignore_errors=True)

    def __enter__(self) -> "VerifierSession":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
