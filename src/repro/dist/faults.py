"""Fault injection and the failure taxonomy of the distributed pipeline.

At the paper's scale worker crashes, stalled RPCs, and lost sidecar
batches are routine, so the reproduction needs a way to *provoke* them
deterministically.  A :class:`FaultPlan` — attachable to
:class:`~repro.dist.controller.S2Options` (``fault_plan=``) or built from
the CLI's ``--inject-fault`` specs — matches injection *sites* against a
list of :class:`FaultSpec` rules and fires seeded, bounded faults:

========== ===================================================================
kind        effect
========== ===================================================================
``crash``   kill the worker process (socket runtime) or return
            :class:`InjectedWorkerCrash` through the call's handle before
            the command runs (in process); recovery respawns/resets the
            worker and replays the shard from its last checkpoint
``delay``   sleep ``delay`` seconds before the matched call is issued
``error``   fail one transmission of the matched call before it is
            written (a transient wire failure); the channel retransmits
            under the same request id (socket runtime only)
``drop``    discard a sidecar route batch (the CPO detects the gap and
            forces an extra round, so the resent batch heals the state)
``duplicate`` deliver a sidecar route batch twice (receivers dedupe by
            sequence number)
``respawn_fail`` make the next respawn of the matched worker fail, which
            exercises the loss-migration path (and, when every worker
            is gone, the run's typed :class:`RespawnError`)
``host_loss`` kill the worker like ``crash`` **and** fail every respawn
            attempt for the next ``heal_after`` tries — a permanently
            dead host.  The supervisor exhausts its respawn budget,
            declares the worker lost, and migrates its shards to the
            survivors; once the budget drains the host "heals" and a
            serve session's prober can rebalance work back onto it
``partition`` cut the link to the matched worker in one direction
            (``where=request`` blocks requests from reaching it,
            ``where=response`` lets the request execute but severs the
            answer); the partition heals after ``heal_after`` blocked
            transmissions, and the channel's idempotent retries — or the
            supervisor's respawn path if the retry budget runs out —
            carry the run through (socket runtime only)
``reorder`` hold a request frame on the wire until the next frame
            passes it (RPC is synchronous, so phase barriers are
            unaffected; this stresses the demultiplexer)
``slow_link`` sleep ``delay`` seconds before the frame is written —
            a congested or high-latency link
``torn_frame`` transmit only a prefix of the frame and drop the
            connection mid-frame; the receiver must detect the tear via
            the framing layer and never deserialize garbage
========== ===================================================================

One site per layer, one retry loop.  Call faults (``crash``, ``delay``,
``host_loss``) are consulted at ``call_nowait``, the one call surface
both runtimes share; batch faults at the sidecar's ``queue_routes``;
wire faults (``error`` and the four chaos kinds) in
``RpcChannel._transmit``, where the channel's ``RpcFuture`` is the only
loop that retries.  Each firing is counted once, in
:attr:`FaultPlan.fired_by_kind`.

Matching is deterministic: a spec constrains worker id, BGP round, shard
index, and call/phase name (``command``), fires at most ``times`` times,
and (optionally) gates on a seeded coin flip, so a seeded plan replays
identically across runs — the property the fault-matrix equivalence
tests rely on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Union


# -- failure taxonomy -------------------------------------------------------


class WorkerFailure(RuntimeError):
    """Base class for infrastructure failures of one worker.

    Distinct from *result* exceptions (:class:`~repro.dist.resources.
    SimulatedOOM`, :class:`~repro.bdd.engine.BddOverflowError`): a
    ``WorkerFailure`` means the worker itself broke, and the supervisor
    may recover by respawning it and replaying from the last checkpoint.
    """

    def __init__(
        self,
        message: str,
        worker_id: Optional[int] = None,
        command: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.worker_id = worker_id
        self.command = command
        # A fan-out raises one failure naming every worker that failed
        # in it, this one first (:func:`~repro.dist.fleet.settle_all`).
        self.failures: List["WorkerFailure"] = [self]


class WorkerDiedError(WorkerFailure):
    """The worker is unreachable (connection lost or process dead)."""


class WorkerTimeoutError(WorkerFailure):
    """The worker did not answer a call within the configured timeout."""


class InjectedWorkerCrash(WorkerDiedError):
    """An in-process worker 'crashed' under fault injection."""


class RespawnError(WorkerFailure):
    """Respawning a dead worker failed: the worker is lost, and once no
    survivor remains the run fails with it."""


class StaleEpochError(WorkerFailure):
    """A worker presented (or was asked to act at) an out-of-date epoch.

    The serving layer (:mod:`repro.serve`) stamps every delta with a
    monotonically increasing epoch and fences shard work on it: a worker
    that was respawned from stale configure args, or that sat out an
    epoch bump behind a partition, fails the fence instead of silently
    computing against the wrong snapshot.  The supervisor treats it like
    any other :class:`WorkerFailure` — recover, re-seed the checkpoint
    *and the current epoch*, replay the shard.
    """


# -- supervision policy -----------------------------------------------------

#: Each retry's backoff sleep grows by this factor over the previous one.
BACKOFF_FACTOR = 2.0

#: Each retry's backoff sleep is stretched by a seeded ``[0, 0.25)``
#: fraction, so channels that failed together do not retry in lockstep.
BACKOFF_JITTER = 0.25


@dataclass(frozen=True)
class RetryPolicy:
    """Budgets for supervision: call deadlines, retries, unit replays.

    ``call_timeout`` is also the failure detector: every round calls
    every active worker, and a call that misses it or loses its
    connection is the failure signal.
    """

    call_timeout: float = 120.0      # seconds to wait for one proxy call
    max_call_retries: int = 3        # transport retries per call
    backoff_base: float = 0.05       # first backoff sleep (seconds)
    max_replays: int = 2             # recoveries of one worker within one
                                     # replayed unit (shard, query, ...)
    # Socket-transport knobs (see repro.dist.transport):
    rpc_window: int = 8              # in-flight requests per channel
    connect_timeout: float = 10.0    # budget for one TCP dial

    def backoff(self, attempt: int) -> float:
        """Sleep before retry ``attempt`` (1-based)."""
        return self.backoff_base * (BACKOFF_FACTOR ** max(0, attempt - 1))


# -- fault specification ----------------------------------------------------

KINDS = (
    "crash",
    "delay",
    "error",
    "drop",
    "duplicate",
    "respawn_fail",
    "host_loss",
    "partition",
    "reorder",
    "slow_link",
    "torn_frame",
)

#: Kinds consulted at ``call_nowait`` on either runtime.
_CALL_KINDS = {"crash", "delay", "host_loss"}
#: Kinds that kill the worker at the matched site (the caller treats a
#: fired ``host_loss`` exactly like ``crash``; the difference is what
#: happens when the supervisor tries to bring the worker back).
CRASH_KINDS = {"crash", "host_loss"}
_BATCH_KINDS = {"drop", "duplicate"}
#: Kinds injected at the socket transport layer (repro.dist.transport);
#: the in-process runtimes have no wire, so these never fire there.
NETWORK_KINDS = {"error", "partition", "reorder", "slow_link", "torn_frame"}


@dataclass
class FaultSpec:
    """One deterministic fault rule; ``None`` constraints match anything."""

    kind: str
    worker: Optional[int] = None     # worker id (batch faults: the sender)
    round: Optional[int] = None      # BGP/OSPF round token (-1 = OSPF)
    shard: Optional[int] = None      # shard flush index (matches while
                                     # its batch converges or it flushes)
    command: Optional[str] = None    # call/phase name (exact match)
    where: str = "before"            # "before" | "after_send" (crash), or
                                     # "request" | "response" (partition)
    delay: float = 0.0               # seconds (kind="delay"/"slow_link")
    times: int = 1                   # maximum firings (0 = unlimited)
    probability: float = 1.0         # seeded gate; 1.0 = always
    heal_after: int = 3              # partition: blocked sends before heal

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {KINDS}"
            )
        if self.where not in ("before", "after_send", "request", "response"):
            raise ValueError(f"unknown fault site {self.where!r}")
        if self.heal_after < 1:
            raise ValueError("heal_after must be >= 1")

    @property
    def direction(self) -> str:
        """Partition direction; ``before`` (the default) means request."""
        return self.where if self.where in ("request", "response") else "request"

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse a CLI spec: ``kind[:key=value,...]``.

        Example: ``crash:worker=1,shard=0,round=2,command=step``.
        """
        kind, _, rest = text.partition(":")
        kind = kind.strip()
        kwargs: Dict[str, object] = {}
        if rest.strip():
            for item in rest.split(","):
                key, sep, value = item.partition("=")
                key = key.strip()
                value = value.strip()
                if not sep:
                    raise ValueError(
                        f"bad fault option {item!r} (expected key=value)"
                    )
                if key in ("worker", "round", "shard", "times", "heal_after"):
                    kwargs[key] = int(value)
                elif key in ("delay", "probability"):
                    kwargs[key] = float(value)
                elif key in ("command", "where"):
                    kwargs[key] = value
                else:
                    raise ValueError(
                        f"unknown fault option {key!r} (valid: worker, "
                        "round, shard, command, where, delay, times, "
                        "probability, heal_after)"
                    )
        return cls(kind=kind, **kwargs)


class FaultPlan:
    """A seeded, bounded set of fault rules consulted at injection sites.

    The orchestrators keep the plan's shard/round context up to date;
    the proxies, workers, and sidecars ask it whether to fire at their
    site, all from the one thread driving the run (a phase's calls are
    issued in worker-id order), so a seeded plan fires identically run
    to run.
    """

    def __init__(
        self, specs: Sequence[FaultSpec] = (), seed: int = 0
    ) -> None:
        self.specs: List[FaultSpec] = list(specs)
        self._rng = random.Random(seed)
        self._fired: Dict[int, int] = {}       # spec index -> firing count
        self.fired_by_kind: Dict[str, int] = {}
        self._recent_drops = 0
        # (worker_id, direction) -> blocked transmissions remaining before
        # the injected partition heals.
        self._active_partitions: Dict[tuple, int] = {}
        # worker_id -> failed respawn attempts remaining before the host
        # heals (armed when a host_loss spec fires at a call site).
        self._lost_hosts: Dict[int, int] = {}
        self.current_shards: FrozenSet[int] = frozenset()
        self.current_round: Optional[int] = None
        # Observability hook: ``fn(kind, worker_id, command)`` called for
        # every firing (outside the plan lock).  The controller points it
        # at the metrics registry / tracer; it must never fail a run.
        self.observer = None

    @classmethod
    def from_args(
        cls, specs: Sequence[str], seed: int = 0
    ) -> "FaultPlan":
        """Build a plan from CLI ``--inject-fault`` strings."""
        return cls([FaultSpec.parse(text) for text in specs], seed=seed)

    def add(self, spec: FaultSpec) -> "FaultPlan":
        self.specs.append(spec)
        return self

    # -- context (maintained by the orchestrators) -----------------------

    def set_context(
        self,
        shard: Union[int, Iterable[int], None] = None,
        round_token: Optional[int] = None,
    ) -> None:
        """``shard``: the flush indices in flight — a batch's during its
        rounds, one during its flush (a bare int is one index)."""
        if shard is not None:
            self.current_shards = frozenset(
                (shard,) if isinstance(shard, int) else shard
            )
        if round_token is not None:
            self.current_round = round_token

    # -- matching --------------------------------------------------------

    def _matches(
        self,
        index: int,
        spec: FaultSpec,
        worker_id: Optional[int],
        command: Optional[str],
    ) -> bool:
        if spec.times and self._fired.get(index, 0) >= spec.times:
            return False
        if spec.worker is not None and spec.worker != worker_id:
            return False
        if spec.command is not None and spec.command != command:
            return False
        if spec.shard is not None and spec.shard not in self.current_shards:
            return False
        if spec.round is not None and spec.round != self.current_round:
            return False
        if spec.probability < 1.0 and self._rng.random() >= spec.probability:
            return False
        return True

    def _fire(self, index: int, spec: FaultSpec) -> FaultSpec:
        self._fired[index] = self._fired.get(index, 0) + 1
        self.fired_by_kind[spec.kind] = (
            self.fired_by_kind.get(spec.kind, 0) + 1
        )
        if spec.kind == "drop":
            self._recent_drops += 1
        return spec

    def _first_match(
        self,
        kinds,
        worker_id: Optional[int],
        command: Optional[str],
    ) -> Optional[FaultSpec]:
        fired: Optional[FaultSpec] = None
        for index, spec in enumerate(self.specs):
            if spec.kind not in kinds:
                continue
            if self._matches(index, spec, worker_id, command):
                fired = self._fire(index, spec)
                if fired.kind == "host_loss" and worker_id is not None:
                    # The host is now down: the next heal_after
                    # respawn attempts will fail too.
                    self._lost_hosts[worker_id] = (
                        self._lost_hosts.get(worker_id, 0)
                        + fired.heal_after
                    )
                break
        if fired is not None and self.observer is not None:
            try:
                self.observer(fired.kind, worker_id, command)
            except Exception:  # noqa: BLE001 — telemetry never fails a run
                pass
        return fired

    # -- injection sites -------------------------------------------------

    def on_call(
        self, worker_id: int, command: str
    ) -> Optional[FaultSpec]:
        """The call site, ``call_nowait`` on either runtime; the caller
        interprets the spec."""
        return self._first_match(_CALL_KINDS, worker_id, command)

    def on_batch(self, source_worker: int) -> str:
        """Sidecar route-batch site: 'deliver' | 'drop' | 'duplicate'."""
        spec = self._first_match(_BATCH_KINDS, source_worker, None)
        return spec.kind if spec is not None else "deliver"

    def check_respawn(self, worker_id: int) -> None:
        """Raise :class:`RespawnError` when the plan fails this respawn."""
        remaining = self._lost_hosts.get(worker_id, 0)
        if remaining > 0:
            # One probe consumed; the host heals when the budget
            # drains, after which respawns succeed again.
            if remaining == 1:
                del self._lost_hosts[worker_id]
            else:
                self._lost_hosts[worker_id] = remaining - 1
            self.fired_by_kind["respawn_fail"] = (
                self.fired_by_kind.get("respawn_fail", 0) + 1
            )
        if remaining > 0 or (
            self._first_match({"respawn_fail"}, worker_id, None) is not None
        ):
            raise RespawnError(
                f"respawn of worker {worker_id} failed (injected)",
                worker_id=worker_id,
            )

    def on_transport(
        self, worker_id: int, command: str
    ) -> Optional["FaultSpec"]:
        """Socket-transport site, consulted once per frame transmission.

        A matched ``partition`` is *activated* here — recorded as a
        blocked-transmission budget for its ``(worker, direction)`` link —
        and subsequently enforced by :meth:`partition_blocks`; the other
        network kinds (``error`` among them) are returned for the channel
        to act on directly.
        """
        spec = self._first_match(NETWORK_KINDS, worker_id, command)
        if spec is not None and spec.kind == "partition":
            key = (worker_id, spec.direction)
            self._active_partitions[key] = (
                self._active_partitions.get(key, 0) + spec.heal_after
            )
        return spec

    def partition_blocks(self, worker_id: int, direction: str) -> bool:
        """True while an active partition still blocks this link.

        Each blocked transmission consumes one unit of the partition's
        ``heal_after`` budget, so the link heals after a bounded number
        of retries — "heals after N rounds" at transport granularity,
        chosen over round-count healing because a fully blocked link
        prevents the very rounds that would otherwise age it out.
        """
        key = (worker_id, direction)
        remaining = self._active_partitions.get(key, 0)
        if remaining <= 0:
            return False
        if remaining == 1:
            del self._active_partitions[key]
        else:
            self._active_partitions[key] = remaining - 1
        return True

    # -- accounting ------------------------------------------------------

    def consume_drops(self) -> int:
        """Drops fired since the last call (the CPO's per-round check)."""
        count = self._recent_drops
        self._recent_drops = 0
        return count

    def count(self, kind: str) -> int:
        return self.fired_by_kind.get(kind, 0)


#: Every control-plane command a verify issues, and ``None`` (the
#: worker's next call): where :func:`sample_plan` crashes workers.
#: ``step`` runs every OSPF and BGP round.
CONTROL_PLANE_CALLS = (
    "step", "install_ospf_routes", "export_ospf_state", "begin_shard",
    "flush_shard", None,
)


def sample_plan(seed: int, num_workers: int) -> FaultPlan:
    """Draw a small recoverable fault plan for differential fuzzing.

    The sampled faults are all of the *survivable* kinds (crash with
    respawn, dropped/duplicated batches, and —
    since the loss-migration layer — a permanent ``host_loss`` whose
    shards migrate to the survivors): the fuzz oracle asserts that a run
    surviving them is bit-identical to a fault-free run.  Crashes and
    host losses hit any of :data:`CONTROL_PLANE_CALLS`.

    Every plan is survivable: one worker's crash firings plus host
    losses stay within ``RetryPolicy.max_replays`` (they can all land in
    one replayed unit), and the last worker is never lost; a draw past
    either bound is clamped or dropped.  Bare ``respawn_fail`` is
    excluded — with a budget of one failure it is indistinguishable
    from a slow respawn — and so is ``error``, a wire fault that cannot
    fire in process.
    """
    rng = random.Random(seed)
    specs: List[FaultSpec] = []
    for _ in range(rng.randint(1, 2)):
        kind = rng.choice(["crash", "drop", "duplicate", "host_loss"])
        worker, times = rng.randrange(num_workers), rng.randint(1, 2)
        spec = FaultSpec(kind, worker=worker, times=times)
        if kind in ("crash", "host_loss"):
            spec.command = rng.choice(CONTROL_PLANE_CALLS)
            failed = [s for s in specs if s.kind in ("crash", "host_loss")]
            if kind == "host_loss":
                # One loss, outlasting every respawn attempt so the
                # worker migrates, and never of the last worker left.
                lost = {s.worker for s in failed if s.kind == kind}
                spec.heal_after = 8
                spec.times = int(
                    worker not in lost and len(lost) + 1 < num_workers
                )
            spent = sum(s.times for s in failed if s.worker == worker)
            spec.times = min(spec.times, RetryPolicy().max_replays - spent)
            if spec.times < 1:
                continue
        specs.append(spec)
    return FaultPlan(specs, seed=seed)


def sample_host_loss_plan(seed: int, num_workers: int) -> FaultPlan:
    """One permanent host loss — the fuzz oracle's degraded-capacity
    variant (``repro fuzz --host-loss-every N``).

    ``heal_after`` far exceeds the respawn budget, so the matched worker
    is declared *lost* and its shards migrate to the survivors mid-run;
    the check is that the degraded run is still bit-identical to the
    fault-free baseline.  That needs a survivor: with one worker the
    loss fails the run typed, as losing every worker does.
    """
    rng = random.Random(seed ^ 0x105E)
    spec = FaultSpec(
        kind="host_loss",
        worker=rng.randrange(num_workers),
        # Step 1 pulls round 0; step 0 computes round 0's exports.
        command="step",
        round=rng.choice([1, 0]),
        times=1,
        heal_after=100,
    )
    return FaultPlan([spec], seed=seed)


def sample_network_plan(seed: int, num_workers: int) -> FaultPlan:
    """Draw a small recoverable *network* fault plan (socket runtime).

    All five network kinds are recoverable — partitions heal, errors,
    torn frames and reorders are absorbed by the idempotent retry
    machinery (or, past its budget, by respawn and replay), slow links
    merely cost time — so the chaos oracle can assert the
    run's results are bit-identical to a fault-free one.  Commands are
    constrained to the hot control-plane RPCs so every sampled fault
    actually fires.
    """
    rng = random.Random(seed ^ 0x5EED)
    kinds = sorted(NETWORK_KINDS)
    specs = [
        _wire_fault(rng, rng.choice(kinds), num_workers, (1, 2), (0.02, 0.05))
        for _ in range(rng.randint(1, 2))
    ]
    return FaultPlan(specs, seed=seed)


#: Every round issues this RPC, so a wire fault sampled on it fires.
_HOT_CALLS = ("step",)


def _wire_fault(
    rng: random.Random, kind: str, num_workers: int,
    times: Sequence[int], delays: Sequence[float],
) -> FaultSpec:
    """One wire fault on one of :data:`_HOT_CALLS`, fired ``times``
    (inclusive bounds) times; a slow link sleeps one of ``delays``."""
    spec = FaultSpec(
        kind=kind,
        worker=rng.randrange(num_workers),
        command=rng.choice(_HOT_CALLS),
        times=rng.randint(*times),
    )
    if kind == "partition":
        spec.where = rng.choice(["request", "response"])
        spec.heal_after = rng.randint(1, 2)
    elif kind == "slow_link":
        spec.delay = rng.choice(delays)
    return spec


def sample_serve_plan(seed: int, num_workers: int) -> FaultPlan:
    """Draw a recoverable fault plan for a *serve* session (multi-delta).

    A one-shot run sees each fault at most once; a resident session
    recomputes across many epochs, so the serve plan mixes network kinds
    (partition/torn_frame stress the epoch fence: a worker healed after a
    partition must be rejected and re-seeded, not trusted) with a bounded
    crash, and gives each spec more firings so faults land in more than
    the first delta.  Everything sampled is recoverable: the serve-chaos
    oracle asserts the session's final verdicts and RIBs are bit-identical
    to a cold start at the final config.
    """
    rng = random.Random(seed ^ 0xE60C)
    specs = [
        _wire_fault(rng, kind, num_workers, (2, 3), (0.01, 0.02))
        for kind in rng.sample(sorted(NETWORK_KINDS), k=2)
    ]
    if rng.random() < 0.5:
        # Half the plans crash a worker; one in four of those turns the
        # crash into a permanent host loss (shards migrate, capacity
        # drops, and the session rebalances back once the host heals).
        kind = "host_loss" if rng.random() < 0.25 else "crash"
        spec = FaultSpec(
            kind=kind,
            worker=rng.randrange(num_workers),
            command="step",
            round=rng.choice([1, 0]),
            times=1,
        )
        if kind == "host_loss":
            spec.heal_after = rng.randint(4, 8)
        specs.append(spec)
    return FaultPlan(specs, seed=seed)
