"""Fault injection, supervision, recovery, and checkpoint/resume.

The central claim under test: a run that loses workers mid-computation —
to crashes, stalled calls, dropped or duplicated sidecar batches —
produces **bit-identical** RIBs and verdicts to the fault-free run,
because recovery respawns the worker, replays the OSPF checkpoint, and
reruns the interrupted shard (which ``begin_shard`` makes idempotent).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro import FaultPlan, FaultSpec, RetryPolicy, S2Options, S2Verifier
from repro.config.loader import snapshot_from_texts
from repro.dist.controller import S2Controller, options_fingerprint
from repro.dist.faults import (
    InjectedWorkerCrash,
    RespawnError,
    WorkerDiedError,
    WorkerFailure,
)
from repro.dist.message import RouteBatch
from repro.dist.storage import CorruptShardError, RouteStore, RunManifest
from repro.net.fattree import FatTreeSpec, render_configs
from repro.routing.engine import ConvergenceError, SimulationEngine

from tests.conftest import call_site, normalize_ribs, one_shard_per_batch

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

RUNTIMES = ["sequential", "socket"]
# One crash per pipeline stage: BGP phase A (round 0's exports, in step
# 0), BGP phase B (round 0's pull, in step 1), the shard flush, the
# data-plane build, and the forwarding superstep.
CRASH_SITES = [
    "compute_exports",
    "pull_round",
    "flush_shard",
    "build_dataplane",
    "drain",
]


def _options(**overrides) -> S2Options:
    defaults = dict(num_workers=3, num_shards=2)
    defaults.update(overrides)
    return S2Options(**defaults)


@pytest.fixture(scope="module")
def baseline(fattree4):
    """Fault-free verdicts + RIBs to compare every faulted run against."""
    with S2Verifier(fattree4, _options()) as verifier:
        result = verifier.verify()
        ribs = normalize_ribs(verifier.collected_ribs())
    assert result.status == "ok"
    return result, ribs


# -- the fault matrix -------------------------------------------------------


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("site", CRASH_SITES)
def test_crash_recovery_matrix(site, runtime, fattree4, baseline):
    """A worker crash at any stage, under any runtime, is invisible in
    the results: same reachability verdicts, same RIBs."""
    base_result, base_ribs = baseline
    plan = FaultPlan([FaultSpec(kind="crash", worker=1, **call_site(site))])
    options = _options(runtime=runtime, fault_plan=plan)
    with S2Verifier(fattree4, options) as verifier:
        # All-pair reachability is answered by closure on this ACL-free
        # FatTree; the loop check is the superstep the drain site hits.
        result = verifier.verify(check_loops=True)
        ribs = normalize_ribs(verifier.collected_ribs())
        report = verifier.controller.report()
    assert plan.count("crash") == 1, "the injected crash never fired"
    assert result.status == "ok"
    assert result.reachable_pairs == base_result.reachable_pairs
    assert result.checked_pairs == base_result.checked_pairs
    assert ribs == base_ribs
    # The stats must confess: a failure happened and a worker came back.
    cp, dp = result.cp_stats, result.dp_stats
    assert cp.worker_failures + dp.worker_failures >= 1
    assert report.total_respawns >= 1
    if site in ("compute_exports", "pull_round", "flush_shard"):
        assert cp.shard_replays >= 1
    if site == "drain":
        assert dp.query_replays >= 1


@pytest.mark.parametrize("runtime", ["sequential", "socket"])
def test_dropped_and_duplicated_batches(runtime, fattree4, baseline):
    """Lost sidecar batches heal (exports are re-sent every round) and
    duplicated ones are discarded by sequence-number dedup."""
    base_result, base_ribs = baseline
    plan = FaultPlan(
        [
            FaultSpec(kind="drop", worker=0, times=2),
            FaultSpec(kind="duplicate", worker=2, times=2),
        ]
    )
    with S2Verifier(fattree4, _options(runtime=runtime, fault_plan=plan)) as v:
        result = v.verify()
        ribs = normalize_ribs(v.collected_ribs())
    assert result.status == "ok"
    assert ribs == base_ribs
    assert result.reachable_pairs == base_result.reachable_pairs
    assert result.cp_stats.batches_dropped == 2
    assert result.cp_stats.batches_duplicated == 2
    assert result.cp_stats.duplicates_discarded == 2


def test_drop_in_final_round_forces_extra_round(fattree4, fattree4_sim):
    """The premature-convergence hazard: a batch dropped in the round
    where every worker reports 'no change' must not end the fixed point
    on a stale mailbox.  The CPO forces one extra round."""
    _, oracle = fattree4_sim
    with S2Controller(fattree4, S2Options(num_workers=3)) as c:
        rounds = c.run_control_plane().bgp_rounds
    plan = FaultPlan([FaultSpec(kind="drop", round=rounds - 1)])
    with S2Controller(
        fattree4, S2Options(num_workers=3, fault_plan=plan)
    ) as c:
        stats = c.run_control_plane()
        ribs = normalize_ribs(c.collected_ribs())
    assert plan.count("drop") == 1
    assert stats.forced_rounds >= 1
    assert stats.bgp_rounds > rounds
    assert ribs == normalize_ribs(oracle)


def test_transient_rpc_errors_are_retried(fattree4, baseline):
    """Injected transient failures are absorbed by the channel's backoff
    retry loop without ever reaching shard-level recovery."""
    _, base_ribs = baseline
    plan = FaultPlan(
        [FaultSpec(kind="error", worker=1, command="step", times=2)]
    )
    policy = RetryPolicy(backoff_base=0.001)
    with S2Controller(
        fattree4,
        _options(runtime="socket", fault_plan=plan, retry_policy=policy),
    ) as c:
        stats = c.run_control_plane()
        ribs = normalize_ribs(c.collected_ribs())
        transport = c.metrics_snapshot()["transport"]
    assert ribs == base_ribs
    assert transport["worker1"]["retries"] == 2
    assert transport["total"]["retries"] == 2
    assert stats.worker_failures == 0
    assert stats.shard_replays == 0


def test_crash_after_send_is_recovered(fattree4, baseline):
    """A worker killed *after* the request was written to its socket dies
    mid-command; the proxy reports it and recovery replays the shard."""
    _, base_ribs = baseline
    plan = FaultPlan(
        [
            FaultSpec(
                kind="crash",
                worker=2,
                command="step",
                round=1,
                where="after_send",
            )
        ]
    )
    with S2Controller(
        fattree4, _options(runtime="socket", fault_plan=plan)
    ) as c:
        stats = c.run_control_plane()
        ribs = normalize_ribs(c.collected_ribs())
    assert stats.worker_failures >= 1
    assert ribs == base_ribs


def test_transient_respawn_failure_heals_within_budget(fattree4, baseline):
    """One failed respawn is *not* a lost worker: the budget (default 2)
    covers it, the second attempt succeeds, and the run stays fully
    distributed with identical RIBs."""
    _, base_ribs = baseline
    plan = FaultPlan(
        [
            FaultSpec(kind="crash", worker=1, command="step", round=1),
            FaultSpec(kind="respawn_fail", worker=1),
        ]
    )
    with S2Controller(
        fattree4, _options(runtime="socket", fault_plan=plan)
    ) as c:
        stats = c.run_control_plane()
        ribs = normalize_ribs(c.collected_ribs())
        capacity = c.capacity()
        respawns = c.report().total_respawns
    assert stats.workers_lost == 0
    assert capacity["lost_workers"] == 0
    assert respawns >= 1
    assert ribs == base_ribs


def _every_host_lost():
    """Every worker's host dies for good in BGP round 1."""
    return FaultPlan(
        [
            FaultSpec(
                kind="host_loss", worker=w, command="step", round=1,
                heal_after=100,
            )
            for w in range(3)
        ]
    )


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_losing_every_worker_fails_typed(
    runtime, fattree4, baseline, tmp_path
):
    """When *every* worker's host dies permanently there is nobody left
    to adopt the shards: the control plane raises the typed
    ``RespawnError`` naming the lost workers, ``verify()`` reports
    ``worker-failure``, and a fault-free resume of the same store still
    finishes with the baseline's RIBs."""
    _, base_ribs = baseline
    store = str(tmp_path / "spool")
    plan = _every_host_lost()
    with S2Controller(
        fattree4,
        _options(runtime=runtime, fault_plan=plan, store_dir=store),
    ) as c:
        with pytest.raises(RespawnError, match="no survivors remain") as err:
            c.run_control_plane()
        assert "workers 0, 1, 2 are lost" in str(err.value)
        assert plan.count("host_loss") == 3
        assert sorted(c.fleet.lost) == [0, 1, 2]
        assert c.capacity()["active_workers"] == 0
    with S2Verifier(
        fattree4, _options(runtime=runtime, fault_plan=_every_host_lost())
    ) as verifier:
        result = verifier.verify()
    assert result.status == "worker-failure"
    assert "no survivors remain" in result.error
    with S2Controller.resume(
        fattree4, _options(runtime=runtime, store_dir=store)
    ) as c:
        stats = c.run_control_plane()
        ribs = normalize_ribs(c.collected_ribs())
    assert stats.workers_lost == 0
    assert ribs == base_ribs


# -- permanent loss: shard reassignment ------------------------------------


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("site", ["compute_exports", "pull_round", "drain"])
def test_permanent_loss_matrix(site, runtime, fattree4, baseline):
    """Killing one worker's host for good — mid-BGP-round or mid-query —
    migrates its shards to the survivors and the run completes
    *distributed* with bit-identical results."""
    base_result, base_ribs = baseline
    plan = FaultPlan(
        [
            FaultSpec(
                kind="host_loss", worker=1, heal_after=100,
                **call_site(site),
            )
        ]
    )
    options = _options(runtime=runtime, fault_plan=plan)
    with S2Verifier(fattree4, options) as verifier:
        # The drain site is hit by the loop check (closure answers the
        # all-pair reachability of this ACL-free FatTree).
        result = verifier.verify(check_loops=True)
        ribs = normalize_ribs(verifier.collected_ribs())
        capacity = verifier.controller.capacity()
    cp_stats = result.cp_stats
    assert plan.count("host_loss") == 1, "the injected loss never fired"
    assert result.status == "ok"
    assert cp_stats.workers_lost == 1
    assert capacity["active_workers"] == 2
    assert capacity["lost_workers"] == 1
    assert capacity["capacity_ratio"] == pytest.approx(2 / 3)
    assert result.reachable_pairs == base_result.reachable_pairs
    assert ribs == base_ribs
    if site == "drain":
        # The loss hit after the shards were flushed, so the survivors
        # adopted real store files.
        assert cp_stats.shards_reassigned >= 1


def test_loss_mid_ospf_is_bit_identical():
    """A host lost during the OSPF phase: the survivors replay the union
    of the checkpoints and converge to the same mixed OSPF+BGP RIBs."""
    from tests.test_distributed_ospf import mixed_snapshot

    snapshot = mixed_snapshot()
    options = S2Options(num_workers=2, num_shards=2)
    with S2Controller(snapshot, options) as c:
        c.run_control_plane()
        base_ribs = normalize_ribs(c.collected_ribs())
    plan = FaultPlan(
        [
            FaultSpec(
                kind="host_loss", worker=1, command="step", round=-1,
                heal_after=100,
            )
        ]
    )
    with S2Controller(
        snapshot,
        S2Options(num_workers=2, num_shards=2, fault_plan=plan),
    ) as c:
        stats = c.run_control_plane()
        ribs = normalize_ribs(c.collected_ribs())
        capacity = c.capacity()
    assert plan.count("host_loss") == 1, "the OSPF-phase loss never fired"
    assert stats.workers_lost == 1
    assert capacity["lost_workers"] == 1
    assert ribs == base_ribs


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_lost_worker_rejoins_after_heal(runtime, fattree4, baseline):
    """Once the blacklisted host heals, ``rejoin_worker`` rebalances the
    shards back across the full fleet — and the RIBs survive the loss
    *and* the rejoin untouched, on every runtime."""
    _, base_ribs = baseline
    # heal_after=2 == the respawn budget: the host is dead long enough
    # to be declared lost, then heals.
    plan = FaultPlan(
        [
            FaultSpec(
                kind="host_loss", worker=1, command="step", round=1,
                heal_after=2,
            )
        ]
    )
    with S2Controller(
        fattree4, _options(runtime=runtime, fault_plan=plan)
    ) as c:
        stats = c.run_control_plane()
        assert stats.workers_lost == 1
        assert c.capacity() == {
            "active_workers": 2,
            "lost_workers": 1,
            "capacity_ratio": pytest.approx(2 / 3),
            "lost": {"1": c.fleet.lost[1].reason},
        }
        lost = c.fleet.lost[1].worker
        assert c.rejoin_worker(1)
        capacity = c.capacity()
        assert capacity["active_workers"] == 3
        assert capacity["lost_workers"] == 0
        assert c.fleet.workers[1] is lost       # same identity, back in
        assert set(c.partition.assignment.values()) == {0, 1, 2}
        assert normalize_ribs(c.collected_ribs()) == base_ribs


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_loss_freezes_worker_accounting(runtime, fattree4):
    """A lost worker's resource totals (and, over sockets, its transport
    counters) stay in the report — frozen at their last values and
    tagged ``lost`` — so the communication bill never silently
    shrinks."""
    plan = FaultPlan(
        [
            FaultSpec(
                kind="host_loss", worker=1, command="step", round=1,
                heal_after=100,
            )
        ]
    )
    with S2Controller(
        fattree4, _options(runtime=runtime, fault_plan=plan)
    ) as c:
        c.run_control_plane()
        report = c.report()
        snapshot = c.metrics_snapshot()
    assert len(report.workers) == 3       # nobody vanishes from the bill
    workers = {entry["name"]: entry for entry in snapshot["workers"]}
    assert workers["worker1"]["lost"] and not workers["worker0"]["lost"]
    assert workers["worker1"]["respawns"] == 0    # both respawns failed
    assert workers["worker1"]["rpc_bytes_sent"] > 0  # sent before loss
    assert snapshot["capacity"]["lost_workers"] == 1
    if runtime != "socket":
        assert "transport" not in snapshot  # in-process: no wire
        return
    transport = snapshot["transport"]
    assert transport["worker1"].get("lost")
    assert not transport["worker0"].get("lost")
    assert "lost" not in transport["total"]


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_two_losses_in_a_row_follow_the_one_assignment_rule(
    runtime, fattree4, fattree4_sim
):
    """Worker 1's host dies while shard 0 converges, worker 2's when
    shard 1 flushes (the default ceiling batches both shards into one
    fixed point, so the second loss aims at the flush).  The run
    stays distributed and bit-identical, and the second loss places
    every node exactly where ``_plan_partition`` around both lost
    workers does — the rule a full delta or a rejoin re-plans with, so
    neither moves nodes between survivors behind the run's back."""
    _, oracle = fattree4_sim
    plan = FaultPlan(
        [
            FaultSpec(
                kind="host_loss", worker=1, shard=0, command="step",
                round=1,
                heal_after=100,
            ),
            FaultSpec(
                kind="host_loss", worker=2, shard=1, command="flush_shard",
                heal_after=100,
            ),
        ]
    )
    options = _options(num_workers=4, runtime=runtime, fault_plan=plan)
    with S2Controller(fattree4, options) as controller:
        stats = controller.run_control_plane()
        ribs = normalize_ribs(controller.collected_ribs())
        assert plan.count("host_loss") == 2, "a loss never fired"
        assert sorted(controller.fleet.lost) == [1, 2]
        assert controller.partition.assignment == controller._plan_partition(
            sorted(controller.fleet.lost)
        ).assignment
    assert stats.workers_lost == 2
    assert ribs == normalize_ribs(oracle)


# -- durable state keyed by its writer --------------------------------------


def _per_shard_options(snapshot, **overrides) -> S2Options:
    """Three workers, four shards, one shard per batch."""
    options = _options(num_shards=4, **overrides)
    options.worker_capacity = one_shard_per_batch(snapshot, options)
    return options


def _host_loss_at_shard_2(heal_after: int = 100) -> FaultPlan:
    """Worker 1's host dies while shard 2 converges: the full fleet
    flushed shards 0 and 1, the survivors flush 2 and 3."""
    return FaultPlan(
        [
            FaultSpec(
                kind="host_loss", worker=1, shard=2, command="step",
                round=1, heal_after=heal_after,
            )
        ]
    )


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_resume_after_a_permanent_loss_gives_the_reference_verdicts(
    runtime, fattree4, fattree4_sim, baseline, tmp_path
):
    """A store whose run lost a worker, resumed on the full fleet,
    answers what the reference answers — its verdicts, not only its
    RIBs: worker 1 owns nodes again whose routes of shards 2 and 3 only
    the survivors' files hold, and it reads them there."""
    base_result, _ = baseline
    _, oracle = fattree4_sim
    store = str(tmp_path / "spool")
    plan = _host_loss_at_shard_2()
    with S2Verifier(
        fattree4,
        _per_shard_options(
            fattree4, runtime=runtime, store_dir=store, fault_plan=plan
        ),
    ) as verifier:
        lossy = verifier.verify()
    assert plan.count("host_loss") == 1, "the loss never fired"
    assert lossy.cp_stats.workers_lost == 1
    assert lossy.cp_stats.shards_reassigned == 2  # shards 0 and 1
    with S2Verifier.resume(
        fattree4, _per_shard_options(fattree4, runtime=runtime, store_dir=store)
    ) as verifier:
        resumed = verifier.verify()
        ribs = normalize_ribs(verifier.collected_ribs())
    assert resumed.status == "ok"
    assert resumed.cp_stats.shards_skipped == 4
    assert resumed.cp_stats.ospf_restored
    assert resumed.reachable_pairs == base_result.reachable_pairs
    assert resumed.checked_pairs == base_result.checked_pairs
    assert ribs == normalize_ribs(oracle)


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_a_loss_and_a_rejoin_write_no_shard_bytes(
    runtime, fattree4, fattree4_sim, tmp_path
):
    """A file stays keyed by the worker that wrote it: neither the loss
    nor the rejoin writes a shard byte or unlinks a file through the
    controller's store.  Its only writes are the manifest and the OSPF
    checkpoint, as many as a fault-free run makes, and the RIBs survive
    both membership changes."""
    _, oracle = fattree4_sim
    with S2Controller(
        fattree4,
        _per_shard_options(
            fattree4, runtime=runtime, store_dir=str(tmp_path / "clean")
        ),
    ) as c:
        c.run_control_plane()
        clean = c.storage_counts()
    plan = _host_loss_at_shard_2(heal_after=2)
    with S2Controller(
        fattree4,
        _per_shard_options(
            fattree4, runtime=runtime, store_dir=str(tmp_path / "lossy"),
            fault_plan=plan,
        ),
    ) as c:
        assert c.run_control_plane().workers_lost == 1
        lost = c.storage_counts()
        assert c.rejoin_worker(1)
        rejoined = c.storage_counts()
        ribs = normalize_ribs(c.collected_ribs())
        bytes_written = c.store.bytes_written
    assert bytes_written == 0
    assert lost["unlinks"] == 0
    assert lost["controller_writes"] == clean["controller_writes"]
    assert rejoined == lost
    assert ribs == normalize_ribs(oracle)


def test_unrecoverable_dataplane_failure_is_reported(fattree4):
    """A worker that crashes on *every* build attempt exhausts the query
    retry budget; verify() reports it instead of raising."""
    plan = FaultPlan(
        [FaultSpec(kind="crash", worker=0, command="build_dataplane", times=0)]
    )
    with S2Verifier(fattree4, _options(fault_plan=plan)) as verifier:
        result = verifier.verify()
    assert result.status == "worker-failure"
    assert result.error


# -- kill-and-resume --------------------------------------------------------

_KILL_SCRIPT = """
import os, sys
sys.path.insert(0, {src!r})
from repro import FaultPlan, FaultSpec, RetryPolicy, S2Options
from repro.dist.controller import S2Controller
from repro.dist.faults import WorkerFailure
from repro.net.fattree import build_fattree

snapshot = build_fattree(4)
# One shard per batch (a batch flushes in one fan-out).  Crash worker 1
# on every flush of shard 2, with no recovery budget: the run dies after
# shards 0 and 1 were flushed and recorded.
plan = FaultPlan([FaultSpec(
    kind="crash", worker=1, shard=2, command="flush_shard", times=0)])
options = S2Options(
    num_workers=3, num_shards=4, store_dir={store!r},
    worker_capacity={capacity!r},
    fault_plan=plan, retry_policy=RetryPolicy(max_replays=0))
controller = S2Controller(snapshot, options)
try:
    controller.cpo.run(controller.shards)
except WorkerFailure:
    os._exit(9)   # hard kill: no close(), no teardown, like a power cut
os._exit(1)
"""


def test_kill_and_resume_roundtrip(fattree4, fattree4_sim, tmp_path):
    """A run hard-killed mid-way resumes from its manifest: converged
    shards are skipped, only the remainder is recomputed, and the final
    RIBs match the monolithic oracle exactly."""
    _, oracle = fattree4_sim
    store = str(tmp_path / "spool")
    capacity = one_shard_per_batch(fattree4, _options(num_shards=4))
    script = _KILL_SCRIPT.format(src=SRC_DIR, store=store, capacity=capacity)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, timeout=240
    )
    assert proc.returncode == 9, proc.stderr.decode()[-2000:]

    options = S2Options(
        num_workers=3, num_shards=4, store_dir=store,
        worker_capacity=capacity,
    )
    with S2Controller.resume(fattree4, options) as controller:
        manifest_before = controller.manifest.completed_shards()
        stats = controller.run_control_plane()
        ribs = normalize_ribs(controller.collected_ribs())
        manifest_after = controller.store.read_manifest()
    assert manifest_before == [0, 1]
    assert stats.shards_skipped == 2
    assert stats.shards_run == 2          # only the interrupted remainder
    assert stats.ospf_restored
    assert ribs == normalize_ribs(oracle)
    assert manifest_after.completed_shards() == [0, 1, 2, 3]


def test_resume_refuses_incompatible_options(fattree4, tmp_path):
    store = str(tmp_path / "spool")
    with S2Controller(
        fattree4, S2Options(num_workers=3, num_shards=4, store_dir=store)
    ) as controller:
        controller.run_control_plane()
    with pytest.raises(ValueError, match="incompatible options"):
        S2Controller.resume(
            fattree4, S2Options(num_workers=2, num_shards=4, store_dir=store)
        )


def test_resume_requires_manifest(fattree4, tmp_path):
    with pytest.raises(ValueError, match="nothing to resume"):
        S2Controller.resume(
            fattree4, S2Options(store_dir=str(tmp_path / "empty"))
        )
    with pytest.raises(ValueError, match="store_dir"):
        S2Controller.resume(fattree4, S2Options())


def test_resume_of_completed_run_skips_everything(fattree4, tmp_path):
    store = str(tmp_path / "spool")
    with S2Controller(
        fattree4, S2Options(num_workers=3, num_shards=4, store_dir=store)
    ) as controller:
        controller.run_control_plane()
        ribs = normalize_ribs(controller.collected_ribs())
    options = S2Options(num_workers=3, num_shards=4, store_dir=store)
    with S2Controller.resume(fattree4, options) as controller:
        stats = controller.run_control_plane()
        assert stats.shards_skipped == 4
        assert stats.shards_run == 0
        assert stats.bgp_rounds == 0
        assert normalize_ribs(controller.collected_ribs()) == ribs


def _completed_store(snapshot, store):
    options = S2Options(num_workers=3, num_shards=4, store_dir=store)
    with S2Controller(snapshot, options) as controller:
        controller.run_control_plane()
        packing = [s.prefix_list() for s in controller.shards]
    return options, packing


def _tamper(store, edit):
    path = os.path.join(store, "manifest.json")
    with open(path) as handle:
        data = json.load(handle)
    edit(data["shard_prefixes"])
    with open(path, "w") as handle:
        json.dump(data, handle)


def _drop_one(packing):
    packing["0"].pop()


def _duplicate_one(packing):
    packing["1"].append(packing["0"][0])


def _unparsable(packing):
    packing["2"][0] = "10.0.0.0/99"


def _missing(packing):
    packing.clear()


@pytest.mark.parametrize(
    "edit", [_drop_one, _duplicate_one, _unparsable, _missing]
)
def test_resume_over_a_tampered_packing_recomputes_everything(
    fattree4, fattree4_sim, tmp_path, edit
):
    """A stored packing that no longer covers the snapshot is not
    adopted: the resume packs cold, trusts no converged mark, and its
    RIBs equal the monolithic engine's."""
    _, oracle = fattree4_sim
    store = str(tmp_path / "spool")
    options, packing = _completed_store(fattree4, store)
    _tamper(store, edit)
    with S2Controller.resume(fattree4, options) as controller:
        assert [s.prefix_list() for s in controller.shards] == packing
        stats = controller.run_control_plane()
        ribs = normalize_ribs(controller.collected_ribs())
        manifest = controller.store.read_manifest()
    assert stats.shards_skipped == 0
    assert stats.shards_run == 4
    assert ribs == normalize_ribs(oracle)
    assert manifest.completed_shards() == [0, 1, 2, 3]
    assert [manifest.shard_prefixes[str(i)] for i in range(4)] == packing


def test_resume_onto_a_snapshot_without_a_stored_prefix_recomputes(
    tmp_path,
):
    """The store's packing holds a prefix the resumed snapshot no longer
    announces: it is not adopted, so no stale result is served."""
    texts = render_configs(FatTreeSpec(k=4))
    dialect, text = texts["edge-0-0"]
    grown = dict(texts)
    grown["edge-0-0"] = (
        dialect,
        text.replace(
            " network ", " network 203.0.113.0 mask 255.255.255.0\n network ", 1
        ),
    )
    store = str(tmp_path / "spool")
    _completed_store(snapshot_from_texts(grown, name="ft4"), store)
    snapshot = snapshot_from_texts(texts, name="ft4")
    options = S2Options(num_workers=3, num_shards=4, store_dir=store)
    with S2Controller.resume(snapshot, options) as controller:
        stats = controller.run_control_plane()
        ribs = normalize_ribs(controller.collected_ribs())
    assert stats.shards_skipped == 0
    assert ribs == normalize_ribs(SimulationEngine(snapshot).run())


def test_resume_adopts_a_valid_stored_packing(fattree4, tmp_path):
    """The flush indices on disk refer to the stored packing, so a
    resume keeps it even where a cold pack would differ."""
    store = str(tmp_path / "spool")
    options, packing = _completed_store(fattree4, store)

    def swap(stored):
        stored["0"], stored["1"] = stored["1"], stored["0"]

    _tamper(store, swap)
    with S2Controller.resume(fattree4, options) as controller:
        adopted = [s.prefix_list() for s in controller.shards]
        stats = controller.run_control_plane()
    assert adopted == [packing[1], packing[0]] + packing[2:]
    assert stats.shards_skipped == 4


def test_fresh_run_clears_stale_store(fattree4, tmp_path):
    """A *fresh* run over a reused spool directory must not inherit the
    previous run's shards (or its manifest)."""
    store = str(tmp_path / "spool")
    with S2Controller(
        fattree4, S2Options(num_workers=3, num_shards=4, store_dir=store)
    ) as controller:
        controller.run_control_plane()
    with S2Controller(
        fattree4, S2Options(num_workers=3, num_shards=4, store_dir=store)
    ) as controller:
        assert controller.manifest.completed_shards() == []
        stats = controller.run_control_plane()
        assert stats.shards_run == 4      # nothing skipped: it recomputed


def test_options_fingerprint_ignores_supervision_knobs(fattree4):
    base = S2Options(num_workers=3, num_shards=4)
    tweaked = S2Options(
        num_workers=3,
        num_shards=4,
        runtime="socket",
        fault_plan=FaultPlan([FaultSpec(kind="crash")]),
        retry_policy=RetryPolicy(call_timeout=1.0),
    )
    different = S2Options(num_workers=3, num_shards=8)
    assert options_fingerprint(base, fattree4) == options_fingerprint(
        tweaked, fattree4
    )
    assert options_fingerprint(base, fattree4) != options_fingerprint(
        different, fattree4
    )


# -- storage: crash-safe writes --------------------------------------------


def test_write_shard_is_atomic_and_leaves_no_temp_files(tmp_path):
    store = RouteStore(str(tmp_path))
    store.write_shard(0, 0, {"leaf1": {}})
    store.write_shard(0, 0, {"leaf1": {}})  # overwrite goes through temp
    names = os.listdir(str(tmp_path))
    assert "worker000-shard0000.rib" in names
    assert not [n for n in names if ".tmp." in n]
    assert store.read_shard(0, 0) == {"leaf1": {}}


def test_corrupt_shard_file_is_reported_with_path(tmp_path):
    store = RouteStore(str(tmp_path))
    store.write_shard(0, 0, {})
    path = os.path.join(str(tmp_path), "worker000-shard0000.rib")
    with open(path, "wb") as handle:
        handle.write(b"\x80\x04 torn write garbage")
    with pytest.raises(CorruptShardError) as excinfo:
        store.read_shard(0, 0)
    assert excinfo.value.path == path
    assert path in str(excinfo.value)


def test_manifest_roundtrip(tmp_path):
    store = RouteStore(str(tmp_path))
    manifest = RunManifest(options_hash="abc123", seed=7, num_workers=3)
    manifest.mark_shard(0, rounds=5)
    manifest.ospf_done = True
    store.write_manifest(manifest)
    loaded = store.read_manifest()
    assert loaded.options_hash == "abc123"
    assert loaded.ospf_done
    assert loaded.is_shard_done(0)
    assert not loaded.is_shard_done(1)
    assert loaded.completed_shards() == [0]


# -- fault plan / spec units -----------------------------------------------


def test_fault_spec_parse():
    spec = FaultSpec.parse("crash:worker=1,round=3,command=step")
    assert (spec.kind, spec.worker, spec.round) == ("crash", 1, 3)
    assert spec.command == "step"
    spec = FaultSpec.parse("delay:delay=0.5,times=0,probability=0.25")
    assert (spec.delay, spec.times, spec.probability) == (0.5, 0, 0.25)
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec.parse("meteor:worker=1")
    with pytest.raises(ValueError, match="unknown fault option"):
        FaultSpec.parse("crash:planet=earth")


def test_fault_plan_respects_times_and_context():
    plan = FaultPlan(
        [FaultSpec(kind="crash", worker=1, shard=1, command="step")]
    )
    plan.set_context(shard=0, round_token=0)
    assert plan.on_call(1, "step") is None   # wrong shard
    plan.set_context(shard=1)
    assert plan.on_call(0, "step") is None   # wrong worker
    assert plan.on_call(1, "begin_shard") is None  # wrong site
    assert plan.on_call(1, "step") is not None
    plan.set_context(round_token=1)
    assert plan.on_call(1, "step") is None   # times=1 exhausted
    assert plan.count("crash") == 1


def test_fault_plan_matches_a_shard_inside_its_batch():
    """While a batch converges or flushes, every flush index in it is
    in flight."""
    plan = FaultPlan(
        [FaultSpec(kind="crash", shard=2, command="step", times=0)]
    )
    plan.set_context(shard=[0, 1], round_token=0)
    assert plan.on_call(0, "step") is None   # not in this batch
    plan.set_context(shard=[0, 1, 2, 3])
    assert plan.on_call(0, "step") is not None
    plan.set_context(shard=[1])              # another batch flushes
    assert plan.on_call(0, "step") is None
    plan.set_context(shard=2)                # a bare index
    assert plan.on_call(0, "step") is not None
    assert plan.count("crash") == 2


def test_retry_policy_backoff_grows_exponentially():
    policy = RetryPolicy(backoff_base=0.1)
    assert policy.backoff(1) == pytest.approx(0.1)
    assert policy.backoff(2) == pytest.approx(0.2)
    assert policy.backoff(3) == pytest.approx(0.4)


def test_worker_dedupes_batches_by_sequence(fattree4):
    from repro.dist.worker import Worker

    assignment = {name: 0 for name in fattree4.configs}
    worker = Worker(0, fattree4, assignment)
    batch = RouteBatch(
        source_worker=1,
        target_worker=0,
        round_token=0,
        exports={("leaf1", 1): []},
        sequence=7,
    )
    worker.deliver_routes(batch)
    worker.deliver_routes(batch)  # redelivery of the same sequence
    assert worker.duplicate_batches == 1
    assert worker.status()["duplicate_batches"] == 1


def test_in_process_crash_raises_worker_failure(fattree4):
    from repro.dist.worker import Worker

    assignment = {name: 0 for name in fattree4.configs}
    worker = Worker(0, fattree4, assignment)
    worker.fault_plan = FaultPlan(
        [FaultSpec(kind="crash", command="step")]
    )
    with pytest.raises(InjectedWorkerCrash) as excinfo:
        worker.call_nowait("step", 0).result()
    assert isinstance(excinfo.value, WorkerFailure)
    assert excinfo.value.worker_id == 0
    assert excinfo.value.command == "step"


# -- socket pool supervision -----------------------------------------------


def test_pool_detects_and_respawns_dead_worker(fattree4):
    with S2Controller(fattree4, _options(runtime="socket")) as controller:
        pool = controller._pool
        assert all(proxy.is_alive() for proxy in pool.proxies)
        assert all(proxy.call_nowait("ping").result() == "pong" for proxy in pool.proxies)
        victim = pool.proxies[1]
        victim._process.kill()
        victim._process.join(5.0)
        assert not victim.is_alive()
        assert pool.proxies[0].is_alive() and pool.proxies[2].is_alive()
        with pytest.raises(WorkerDiedError):
            victim.call_nowait("ping").result()
        pool.respawn(1)
        assert all(proxy.is_alive() for proxy in pool.proxies)
        assert victim.call_nowait("ping").result()                      # same proxy object
        assert victim.resources.respawns == 1


# -- enriched ConvergenceError ---------------------------------------------


def test_convergence_error_carries_context():
    error = ConvergenceError(
        "BGP did not converge within 5 rounds",
        shard_index=3,
        rounds=5,
        still_changing={1: ["leaf1", "spine2"]},
    )
    assert error.shard_index == 3
    assert error.rounds == 5
    assert error.still_changing == {1: ["leaf1", "spine2"]}
    text = str(error)
    assert "shard=3" in text and "worker1" in text and "leaf1" in text


def test_distributed_non_convergence_names_the_culprits(fattree4):
    with S2Controller(
        fattree4, S2Options(num_workers=3, max_rounds=2)
    ) as controller:
        with pytest.raises(ConvergenceError) as excinfo:
            controller.cpo.run()
    assert excinfo.value.rounds == 2
    assert excinfo.value.still_changing  # someone was still flapping


# -- CLI --------------------------------------------------------------------


def test_cli_inject_fault_and_store_dir(tmp_path, capsys):
    from repro.cli import main

    store = str(tmp_path / "spool")
    code = main(
        [
            "verify",
            "fattree",
            "--k",
            "4",
            "--workers",
            "3",
            "--shards",
            "2",
            "--store-dir",
            store,
            "--inject-fault",
            "crash:worker=1,round=1,command=step",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "OK" in out
    assert "fault tolerance:" in out
    assert "1 worker failures" in out
    assert os.path.exists(os.path.join(store, "manifest.json"))
    # and the persisted run resumes cleanly from the CLI too
    code = main(
        [
            "verify",
            "fattree",
            "--k",
            "4",
            "--workers",
            "3",
            "--shards",
            "2",
            "--store-dir",
            store,
            "--resume",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "2 shards skipped" in out


def test_cli_reports_losing_every_worker(capsys):
    """``repro verify`` with every worker's host lost prints the typed
    failure, naming the lost workers, and exits 1."""
    from repro.cli import main

    argv = ["verify", "fattree", "--k", "4", "--workers", "3"]
    for worker in range(3):
        argv += [
            "--inject-fault",
            f"host_loss:worker={worker},command=step,round=1,heal_after=100",
        ]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 1
    assert "WORKER-FAILURE" in out
    assert "workers 0, 1, 2 are lost and no survivors remain" in out
    fault_line = next(
        line for line in out.splitlines()
        if line.startswith("fault tolerance:")
    )
    assert fault_line.endswith(", 3 workers lost")
