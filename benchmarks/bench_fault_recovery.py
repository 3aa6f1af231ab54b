"""Fault-recovery micro-benchmark: what does resilience cost?

Three questions, answered on one FatTree control-plane run:

1. **Checkpoint overhead** — a fault-free run with the manifest + OSPF
   checkpointing enabled makes at most one controller durable write per
   shard plus ``FIXED_CHECKPOINT_WRITES`` (the paper-scale argument:
   checkpoint writes are O(shards), not O(routes)).  The wall-time
   overhead is reported, not gated: it swings by tens of percent
   between repeats.
2. **Recovery cost** — a run that loses a worker mid-fixed-point pays
   roughly one shard replay, not a full rerun.
3. **Resume savings** — resuming a run killed after most shards have
   converged recomputes only the remainder.
4. **Loss + rebalance** — a *permanent* worker loss pays the shard
   reassignment once (the survivors adopt the orphans and the run still
   finishes distributed), and after the healed host is rebalanced back
   in, steady-state throughput is within 10% of the pre-loss fleet.
   Neither membership change rewrites the store: shard files stay keyed
   by their writer, so both rows report the shard bytes the controller
   wrote (0).
"""

from __future__ import annotations

import time

from conftest import emit
from repro import FaultPlan, FaultSpec, S2Options
from repro.dist.controller import S2Controller
from repro.harness.reporting import format_table
from repro.net.fattree import build_fattree

WORKERS = 4
SHARDS = 8
#: Controller writes a checkpointed run makes besides one manifest
#: update per shard: the OSPF checkpoint (one file per worker), the
#: first manifest and its ``ospf_done`` update.
FIXED_CHECKPOINT_WRITES = WORKERS + 2


def _run(snapshot, tmp_dir=None, fault_plan=None, runs=3):
    """Best-of-N control-plane wall time; stats, respawns, the
    controller's durable writes and its shard bytes from the last
    run."""
    best = float("inf")
    stats = None
    for _ in range(runs):
        options = S2Options(
            num_workers=WORKERS,
            num_shards=SHARDS,
            store_dir=tmp_dir,
            fault_plan=fault_plan,
        )
        started = time.perf_counter()
        with S2Controller(snapshot, options) as controller:
            stats = controller.run_control_plane()
            respawns = controller.report().total_respawns
            writes = controller.storage_counts()["controller_writes"]
            shard_bytes = controller.store.bytes_written
        best = min(best, time.perf_counter() - started)
    return best, stats, respawns, writes, shard_bytes


def _run_experiment():
    import tempfile

    snapshot = build_fattree(6)
    rows = []

    plain_s, plain_stats, _, _, _ = _run(snapshot)
    rows.append(
        ["fault-free (no checkpoint)", f"{plain_s:.3f}", plain_stats.bgp_rounds, 0, 0, "-"]
    )

    with tempfile.TemporaryDirectory(prefix="s2-bench-ckpt-") as tmp:
        ckpt_s, ckpt_stats, _, ckpt_writes, _ = _run(snapshot, tmp_dir=tmp)
    overhead = (ckpt_s - plain_s) / plain_s * 100.0
    rows.append(
        [
            "fault-free (checkpointing)",
            f"{ckpt_s:.3f}",
            ckpt_stats.bgp_rounds,
            0,
            0,
            f"{overhead:+.1f}% overhead, {ckpt_writes} controller writes",
        ]
    )

    plan = FaultPlan(
        [FaultSpec(kind="crash", worker=1, shard=SHARDS // 2, command="step",
                   round=1)]
    )
    crash_s, crash_stats, respawns, _, _ = _run(
        snapshot, fault_plan=plan, runs=1
    )
    rows.append(
        [
            "1 worker crash mid-run",
            f"{crash_s:.3f}",
            crash_stats.bgp_rounds,
            crash_stats.worker_failures,
            crash_stats.shard_replays,
            f"{respawns} respawns",
        ]
    )

    # Resume: kill after 6 of 8 shards, time only the completion.
    with tempfile.TemporaryDirectory(prefix="s2-bench-resume-") as tmp:
        options = S2Options(
            num_workers=WORKERS, num_shards=SHARDS, store_dir=tmp
        )
        controller = S2Controller(snapshot, options)
        controller.cpo.run_ospf()
        for shard in controller.shards[: SHARDS - 2]:
            controller.cpo.run_batch([shard])
        # Abandon the controller unclosed: the store keeps its state.
        started = time.perf_counter()
        with S2Controller.resume(snapshot, options) as resumed:
            resume_stats = resumed.run_control_plane()
        resume_s = time.perf_counter() - started
    rows.append(
        [
            f"resume (last {SHARDS - resume_stats.shards_skipped} shards)",
            f"{resume_s:.3f}",
            resume_stats.bgp_rounds,
            0,
            0,
            f"{resume_stats.shards_skipped} shards skipped",
        ]
    )

    # Permanent loss: one host dies for good mid-run — pinned to a
    # middle shard so the survivors adopt real flushed store files.
    plan = FaultPlan(
        [
            FaultSpec(
                kind="host_loss", worker=1, command="step", round=1,
                shard=SHARDS // 2, heal_after=100,
            )
        ]
    )
    loss_s, loss_stats, _, _, loss_bytes = _run(
        snapshot, fault_plan=plan, runs=1
    )
    assert loss_stats.workers_lost == 1
    reassign_cost = (loss_s - plain_s) / plain_s * 100.0
    rows.append(
        [
            "1 worker lost permanently",
            f"{loss_s:.3f}",
            loss_stats.bgp_rounds,
            loss_stats.worker_failures,
            loss_stats.shard_replays,
            f"{loss_stats.shards_reassigned} shards reassigned "
            f"({reassign_cost:+.1f}%), {loss_bytes} B store writes",
        ]
    )

    # Post-rebalance throughput: lose a worker, let the host heal,
    # rebalance it back, then time a full reconfigure+rerun on the
    # healed fleet against the best fault-free time.
    heal_plan = FaultPlan(
        [
            FaultSpec(
                kind="host_loss", worker=1, command="step", round=1,
                heal_after=2,   # == respawn budget: healed right after loss
            )
        ]
    )
    options = S2Options(
        num_workers=WORKERS, num_shards=SHARDS, fault_plan=heal_plan
    )
    rebalanced_s = float("inf")
    with S2Controller(snapshot, options) as controller:
        controller.run_control_plane()
        assert controller.capacity()["lost_workers"] == 1
        before = controller.store.bytes_written
        assert controller.rejoin_worker(1)
        rebalance_bytes = controller.store.bytes_written - before
        assert controller.capacity()["lost_workers"] == 0
        for _ in range(3):
            controller.reconfigure(snapshot)
            started = time.perf_counter()
            controller.run_control_plane()
            rebalanced_s = min(
                rebalanced_s, time.perf_counter() - started
            )
    rebalance_delta = (rebalanced_s - plain_s) / plain_s * 100.0
    rows.append(
        [
            "post-rebalance rerun",
            f"{rebalanced_s:.3f}",
            "-",
            0,
            0,
            f"{rebalance_delta:+.1f}% vs pre-loss, rejoin "
            f"{rebalance_bytes} B store writes",
        ]
    )

    return rows, ckpt_writes, crash_stats, rebalance_delta


def test_fault_recovery(benchmark):
    rows, ckpt_writes, crash_stats, rebalance_delta = benchmark.pedantic(
        _run_experiment, rounds=1, iterations=1
    )
    table = format_table(
        ["scenario", "wall-s", "bgp-rounds", "failures", "replays", "notes"],
        rows,
        title=f"Fault recovery — FatTree6, {WORKERS} workers, {SHARDS} shards",
    )
    emit("fault_recovery", table, rows)
    # The acceptance bar: checkpointing costs O(shards) durable writes
    # when nothing fails, never a write per route.
    assert ckpt_writes <= SHARDS + FIXED_CHECKPOINT_WRITES, (
        f"{ckpt_writes} controller writes > {SHARDS} shards + "
        f"{FIXED_CHECKPOINT_WRITES}"
    )
    # Recovery replays one shard, not the whole run.
    assert crash_stats.worker_failures == 1
    assert crash_stats.shard_replays == 1
    # After the healed host is rebalanced back in, steady-state
    # throughput is within 10% of the pre-loss fleet.
    assert rebalance_delta < 10.0, (
        f"post-rebalance rerun {rebalance_delta:+.1f}% vs pre-loss"
    )


if __name__ == "__main__":
    rows, _, _, _ = _run_experiment()
    print(
        format_table(
            ["scenario", "wall-s", "bgp-rounds", "failures", "replays", "notes"],
            rows,
        )
    )
