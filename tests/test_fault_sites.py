"""One fault site per layer: the same plan fires alike on both runtimes.

Call faults (``crash``, ``delay``, ``host_loss``) are consulted at
``call_nowait`` on either runtime, the only way any code reaches a
worker, batch faults at the sidecar, and wire faults (``error`` and the
chaos kinds) in the socket channel, whose retry loop is the only one.
Each firing is counted once, where it fires, so a seeded plan must give
the same firings, the same fault counts and the monolith's RIBs on
``sequential`` and ``socket``.  Every worker call sits inside a
replayed unit, and crashes may share a fan-out: the unit recovers every
worker that failed in it, counts one failure each, and reruns once.

The snapshot is the mixed OSPF + BGP network of
``tests/test_distributed_ospf.py``, so every call site the worker
phases offer is reached: the OSPF and BGP rounds, the IGP checkpoint,
the shard flush, the data-plane build, the class closure and the
forwarding superstep.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro import FaultPlan, FaultSpec, RetryPolicy, S2Options, S2Verifier
from repro.net.fattree import build_fattree
from repro.routing.engine import SimulationEngine

from tests.conftest import normalize_ribs
from tests.test_distributed_ospf import mixed_snapshot

RUNTIMES = ["sequential", "socket"]

#: Worker 0 is the sender whose OSPF batches are dropped and duplicated
#: in the first round, and which is later lost for good; the crashes hit
#: workers 1 and 2, one per fan-out, so each site's firing shows in the
#: counts on its own (two in one fan-out are tested below).
SENDER = 0

CP_FAULT_COUNTS = (
    "worker_failures",
    "shard_replays",
    "ospf_replays",
    "forced_rounds",
    "batches_dropped",
    "batches_duplicated",
    "duplicates_discarded",
    "workers_lost",
    "shards_reassigned",
)
DP_FAULT_COUNTS = ("worker_failures", "query_replays")


def _plan() -> FaultPlan:
    def crash(worker, command, **where):
        return FaultSpec(kind="crash", worker=worker, command=command, **where)

    return FaultPlan(
        [
            # The seven worker phases that used to inject in process.
            crash(1, "step", round=-1),  # an OSPF step
            crash(2, "step", round=0),
            crash(1, "step", round=1),
            crash(1, "flush_shard", shard=0),
            crash(2, "build_dataplane"),
            crash(1, "class_actions"),
            crash(2, "drain"),
            FaultSpec(
                kind="delay", worker=1, command="step",
                delay=0.001, probability=0.5, times=2,
            ),
            FaultSpec(kind="drop", worker=SENDER),
            FaultSpec(kind="duplicate", worker=SENDER),
            # Round 1's pull, in step 2 of the BGP batch: past the
            # crashes in its first steps, and long after the sender's
            # OSPF batches were dropped and duplicated.
            FaultSpec(
                kind="host_loss", worker=SENDER, command="step",
                round=2, heal_after=100,
            ),
        ],
        seed=7,
    )


def _options(runtime: str, plan: FaultPlan) -> S2Options:
    return S2Options(
        num_workers=3,
        num_shards=2,
        runtime=runtime,
        fault_plan=plan,
        retry_policy=RetryPolicy(backoff_base=0.001),
    )


@pytest.fixture(scope="module")
def snapshot():
    return mixed_snapshot()


@pytest.fixture(scope="module")
def monolith(snapshot):
    return normalize_ribs(SimulationEngine(snapshot).run())


def _faulted_run(snapshot, runtime):
    plan = _plan()
    with S2Verifier(snapshot, _options(runtime, plan)) as verifier:
        result = verifier.verify(check_loops=True)
        ribs = normalize_ribs(verifier.collected_ribs())
    cp, dp = asdict(result.cp_stats), asdict(result.dp_stats)
    counts = {name: cp[name] for name in CP_FAULT_COUNTS}
    counts.update({f"dp.{name}": dp[name] for name in DP_FAULT_COUNTS})
    return plan, result, counts, ribs


@pytest.fixture(scope="module")
def runs(snapshot):
    return {runtime: _faulted_run(snapshot, runtime) for runtime in RUNTIMES}


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_every_site_fires_and_the_ribs_survive(runtime, runs, monolith):
    plan, result, counts, ribs = runs[runtime]
    fired = plan.fired_by_kind
    assert fired["crash"] == 7, "a call site never fired"
    assert fired["host_loss"] == 1
    assert fired["drop"] == fired["duplicate"] == 1
    assert result.status == "ok"
    assert ribs == monolith
    assert counts["workers_lost"] == 1


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_batch_faults_are_counted_after_the_sender_is_lost(runtime, runs):
    plan, _result, counts, _ribs = runs[runtime]
    assert counts["batches_dropped"] == plan.count("drop") == 1
    assert counts["batches_duplicated"] == plan.count("duplicate") == 1
    assert counts["duplicates_discarded"] == 1


def test_one_plan_fires_identically_on_both_runtimes(runs):
    sequential, socket = runs["sequential"], runs["socket"]
    assert sequential[0].fired_by_kind == socket[0].fired_by_kind
    assert sequential[2] == socket[2]
    assert sequential[1].reachable_pairs == socket[1].reachable_pairs
    assert sequential[3] == socket[3]


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_error_is_a_wire_fault_absorbed_by_the_channel(
    runtime, snapshot, monolith
):
    """``error`` fails transmissions, so it cannot fire in process; on
    socket each firing is one channel retry, and none reaches recovery."""
    times = 2
    plan = FaultPlan(
        [FaultSpec(kind="error", worker=1, command="step", times=times)]
    )
    with S2Verifier(snapshot, _options(runtime, plan)) as verifier:
        stats = verifier.run_control_plane()
        ribs = normalize_ribs(verifier.collected_ribs())
        transport = verifier.controller.metrics_snapshot().get("transport")
    assert ribs == monolith
    assert stats.worker_failures == 0
    if runtime == "sequential":
        assert plan.fired_by_kind == {}
        assert transport is None
    else:
        assert plan.fired_by_kind == {"error": times}
        assert transport["worker1"]["retries"] == times
        assert transport["total"]["retries"] == times


# -- schedules that used to diverge between the runtimes --------------------


def _counts(result):
    cp, dp = asdict(result.cp_stats), asdict(result.dp_stats)
    counts = {name: cp[name] for name in CP_FAULT_COUNTS}
    counts.update({f"dp.{name}": dp[name] for name in DP_FAULT_COUNTS})
    return counts


def _scheduled_run(snapshot, runtime, specs):
    plan = FaultPlan(specs, seed=7)
    with S2Verifier(snapshot, _options(runtime, plan)) as verifier:
        result = verifier.verify(check_loops=True)
        ribs = normalize_ribs(verifier.collected_ribs())
    return plan.fired_by_kind, _counts(result), ribs


@pytest.fixture(scope="module")
def fattree():
    return build_fattree(4)


@pytest.fixture(scope="module")
def fattree_monolith(fattree):
    return normalize_ribs(SimulationEngine(fattree).run())


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_two_crashes_in_one_fan_out_are_recovered_together(
    runtime, fattree, fattree_monolith
):
    """Both crashed workers are respawned before the one rerun: two
    failures, one shard replay, on either runtime."""
    fired, counts, ribs = _scheduled_run(
        fattree,
        runtime,
        [
            FaultSpec(kind="crash", worker=0, command="step", round=1),
            FaultSpec(kind="crash", worker=1, command="step", round=1),
        ],
    )
    assert fired == {"crash": 2}
    assert counts["worker_failures"] == 2
    assert counts["shard_replays"] == 1
    assert ribs == fattree_monolith


def test_a_command_less_crash_fires_alike_on_both_runtimes(
    fattree, fattree_monolith
):
    """A crash with no command fires at the worker's first call, which
    is a fan-out inside a replayed unit on both runtimes."""
    spec = FaultSpec(kind="crash", worker=1)
    runs = {
        runtime: _scheduled_run(fattree, runtime, [spec])
        for runtime in RUNTIMES
    }
    sequential, socket = runs["sequential"], runs["socket"]
    assert sequential[0] == socket[0] == {"crash": 1}
    assert sequential[1] == socket[1]
    assert sequential[1]["worker_failures"] == 1
    assert sequential[2] == socket[2] == fattree_monolith


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_a_crash_at_the_ospf_checkpoint_reruns_the_igp(
    runtime, snapshot, monolith
):
    """The checkpoint's fan-out is the last step of the IGP's unit: a
    crash there is an OSPF replay, rerun on the same fleet."""
    fired, counts, ribs = _scheduled_run(
        snapshot,
        runtime,
        [FaultSpec(kind="crash", worker=1, command="export_ospf_state")],
    )
    assert fired == {"crash": 1}
    assert counts["worker_failures"] == 1
    assert counts["ospf_replays"] == 1
    assert counts["shard_replays"] == 0
    assert ribs == monolith


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_a_crash_while_rejoining_is_recovered_by_the_same_loop(
    runtime, snapshot, monolith
):
    """The respawned worker's checkpoint restore is a fan-out inside the
    replay: a crash there is one more recovery before the one rerun."""
    fired, counts, ribs = _scheduled_run(
        snapshot,
        runtime,
        [
            FaultSpec(kind="crash", worker=1, command="step", round=1),
            FaultSpec(kind="crash", worker=1, command="restore_ospf_state"),
        ],
    )
    assert fired == {"crash": 2}
    assert counts["worker_failures"] == 2
    assert counts["shard_replays"] == 1
    assert ribs == monolith


# -- call parity: every worker call passes the call fault site -------------


class _RecordingPlan(FaultPlan):
    """Logs every call the call fault site sees and fires nothing."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = []

    def on_call(self, worker_id, command):
        self.calls.append((worker_id, command))
        return None


def test_both_runtimes_issue_the_same_worker_calls(snapshot):
    """A direct method call on an in-process worker would skip
    ``call_nowait`` and so the fault site; the call logs would differ."""
    calls = {}
    for runtime in RUNTIMES:
        plan = _RecordingPlan()
        with S2Verifier(snapshot, _options(runtime, plan)) as verifier:
            assert verifier.verify(check_loops=True).status == "ok"
        calls[runtime] = plan.calls
    assert calls["sequential"] == calls["socket"]
    commands = {command for _worker, command in calls["sequential"]}
    assert {"export_ospf_state", "step", "flush_shard"} <= commands
