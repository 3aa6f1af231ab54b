"""The pipelined call path: futures on the wire, batched deliveries.

``call_nowait`` must put the request on the wire immediately and hand
back a future whose ``result()`` owns the whole retry/timeout machinery
``call`` had; the sidecar outbox must coalesce a round's batches into
one ``deliver_routes_many`` per target with accounting identical to the
one-at-a-time path.  These are the semantics the CPO's overlapped
exchange phase rests on.  ``Fleet.call_all`` fans every phase out over
the same calls on both runtimes: issue all, settle all, then raise.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import RetryPolicy, S2Options
from repro.dist.controller import S2Controller
from repro.dist.faults import FaultPlan, FaultSpec
from repro.dist.message import RouteBatch, measured_size
from repro.dist.partition import partition
from repro.dist.sidecar import Sidecar
from repro.dist.transport import (
    ConnectionLostError,
    RpcFuture,
    RpcTimeoutError,
)
from repro.dist.worker import Worker
from repro.net.ip import Prefix
from repro.routing.route import BgpRoute

from tests.test_transport import _fast_policy, harness  # noqa: F401


# -- channel futures --------------------------------------------------------


def test_call_nowait_matches_call(harness):  # noqa: F811
    h = harness()
    future = h.channel.call_nowait("compute", (1, "two"))
    assert isinstance(future, RpcFuture)
    assert future.result() == ("ok", ("echo", "compute", (1, "two")))
    assert future.result() == h.channel.call("compute", (1, "two"))


def test_result_is_idempotent_including_app_errors(harness):  # noqa: F811
    h = harness()
    future = h.channel.call_nowait("boom")
    first = future.result()
    assert first[0] == "exc" and first[1][0] == "ValueError"
    assert future.result() is first


def test_requests_overlap_on_the_wire(harness):  # noqa: F811
    """Both frames leave before either answer arrives — the overlap
    call-and-wait can never produce."""
    h = harness(policy=_fast_policy(rpc_window=4))
    h.service.stall = threading.Event()
    futures = [h.channel.call_nowait("slow", (i,)) for i in range(2)]
    deadline = time.monotonic() + 5.0
    while h.channel.counters["frames_sent"] < 2:
        assert time.monotonic() < deadline, "second frame never sent"
        time.sleep(0.01)
    assert not any(f.done() for f in futures)
    h.service.stall.set()
    for i, future in enumerate(futures):
        assert future.result() == ("ok", ("echo", "slow", (i,)))
    assert h.channel.counters["inflight_high_water"] == 2


def test_window_backpressure_applies_at_issue(harness):  # noqa: F811
    h = harness(policy=_fast_policy(rpc_window=1))
    h.service.stall = threading.Event()
    occupier = h.channel.call_nowait("slow")
    with pytest.raises(RpcTimeoutError, match="no in-flight slot"):
        h.channel.call_nowait("starved", timeout=0.2)
    h.service.stall.set()
    assert occupier.result()[0] == "ok"
    # The slot freed by result(): the next issue succeeds immediately.
    assert h.channel.call_nowait("after").result()[0] == "ok"


def test_future_retries_through_faults(harness):  # noqa: F811
    plan = FaultPlan(
        [FaultSpec(kind="torn_frame", worker=0, command="pull_round")]
    )
    h = harness(fault_plan=plan)
    future = h.channel.call_nowait("pull_round", (7,))
    assert future.result() == ("ok", ("echo", "pull_round", (7,)))
    assert h.channel.counters["retries"] >= 1
    # The torn copy never parsed: executed exactly once despite retry.
    assert h.service.calls.count("pull_round") == 1


def test_pipelined_reorders_lose_no_frame(harness):  # noqa: F811
    """Two reordered requests in flight at once: the second passes the
    held first one instead of replacing it, so both are answered on
    their first transmission, well inside the call deadline."""
    plan = FaultPlan(
        [FaultSpec(kind="reorder", worker=0, command="sync", times=2)]
    )
    h = harness(policy=_fast_policy(rpc_window=4), fault_plan=plan)
    futures = [h.channel.call_nowait("sync", (i,)) for i in range(2)]
    for i, future in enumerate(futures):
        assert future.result() == ("ok", ("echo", "sync", (i,)))
    assert plan.count("reorder") == 2
    assert h.channel.counters["retries"] == 0
    assert h.channel.counters["timeouts"] == 0


def test_future_failure_releases_the_window():
    import socket

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()  # nothing listens here now
    from repro.dist.transport import RpcChannel

    channel = RpcChannel(
        ("127.0.0.1", port),
        policy=_fast_policy(
            call_timeout=1.0, max_call_retries=1, rpc_window=1
        ),
    )
    try:
        future = channel.call_nowait("ping")
        with pytest.raises(ConnectionLostError):
            future.result()
        # Window slot released on failure: a second issue is not starved.
        with pytest.raises(ConnectionLostError):
            channel.call_nowait("ping").result()
    finally:
        channel.close()


# -- batched deliveries -----------------------------------------------------


@pytest.fixture()
def worker_pair(fattree4):
    result = partition(fattree4, 2, scheme="metis")
    workers = [Worker(i, fattree4, result.assignment) for i in range(2)]
    sidecars = [Sidecar(w) for w in workers]
    for sidecar in sidecars:
        sidecar.register_peers(sidecars)
    return workers, sidecars


def _batch(source=0, target=1, round_token=0, exports=None):
    return RouteBatch(
        source_worker=source,
        target_worker=target,
        round_token=round_token,
        exports=exports or {},
    )


def test_deliver_routes_many_equals_loop(fattree4):
    result = partition(fattree4, 2, scheme="metis")
    a = Worker(1, fattree4, result.assignment)
    b = Worker(1, fattree4, result.assignment)
    route = BgpRoute(
        prefix=Prefix.parse("10.9.0.0/24"), next_hop=1, from_node="x"
    )
    exporter = next(iter(a.nodes))
    batches = [
        _batch(round_token=r, exports={(exporter, "x"): (route,)})
        for r in range(3)
    ]
    for batch in batches:
        a.deliver_routes(batch)
    b.deliver_routes_many(batches)
    assert a.mailbox == b.mailbox
    assert a.status()["duplicate_batches"] == b.status()["duplicate_batches"]


def test_queue_flush_matches_send(worker_pair):
    workers, sidecars = worker_pair
    route = BgpRoute(
        prefix=Prefix.parse("10.9.0.0/24"), next_hop=1, from_node="x"
    )
    batch = _batch(exports={("x", "y"): (route,)})
    size = sidecars[0].queue_routes(batch)
    assert size == measured_size(
        sidecars[0]._outbox[1][0]
    )  # charged the stamped batch
    assert workers[0].resources.rpc_bytes_sent == size
    # Nothing delivered until the flush barrier.
    assert ("x", "y") not in workers[1].mailbox
    handles = sidecars[0].flush_routes()
    # One coalesced delivery for the one target, already settled: an
    # in-process peer runs the call as it is issued.
    assert len(handles) == 1
    assert handles[0].result() is None
    assert workers[1].mailbox[("x", "y")] == (route,)
    # A second flush is a no-op: the outbox was consumed.
    assert sidecars[0].flush_routes() == []


def test_queue_flush_coalesces_per_target(worker_pair):
    workers, sidecars = worker_pair
    for round_token in range(3):
        sidecars[0].queue_routes(_batch(round_token=round_token))
    sidecars[0].flush_routes()
    # Sequence numbers were stamped at queue time, in order; every
    # batch landed (no dedup hits) via the one coalesced delivery.
    assert workers[1]._batch_sequences[0] == 3
    assert workers[1].status()["duplicate_batches"] == 0


def test_queue_respects_fault_injection(fattree4):
    result = partition(fattree4, 2, scheme="metis")
    workers = [Worker(i, fattree4, result.assignment) for i in range(2)]
    plan = FaultPlan(
        [
            FaultSpec(kind="drop", worker=0, times=1),
            FaultSpec(kind="duplicate", worker=0, times=1),
        ]
    )
    sidecars = [Sidecar(w, fault_plan=plan) for w in workers]
    for sidecar in sidecars:
        sidecar.register_peers(sidecars)
    dropped = sidecars[0].queue_routes(_batch())      # eaten by the plan
    duplicated = sidecars[0].queue_routes(_batch())   # delivered twice
    assert dropped > 0 and duplicated > 0
    assert sidecars[0].batches_dropped == 1
    assert sidecars[0].batches_duplicated == 1
    # The duplicate is charged to the sender like the send path does.
    assert workers[0].resources.rpc_bytes_sent == dropped + 2 * duplicated
    sidecars[0].flush_routes()
    # The dropped batch (sequence 1) never arrived; the duplicated one
    # (sequence 2) arrived twice and the receiver deduped the replay.
    assert workers[1]._batch_sequences[0] == 2
    assert workers[1].status()["duplicate_batches"] == 1


def test_convergence_through_queue_flush(worker_pair, fattree4_sim):
    """The pipelined exchange reaches the same fixed point as the
    monolithic engine — queue+flush is a drop-in for send_routes."""
    workers, sidecars = worker_pair
    _, expected = fattree4_sim
    for w in workers:
        w.begin_shard(None)
    for round_token in range(50):
        for worker, sidecar in zip(workers, sidecars):
            for batch in worker.compute_exports(round_token).values():
                sidecar.queue_routes(batch)
        for sidecar in sidecars:
            for handle in sidecar.flush_routes():
                handle.result()
        if not any(w.pull_round(round_token).changed for w in workers):
            break
    merged = {}
    for worker in workers:
        merged.update(worker.finish_shard())
    for host, table in expected.items():
        assert merged.get(host, {}) == table


# -- the fleet fan-out ------------------------------------------------------

RUNTIMES = ["sequential", "socket"]


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_failure_is_raised_after_every_call_settled(runtime, fattree4):
    """Worker 0 crashes at its first ``compute_exports``; when recovery
    starts, worker 1's call of the same phase has settled."""
    plan = FaultPlan(
        [FaultSpec(kind="crash", worker=0, command="compute_exports")]
    )
    options = S2Options(
        num_workers=2,
        runtime=runtime,
        fault_plan=plan,
        retry_policy=RetryPolicy(backoff_base=0.001),
    )
    seen = []
    with S2Controller(fattree4, options) as controller:
        recover = controller.supervisor.recover

        def observing_recover(failure):
            peer = controller.fleet.get(1)
            seen.append(
                (
                    failure.worker_id,
                    peer.status()["phase"],
                    peer.status()["round"],
                    peer._channel._inflight if runtime == "socket" else 0,
                )
            )
            return recover(failure)

        controller.supervisor.recover = observing_recover
        controller.run_control_plane()
    assert plan.count("crash") == 1
    # The peer ran the phase of the crashed round, and on socket its
    # channel has nothing left in flight.
    assert seen == [(0, "compute_exports", 0, 0)]


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("command", ["reset", "status"])
def test_non_command_is_refused_alike(runtime, command, fattree4):
    with S2Controller(
        fattree4, S2Options(num_workers=2, runtime=runtime)
    ) as controller:
        handle = controller.fleet.workers[0].call_nowait(command)
        with pytest.raises(
            LookupError, match=f"'{command}' is not a worker command"
        ):
            handle.result()


def _seeded_call_fault_run(fattree4):
    plan = FaultPlan(
        [
            FaultSpec(kind="error", probability=0.3, times=3),
            FaultSpec(kind="delay", delay=0.001, probability=0.2, times=5),
        ],
        seed=11,
    )
    options = S2Options(
        num_workers=3,
        num_shards=2,
        runtime="socket",
        fault_plan=plan,
        retry_policy=RetryPolicy(backoff_base=0.001),
    )
    with S2Controller(fattree4, options) as controller:
        controller.run_control_plane()
        retries = [w.resources.retries for w in controller.fleet.workers]
    return retries, dict(plan.fired_by_kind)


def test_seeded_call_faults_fire_identically(fattree4):
    """Call faults fire in worker-id order at issue, so one seed gives
    one firing sequence: the same workers retry, run after run."""
    first = _seeded_call_fault_run(fattree4)
    assert first[1].get("error", 0) > 0 and first[1].get("delay", 0) > 0
    assert _seeded_call_fault_run(fattree4) == first
