"""One superstep per BGP round that ships only what changed.

A round is one ``step`` fan-out: deliver the relayed boundary batches,
pull the previous round, compute this round's exports.  A step ships a
boundary session only when its export tuple is not the one it shipped
last (round 0, and the step after a dropped batch, ship all).  The
checks, on both runtimes:

- every pull's RIB and the round count equal those of the two-phase
  schedule (compute exports, deliver, pull) the step replaced — pinned
  as digests recorded from it;
- a drop in the would-be-final round and a duplicate heal with one
  forced round, and a converged round ships nothing;
- an announce ships only the changed hosts' configs (``rebind_snapshot``),
  and a crash there or a host lost mid-epoch still commits the
  monolith's view, the respawned worker built from the current configs;
- calls are counted where they are issued, and a batch flushes in one
  fan-out.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro import FaultPlan, FaultSpec, RetryPolicy, S2Options
from repro.dist.controller import S2Controller
from repro.dist.partition import partition
from repro.dist.sidecar import Sidecar
from repro.dist.worker import Worker
from repro.routing.node import RouterNode
from repro.serve import ConfigTextDelta, VerifierSession

from tests.conftest import commit_records, normalize_ribs
from tests.test_serve_session import (  # noqa: F401 — fixtures
    _assert_monolithic,
    _with_extra_network,
    announce_host,
    ft4,
    ft4_texts,
)

RUNTIMES = ["sequential", "socket"]


# -- the rounds are the two-phase schedule's ----------------------------------


def _stable_digest(node: RouterNode) -> str:
    """The node's selected routes, digested independently of the hash
    seed (``BgpRib.fingerprint`` is a ``hash()``)."""
    table = sorted(
        (str(prefix), sorted(map(repr, routes)))
        for prefix, routes in node.bgp_routes().items()
    )
    return hashlib.sha256(repr(table).encode()).hexdigest()


def _record_pulls(monkeypatch, log_dir) -> None:
    """Log (host, round, changed, digest) per pull; patched before any
    fork, so socket workers log too (one file per process)."""
    pull_round = RouterNode.pull_round

    def recording_pull_round(self, resolver, round_token=-1):
        changed = pull_round(self, resolver, round_token)
        path = os.path.join(log_dir, f"{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            record = [self.name, round_token, changed, _stable_digest(self)]
            handle.write(json.dumps(record) + "\n")
        return changed

    monkeypatch.setattr(RouterNode, "pull_round", recording_pull_round)


def _pull_digest(log_dir) -> str:
    records = []
    for name in os.listdir(log_dir):
        with open(os.path.join(log_dir, name), encoding="utf-8") as handle:
            records.extend(tuple(json.loads(line)) for line in handle)
    return hashlib.sha256(repr(sorted(records)).encode()).hexdigest()[:16]


# Recorded from the two-phase schedule (separate ``compute_exports``,
# ``deliver_routes_many`` and ``pull_round`` fan-outs), identical on both
# runtimes: (network, options) -> (bgp_rounds, pulls, digest of pulls).
PINNED = {
    "fattree4": (
        dict(num_workers=3, num_shards=3, partition_scheme="random", seed=7),
        (6, 120, "ca2a3c65c28acfd9"),
    ),
    "dcn1": (
        dict(num_workers=2, num_shards=4, partition_scheme="random", seed=7),
        (9, 378, "4ec9e8eef3c93c42"),
    ),
}


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("network", sorted(PINNED))
def test_every_pull_matches_the_two_phase_schedule(
    network, runtime, request, tmp_path, monkeypatch
):
    snapshot = request.getfixturevalue(network)
    shape, (rounds, pulls, digest) = PINNED[network]
    _record_pulls(monkeypatch, str(tmp_path))
    with S2Controller(snapshot, S2Options(runtime=runtime, **shape)) as c:
        stats = c.run_control_plane()
    lines = sum(
        1 for name in os.listdir(tmp_path) for _ in open(tmp_path / name)
    )
    assert (stats.bgp_rounds, lines, _pull_digest(str(tmp_path))) == (
        rounds, pulls, digest,
    )


# -- boundary deltas ----------------------------------------------------------


def test_a_converged_round_ships_nothing(fattree4):
    """After round 0 a step ships only changed sessions, and the step
    that finds a round unchanged ships no batch at all."""
    result = partition(fattree4, 2, scheme="metis")
    workers = [Worker(i, fattree4, result.assignment) for i in range(2)]
    sidecars = [Sidecar(w) for w in workers]
    for worker in workers:
        worker.begin_shard(None)
    shipped, inbound = [], {}
    for token in range(50):
        results = [
            w.step(token, inbound.get(w.worker_id, ()), token == 0)
            for w in workers
        ]
        shipped.append(sum(len(b.exports) for r in results for b in r[2]))
        if token and not any(outcome.changed for _, outcome, _ in results):
            break
        inbound = {}
        for sidecar, (_, _, outbound) in zip(sidecars, results):
            for batch in outbound:
                inbound.setdefault(batch.target_worker, []).extend(
                    sidecar.queue_routes(batch)
                )
    assert shipped[0] > 0
    assert shipped[-1] == 0
    # A full step ships every boundary session again.
    resent = [b for w in workers for b in w.step(token + 1, (), True)[2]]
    assert sum(len(b.exports) for b in resent) == shipped[0]


def _final_round_plan(rounds: int) -> FaultPlan:
    """A drop and a duplicate among the batches of the would-be-final
    round (round ``rounds - 1``, relayed after its step)."""
    return FaultPlan([
        FaultSpec(kind="drop", round=rounds - 1),
        FaultSpec(kind="duplicate", round=rounds - 1),
    ])


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_a_final_round_drop_and_duplicate_heal(
    runtime, fattree4, fattree4_sim
):
    oracle = normalize_ribs(fattree4_sim[1])
    shape = dict(num_workers=3, runtime=runtime)
    with S2Controller(fattree4, S2Options(**shape)) as controller:
        clean = controller.run_control_plane()
    plan = _final_round_plan(clean.bgp_rounds)
    with S2Controller(
        fattree4, S2Options(fault_plan=plan, **shape)
    ) as controller:
        stats = controller.run_control_plane()
        ribs = normalize_ribs(controller.collected_ribs())
    assert plan.fired_by_kind == {"drop": 1, "duplicate": 1}
    assert ribs == oracle
    assert stats.forced_rounds == 1
    assert stats.bgp_rounds == clean.bgp_rounds + 1
    assert stats.duplicates_discarded == 1


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_a_dropped_round_heals_by_the_full_step(
    runtime, fattree4, fattree4_sim
):
    """Every batch of round 3 dropped: some sessions' exports never
    change after it, so they reach their receivers only because the
    step after the drop ships every export."""
    plan = FaultPlan([FaultSpec(kind="drop", round=3, times=0)])
    options = S2Options(num_workers=3, runtime=runtime, fault_plan=plan)
    with S2Controller(fattree4, options) as controller:
        stats = controller.run_control_plane()
        ribs = normalize_ribs(controller.collected_ribs())
    assert stats.batches_dropped >= 3
    assert ribs == normalize_ribs(fattree4_sim[1])


# -- config-only rebind -------------------------------------------------------


def _announce(session, texts, host):
    dialect, text = texts[host]
    return session.apply_delta(
        ConfigTextDelta(
            hostname=host, text=_with_extra_network(text), dialect=dialect
        ),
        timeout=300,
    )


def _serve_options(runtime, plan):
    return S2Options(
        num_workers=3,
        num_shards=4,
        runtime=runtime,
        fault_plan=plan,
        retry_policy=RetryPolicy(backoff_base=0.001),
    )


def test_rebind_ships_only_the_changed_configs(ft4, ft4_texts, announce_host):
    """Every worker gets ``{host: config}`` for the changed host only,
    and patches its resident snapshot's config map with it."""
    sent = []
    rebind = Worker.rebind_snapshot

    def recording_rebind(self, configs, epoch=None):
        sent.append(dict(configs))
        return rebind(self, configs, epoch)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Worker, "rebind_snapshot", recording_rebind)
        with VerifierSession(ft4, _serve_options("sequential", None)) as s:
            result = _announce(s, ft4_texts, announce_host)
            current = s.snapshot.configs[announce_host]
            workers = s._controller.fleet.workers
            assert all(
                w.snapshot.configs[announce_host] is current for w in workers
            )
            _assert_monolithic(s)
    assert result.kind == "announce"
    assert [set(configs) for configs in sent] == [{announce_host}] * 3


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize(
    "spec",
    [
        FaultSpec(kind="crash", worker=1, command="rebind_snapshot"),
        FaultSpec(kind="crash", worker=1, command="step", round=1),
        FaultSpec(
            kind="host_loss", worker=1, command="step", round=1,
            heal_after=100,
        ),
    ],
    ids=["crash-at-rebind", "crash-mid-epoch", "host-loss-mid-epoch"],
)
def test_a_recovered_worker_is_built_from_the_current_configs(
    spec, runtime, ft4, ft4_texts, announce_host
):
    """A worker respawned at or after the config-only rebind (or whose
    nodes migrate to the survivors) computes with the announce's config:
    the committed view equals the monolith's of the new snapshot."""
    plan = FaultPlan([])
    with VerifierSession(ft4, _serve_options(runtime, plan)) as session:
        plan.add(spec)  # armed after the boot, fires in the announce
        result = _announce(session, ft4_texts, announce_host)
        assert plan.count(spec.kind) == 1, "the fault never fired"
        assert result.kind == "announce"
        assert not result.sequential_fallback
        _assert_monolithic(session)
        if runtime == "sequential" and spec.kind == "crash":
            respawned = session._controller.fleet.get(1)
            assert (
                respawned.snapshot.configs[announce_host]
                is session.snapshot.configs[announce_host]
            )


# -- calls and the flush fan-out ----------------------------------------------


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_calls_are_counted_where_they_are_issued(
    runtime, ft4, ft4_texts, announce_host
):
    """Every ``call_nowait`` is one call on the worker's resources, an
    announce's calls are the ``rpcs`` of its commit record, and a batch
    of ``R`` rounds costs one step fan-out per round plus one."""
    with VerifierSession(ft4, _serve_options(runtime, None)) as session:
        controller = session._controller
        before = controller.worker_calls()
        _announce(session, ft4_texts, announce_host)
        calls = controller.worker_calls() - before
        snapshot = controller.metrics_snapshot()
        stats = controller.cpo.stats
        records = commit_records(session)
    assert records[-1]["rpcs"] == calls
    assert snapshot["worker_calls"] == sum(
        worker["calls"] for worker in snapshot["workers"]
    )
    # One rebind, begin_shard, flush, build and class-actions fan-out
    # per worker, plus the rounds' steps and the recheck's calls (no
    # OSPF restore: the fleet holds it): far fewer than three fan-outs
    # per round.
    assert stats.batches_run == 1
    steps = 3 * (stats.bgp_rounds + 1)
    assert steps < calls < 3 * (3 * stats.bgp_rounds)


def test_a_batch_flushes_in_one_fan_out(fattree4, tmp_path):
    """A batch of four shards is one ``flush_shard`` call per worker,
    still writing one file per shard on each."""
    options = S2Options(
        num_workers=3, num_shards=4, store_dir=str(tmp_path / "store")
    )
    with S2Controller(fattree4, options) as controller:
        flushes = []
        for worker in controller.fleet.workers:
            call = worker.call_nowait

            def counting(command, *args, _call=call):
                if command == "flush_shard":
                    flushes.append(len(args[1]))
                return _call(command, *args)

            worker.call_nowait = counting
        stats = controller.run_control_plane()
        files = {
            worker.worker_id: controller.store.worker_shard_indices(
                worker.worker_id
            )
            for worker in controller.fleet.workers
        }
    assert stats.batches_run == 1 and stats.shards_run == 4
    assert flushes == [4, 4, 4]
    assert all(sorted(indices) == [0, 1, 2, 3] for indices in files.values())
