"""Delta-equivalence under chaos: the serve-mode oracle.

A resident session absorbing deltas while the transport misbehaves —
sampled partitions, torn frames, reorders, crashes — plus one worker
process force-killed between epochs, must end bit-identical to a cold
start at the final configuration: same RIBs, same reachability
verdicts.  Anything less means a fault leaked into the results instead
of being healed by the epoch fence and supervisor recovery.

Every commit's per-pair BDDs are also checked against a full recheck
(``D = TRUE``) of the same data plane, wrapped around the session's
recheck, so a dirty-space commit that a fault made stale shows up at the
epoch it happened, not only in the final view.
"""

from __future__ import annotations

import time

import pytest

from repro.config.loader import snapshot_from_texts
from repro.dataplane.queries import Query
from repro.dist.controller import S2Controller, S2Options
from repro.dist.faults import FaultPlan, FaultSpec, sample_serve_plan
from repro.net.fattree import FatTreeSpec, render_configs
from repro.serve import ConfigTextDelta, LinkDelta, VerifierSession

from tests.conftest import commit_records, full_recheck, normalize_ribs

NUM_WORKERS = 3
NUM_SHARDS = 8


@pytest.fixture(scope="module")
def ft4_texts():
    return render_configs(FatTreeSpec(k=4))


@pytest.fixture(scope="module")
def ft4(ft4_texts):
    return snapshot_from_texts(ft4_texts, name="ft4-chaos")


def _announce_delta(ft4_texts):
    host = sorted(
        h
        for h, (_d, t) in ft4_texts.items()
        if any(
            line.strip().startswith("network ")
            for line in t.splitlines()
        )
    )[0]
    dialect, text = ft4_texts[host]
    lines = text.splitlines()
    last_net = max(
        i
        for i, line in enumerate(lines)
        if line.strip().startswith("network ")
    )
    lines.insert(last_net + 1, " network 203.0.113.0 mask 255.255.255.0")
    return ConfigTextDelta(
        hostname=host, text="\n".join(lines), dialect=dialect
    )


@pytest.fixture
def recheck_reference(monkeypatch):
    """Wrap :meth:`VerifierSession._recheck` with a full-recheck
    reference; yields ``[(epoch, recheck tag, equal)]``, one per call
    (a dirty recheck that a recovery sent down the full path calls it
    twice), checked after the test."""
    records = []
    original = VerifierSession._recheck

    def checked(self, endpoints, dirty, full_reason, recoveries):
        reachable, tag, prefixes = original(
            self, endpoints, dirty, full_reason, recoveries
        )
        expected = full_recheck(self._controller, endpoints)
        records.append((self.epoch, tag, reachable == expected))
        return reachable, tag, prefixes

    monkeypatch.setattr(VerifierSession, "_recheck", checked)
    yield records
    assert records, "no commit was rechecked"
    assert [r for r in records if not r[2]] == []


def _oracle(snapshot):
    with S2Controller(
        snapshot, S2Options(num_workers=NUM_WORKERS, num_shards=NUM_SHARDS)
    ) as controller:
        controller.run_control_plane()
        endpoints = tuple(controller.prefix_holders())
        result = controller.checker().check_reachability(
            Query(sources=endpoints, destinations=endpoints)
        )
        return (
            normalize_ribs(controller.collected_ribs()),
            frozenset(result.pairs()),
        )


def _drive(session, ft4, ft4_texts, kill_worker: bool) -> None:
    """The delta schedule: announce, link down, (kill), link up."""
    link = next(iter(ft4.topology.links()))
    a, b = link.a.node, link.b.node
    result = session.apply_delta(_announce_delta(ft4_texts), timeout=300)
    assert result.kind == "announce"
    result = session.apply_delta(LinkDelta(a=a, b=b), timeout=300)
    assert result.kind == "full"
    if kill_worker:
        # A hard kill *between* epochs: no shard in flight, so the
        # death first surfaces when the next delta fans out and must
        # be healed there (respawn + checkpoint + epoch re-seed).
        session._controller._pool.proxies[1]._process.kill()
    result = session.apply_delta(LinkDelta(a=a, b=b, up=True), timeout=300)
    assert result.kind == "full"


def _assert_final_state(session) -> None:
    # A sampled host_loss heals on the heal probe's backoff schedule,
    # possibly while the deltas run, and its rebalance commits an epoch
    # of its own.  Wait until no worker is lost and the mutator is idle,
    # so the status and epoch below are read at rest.
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline and (
        session._controller.fleet.lost
        or session.health()["status"] != "serving"
    ):
        time.sleep(0.05)
    oracle_ribs, oracle_pairs = _oracle(session.snapshot)
    view = session.reachability()
    assert view.pairs == oracle_pairs
    assert normalize_ribs(view.ribs) == oracle_ribs
    assert not session.degraded
    assert session.health()["status"] == "serving"
    rejoins = [
        event
        for event in session.journal.tail(200)
        if event.kind == "worker_rejoined"
    ]
    assert session.epoch == 3 + len(rejoins)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_socket_session_under_sampled_chaos(
    ft4, ft4_texts, seed, recheck_reference
):
    """Sampled network faults + a forced worker kill across three
    epochs over real TCP: final state equals the cold start."""
    plan = sample_serve_plan(seed, NUM_WORKERS)
    options = S2Options(
        num_workers=NUM_WORKERS,
        num_shards=NUM_SHARDS,
        runtime="socket",
        fault_plan=plan,
    )
    with VerifierSession(ft4, options) as session:
        _drive(session, ft4, ft4_texts, kill_worker=True)
        assert session._controller.supervisor.recoveries >= 1
        _assert_final_state(session)
    fired = sum(
        plan.count(kind)
        for kind in ("partition", "torn_frame", "reorder", "slow_link",
                     "crash")
    )
    assert fired >= 1, "the sampled plan never injected anything"


def test_socket_session_survives_worker_kill(
    ft4, ft4_texts, recheck_reference
):
    """No injected faults, one worker killed between epochs: the next
    delta heals it and the final state equals the cold start."""
    options = S2Options(
        num_workers=NUM_WORKERS, num_shards=NUM_SHARDS, runtime="socket"
    )
    with VerifierSession(ft4, options) as session:
        _drive(session, ft4, ft4_texts, kill_worker=True)
        assert session._controller.supervisor.recoveries >= 1
        _assert_final_state(session)
    # The announce rechecked its dirty space; the kill healed at the
    # next (full) delta.
    assert [tag for _, tag, _ in recheck_reference] == [
        "full:boot", "dirty", "full:delta", "full:delta"
    ]


def test_socket_session_kill_during_incremental_delta(
    ft4, ft4_texts, recheck_reference
):
    """The kill lands before an *announce* delta: the respawn must be
    re-seeded from the new snapshot (not boot-time configure args) and
    fenced into the new epoch before its dirty shards replay."""
    options = S2Options(
        num_workers=NUM_WORKERS, num_shards=NUM_SHARDS, runtime="socket"
    )
    with VerifierSession(ft4, options) as session:
        session._controller._pool.proxies[0]._process.kill()
        result = session.apply_delta(
            _announce_delta(ft4_texts), timeout=300
        )
        assert result.kind == "announce"
        assert result.shards_reused >= 1
        assert session._controller.supervisor.recoveries >= 1
        oracle_ribs, oracle_pairs = _oracle(session.snapshot)
        view = session.reachability()
        assert view.pairs == oracle_pairs
        assert normalize_ribs(view.ribs) == oracle_ribs
        assert not session.degraded


@pytest.mark.parametrize("runtime", ["sequential", "socket"])
def test_crash_during_the_dirty_recheck_takes_the_full_path(
    ft4, ft4_texts, runtime, recheck_reference
):
    """A worker crashes on ``class_actions`` while an announce's
    dirty-space recheck fetches its classes' actions (armed after boot,
    and the control plane never fetches them; the ACL-free FatTree's
    recheck is a closure, with no superstep to crash in).  The DPO
    recovers and replays, and the commit then takes the full recheck:
    its view equals the cold start."""
    plan = FaultPlan()
    options = S2Options(
        num_workers=NUM_WORKERS,
        num_shards=NUM_SHARDS,
        runtime=runtime,
        fault_plan=plan,
    )
    with VerifierSession(ft4, options) as session:
        plan.add(FaultSpec.parse("crash:worker=1,command=class_actions"))
        result = session.apply_delta(_announce_delta(ft4_texts), timeout=300)
        assert result.kind == "announce"
        assert plan.count("crash") == 1
        assert session._controller.supervisor.recoveries >= 1
        assert commit_records(session)[-1]["recheck"] == "full:recovery"
        oracle_ribs, oracle_pairs = _oracle(session.snapshot)
        view = session.reachability()
        assert view.pairs == oracle_pairs
        assert normalize_ribs(view.ribs) == oracle_ribs
        assert not session.degraded
    assert {tag for epoch, tag, _ in recheck_reference if epoch == 1} == {
        "full:recovery"
    }
