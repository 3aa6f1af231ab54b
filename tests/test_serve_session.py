"""The resident verifier behind ``repro serve``.

The central claims under test:

* **Delta equivalence** — a session that absorbs config/link deltas
  produces bit-identical RIBs and reachability verdicts to a cold-start
  run of the final snapshot, whether the delta took the incremental
  (announce-only) or the full-recompute path.
* **Incrementality** — a single-device announce delta recomputes only
  the one shard it dirties: the packing is sticky across epochs (and
  across a warm boot, which adopts the stored packing), so every clean
  shard keeps its index and its flushed results.
* **Self-healing** — a worker holding a stale epoch is rejected by the
  ``begin_shard`` fence and recovered; queries during a recompute read
  the previous committed epoch; a full admission queue sheds load with
  a typed refusal; a terminal recompute failure degrades the session to
  read-only instead of corrupting it.
"""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.bdd.engine import FALSE
from repro.config.loader import snapshot_from_texts
from repro.dataplane.queries import Query
from repro.dataplane.verifier import DataPlaneVerifier
from repro.dist.controller import S2Controller, S2Options
from repro.dist.sharding import PrefixShard
from repro.net.dcn import build_dcn, default_spec, render_configs as dcn_texts
from repro.net.fattree import FatTreeSpec, render_configs
from repro.obs.top import render_top
from repro.routing.engine import SimulationEngine
from repro.serve import (
    ConfigTextDelta,
    DeltaError,
    LinkDelta,
    SessionBusyError,
    SessionDegradedError,
    UnknownEndpointError,
    VerifierSession,
)
from repro.serve import session as session_module

from tests.conftest import (
    commit_records,
    full_recheck,
    normalize_ribs,
    one_shard_per_batch,
)

NUM_WORKERS = 2
NUM_SHARDS = 8


def _options(**overrides) -> S2Options:
    defaults = dict(num_workers=NUM_WORKERS, num_shards=NUM_SHARDS)
    defaults.update(overrides)
    return S2Options(**defaults)


@pytest.fixture(scope="module")
def ft4_texts():
    return render_configs(FatTreeSpec(k=4))


@pytest.fixture(scope="module")
def ft4(ft4_texts):
    return snapshot_from_texts(ft4_texts, name="ft4-serve")


def _announcers(texts, count):
    """The first ``count`` devices that actually announce networks (edge
    switches — agg/core have no ``network`` statements)."""
    return sorted(
        host
        for host, (_dialect, text) in texts.items()
        if any(
            line.strip().startswith("network ")
            for line in text.splitlines()
        )
    )[:count]


@pytest.fixture(scope="module")
def announce_host(ft4_texts):
    return _announcers(ft4_texts, 1)[0]


def _with_network(text: str, network: str) -> str:
    """The device's config with one more ``network`` statement."""
    lines = text.splitlines()
    last_net = max(
        index
        for index, line in enumerate(lines)
        if line.strip().startswith("network ")
    )
    lines.insert(last_net + 1, f" network {network}")
    return "\n".join(lines)


def _with_extra_network(text: str, octet: int = 113) -> str:
    """The device's config with one more announced /24."""
    return _with_network(text, f"203.0.{octet}.0 mask 255.255.255.0")


def _without_networks(text: str) -> str:
    return "\n".join(
        line
        for line in text.splitlines()
        if not line.strip().startswith("network ")
    )


def _oracle(snapshot):
    """Cold-start RIBs + reachability pairs for ``snapshot``."""
    with S2Controller(snapshot, _options()) as controller:
        controller.run_control_plane()
        endpoints = tuple(controller.prefix_holders())
        result = controller.checker().check_reachability(
            Query(sources=endpoints, destinations=endpoints)
        )
        return (
            normalize_ribs(controller.collected_ribs()),
            frozenset(result.pairs()),
        )


def _monolithic(snapshot):
    """RIBs + reachability pairs from the monolithic engine and data
    plane, the reference that shares no code with the session."""
    engine = SimulationEngine(snapshot)
    routes = engine.run()
    endpoints = tuple(
        host
        for host, config in sorted(snapshot.configs.items())
        if config.bgp is not None and config.bgp.networks
    )
    dpv = DataPlaneVerifier.from_simulation(engine, routes)
    result = dpv.check_reachability(
        Query(sources=endpoints, destinations=endpoints)
    )
    return normalize_ribs(routes), frozenset(result.pairs())


def _assert_monolithic(session: VerifierSession) -> None:
    view = session.reachability()
    ribs, pairs = _monolithic(session.snapshot)
    assert normalize_ribs(view.ribs) == ribs
    assert view.pairs == pairs


def _assert_equivalent(session: VerifierSession) -> None:
    """The session's committed view matches a cold start of its
    current snapshot, bit for bit."""
    oracle_ribs, oracle_pairs = _oracle(session.snapshot)
    view = session.reachability()
    assert normalize_ribs(view.ribs) == oracle_ribs
    assert view.pairs == oracle_pairs


# -- boot and reads ---------------------------------------------------------


def test_cold_boot_serves_cold_start_verdicts(ft4):
    with VerifierSession(ft4, _options()) as session:
        health = session.health()
        assert health["status"] == "serving"
        assert health["epoch"] == 0
        assert not health["warm_boot"]
        _assert_equivalent(session)
        view = session.reachability()
        src, dst = sorted(view.endpoints)[:2]
        result = session.query(src, dst)
        assert result.holds == ((src, dst) in view.pairs)
        assert result.epoch == 0
        assert not result.degraded
        routes = session.routes(src)
        assert routes and all(count >= 1 for count in routes.values())


def test_unknown_endpoint_is_a_typed_refusal(ft4):
    with VerifierSession(ft4, _options()) as session:
        with pytest.raises(UnknownEndpointError):
            session.query("no-such-node", "also-missing")
        with pytest.raises(UnknownEndpointError):
            session.routes("no-such-node")


# -- the incremental path ---------------------------------------------------


def test_announce_delta_recomputes_strictly_fewer_shards(
    ft4, ft4_texts, announce_host
):
    """The acceptance criterion: one device's announce change recomputes
    only the one shard it dirties, and the result is bit-identical to a
    cold start of the new snapshot."""
    dialect, text = ft4_texts[announce_host]
    with VerifierSession(ft4, _options()) as session:
        total = len(session._controller.shards)
        result = session.apply_delta(
            ConfigTextDelta(
                hostname=announce_host,
                text=_with_extra_network(text),
                dialect=dialect,
            ),
            timeout=300,
        )
        assert result.kind == "announce"
        assert result.epoch == 1
        assert result.dirty_prefixes >= 1
        assert result.shards_recomputed == 1 < total
        assert result.shards_recomputed + result.shards_reused == len(
            session._controller.shards
        )
        _assert_equivalent(session)


@pytest.mark.parametrize("runtime", ["sequential", "socket"])
def test_sticky_packing_recomputes_one_shard_per_epoch(
    ft4, ft4_texts, runtime
):
    """Six epochs: three hosts each add a network, then each withdraws
    it.  Every epoch recomputes exactly the one shard it dirtied and
    matches the monolithic engine; the final packing is epoch 0's."""
    hosts = _announcers(ft4_texts, 3)
    schedule = [(host, True) for host in hosts] + [
        (host, False) for host in hosts
    ]
    with VerifierSession(ft4, _options(runtime=runtime)) as session:
        before = [
            (s.index, s.fingerprint()) for s in session._controller.shards
        ]
        for epoch, (host, add) in enumerate(schedule, start=1):
            dialect, text = ft4_texts[host]
            if add:
                text = _with_extra_network(text, octet=epoch)
            result = session.apply_delta(
                ConfigTextDelta(hostname=host, text=text, dialect=dialect),
                timeout=300,
            )
            assert (result.kind, result.epoch) == ("announce", epoch)
            assert result.shards_recomputed == 1
            assert result.shards_reused == len(before) - 1
            _assert_monolithic(session)
        assert [
            (s.index, s.fingerprint()) for s in session._controller.shards
        ] == before


@pytest.mark.parametrize("runtime", ["sequential", "socket"])
def test_warm_boot_keeps_the_sticky_packing(
    ft4, ft4_texts, runtime, tmp_path
):
    """Three announces, close, warm boot on the same store, a fourth
    announce: the boot adopts the packing the store's files were written
    under, so the delta recomputes one shard and matches the monolithic
    engine."""
    hosts = _announcers(ft4_texts, 4)
    options = _options(runtime=runtime, store_dir=str(tmp_path / "store"))

    def announce(session, host, octet):
        dialect, text = ft4_texts[host]
        return session.apply_delta(
            ConfigTextDelta(
                hostname=host,
                text=_with_extra_network(text, octet=octet),
                dialect=dialect,
            ),
            timeout=300,
        )

    with VerifierSession(ft4, options) as session:
        for octet, host in enumerate(hosts[:3], start=1):
            assert announce(session, host, octet).shards_recomputed == 1
        snapshot = session.snapshot
        packing = [s.prefix_list() for s in session._controller.shards]
    with VerifierSession(snapshot, options) as session:
        assert session.warm_booted and session.epoch == 3
        assert [
            s.prefix_list() for s in session._controller.shards
        ] == packing
        result = announce(session, hosts[3], 4)
        assert (result.kind, result.epoch) == ("announce", 4)
        assert result.shards_recomputed == 1
        _assert_monolithic(session)


def test_withdraw_delta_loses_pairs_and_stays_equivalent(
    ft4, ft4_texts, announce_host
):
    dialect, text = ft4_texts[announce_host]
    with VerifierSession(ft4, _options()) as session:
        before = session.reachability()
        result = session.apply_delta(
            ConfigTextDelta(
                hostname=announce_host,
                text=_without_networks(text),
                dialect=dialect,
            ),
            timeout=300,
        )
        assert result.kind == "announce"
        # The host stopped announcing: every pair involving it is gone.
        assert result.lost_pairs
        assert all(
            announce_host in pair for pair in result.lost_pairs
        )
        assert announce_host not in session.reachability().endpoints
        assert announce_host in before.endpoints
        _assert_equivalent(session)


def test_clean_shards_follow_a_packing_that_moved(
    ft4, ft4_texts, announce_host
):
    """When the packing moves between epochs (as a cold repack under the
    drift bound does), clean shards' files follow their prefixes to the
    new indices instead of being recomputed."""
    dialect, text = ft4_texts[announce_host]
    with VerifierSession(ft4, _options()) as session:
        controller = session._controller
        shards = controller.shards
        controller.shards = [
            PrefixShard(index=len(shards) - 1 - s.index, prefixes=s.prefixes)
            for s in shards
        ]
        result = session.apply_delta(
            ConfigTextDelta(
                hostname=announce_host,
                text=_with_extra_network(text),
                dialect=dialect,
            ),
            timeout=300,
        )
        assert result.shards_recomputed == 1
        assert result.shards_reused == len(shards) - 1
        _assert_monolithic(session)


def test_reapplying_the_same_config_is_a_cheap_epoch(
    ft4, ft4_texts, announce_host
):
    dialect, text = ft4_texts[announce_host]
    with VerifierSession(ft4, _options()) as session:
        before = session.reachability()
        result = session.apply_delta(
            ConfigTextDelta(
                hostname=announce_host, text=text, dialect=dialect
            ),
            timeout=300,
        )
        assert result.kind == "announce"
        assert result.shards_recomputed == 0
        assert result.dirty_prefixes == 0
        assert not result.lost_pairs and not result.gained_pairs
        after = session.reachability()
        assert after.epoch == 1
        assert after.pairs == before.pairs
        assert normalize_ribs(after.ribs) == normalize_ribs(before.ribs)


# -- the full-recompute path ------------------------------------------------


def test_link_down_then_up_round_trips(ft4):
    link = next(iter(ft4.topology.links()))
    a, b = link.a.node, link.b.node
    with VerifierSession(ft4, _options()) as session:
        baseline = session.reachability()
        down = session.apply_delta(LinkDelta(a=a, b=b), timeout=300)
        assert down.kind == "full"
        assert down.epoch == 1
        _assert_equivalent(session)
        up = session.apply_delta(LinkDelta(a=a, b=b, up=True), timeout=300)
        assert up.kind == "full"
        assert up.epoch == 2
        after = session.reachability()
        assert after.pairs == baseline.pairs
        assert normalize_ribs(after.ribs) == normalize_ribs(baseline.ribs)


def test_unknown_link_is_rejected_without_degrading(ft4):
    with VerifierSession(ft4, _options()) as session:
        with pytest.raises(DeltaError):
            session.apply_delta(
                LinkDelta(a="nope-0", b="nope-1"), timeout=300
            )
        assert not session.degraded
        assert session.health()["status"] == "serving"
        assert session.epoch == 0


def test_wrong_hostname_in_config_delta_is_rejected(
    ft4, ft4_texts, announce_host
):
    _dialect, text = ft4_texts[announce_host]
    with VerifierSession(ft4, _options()) as session:
        with pytest.raises(DeltaError):
            session.apply_delta(
                ConfigTextDelta(hostname="not-in-snapshot", text=text),
                timeout=300,
            )
        assert session.health()["status"] == "serving"


# -- the dirty-space recheck ------------------------------------------------


def _carried_equals_full(session) -> bool:
    """The session's per-pair BDDs equal a full recheck (``D = TRUE``)
    of its current data plane, in the same engine."""
    endpoints = session.reachability().endpoints
    return session._reachable == full_recheck(session._controller, endpoints)


def _recheck_schedule(ft4, ft4_texts, host):
    """(delta, expected ``recheck`` tag, expected prefixes in ``D``)."""
    dialect, text = ft4_texts[host]
    link = next(iter(ft4.topology.links()))
    a, b = link.a.node, link.b.node
    added = _with_extra_network(text)
    return [
        (ConfigTextDelta(host, added, dialect), "dirty", 1),
        (ConfigTextDelta(host, text, dialect), "dirty", 1),
        # The same config again: D is empty.
        (ConfigTextDelta(host, text, dialect), "dirty", 0),
        # The host stops announcing, so the endpoint set changes.
        (
            ConfigTextDelta(host, _without_networks(text), dialect),
            "full:endpoints",
            None,
        ),
        (LinkDelta(a=a, b=b), "full:delta", None),
        (LinkDelta(a=a, b=b, up=True), "full:delta", None),
    ]


@pytest.mark.parametrize("runtime", ["sequential", "socket"])
def test_dirty_recheck_equals_the_full_recheck(
    ft4, ft4_texts, announce_host, runtime
):
    """Every epoch's per-pair BDDs equal a full recheck in the same
    engine, whichever path the commit took; an empty ``D`` forwards
    nothing; the final view equals the monolithic engine."""
    schedule = _recheck_schedule(ft4, ft4_texts, announce_host)
    with VerifierSession(ft4, _options(runtime=runtime)) as session:
        dpo = session._controller.dpo
        assert commit_records(session)[-1]["recheck"] == "full:boot"
        for delta, tag, prefixes in schedule:
            supersteps = dpo.stats.supersteps
            result = session.apply_delta(delta, timeout=300)
            record = commit_records(session)[-1]
            assert record["epoch"] == result.epoch
            assert (record["recheck"], record["recheck_prefixes"]) == (
                tag,
                prefixes,
            )
            assert record["recheck_ms"] >= 0
            if prefixes == 0:
                assert dpo.stats.supersteps == supersteps
            assert _carried_equals_full(session), result.epoch
        _assert_monolithic(session)


def test_dirty_recheck_oracle_catches_a_stale_carry(
    ft4, ft4_texts, announce_host, monkeypatch
):
    """Without the ``∧ ¬D`` conjunct a withdrawn /24 keeps its arrivals
    from the committed epoch: the oracle above must see the difference."""

    def merge_without_outside(engine, committed, fresh, within):
        merged = {
            pair: engine.or_(
                committed.get(pair, FALSE), fresh.get(pair, FALSE)
            )
            for pair in committed.keys() | fresh.keys()
        }
        return {pair: bdd for pair, bdd in merged.items() if bdd != FALSE}

    monkeypatch.setattr(
        session_module, "merge_recheck", merge_without_outside
    )
    dialect, text = ft4_texts[announce_host]
    with VerifierSession(ft4, _options()) as session:
        session.apply_delta(
            ConfigTextDelta(
                announce_host, _with_extra_network(text), dialect
            ),
            timeout=300,
        )
        session.apply_delta(
            ConfigTextDelta(announce_host, text, dialect), timeout=300
        )
        assert commit_records(session)[-1]["recheck"] == "dirty"
        assert not _carried_equals_full(session)


def test_dirty_recheck_inside_an_aggregate_on_dcn(dcn1):
    """A /24 announced inside an aggregating cluster's /16: ``D`` is the
    whole aggregate component and overlaps prefixes that stay clean
    (the border's default route), yet every epoch equals the full
    recheck and the final view the monolithic engine."""
    host = "c3-t0-0"  # a Cisco ToR of the aggregating cluster
    dialect, text = dcn_texts(default_spec(1))[host]
    added = _with_network(text, "10.3.200.0 mask 255.255.255.0")
    with VerifierSession(dcn1, _options()) as session:
        for new_text in (added, text):
            result = session.apply_delta(
                ConfigTextDelta(host, new_text, dialect), timeout=300
            )
            record = commit_records(session)[-1]
            assert result.kind == "announce"
            assert record["recheck"] == "dirty"
            assert record["recheck_prefixes"] == result.dirty_prefixes > 1
            assert _carried_equals_full(session), result.epoch
        _assert_monolithic(session)


def test_dual_stack_prefixes_stay_out_of_the_ipv4_recheck():
    """Under the IPv4 encoding an IPv6 ``network`` toggle dirties only
    other-family prefixes, so ``D`` is empty; a mixed delta rechecks
    only its IPv4 half.  Each epoch equals the full recheck."""
    dcn6 = build_dcn(scale=1, ipv6=True)
    host = "c3-t0-0"
    spec = dataclasses.replace(default_spec(1), ipv6=True)
    dialect, text = dcn_texts(spec)[host]
    v4_only = "\n".join(
        line
        for line in text.splitlines()
        if not (line.strip().startswith("network ") and ":" in line)
    )
    mixed = _with_network(text, "10.3.200.0 mask 255.255.255.0")
    with VerifierSession(dcn6, _options()) as session:
        dpo = session._controller.dpo
        supersteps = dpo.stats.supersteps
        result = session.apply_delta(
            ConfigTextDelta(host, v4_only, dialect), timeout=300
        )
        record = commit_records(session)[-1]
        assert result.kind == "announce" and result.dirty_prefixes > 0
        assert (record["recheck"], record["recheck_prefixes"]) == ("dirty", 0)
        assert dpo.stats.supersteps == supersteps
        assert _carried_equals_full(session)
        # Restores the IPv6 network and adds an IPv4 /24, then withdraws
        # the /24 alone.
        for new_text, v6_dirty in ((mixed, True), (text, False)):
            result = session.apply_delta(
                ConfigTextDelta(host, new_text, dialect), timeout=300
            )
            record = commit_records(session)[-1]
            assert record["recheck"] == "dirty"
            assert 0 < record["recheck_prefixes"] <= result.dirty_prefixes
            assert (
                record["recheck_prefixes"] < result.dirty_prefixes
            ) == v6_dirty
            assert _carried_equals_full(session), result.epoch


# -- self-healing -----------------------------------------------------------


def test_stale_epoch_worker_is_fenced_and_recovered(ft4):
    """A worker that misses the epoch seed (here: its ``begin_epoch``
    drops the first call) is rejected by the ``begin_shard`` fence,
    routed through supervisor recovery, re-seeded, and the shard
    replays — with verdicts identical to the healthy run."""
    link = next(iter(ft4.topology.links()))
    with VerifierSession(ft4, _options()) as session:
        worker = session._controller.fleet.workers[1]
        real_begin_epoch = worker.begin_epoch
        dropped = []

        def drop_first_seed(epoch):
            if not dropped:
                dropped.append(epoch)
                return None
            return real_begin_epoch(epoch)

        worker.begin_epoch = drop_first_seed
        result = session.apply_delta(
            LinkDelta(a=link.a.node, b=link.b.node), timeout=300
        )
        supervisor = session._controller.supervisor
        assert dropped, "the faulty seed never fired"
        assert supervisor.stale_epoch_rejections >= 1
        assert supervisor.recoveries >= 1
        assert result.epoch == 1
        assert not session.degraded
        _assert_equivalent(session)


def test_queries_read_the_committed_epoch_during_recompute(
    ft4, ft4_texts, announce_host
):
    dialect, text = ft4_texts[announce_host]
    with VerifierSession(ft4, _options()) as session:
        controller = session._controller
        entered = threading.Event()
        release = threading.Event()
        real_run = controller.run_control_plane

        def paused_run():
            entered.set()
            assert release.wait(timeout=60)
            return real_run()

        controller.run_control_plane = paused_run
        view = session.reachability()
        src, dst = sorted(view.endpoints)[:2]
        future = session.submit_delta(
            ConfigTextDelta(
                hostname=announce_host,
                text=_with_extra_network(text),
                dialect=dialect,
            )
        )
        assert entered.wait(timeout=60)
        # Mid-recompute: reads are served from epoch 0, untorn.
        mid = session.query(src, dst)
        assert mid.epoch == 0
        assert session.health()["status"] == "recomputing"
        release.set()
        result = future.result(timeout=300)
        assert result.epoch == 1
        assert session.query(src, dst).epoch == 1


def test_full_admission_queue_sheds_with_busy(
    ft4, ft4_texts, announce_host
):
    dialect, text = ft4_texts[announce_host]

    def delta():
        return ConfigTextDelta(
            hostname=announce_host, text=text, dialect=dialect
        )

    with VerifierSession(ft4, _options(), queue_limit=1) as session:
        gate = threading.Event()
        real_apply = session._apply

        def gated_apply(item):
            assert gate.wait(timeout=60)
            return real_apply(item)

        session._apply = gated_apply
        first = session.submit_delta(delta())
        # Wait for the mutator to take the first delta off the queue,
        # then fill the single admission slot.
        deadline = threading.Event()
        for _ in range(600):
            if session._queue.empty():
                break
            deadline.wait(0.05)
        assert session._queue.empty()
        second = session.submit_delta(delta())
        with pytest.raises(SessionBusyError):
            session.submit_delta(delta())
        gate.set()
        assert first.result(timeout=300).epoch == 1
        assert second.result(timeout=300).epoch == 2


def test_loss_during_reconfigure_commits_at_reduced_capacity(ft4):
    """A host lost while a full-recompute delta is mid-``reconfigure``:
    the delta's epoch still commits on the survivors — the session never
    goes read-only while at least one worker is up — and the verdicts
    match a cold start of the new snapshot."""
    from repro.dist.faults import FaultPlan, FaultSpec

    link = next(iter(ft4.topology.links()))
    # An armed plan with no specs yet: boot runs fault-free, then the
    # loss is primed to fire inside the delta's recompute.
    plan = FaultPlan([])
    with VerifierSession(
        ft4, _options(fault_plan=plan, runtime="socket")
    ) as session:
        assert session.health()["capacity"]["lost_workers"] == 0
        plan.add(
            FaultSpec(
                kind="host_loss", worker=1, command="step", round=1,
                heal_after=100,
            )
        )
        result = session.apply_delta(
            LinkDelta(a=link.a.node, b=link.b.node), timeout=300
        )
        assert plan.count("host_loss") == 1, "the loss never fired"
        assert result.epoch == 1
        assert not session.degraded
        health = session.health()
        assert health["status"] == "serving"
        assert health["capacity"]["lost_workers"] == 1
        assert health["workers"] == NUM_WORKERS - 1
        # The lost worker stays in the per-worker map, marked lost, and
        # repro top shows it as such rather than as a live row.
        workers = health["worker_health"]["workers"]
        assert sorted(workers) == ["worker0", "worker1"]
        assert workers["worker1"]["lost"] and not workers["worker0"]["lost"]
        rows = [
            line
            for line in render_top(session.statusz(), []).splitlines()
            if line.startswith("worker")
        ]
        assert [row.endswith("LOST") for row in rows] == [False, True]
        _assert_equivalent(session)
        kinds = [event.kind for event in session.journal.tail(100)]
        assert "worker_lost" in kinds
        assert "epoch_commit" in kinds


@pytest.mark.parametrize(
    "runtime, traffic",
    [
        pytest.param("sequential", "idle", id="sequential"),
        pytest.param("socket", "idle", id="socket"),
        pytest.param("sequential", "busy", id="sequential-busy"),
        pytest.param("socket", "busy", id="socket-busy"),
    ],
)
def test_healed_host_is_rebalanced_back_at_an_epoch_boundary(
    ft4, ft4_texts, announce_host, runtime, traffic
):
    """Once the blacklisted host heals, the mutator's heal probe rejoins
    it: capacity returns to 1.0 as a fresh committed epoch, and the
    verdicts survive the loss *and* the rejoin.  Under ``busy`` traffic
    announce deltas arrive back to back, so the queue is never empty —
    the probe's deadline, not an idle queue, must get it to run."""
    import time as _time

    from repro.dist.faults import FaultPlan, FaultSpec

    # heal_after=2 == the respawn budget: dead long enough to be
    # declared lost at boot, healed by the time the prober dials.
    plan = FaultPlan(
        [
            FaultSpec(
                kind="host_loss", worker=1, command="step", round=1,
                heal_after=2,
            )
        ]
    )
    dialect, text = ft4_texts[announce_host]

    def rejoined(session):
        kinds = [event.kind for event in session.journal.tail(100)]
        return "worker_rejoined" in kinds

    with VerifierSession(
        ft4, _options(fault_plan=plan, runtime=runtime)
    ) as session:
        assert session.health()["capacity"]["lost_workers"] == 1
        deadline = _time.time() + 60
        if traffic == "busy":
            # Keep one delta queued behind the one running until the
            # rejoin lands (each replaces the host's config, so the last
            # one submitted is the final snapshot).
            pending = []
            octet = 100
            while not rejoined(session) and _time.time() < deadline:
                pending.append(
                    session.submit_delta(
                        ConfigTextDelta(
                            hostname=announce_host,
                            text=_with_extra_network(text, octet),
                            dialect=dialect,
                        )
                    )
                )
                octet += 1
                if len(pending) > 1:
                    pending.pop(0).result(timeout=300)
            for future in pending:
                future.result(timeout=300)
        while _time.time() < deadline:
            health = session.health()
            if (
                health["capacity"]["lost_workers"] == 0
                and health["epoch"] >= 1
            ):
                break
            _time.sleep(0.1)
        health = session.health()
        assert health["capacity"] == {
            "active_workers": NUM_WORKERS,
            "lost_workers": 0,
            "capacity_ratio": 1.0,
            "lost": {},
        }
        assert health["epoch"] >= 1  # the rebalance was an epoch event
        assert not session.degraded
        _assert_equivalent(session)
        kinds = [event.kind for event in session.journal.tail(100)]
        assert "worker_lost" in kinds
        assert rejoined(session)
        if traffic == "busy":
            assert kinds.count("delta_classified") >= 2


def test_heal_probe_that_raises_degrades_the_session(ft4):
    """A heal probe runs on the mutator like a delta, and a failure in it
    takes the delta's degradation path: read-only, typed refusals."""
    import time as _time

    from repro.dist.faults import FaultPlan, FaultSpec

    plan = FaultPlan(
        [
            FaultSpec(
                kind="host_loss", worker=1, command="step", round=1,
                heal_after=100,
            )
        ]
    )
    with VerifierSession(ft4, _options(fault_plan=plan)) as session:
        assert session.health()["capacity"]["lost_workers"] == 1

        def explode(worker_id, epoch=None):
            raise RuntimeError("rejoin failed terminally")

        session._controller.rejoin_worker = explode
        deadline = _time.time() + 30
        while not session.degraded and _time.time() < deadline:
            _time.sleep(0.05)
        health = session.health()
        assert health["status"] == "degraded"
        assert "rejoin failed terminally" in health["degraded_reason"]
        assert health["epoch"] == 0
        kinds = [event.kind for event in session.journal.tail(100)]
        assert "degraded" in kinds
        link = next(iter(ft4.topology.links()))
        with pytest.raises(SessionDegradedError):
            session.submit_delta(LinkDelta(a=link.a.node, b=link.b.node))


@pytest.mark.parametrize("runtime", ["sequential", "socket"])
def test_warm_boot_after_a_worker_loss_serves_the_cold_start_view(
    ft4, runtime, tmp_path
):
    """A session loses worker 1's host while shard 2 converges, so the
    survivors write shards 2 and 3.  A warm boot of its store plans the
    full fleet again; worker 1 reads those shards from the survivors'
    files and the session serves a cold start's view, with no
    fallback."""
    from repro.dist.faults import FaultPlan, FaultSpec

    options = _options(
        num_workers=3, num_shards=4, runtime=runtime,
        store_dir=str(tmp_path / "store"),
    )
    options.worker_capacity = one_shard_per_batch(ft4, options)
    plan = FaultPlan(
        [
            FaultSpec(
                kind="host_loss", worker=1, shard=2, command="step",
                round=1, heal_after=100,
            )
        ]
    )
    with VerifierSession(
        ft4, dataclasses.replace(options, fault_plan=plan)
    ) as session:
        assert plan.count("host_loss") == 1, "the loss never fired"
        assert session.health()["capacity"]["lost_workers"] == 1
    with VerifierSession(ft4, options) as session:
        assert session.warm_booted
        assert session.boot_fallback is None
        assert session.health()["capacity"]["lost_workers"] == 0
        _assert_equivalent(session)


@pytest.mark.parametrize("runtime", ["sequential", "socket"])
def test_losing_every_worker_degrades_to_read_only(
    ft4, ft4_texts, announce_host, runtime
):
    """Every worker's host dies during an announce: the control plane
    raises the typed ``RespawnError``, and the session (nothing stubbed)
    degrades read-only — one journaled ``degraded`` record, typed
    refusals for writes, and the previous epoch's view still served."""
    from repro.dist.faults import FaultPlan, FaultSpec, RespawnError

    dialect, text = ft4_texts[announce_host]
    # Armed with no specs: boot runs fault-free, then every host is
    # primed to die at the announce's first BGP step.
    plan = FaultPlan([])
    with VerifierSession(
        ft4, _options(fault_plan=plan, runtime=runtime)
    ) as session:
        view = session.reachability()
        src, dst = sorted(view.endpoints)[:2]
        expected = session.query(src, dst).holds
        for worker in range(NUM_WORKERS):
            plan.add(
                FaultSpec(
                    kind="host_loss", worker=worker, command="step",
                    heal_after=100,
                )
            )
        with pytest.raises(RespawnError, match="no survivors remain"):
            session.apply_delta(
                ConfigTextDelta(
                    hostname=announce_host,
                    text=_with_extra_network(text),
                    dialect=dialect,
                ),
                timeout=300,
            )
        assert plan.count("host_loss") == NUM_WORKERS
        health = session.health()
        assert health["status"] == "degraded"
        assert health["degraded_reason"].startswith("RespawnError: ")
        assert health["epoch"] == 0
        assert health["capacity"]["active_workers"] == 0
        events = session.journal.tail(100)
        degraded = [event for event in events if event.kind == "degraded"]
        assert len(degraded) == 1
        assert degraded[0].attrs["epoch"] == 0
        assert degraded[0].attrs["reason"] == health["degraded_reason"]
        assert "epoch_commit" not in [
            event.kind for event in events if event.seq > degraded[0].seq
        ]
        # Reads keep answering from epoch 0's committed view...
        assert session.reachability() is view
        result = session.query(src, dst)
        assert (result.epoch, result.holds, result.degraded) == (
            0, expected, True,
        )
        # ...and every write is refused with the typed error.
        with pytest.raises(SessionDegradedError):
            session.submit_delta(
                ConfigTextDelta(
                    hostname=announce_host, text=text, dialect=dialect
                )
            )
        link = next(iter(ft4.topology.links()))
        with pytest.raises(SessionDegradedError):
            session.submit_delta(LinkDelta(a=link.a.node, b=link.b.node))


def test_terminal_failure_degrades_to_read_only(
    ft4, ft4_texts, announce_host
):
    """When the degradation ladder is exhausted the session turns
    read-only on the previous epoch instead of serving torn state."""
    dialect, text = ft4_texts[announce_host]
    with VerifierSession(ft4, _options()) as session:
        view = session.reachability()
        src, dst = sorted(view.endpoints)[:2]
        expected = session.query(src, dst).holds

        def explode(dirty=None):
            raise RuntimeError("data plane rebuild failed terminally")

        session._controller.rebuild_data_plane = explode
        with pytest.raises(RuntimeError):
            session.apply_delta(
                ConfigTextDelta(
                    hostname=announce_host,
                    text=_with_extra_network(text),
                    dialect=dialect,
                ),
                timeout=300,
            )
        health = session.health()
        assert health["status"] == "degraded"
        assert "RuntimeError" in health["degraded_reason"]
        # Reads keep answering from the last committed epoch...
        result = session.query(src, dst)
        assert result.epoch == 0
        assert result.holds == expected
        assert result.degraded
        # ...and writes are refused with the typed error.
        with pytest.raises(SessionDegradedError):
            session.submit_delta(
                ConfigTextDelta(
                    hostname=announce_host, text=text, dialect=dialect
                )
            )
