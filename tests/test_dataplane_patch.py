"""Patched data planes against a fresh build of the same store.

After an announce-only epoch each worker patches its data plane within
the dirty prefixes and the recomputed shards instead of building it from
empty.  After every epoch below, the patched state must equal a fresh
``build_dataplane`` of the same store on in-process workers:

* per device, ``Fib.entries()`` (both address families) and LPM lookups
  at every entry's first, last and next address (in-process fleets,
  whose FIBs are readable);
* the DPO's class set and atoms, and every worker's ``class_actions``
  rows over all classes (both runtimes);
* per-pair content digests of the closure check, and of a symbolic
  forward from every endpoint, against the monolithic engine and
  ``DataPlaneVerifier`` — the forward compiles predicates, so the next
  patch must drop those of every device whose FIB changed;
* the session's RIB view against a full reread of the store.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import FaultPlan, FaultSpec
from repro.bdd.engine import FALSE, TRUE
from repro.bdd.serialize import content_digest, serialize
from repro.config.loader import snapshot_from_texts
from repro.dataplane import fib as fib_module
from repro.dataplane.classes import class_atoms, nearest_parents, shortest_first
from repro.dataplane.queries import Query
from repro.dataplane.verifier import DataPlaneVerifier
from repro.dist.controller import S2Options
from repro.dist.worker import Worker
from repro.net.dcn import build_dcn, default_spec, render_configs as dcn_texts
from repro.net.fattree import FatTreeSpec, render_configs
from repro.routing.engine import SimulationEngine
from repro.serve import ConfigTextDelta, VerifierSession

from tests.conftest import commit_records, full_recheck, normalize_ribs
from tests.test_serve_session import (
    _announcers,
    _with_extra_network,
    _with_network,
)

RUNTIMES = ["sequential", "socket"]


def _options(**overrides):
    defaults = dict(num_workers=2, num_shards=8)
    defaults.update(overrides)
    return S2Options(**defaults)


@pytest.fixture(scope="module")
def ft4_texts():
    return render_configs(FatTreeSpec(k=4))


def _fresh(controller):
    """In-process workers built from empty on the controller's store and
    OSPF checkpoints, and the class prefixes each returned."""
    options = controller.options
    workers, replies = [], []
    for proxy in controller.fleet.workers:
        worker = Worker(
            proxy.worker_id,
            controller.snapshot,
            controller.partition.assignment,
            max_hops=options.max_hops,
        )
        worker.restore_ospf_state(controller.supervisor._ospf)
        replies.append(
            worker.build_dataplane(
                controller.store.directory, options.encoding,
                options.node_limit,
            )
        )
        workers.append(worker)
    return workers, frozenset().union(*replies)


def _probes(fib):
    """Each entry's first and last address and the one past it."""
    for entry in fib.entries():
        prefix = entry.prefix
        last = prefix.network + (1 << (prefix.width - prefix.length)) - 1
        for address in (prefix.network, last, last + 1):
            if address < 1 << prefix.width:
                yield address, prefix.width


def _fib_mismatches(patched, fresh):
    found = []
    for host in sorted(fresh._fibs):
        got, want = patched._fibs[host], fresh._fibs[host]
        if got.entries() != want.entries():
            found.append(f"entries {host}")
        for address, width in set(_probes(got)) | set(_probes(want)):
            if got.lookup(address, width) != want.lookup(address, width):
                found.append(f"lookup {host} {address}/{width}")
                break
    return found


def _united(engine, finals):
    united = {}
    for final in finals:
        key = (final.state.name, final.source, final.node)
        united[key] = (
            engine.or_(united[key], final.bdd) if key in united else final.bdd
        )
    return {
        key: content_digest(serialize(engine, bdd))
        for key, bdd in united.items()
    }


def _pair_digests(engine, reachable):
    return {
        pair: content_digest(serialize(engine, bdd))
        for pair, bdd in reachable.items()
        if bdd != FALSE
    }


def _monolith(snapshot, endpoints):
    """Per-pair and forward digests from the monolithic engine and data
    plane, which share no code with the distributed build."""
    engine = SimulationEngine(snapshot)
    dpv = DataPlaneVerifier.from_simulation(engine, engine.run())
    query = Query(sources=endpoints, destinations=endpoints)
    pairs = _pair_digests(
        dpv.engine, dpv.check_reachability(query).reachable
    )
    return pairs, _united(dpv.engine, dpv.forward(endpoints, TRUE))


def mismatches(session):
    """Where the session's data plane differs from a fresh build of its
    store (empty when it does not)."""
    controller = session._controller
    dpo = controller.dpo
    fresh, classes = _fresh(controller)
    found = []
    if dpo._classes != classes:
        found.append("classes")
    ordered = shortest_first(classes)
    atoms = class_atoms(
        dpo.engine, dpo.encoding, ordered, nearest_parents(ordered)
    )
    if dpo._atoms != atoms:
        found.append("atoms")
    rows = controller.fleet.call_all("class_actions", ordered)
    if rows != [worker.class_actions(ordered) for worker in fresh]:
        found.append("class_actions")
    for patched, reference in zip(controller.fleet.workers, fresh):
        if isinstance(patched, Worker):
            found.extend(_fib_mismatches(patched, reference))
    view = session.reachability()
    if normalize_ribs(view.ribs) != normalize_ribs(controller.collected_ribs()):
        found.append("rib view")
    endpoints = view.endpoints
    pairs, forwarded = _monolith(controller.snapshot, endpoints)
    if _pair_digests(dpo.engine, full_recheck(controller, endpoints)) != pairs:
        found.append("pair digests")
    if _united(dpo.engine, dpo.forward(endpoints, TRUE)) != forwarded:
        found.append("forward digests")
    return found


def _apply(session, host, text, dialect):
    return session.apply_delta(
        ConfigTextDelta(host, text, dialect), timeout=300
    )


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_announce_epochs_patch_to_a_fresh_build(ft4_texts, runtime):
    """Add, re-apply (empty ``D``), withdraw, and an endpoint change (an
    aggregation switch starts announcing, then stops): every epoch is a
    patch, and every one equals a fresh build."""
    snapshot = snapshot_from_texts(ft4_texts, name="ft4-patch")
    host = _announcers(ft4_texts, 1)[0]
    dialect, text = ft4_texts[host]
    agg_dialect, agg_text = ft4_texts["agg-1-0"]
    agg_announcing = agg_text.replace(
        " bgp router-id",
        " network 198.51.100.0 mask 255.255.255.0\n bgp router-id",
        1,
    )
    assert agg_announcing != agg_text
    schedule = [
        (host, _with_extra_network(text), dialect, "dirty"),
        (host, _with_extra_network(text), dialect, "dirty"),
        (host, text, dialect, "dirty"),
        ("agg-1-0", agg_announcing, agg_dialect, "full:endpoints"),
        ("agg-1-0", agg_text, agg_dialect, "full:endpoints"),
    ]
    with VerifierSession(snapshot, _options(runtime=runtime)) as session:
        stats = session._controller.dpo.stats
        assert (stats.builds, stats.patches) == (1, 0)
        assert mismatches(session) == []
        for epoch, (name, new_text, new_dialect, tag) in enumerate(
            schedule, start=1
        ):
            result = _apply(session, name, new_text, new_dialect)
            assert result.kind == "announce", epoch
            assert commit_records(session)[-1]["recheck"] == tag, epoch
            assert (stats.builds, stats.patches) == (1, epoch)
            assert mismatches(session) == [], epoch


def test_an_aggregate_on_dcn_patches_to_a_fresh_build(dcn1):
    """A /24 inside an aggregating cluster's /16 dirties the whole
    aggregate component."""
    host = "c3-t0-0"
    dialect, text = dcn_texts(default_spec(1))[host]
    added = _with_network(text, "10.3.200.0 mask 255.255.255.0")
    with VerifierSession(dcn1, _options(num_workers=3)) as session:
        stats = session._controller.dpo.stats
        for new_text in (added, text):
            result = _apply(session, host, new_text, dialect)
            assert result.kind == "announce" and result.dirty_prefixes > 1
            assert mismatches(session) == []
        assert stats.patches == 2


def test_ipv6_entries_are_patched_under_an_ipv4_encoding():
    """Only IPv4 compiles, yet a toggled IPv6 ``network`` is patched in
    every FIB exactly as a fresh build installs it."""
    dcn6 = build_dcn(scale=1, ipv6=True)
    host = "c3-t0-0"
    spec = dataclasses.replace(default_spec(1), ipv6=True)
    dialect, text = dcn_texts(spec)[host]
    v4_only = "\n".join(
        line
        for line in text.splitlines()
        if not (line.strip().startswith("network ") and ":" in line)
    )
    with VerifierSession(dcn6, _options()) as session:
        workers = session._controller.fleet.workers
        v6_entries = []
        for new_text in (v4_only, text):
            _apply(session, host, new_text, dialect)
            assert mismatches(session) == []
            v6_entries.append(
                sum(
                    len(fib.entries(128))
                    for worker in workers
                    for fib in worker._fibs.values()
                )
            )
        assert v6_entries[0] < v6_entries[1]
        assert session._controller.dpo.stats.patches == 2


def test_a_patch_that_keeps_withdrawn_entries_is_caught(
    ft4_texts, monkeypatch
):
    """The mutant: ``Fib.remove`` does nothing, so a withdrawn /24 stays
    in every patched FIB (a fresh build never removes an entry)."""
    monkeypatch.setattr(fib_module.Fib, "remove", lambda self, prefix: None)
    snapshot = snapshot_from_texts(ft4_texts, name="ft4-mutant")
    host = _announcers(ft4_texts, 1)[0]
    dialect, text = ft4_texts[host]
    with VerifierSession(snapshot, _options()) as session:
        _apply(session, host, _with_extra_network(text), dialect)
        assert mismatches(session) == []
        _apply(session, host, text, dialect)
        found = mismatches(session)
    assert "classes" in found and "atoms" in found
    assert any(item.startswith("entries") for item in found)


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_a_crash_while_patching_replays_into_a_full_build(
    ft4_texts, runtime
):
    plan = FaultPlan()
    snapshot = snapshot_from_texts(ft4_texts, name="ft4-crash")
    host = _announcers(ft4_texts, 1)[0]
    dialect, text = ft4_texts[host]
    options = _options(runtime=runtime, fault_plan=plan)
    with VerifierSession(snapshot, options) as session:
        stats = session._controller.dpo.stats
        _apply(session, host, _with_extra_network(text), dialect)
        assert (stats.builds, stats.patches) == (1, 1)
        plan.add(FaultSpec(kind="crash", worker=1, command="build_dataplane"))
        _apply(session, host, text, dialect)
        assert plan.count("crash") == 1, "the injected crash never fired"
        assert (stats.builds, stats.patches) == (2, 1)
        assert commit_records(session)[-1]["recheck"] == "full:recovery"
        assert mismatches(session) == []
