"""Change-driven BGP rounds against the always-recompute reference.

``RouterNode`` returns the previous export tuple while its state version
has not moved, and skips the import of an advertisement object it already
merged.  The reference below is the rule it replaced — every round
recomputes every export and re-imports every session — installed by
monkeypatch.  Workers are forked, so the patch reaches socket workers too
(the reuse counters prove it: the reference never moves them).

Both must agree round by round: the same per-node ``BgpRib.fingerprint()``
after every pull, the same round counts, the same final RIBs, and — on the
divergent corpus gadgets — the same diagnosed non-convergence.

The per-prefix tier (a route whose input is unchanged reuses its export or
import transform) is checked at the end against a memo-less copy of the
node.
"""

from __future__ import annotations

import copy
import json
import os
import pickle
import re
from dataclasses import replace

import pytest

from repro import FaultPlan, FaultSpec, S2Options
from repro.cli import main
from repro.dist.controller import S2Controller
from repro.fuzz.corpus import DEFAULT_CORPUS_DIR, load_corpus
from repro.fuzz.generators import build_snapshot
from repro.routing.engine import ConvergenceError, SimulationEngine
from repro.routing.node import RouterNode
from repro.routing.route import Origin

from tests.conftest import call_site, normalize_ribs, one_shard_per_batch
from tests.test_bgp_node import P_A, chain_snapshot, cisco

RUNTIMES = ["sequential", "socket"]
DISTRIBUTED = dict(
    num_workers=3, num_shards=3, partition_scheme="random", seed=7
)
CORPUS = load_corpus(DEFAULT_CORPUS_DIR)
# The divergent gadgets whose synchronous rounds oscillate; the fourth,
# gadget-local-pref-leak, settles on RIBs that differ from the monolith's.
OSCILLATING = {
    "gadget-disagree-remove-private",
    "gadget-med-ibgp-oscillation",
    "gadget-two-island-split-horizon",
}


# -- the always-recompute reference ------------------------------------------


def recompute_advertise(self, to_peer_addr, round_token=-1):
    """Per-round snapshot, recomputed at every new round token."""
    session = self._sessions_by_peer.get(to_peer_addr)
    if session is None:
        return ()
    cached = self._export_cache.get(to_peer_addr)
    if round_token >= 0 and cached is not None and cached[0] == round_token:
        return cached[2]
    exports = self._compute_exports(session)
    if round_token >= 0:
        self._export_cache[to_peer_addr] = (round_token, -1, exports)
    return exports


def reimport_pull_round(self, resolver, round_token=-1):
    """Import every session's advertisement, every round."""
    changed = False
    for session in self.sessions:
        neighbor = resolver(session.neighbor)
        if neighbor is None:
            continue
        received = neighbor.advertise(session.local_addr, round_token)
        accepted = self._process_imports(session, received)
        changed |= self.rib.replace_neighbor_routes(session.rib_key, accepted)
    if changed:
        self.rib.refresh()
    return changed


def _install(monkeypatch, log_dir, forced: bool) -> None:
    """Patch RouterNode (before any fork) to log a fingerprint per pull."""
    pull_round = reimport_pull_round if forced else RouterNode.pull_round
    if forced:
        monkeypatch.setattr(RouterNode, "advertise", recompute_advertise)

    def recording_pull_round(self, resolver, round_token=-1):
        changed = pull_round(self, resolver, round_token)
        record = [self.name, round_token, changed, self.rib.fingerprint()]
        path = os.path.join(log_dir, f"{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        return changed

    monkeypatch.setattr(RouterNode, "pull_round", recording_pull_round)


def _fingerprints(log_dir):
    """hostname -> [(round, changed, fingerprint), ...] in pull order."""
    sequences = {}
    for name in sorted(os.listdir(log_dir)):
        with open(os.path.join(log_dir, name), encoding="utf-8") as handle:
            for line in handle:
                host, round_token, changed, fingerprint = json.loads(line)
                sequences.setdefault(host, []).append(
                    (round_token, changed, fingerprint)
                )
    return sequences


def _run(snapshot, runtime, log_dir, **overrides):
    """One control-plane run; the outcome a forced run must reproduce."""
    outcome = {"error": None, "ribs": None}
    if runtime == "mono":
        engine = SimulationEngine(snapshot)
        try:
            outcome["ribs"] = normalize_ribs(engine.run())
        except ConvergenceError as exc:
            outcome["error"] = (exc.rounds, exc.still_changing)
        outcome["rounds"] = engine.stats.bgp_rounds
        reused = sum(n.exports_reused for n in engine.nodes.values())
        skipped = sum(n.imports_skipped for n in engine.nodes.values())
    else:
        options = dict(DISTRIBUTED, runtime=runtime)
        options.update(overrides)
        with S2Controller(snapshot, S2Options(**options)) as controller:
            try:
                controller.run_control_plane()
                outcome["ribs"] = normalize_ribs(controller.collected_ribs())
            except ConvergenceError as exc:
                outcome["error"] = (exc.rounds, exc.still_changing)
            stats = controller.cpo.stats
        outcome["rounds"] = stats.bgp_rounds
        reused, skipped = stats.exports_reused, stats.imports_skipped
    outcome["fingerprints"] = _fingerprints(log_dir)
    return outcome, reused, skipped


def _compare(snapshot, runtime, tmp_path, monkeypatch, **overrides):
    """Run change-driven, then forced, and require identical outcomes."""
    outcomes = {}
    for forced in (False, True):
        log_dir = tmp_path / ("forced" if forced else "default")
        log_dir.mkdir()
        with monkeypatch.context() as patch:
            _install(patch, str(log_dir), forced)
            outcome, reused, skipped = _run(
                snapshot, runtime, str(log_dir), **overrides
            )
        if forced:
            assert reused == skipped == 0, "reference path reused state"
        else:
            assert reused > 0 and skipped > 0, "the mechanism never fired"
        outcomes[forced] = outcome
    default, forced = outcomes[False], outcomes[True]
    assert set(default["fingerprints"]) == set(snapshot.configs)
    assert default["fingerprints"] == forced["fingerprints"]
    assert default["rounds"] == forced["rounds"]
    assert default["error"] == forced["error"]
    assert default["ribs"] == forced["ribs"]
    return default


@pytest.mark.parametrize("runtime", ["mono"] + RUNTIMES)
def test_fattree4_round_by_round(runtime, fattree4, fattree4_sim, tmp_path,
                                 monkeypatch):
    default = _compare(fattree4, runtime, tmp_path, monkeypatch)
    assert default["ribs"] == normalize_ribs(fattree4_sim[1])


@pytest.mark.parametrize("runtime", ["mono"] + RUNTIMES)
def test_dcn1_round_by_round(runtime, dcn1, dcn1_sim, tmp_path, monkeypatch):
    default = _compare(
        dcn1, runtime, tmp_path, monkeypatch, num_workers=2, num_shards=4
    )
    assert default["ribs"] == normalize_ribs(dcn1_sim[1])


@pytest.mark.parametrize("runtime", ["mono"] + RUNTIMES)
@pytest.mark.parametrize(
    "case", CORPUS, ids=[case.name for case in CORPUS]
)
def test_corpus_round_by_round(case, runtime, tmp_path, monkeypatch):
    """Equivalent cases converge identically; the divergent gadgets keep
    their exact divergence — the three oscillating ones raise with the
    same rounds and culprits, local-pref-leak settles on the same RIBs."""
    snapshot = build_snapshot(case.resolve_spec())
    # One shard per batch, the schedule these cases were pinned under: a
    # batch of every prefix leaves no session of a tiny network with an
    # empty export, and only the empty tuple reaches a socket worker as
    # the same object twice, so no import would ever be skipped there.
    ceiling = one_shard_per_batch(snapshot, S2Options(**DISTRIBUTED))
    default = _compare(
        snapshot, runtime, tmp_path, monkeypatch, worker_capacity=ceiling
    )
    oscillates = case.name in OSCILLATING and runtime != "mono"
    assert (default["error"] is not None) == oscillates


# -- fault interplay -----------------------------------------------------------
#
# A dropped batch leaves the receiver's mailbox holding the previous
# round's tuple — the very object its puller merged last, so the puller
# skips it.  That is only safe because the CPO refuses to converge in a
# round that dropped a batch and the resent tuple is a different object;
# a crash is safe because shard replay starts from ``begin_shard``, which
# forgets every cached export and merged advertisement.


def _fault_plan(fault: str) -> FaultPlan:
    if fault in ("drop", "duplicate"):
        # One lost (or doubled) batch in every round of the first shard,
        # the would-be-final round included.
        return FaultPlan(
            [FaultSpec(kind=fault, round=r, shard=0) for r in range(12)]
        )
    _kind, phase = fault.split(":")
    return FaultPlan(
        [FaultSpec(kind="crash", worker=1, **call_site(phase, round=2))]
    )


@pytest.fixture(scope="module")
def fault_free(fattree4):
    options = S2Options(num_workers=3, num_shards=2)
    with S2Controller(fattree4, options) as controller:
        controller.run_control_plane()
        return normalize_ribs(controller.collected_ribs())


@pytest.mark.parametrize("runtime", ["sequential", "socket"])
@pytest.mark.parametrize(
    "fault",
    ["drop", "duplicate", "crash:compute_exports", "crash:pull_round"],
)
def test_faults_heal_despite_identity_skip(fault, runtime, fattree4,
                                           fault_free):
    plan = _fault_plan(fault)
    options = S2Options(
        num_workers=3, num_shards=2, runtime=runtime, fault_plan=plan
    )
    with S2Controller(fattree4, options) as controller:
        stats = controller.run_control_plane()
        ribs = normalize_ribs(controller.collected_ribs())
    assert ribs == fault_free
    assert stats.imports_skipped > 0
    if fault == "drop":
        assert stats.batches_dropped >= 3
        assert stats.forced_rounds >= 1  # the final-round drop was healed
    elif fault == "duplicate":
        assert stats.batches_duplicated >= 3
        assert stats.duplicates_discarded == stats.batches_duplicated
    else:
        assert plan.count("crash") == 1
        assert stats.shard_replays >= 1


# -- the per-prefix tier: route transforms --------------------------------------
#
# Below the per-session tier, ``_compute_exports`` and ``_process_imports``
# keep, per session, the last (input route, output) pair of every prefix
# and reuse the output when the input ``is`` or ``==`` the stored one.  The
# reference is the same node with both memos emptied before each call.


def memo_less(node: RouterNode) -> RouterNode:
    """``node`` (sharing its RIB and config) with no transform memo."""
    fresh = copy.copy(node)
    fresh._export_memo = {}
    fresh._import_memo = {}
    return fresh


def _adj_rib_in(node: RouterNode, key: str):
    return {
        prefix: paths[key]
        for prefix, paths in node.rib._candidates.items()
        if key in paths
    }


def _install_memo_check(monkeypatch, log_dir) -> None:
    """Patch RouterNode (before any fork) so every computed export, every
    round's export snapshot and every session's adj-RIB-in is compared
    against a memo-less node; one ``[checks, mismatches]`` line per call."""
    compute_exports = RouterNode._compute_exports
    pull_round = RouterNode.pull_round

    def log(checks, mismatches):
        path = os.path.join(log_dir, f"{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps([checks, mismatches]) + "\n")

    def checked_exports(self, session):
        exports = compute_exports(self, session)
        reference = compute_exports(memo_less(self), session)
        log(1, [self.name, session.peer_ip] if exports != reference else None)
        return exports

    def checked_pull_round(self, resolver, round_token=-1):
        mismatches = []
        for session in self.sessions:
            cached = self._export_cache.get(session.peer_ip)
            if cached is not None and cached[0] == round_token:
                reference = compute_exports(memo_less(self), session)
                if cached[2] != reference:
                    mismatches.append(["export", session.peer_ip])
        changed = pull_round(self, resolver, round_token)
        for session in self.sessions:
            merged = self._merged.get(session.rib_key)
            if merged is None:
                continue
            reference = memo_less(self)._process_imports(session, merged)
            expected = {route.prefix: route for route in reference}
            if _adj_rib_in(self, session.rib_key) != expected:
                mismatches.append(["import", session.rib_key])
        log(len(self.sessions), [self.name, round_token, mismatches]
            if mismatches else None)
        return changed

    monkeypatch.setattr(RouterNode, "_compute_exports", checked_exports)
    monkeypatch.setattr(RouterNode, "pull_round", checked_pull_round)


@pytest.mark.parametrize("runtime", ["mono"] + RUNTIMES)
@pytest.mark.parametrize(
    "case", CORPUS, ids=[case.name for case in CORPUS]
)
def test_corpus_transform_memo_equals_memo_less(case, runtime, tmp_path,
                                                monkeypatch):
    """Every round of every corpus case: each session's export tuple and
    adj-RIB-in equal what a node without the memo computes."""
    snapshot = build_snapshot(case.resolve_spec())
    with monkeypatch.context() as patch:
        _install_memo_check(patch, str(tmp_path))
        if runtime == "mono":
            engine = SimulationEngine(snapshot)
            try:
                engine.run()
            except ConvergenceError:
                pass
            reused = sum(n.transforms_reused for n in engine.nodes.values())
        else:
            options = S2Options(**dict(DISTRIBUTED, runtime=runtime))
            with S2Controller(snapshot, options) as controller:
                try:
                    controller.run_control_plane()
                except ConvergenceError:
                    pass
                reused = controller.cpo.stats.transforms_reused
    checks, mismatches = 0, []
    for name in os.listdir(tmp_path):
        with open(tmp_path / name, encoding="utf-8") as handle:
            for line in handle:
                count, mismatch = json.loads(line)
                checks += count
                if mismatch is not None:
                    mismatches.append(mismatch)
    assert checks > 0
    assert mismatches == []
    # A gadget's few routes may change every time one is transformed.
    assert reused > 0 or case.name.startswith("gadget-"), "memo never fired"


class _Altered:
    """A neighbor whose advertisement carries one changed route."""

    def __init__(self, node, prefix, change):
        self.node, self.prefix, self.change = node, prefix, change
        self.answers = {}

    def advertise(self, to_peer_addr, round_token=-1):
        if round_token not in self.answers:
            self.answers[round_token] = tuple(
                self.change(route) if route.prefix == self.prefix else route
                for route in self.node.advertise(to_peer_addr, round_token)
            )
        return self.answers[round_token]


def test_one_changed_prefix_recomputes_one_transform_per_session(fattree4):
    engine = SimulationEngine(fattree4)
    engine.run()
    node = engine.nodes["agg-0-0"]
    for session in node.sessions:
        node._compute_exports(session)
    # A remote prefix agg-0-0 learned from a core: its best path changes
    # (one more community, still the best) and nothing else does.
    source = next(s for s in node.sessions if s.neighbor.startswith("core"))
    prefix = next(
        prefix for prefix, best in node.bgp_routes().items()
        if best[0].from_node == source.neighbor
    )
    altered = _Altered(
        engine.nodes[source.neighbor], prefix,
        lambda route: replace(
            route, communities=route.communities | {65000}
        ),
    )

    def resolver(name):
        return altered if name == source.neighbor else engine.nodes[name]

    computed, reused = node.transforms_computed, node.transforms_reused
    assert node.pull_round(resolver, round_token=1000)
    # One import transform ran (the changed route); the source's other
    # routes were reused and every other session's import was skipped.
    assert node.transforms_computed - computed == 1
    assert node.transforms_reused - reused == len(altered.answers[1000]) - 1
    assert node.bgp_routes()[prefix][0].communities == {65000}

    exporting = 0
    for session in node.sessions:
        computed, reused = node.transforms_computed, node.transforms_reused
        exports = node._compute_exports(session)
        sends = any(route.prefix == prefix for route in exports)
        exporting += sends
        assert node.transforms_computed - computed == int(sends)
        assert node.transforms_reused - reused == len(exports) - int(sends)
        assert exports == memo_less(node)._compute_exports(session)
    assert exporting == len(node.sessions) - 1  # split horizon to the source


def test_import_memo_hits_by_equality_after_unpickling(fattree4):
    """The socket case: an advertisement crosses the wire as a copy, so
    only equality can find the stored input."""
    engine = SimulationEngine(fattree4)
    engine.run()
    node = engine.nodes["agg-1-1"]
    for session in node.sessions:
        received = engine.nodes[session.neighbor].advertise(
            session.local_addr
        )
        assert received
        accepted = node._process_imports(session, received)
        copied = pickle.loads(pickle.dumps(received))
        assert copied == received and copied[0] is not received[0]
        computed, reused = node.transforms_computed, node.transforms_reused
        assert node._process_imports(session, copied) == accepted
        assert node.transforms_computed == computed
        assert node.transforms_reused - reused == len(received)


def test_as_path_replace_with_remove_private_as_across_a_route_change():
    """b strips private ASNs and then overwrites the AS path towards c, so
    routes differing only in their AS path export identically: the memo
    must still recompute on the changed input, and a change that survives
    the policy must show."""
    a = cisco("a", 64512, [("eth0", "10.0.0.0", 31)],
              [("10.0.0.1", 3000, [])])
    a = a.replace("router bgp 64512",
                  "router bgp 64512\n network 10.1.0.0 mask 255.255.255.0", 1)
    b = cisco("b", 3000,
              [("eth0", "10.0.0.1", 31), ("eth1", "10.0.0.2", 31)],
              [("10.0.0.0", 64512, []),
               ("10.0.0.3", 4000, ["remove-private-as", "route-map OUT out"])],
              body="route-map OUT permit 10\n set as-path replace any\n")
    c = cisco("c", 4000, [("eth0", "10.0.0.3", 31)],
              [("10.0.0.2", 3000, [])])
    engine = SimulationEngine(chain_snapshot(a, b, c))
    routes = engine.run()
    assert routes["c"][P_A][0].as_path == (3000,)
    node = engine.nodes["b"]
    from_a, to_c = node.sessions
    before = node._compute_exports(to_c)
    [learned] = node.rib.candidates_for(P_A)
    changes = [
        replace(learned, as_path=(64512, 64513, 7)),   # stripped, replaced
        replace(learned, as_path=(7, 64512)),          # kept, replaced
        replace(learned, as_path=(7,), origin=Origin.INCOMPLETE),
    ]
    for change in changes:
        node.rib.put(change, from_a.rib_key)
        node.rib.refresh()
        computed = node.transforms_computed
        exports = node._compute_exports(to_c)
        assert node.transforms_computed - computed == 1
        assert exports == memo_less(node)._compute_exports(to_c)
        assert exports[0].as_path == (3000,)
    assert exports[0].origin is Origin.INCOMPLETE
    assert exports != before


def test_transform_counts_reach_the_stats_and_the_report(fattree4, tmp_path,
                                                         capsys):
    options = S2Options(num_workers=2, num_shards=2)
    with S2Controller(fattree4, options) as controller:
        stats = controller.run_control_plane()
        nodes = [
            node
            for worker in controller.fleet.workers
            for node in worker.nodes.values()
        ]
    assert stats.transforms_computed == sum(
        node.transforms_computed for node in nodes
    ) > 0
    assert stats.transforms_reused == sum(
        node.transforms_reused for node in nodes
    ) > 0

    trace_out = str(tmp_path / "trace.json")
    assert main(["verify", "fattree", "--k", "4", "--workers", "2",
                 "--trace-out", trace_out]) == 0
    capsys.readouterr()
    assert main(["report", trace_out]) == 0
    match = re.search(
        r"(\d+) of (\d+) route transforms reused", capsys.readouterr().out
    )
    assert match is not None
    assert 0 < int(match.group(1)) < int(match.group(2))
