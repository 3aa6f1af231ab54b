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
"""

from __future__ import annotations

import json
import os

import pytest

from repro import FaultPlan, FaultSpec, S2Options
from repro.dist.controller import S2Controller
from repro.fuzz.corpus import DEFAULT_CORPUS_DIR, load_corpus
from repro.fuzz.generators import build_snapshot
from repro.routing.engine import ConvergenceError, SimulationEngine
from repro.routing.node import RouterNode

from tests.conftest import normalize_ribs, one_shard_per_batch

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
    _kind, command = fault.split(":")
    return FaultPlan(
        [FaultSpec(kind="crash", worker=1, command=command, round=2)]
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
