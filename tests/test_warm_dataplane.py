"""Warm worker engines against the collect-at-every-boundary reference.

A worker collects its data-plane engine at a query boundary only once the
node table has grown past ``_GC_GROWTH`` times the live count the previous
collection left, and resolves received payloads through a memo that lives
exactly as long as its serialization memo.  The reference below is the
rule it replaced — collect at every boundary — installed by monkeypatching
``_GC_GROWTH`` to 0.  Workers are forked, so the patch reaches socket
workers too (the boundary counters prove it).

Verdicts are compared engine-independently: reachable pairs, and the
content digests of each query's finals united per (state, source, node)
plus of each property's own verdict BDDs.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro import FaultPlan, FaultSpec, S2Options
from repro.bdd.engine import TRUE
from repro.bdd.headerspace import HeaderEncoding
from repro.bdd.serialize import content_digest, deserialize, serialize
from repro.dataplane.queries import PropertyChecker, Query
from repro.dist import worker as worker_module
from repro.dist.controller import S2Controller
from repro.dist.message import PacketBatch, PacketEnvelope
from repro.net.ip import Prefix
from repro.obs.report import load_spans, render_report, warm_dataplane

RUNTIMES = ["sequential", "socket"]
KINDS = ("single_pair", "loop_free", "blackhole_free", "waypoint", "multipath")
ENCODING = HeaderEncoding(metadata_bits=1)  # one waypoint bit
WORKERS = 3


def _pool(snapshot):
    """Three queries of each kind, shuffled, then the pool once more."""
    rng = random.Random(11)
    edges = sorted(h for h in snapshot.configs if h.startswith("edge-"))
    transits = sorted(
        h for h in snapshot.configs if h.startswith(("core-", "agg-"))
    )
    pool = []
    for index in range(3):
        for kind in KINDS:
            source, destination = rng.sample(edges, 2)
            spec = {"kind": kind, "source": source}
            if kind in ("single_pair", "waypoint"):
                spec["destination"] = destination
            if kind == "waypoint":
                spec["transit"] = rng.choice(transits)
            if index == 1:  # a third of the pool checks one /16 only
                spec["header"] = f"10.{rng.randrange(8)}.0.0/16"
            pool.append(spec)
    rng.shuffle(pool)
    return pool + pool


def _execute(checker, spec):
    header = Prefix.parse(spec["header"]) if "header" in spec else None
    source = (spec["source"],)
    kind = spec["kind"]
    if kind == "single_pair":
        return checker.check_reachability(
            Query(source, (spec["destination"],), header_space=header)
        )
    if kind == "loop_free":
        return checker.check_loop_free(Query(source, header_space=header))
    if kind == "blackhole_free":
        return checker.check_blackhole_free(Query(source, header_space=header))
    if kind == "waypoint":
        return checker.check_waypoint(
            Query(
                source,
                (spec["destination"],),
                (spec["transit"],),
                header_space=header,
            )
        )
    return checker.check_multipath_consistency(
        Query(source, header_space=header)
    )


def _united_digests(engine, keyed_bdds):
    united = {}
    for key, bdd in keyed_bdds:
        united[key] = engine.or_(united[key], bdd) if key in united else bdd
    return sorted(
        (key, content_digest(serialize(engine, bdd)).hex())
        for key, bdd in united.items()
    )


def _verdict(engine, spec, result):
    kind = spec["kind"]
    if kind == "single_pair":
        pairs = result.pairs()
        return pairs, _united_digests(
            engine, ((pair, result.reachable[pair]) for pair in pairs)
        )
    if kind in ("loop_free", "blackhole_free"):
        return _united_digests(
            engine,
            (((v.state.name, v.node, v.source), v.bdd) for v in result),
        )
    if kind == "waypoint":
        return _united_digests(
            engine,
            (
                ((transit, final.source, final.node), final.bdd)
                for transit, finals in result.items()
                for final in finals
            ),
        )
    return _united_digests(
        engine,
        (
            ((v.source, tuple(s.name for s in v.states)), v.overlap)
            for v in result
        ),
    )


def _run_pool(snapshot, runtime, plan=None, crash_at=None):
    """Every pool query's verdict and finals digest, plus the counters."""
    options = S2Options(
        num_workers=WORKERS,
        num_shards=2,
        runtime=runtime,
        encoding=ENCODING,
        fault_plan=plan,
    )
    with S2Controller(snapshot, options) as controller:
        controller.build_data_plane()
        dpo = controller.dpo
        finals_log = []

        def recording_forward(sources, header, trace=False):
            finals = dpo.forward(sources, header, trace)
            finals_log.append(
                _united_digests(
                    dpo.engine,
                    (
                        ((f.state.name, f.source, f.node), f.bdd)
                        for f in finals
                    ),
                )
            )
            return finals

        checker = PropertyChecker(
            dpo.engine,
            ENCODING,
            recording_forward,
            install_waypoints=dpo.install_waypoints,
        )
        verdicts = []
        for index, spec in enumerate(_pool(snapshot)):
            if index == crash_at:
                plan.add(FaultSpec(kind="crash", worker=1, command="drain"))
            verdicts.append(_verdict(dpo.engine, spec, _execute(checker, spec)))
        stats = dpo.stats
        return {
            "verdicts": verdicts,
            "finals": finals_log,
            "queries": len(finals_log),
            "collections": stats.boundary_collections,
            "reused": stats.payloads_reused,
            "replays": stats.query_replays,
        }


@pytest.fixture(scope="module")
def reference(fattree4):
    """The policy the growth rule replaced: collect at every boundary."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(worker_module, "_GC_GROWTH", 0)
        outcome = _run_pool(fattree4, "sequential")
    assert outcome["collections"] == WORKERS * outcome["queries"]
    # Every query forwarded packets, and the reachability, blackhole and
    # waypoint verdicts carry BDDs to disagree on (FatTree has no loops
    # or multipath splits, so those verdicts are empty).
    assert all(outcome["finals"])
    assert sum(v not in ([], ([], [])) for v in outcome["verdicts"]) >= 10
    return outcome


def _assert_same(outcome, reference):
    assert outcome["finals"] == reference["finals"]
    assert outcome["verdicts"] == reference["verdicts"]


@pytest.mark.parametrize("runtime", ["socket"])
def test_reference_patch_reaches_workers(runtime, fattree4, reference,
                                          monkeypatch):
    monkeypatch.setattr(worker_module, "_GC_GROWTH", 0)
    outcome = _run_pool(fattree4, runtime)
    assert outcome["collections"] == WORKERS * outcome["queries"]
    _assert_same(outcome, reference)


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_warm_matches_reference(runtime, fattree4, reference):
    outcome = _run_pool(fattree4, runtime)
    # The first boundary after the build collects; the pool never grows
    # the tables past the trigger, so no other boundary does.
    assert outcome["collections"] == WORKERS
    assert outcome["reused"] > 0
    _assert_same(outcome, reference)


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_collections_mid_pool_match_reference(runtime, fattree4, reference,
                                              monkeypatch):
    monkeypatch.setattr(worker_module, "_GC_GROWTH", 1.1)
    outcome = _run_pool(fattree4, runtime)
    assert WORKERS < outcome["collections"] < WORKERS * outcome["queries"]
    _assert_same(outcome, reference)


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_crash_mid_pool_replays_to_reference(runtime, fattree4, reference):
    plan = FaultPlan()
    outcome = _run_pool(fattree4, runtime, plan=plan, crash_at=17)
    assert plan.count("crash") == 1
    assert outcome["replays"] == 1
    _assert_same(outcome, reference)


# -- memo lifetimes -----------------------------------------------------------


@pytest.fixture
def warm_controller(fattree4):
    with S2Controller(fattree4, S2Options(num_workers=WORKERS)) as controller:
        controller.build_data_plane()
        # A permit-all hop builds no node on a TRUE header, so forward a
        # narrower one: injected and forwarded, it leaves garbage behind.
        engine = controller.dpo.engine
        header = controller.options.encoding.prefix_bdd(
            engine, Prefix.parse("172.16.0.0/12")
        )
        controller.dpo.forward(["edge-0-0"], header)
        yield controller


def _deliver(worker, payload):
    """Deliver ``payload`` at an owned node; the id the memo holds."""
    node = sorted(worker.nodes)[0]
    worker.deliver_packets(
        PacketBatch(
            source_worker=-1,
            target_worker=worker.worker_id,
            envelopes=(PacketEnvelope(payload, node, None, 0, node),),
        )
    )
    return worker._receive_memo[payload]


def _payload(controller, prefix="172.16.32.0/20"):
    engine = controller.dpo.engine
    encoding = controller.options.encoding
    return serialize(engine, encoding.prefix_bdd(engine, Prefix.parse(prefix)))


def test_receive_memo_resolves_repeats_and_pickled_copies(warm_controller):
    worker = warm_controller.fleet.workers[0]
    payload = _payload(warm_controller)
    first = _deliver(worker, payload)
    reused = worker.payloads_reused
    assert _deliver(worker, payload) == first
    assert _deliver(worker, pickle.loads(pickle.dumps(payload))) == first
    assert worker.payloads_reused == reused + 2


def test_collection_drops_memos_no_stale_id(warm_controller):
    worker = warm_controller.fleet.workers[0]
    payload = _payload(warm_controller)
    stale = _deliver(worker, payload)
    worker.reset_dataplane_run()  # empties the queue; grew too little
    assert worker._receive_memo  # ...so the memo is still warm
    worker.collect_engine_garbage()
    assert worker._receive_memo == {} and worker._serialize_memo == {}
    again = _deliver(worker, payload)
    assert again != stale  # the collection renamed ids
    assert again == deserialize(worker.engine, payload)
    assert serialize(worker.engine, again) == payload


def test_rebuild_data_plane_drops_both_memos(warm_controller):
    """The serve path's epoch commit rebuilds the data plane."""
    _deliver(warm_controller.fleet.workers[0], _payload(warm_controller))
    assert any(w._serialize_memo for w in warm_controller.fleet.workers)
    warm_controller.rebuild_data_plane()
    for worker in warm_controller.fleet.workers:
        assert worker._serialize_memo == {} and worker._receive_memo == {}
        assert worker.status()["engine.gc_floor"] == 0


# -- the growth trigger and its counters ----------------------------------------


def test_boundary_collects_only_past_growth_factor(warm_controller,
                                                   monkeypatch):
    worker = warm_controller.fleet.workers[0]
    floor = worker.status()["engine.gc_floor"]
    assert floor > 0  # the first boundary after the build collected
    runs = worker.engine.gc_runs
    worker.reset_dataplane_run()
    assert worker.engine.gc_runs == runs
    monkeypatch.setattr(
        worker_module, "_GC_GROWTH", (worker.engine.node_count - 1) / floor
    )
    worker.reset_dataplane_run()
    assert worker.engine.gc_runs == runs + 1
    assert worker.engine.node_count == floor


def test_counters_reach_stats_and_report(fattree4, tmp_path):
    trace_dir = str(tmp_path / "trace")
    options = S2Options(num_workers=WORKERS, trace_dir=trace_dir)
    with S2Controller(fattree4, options) as controller:
        controller.build_data_plane()
        for _ in range(3):
            controller.dpo.forward(["edge-0-0", "edge-3-1"], TRUE)
        stats = controller.dpo.stats
        assert stats.boundary_collections == WORKERS
        assert stats.payloads_reused > 0
        expected = (
            f"warm data plane: {WORKERS} boundary collections over 3 "
            f"queries, {stats.payloads_reused} received payloads reused"
        )
    assert expected in render_report(trace_dir)
    # The counters fold runs after each query, outside its timed span.
    spans = load_spans(trace_dir)
    forwards = [s for s in spans if s["name"] == "dpo.forward"]
    folds = [s for s in spans if s["name"] == "dpo.engine_metrics"]
    assert len(forwards) == len(folds) == 3
    for forward, fold in zip(forwards, folds):
        assert fold["ts"] >= forward["ts"] + forward["dur"]


def test_warm_dataplane_line_needs_a_completed_query():
    assert warm_dataplane([{"name": "dpo.forward", "attrs": {}}]) is None


def test_forward_accepts_a_one_shot_iterable(warm_controller):
    dpo = warm_controller.dpo
    listed = dpo.forward(["edge-0-0", "edge-1-1"], TRUE)
    generated = dpo.forward((s for s in ["edge-0-0", "edge-1-1"]), TRUE)
    assert generated  # a generator consumed before injection yields none
    assert sorted((f.state.name, f.source, f.node) for f in generated) == (
        sorted((f.state.name, f.source, f.node) for f in listed)
    )
