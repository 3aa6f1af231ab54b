"""Shard batching: every shard the worker ceiling admits converges as one
fixed point, then flushes to its own file.

The oracles: batched RIBs equal the monolithic engine's for every shard
count and runtime; a ceiling that admits one shard per batch reproduces
the per-shard schedule exactly (round counts pinned from the per-shard
CPO); the planner's route-slot bound never undercounts what a worker
holds; a crash anywhere in a batch replays the whole batch; and on a
resident session an announce still recomputes one shard while a link
delta converges every shard in one batch.
"""

from __future__ import annotations

import json

import pytest

from repro import FaultPlan, FaultSpec, S2Options
from repro.config.loader import snapshot_from_texts
from repro.dist.controller import S2Controller
from repro.dist.sharding import PrefixShard, plan_batches, route_slots
from repro.dist.worker import Worker
from repro.fuzz.corpus import DEFAULT_CORPUS_DIR, load_corpus
from repro.fuzz.generators import (
    GeneratorProfile,
    build_snapshot,
    generate_spec,
)
from repro.net.fattree import FatTreeSpec, render_configs
from repro.net.ip import Prefix
from repro.routing.engine import ConvergenceError, collect_network_prefixes
from repro.serve import ConfigTextDelta, LinkDelta, VerifierSession

from tests.conftest import normalize_ribs, one_shard_per_batch

RUNTIMES = ["sequential", "socket"]
SHARD_COUNTS = [2, 4, 8, 16]
WORKERS = 3

# Per-shard schedule of the CPO that converged each shard alone
# (3 workers, metis, seed 7): (bgp_rounds, shards_run).
PER_SHARD_ROUNDS = {
    ("fattree4", 2): (12, 2),
    ("fattree4", 4): (24, 4),
    ("fattree4", 8): (48, 8),
    ("fattree4", 16): (48, 8),
    ("dcn1", 2): (18, 2),
    ("dcn1", 4): (36, 4),
    ("dcn1", 8): (72, 8),
    ("dcn1", 16): (142, 16),
}

# The unsharded run's rounds, which one batch of every shard repeats.
ONE_FIXED_POINT_ROUNDS = {"fattree4": 6, "dcn1": 9}


@pytest.fixture(scope="module")
def networks(fattree4, fattree4_sim, dcn1, dcn1_sim):
    return {
        "fattree4": (fattree4, normalize_ribs(fattree4_sim[1])),
        "dcn1": (dcn1, normalize_ribs(dcn1_sim[1])),
    }


def _run(snapshot, **options):
    with S2Controller(snapshot, S2Options(**options)) as controller:
        stats = controller.run_control_plane()
        return stats, normalize_ribs(controller.collected_ribs())


# -- the planner ---------------------------------------------------------


def _shard(index, size):
    return PrefixShard(
        index=index,
        prefixes=frozenset(
            Prefix.parse(f"10.{index}.{i}.0/24") for i in range(size)
        ),
    )


def test_plan_batches_admits_in_order_against_every_worker():
    shards = [_shard(i, size) for i, size in enumerate((3, 2, 2, 4, 1))]
    # worker 0: 10 prefixes fit; worker 1: 6 do.
    limits = [(100, 10), (120, 20)]
    batches = plan_batches(shards, limits)
    assert [[s.index for s in batch] for batch in batches] == [
        [0, 1], [2, 3], [4]
    ]
    # A shard larger than any ceiling still runs, alone.
    assert plan_batches([_shard(0, 9)], limits) == [[_shard(0, 9)]]
    # No ceiling to speak of: one batch.
    assert len(plan_batches(shards, [(1 << 62, 2048)])) == 1


# -- batched runs equal the monolith --------------------------------------


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
@pytest.mark.parametrize("network", ["fattree4", "dcn1"])
def test_batched_ribs_equal_the_monolith(
    networks, network, num_shards, runtime
):
    snapshot, oracle = networks[network]
    stats, ribs = _run(
        snapshot,
        num_workers=WORKERS,
        num_shards=num_shards,
        runtime=runtime,
    )
    assert ribs == oracle
    # The default ceiling holds every shard at once: the rounds of one
    # fixed point, one flush per shard.
    assert stats.batches_run == 1
    assert stats.bgp_rounds == ONE_FIXED_POINT_ROUNDS[network]
    assert stats.shards_run == PER_SHARD_ROUNDS[(network, num_shards)][1]


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
@pytest.mark.parametrize("network", ["fattree4", "dcn1"])
def test_a_single_shard_ceiling_is_the_per_shard_run(
    networks, network, num_shards
):
    snapshot, oracle = networks[network]
    options = dict(num_workers=WORKERS, num_shards=num_shards)
    ceiling = one_shard_per_batch(snapshot, S2Options(**options))
    stats, ribs = _run(snapshot, worker_capacity=ceiling, **options)
    assert ribs == oracle
    assert (stats.bgp_rounds, stats.shards_run) == PER_SHARD_ROUNDS[
        (network, num_shards)
    ]
    assert stats.batches_run == stats.shards_run


def test_a_single_shard_ceiling_is_the_per_shard_run_on_socket(networks):
    snapshot, oracle = networks["dcn1"]
    options = dict(num_workers=WORKERS, num_shards=4, runtime="socket")
    ceiling = one_shard_per_batch(snapshot, S2Options(**options))
    stats, ribs = _run(snapshot, worker_capacity=ceiling, **options)
    assert ribs == oracle
    assert (stats.bgp_rounds, stats.shards_run) == PER_SHARD_ROUNDS[
        ("dcn1", 4)
    ]
    assert stats.batches_run == 4


# -- the route-slot bound --------------------------------------------------


def _fuzz_networks():
    cases = [
        (case.name, case.resolve_spec())
        for case in load_corpus(DEFAULT_CORPUS_DIR)
    ]
    profile = GeneratorProfile.smoke()
    cases += [
        (f"smoke-{seed}", generate_spec(seed, profile)) for seed in range(12)
    ]
    return cases


FUZZ_NETWORKS = _fuzz_networks()


@pytest.mark.parametrize(
    "name,spec", FUZZ_NETWORKS, ids=[name for name, _ in FUZZ_NETWORKS]
)
def test_route_slots_bound_every_round_of_every_batch(
    name, spec, monkeypatch
):
    """After every pull of every batch, each worker holds at most its
    route slots times the batch's prefix count (RIB and mailbox, what
    ``Worker.update_memory`` charges) — both when all shards batch
    together and when each shard is its own batch."""
    snapshot = build_snapshot(spec)
    every_prefix = len(collect_network_prefixes(snapshot))
    seen = []
    begin_shard, pull_round = Worker.begin_shard, Worker.pull_round

    def recording_begin(self, shard, epoch=None):
        self._batch_size = (
            len(shard.prefixes) if shard is not None else every_prefix
        )
        return begin_shard(self, shard, epoch)

    def recording_pull(self, round_token):
        outcome = pull_round(self, round_token)
        seen.append(
            (self.worker_id, self._batch_size,
             self.resources.candidate_routes)
        )
        return outcome

    monkeypatch.setattr(Worker, "begin_shard", recording_begin)
    monkeypatch.setattr(Worker, "pull_round", recording_pull)
    shape = dict(num_workers=WORKERS, num_shards=3, partition_scheme="random")
    ceiling = one_shard_per_batch(snapshot, S2Options(**shape))
    for options in (
        S2Options(**shape), S2Options(**shape, worker_capacity=ceiling)
    ):
        seen.clear()
        with S2Controller(snapshot, options) as controller:
            slots = route_slots(snapshot, controller.partition.assignment)
            try:
                controller.run_control_plane()
            except ConvergenceError:
                pass  # the oscillating gadgets: their rounds still count
        assert seen
        for worker_id, batch_size, candidates in seen:
            assert candidates <= slots[worker_id] * batch_size, (
                name, worker_id, batch_size, candidates, slots
            )


# -- recovery: the batch is the replay unit ---------------------------------


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_crash_mid_batch_replays_the_whole_batch(
    runtime, fattree4, fattree4_sim
):
    oracle = normalize_ribs(fattree4_sim[1])
    clean, _ = _run(fattree4, num_workers=WORKERS, num_shards=4)
    plan = FaultPlan(
        [FaultSpec(kind="crash", worker=1, shard=2, command="step",
                   round=3)]
    )
    stats, ribs = _run(
        fattree4, num_workers=WORKERS, num_shards=4, runtime=runtime,
        fault_plan=plan,
    )
    assert plan.count("crash") == 1
    assert ribs == oracle
    assert stats.shard_replays == 1 and stats.batches_run == 1
    # Rounds 0 and 1 completed before the crash in round 2's pull (step
    # 3); the replay reran the whole batch from begin_shard.
    assert stats.bgp_rounds == clean.bgp_rounds + 2
    assert stats.shards_run == 4


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_crash_in_the_flush_replays_the_whole_batch(
    runtime, fattree4, fattree4_sim, tmp_path
):
    """A crash in the batch's one flush fan-out (shard 2 is in it): no
    shard landed, so the replay converges the batch again and flushes
    all four shards, each once."""
    oracle = normalize_ribs(fattree4_sim[1])
    plan = FaultPlan(
        [FaultSpec(kind="crash", worker=1, shard=2, command="flush_shard")]
    )
    options = S2Options(
        num_workers=WORKERS, num_shards=4, runtime=runtime,
        fault_plan=plan, store_dir=str(tmp_path / "store"),
    )
    with S2Controller(fattree4, options) as controller:
        stats = controller.run_control_plane()
        ribs = normalize_ribs(controller.collected_ribs())
        marked = controller.store.read_manifest().completed_shards()
    assert plan.count("crash") == 1
    assert ribs == oracle
    assert stats.shard_replays == 1
    assert stats.shards_run == 4  # all four, after the replay
    assert marked == [0, 1, 2, 3]


def test_fault_context_is_the_batch_during_rounds(fattree4):
    """A spec aimed at shard 3 fires in round 0 of the batch holding it:
    during the rounds every flush index of the batch is in flight."""
    plan = FaultPlan(
        [FaultSpec(kind="crash", worker=0, shard=3, command="step", round=0)]
    )
    stats, _ = _run(fattree4, num_workers=WORKERS, num_shards=4,
                    fault_plan=plan)
    assert plan.count("crash") == 1
    assert stats.shard_replays == 1
    assert stats.bgp_rounds == 6  # the crash cost no completed round


# -- the cpo.shard span -------------------------------------------------------


def _shard_spans(trace_out):
    with open(trace_out, encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    return [
        e["args"] for e in events
        if e["ph"] == "X" and e["name"] == "cpo.shard"
    ]


@pytest.mark.parametrize("per_shard", [False, True])
def test_shard_span_carries_its_own_rounds_and_shards(
    per_shard, fattree4, tmp_path
):
    trace_out = str(tmp_path / "trace.json")
    options = dict(num_workers=WORKERS, num_shards=4)
    if per_shard:
        options["worker_capacity"] = one_shard_per_batch(
            fattree4, S2Options(**options)
        )
    stats, _ = _run(fattree4, trace_out=trace_out, **options)
    spans = _shard_spans(trace_out)
    if per_shard:
        assert stats.batches_run == 4
        assert [span["shards"] for span in spans] == [[0], [1], [2], [3]]
        assert [span["rounds"] for span in spans] == [6, 6, 6, 6]
    else:
        assert stats.batches_run == 1
        assert [span["shards"] for span in spans] == [[0, 1, 2, 3]]
        assert [span["rounds"] for span in spans] == [6]
    assert sum(span["rounds"] for span in spans) == stats.bgp_rounds


# -- serving ----------------------------------------------------------------


@pytest.fixture(scope="module")
def ft4_texts():
    return render_configs(FatTreeSpec(k=4))


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_serving_announce_is_one_batch_and_link_delta_batches_all(
    ft4_texts, runtime
):
    snapshot = snapshot_from_texts(ft4_texts, name="ft4-batching")
    options = S2Options(num_workers=2, num_shards=8, runtime=runtime)
    host = sorted(
        host for host, (_d, text) in ft4_texts.items() if " network " in text
    )[0]
    dialect, text = ft4_texts[host]
    lines = text.splitlines()
    last = max(
        i for i, line in enumerate(lines)
        if line.strip().startswith("network ")
    )
    lines.insert(last + 1, " network 203.0.113.0 mask 255.255.255.0")
    with VerifierSession(snapshot, options) as session:
        shards = len(session._controller.shards)
        announce = session.apply_delta(
            ConfigTextDelta(
                hostname=host, text="\n".join(lines), dialect=dialect
            ),
            timeout=300,
        )
        stats = session._controller.cpo.stats
        assert announce.kind == "announce"
        assert announce.shards_recomputed == 1
        assert (stats.batches_run, stats.shards_run) == (1, 1)
        link = next(iter(snapshot.topology.links()))
        down = session.apply_delta(
            LinkDelta(a=link.a.node, b=link.b.node), timeout=300
        )
        stats = session._controller.cpo.stats
        assert down.kind == "full"
        assert (stats.batches_run, stats.shards_run) == (1, shards)
