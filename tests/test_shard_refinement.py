"""Tests for §7's runtime shard refinement (unforeseen dependencies).

The scenario: shards built from an *incomplete* DPDG (conditional-
advertisement edges omitted) separate the DCN's default route from the
external prefix it watches.  Without refinement, the conditional is
evaluated against a shard that can never contain the watch — the default
route's fate is computed from stale information.  With refinement, the
worker reports the dependency it observed at runtime, the CPO merges the
affected shards, recomputes, and the final RIBs match the oracle.
"""

import pytest

from tests.conftest import normalize_ribs, one_shard_per_batch
from repro.dist import sharding
from repro.dist.controller import S2Controller, S2Options
from repro.dist.cpo import ControlPlaneOrchestrator
from repro.dist.faults import FaultPlan, FaultSpec
from repro.dist.sharding import PrefixShard, build_dpdg, make_shards
from repro.net.dcn import DEFAULT_PREFIX, EXTERNAL_PREFIX
from repro.net.ip import Prefix


def split_shards(snapshot):
    """Shards from the incomplete DPDG, forcing 0/0 and 8.8.8/24 apart."""
    shards = make_shards(
        snapshot, 4, include_conditionals=False
    )
    holder = {p: s.index for s in shards for p in s.prefixes}
    if holder[DEFAULT_PREFIX] == holder[EXTERNAL_PREFIX]:
        # the greedy packer happened to co-locate them: separate manually
        rebuilt = []
        for shard in shards:
            prefixes = set(shard.prefixes)
            if DEFAULT_PREFIX in prefixes and EXTERNAL_PREFIX in prefixes:
                prefixes.discard(EXTERNAL_PREFIX)
                rebuilt.append(PrefixShard(shard.index, frozenset(prefixes)))
            else:
                rebuilt.append(shard)
        rebuilt.append(
            PrefixShard(len(rebuilt), frozenset([EXTERNAL_PREFIX]))
        )
        shards = rebuilt
    return shards


def split_options(snapshot, shards, num_workers, **extra):
    """Options whose ceiling admits one of ``shards`` (in run order) per
    batch: the per-shard schedule, where the missed dependency is seen
    only once a batch converges without its watch."""
    ceiling = one_shard_per_batch(
        snapshot, S2Options(num_workers=num_workers), shards
    )
    return S2Options(
        num_workers=num_workers, worker_capacity=ceiling, **extra
    )


class TestIncompleteDpdg:
    def test_incomplete_dpdg_lacks_conditional_edges(self, dcn1):
        full = build_dpdg(dcn1)
        partial = build_dpdg(dcn1, include_conditionals=False)
        assert (DEFAULT_PREFIX, EXTERNAL_PREFIX) in full.edges
        assert (DEFAULT_PREFIX, EXTERNAL_PREFIX) not in partial.edges
        # aggregate edges survive
        assert any(
            a == Prefix.parse("10.3.0.0/16") for a, _b in partial.edges
        )

    def test_split_fixture_really_splits(self, dcn1):
        shards = split_shards(dcn1)
        holder = {p: s.index for s in shards for p in s.prefixes}
        assert holder[DEFAULT_PREFIX] != holder[EXTERNAL_PREFIX]


class TestRefinement:
    def test_refinement_restores_oracle_ribs(self, dcn1, dcn1_sim):
        _, expected = dcn1_sim
        shards = split_shards(dcn1)
        with S2Controller(dcn1, split_options(dcn1, shards, 4)) as controller:
            controller.cpo.run(shards)
            got = controller.collected_ribs()
            assert normalize_ribs(got) == normalize_ribs(expected)
            assert controller.cpo.stats.shards_merged > 0

    def test_dependencies_observed_at_runtime(self, dcn1):
        shards = split_shards(dcn1)
        # run just the shard holding the default route, unrefined
        target = next(s for s in shards if DEFAULT_PREFIX in s)
        with S2Controller(dcn1, S2Options(num_workers=2)) as controller:
            _rounds, observed = controller.cpo._converge_shard(target)
            assert (DEFAULT_PREFIX, EXTERNAL_PREFIX) in observed

    def test_no_refinement_needed_with_complete_dpdg(self, dcn1, dcn1_sim):
        _, expected = dcn1_sim
        shards = make_shards(dcn1, 4)  # complete DPDG
        with S2Controller(dcn1, S2Options(num_workers=2)) as controller:
            controller.cpo.run(shards)
            assert controller.cpo.stats.shards_merged == 0
            got = controller.collected_ribs()
            assert normalize_ribs(got) == normalize_ribs(expected)

    def test_refinement_supersedes_flushed_results(self, dcn1, dcn1_sim):
        """Even when the watched prefix's shard was already flushed, the
        recomputed merged shard's results win (rewritten at its index)."""
        _, expected = dcn1_sim
        shards = split_shards(dcn1)
        # order so the external prefix's shard completes FIRST
        ordered = sorted(
            shards, key=lambda s: 0 if EXTERNAL_PREFIX in s else 1
        )
        with S2Controller(dcn1, split_options(dcn1, ordered, 2)) as controller:
            controller.cpo.run(ordered)
            got = controller.collected_ribs()
            assert normalize_ribs(got) == normalize_ribs(expected)

    def test_options_flag_wires_through(self, dcn1, dcn1_sim):
        """The public pipeline: with the complete DPDG no batch grows,
        and the result must still be exact."""
        from repro.core.s2 import verify_snapshot

        _, expected = dcn1_sim
        result = verify_snapshot(
            dcn1,
            S2Options(num_workers=2, num_shards=5),
        )
        assert result.ok
        assert result.cp_stats.shards_merged == 0

    def test_fattree_unaffected_by_refinement_flag(
        self, fattree4, fattree4_sim
    ):
        _, expected = fattree4_sim
        shards = make_shards(fattree4, 3)
        with S2Controller(fattree4, S2Options(num_workers=2)) as controller:
            controller.cpo.run(shards)
            assert controller.cpo.stats.shards_merged == 0
            assert normalize_ribs(controller.collected_ribs()) == (
                normalize_ribs(expected)
            )


class TestBatchGrowth:
    """§7 refinement is a batch that grows: the one BGP path handles a
    dependency the DPDG missed, batched, replayable and resumable."""

    def test_default_ceiling_converges_split_shards_as_one_batch(
        self, dcn1, dcn1_sim
    ):
        _, expected = dcn1_sim
        shards = split_shards(dcn1)
        with S2Controller(dcn1, S2Options(num_workers=4)) as controller:
            stats = controller.cpo.run(shards)
            got = controller.collected_ribs()
        assert (stats.batches_run, stats.bgp_rounds) == (1, 9)
        assert stats.shards_merged == 0
        assert stats.shards_run == len(shards)
        assert normalize_ribs(got) == normalize_ribs(expected)

    def test_watch_no_shard_holds_joins_the_union(self, dcn1, dcn1_sim):
        """With no packing to grow by, the watch itself joins the union,
        and only the batch's own shard is flushed."""
        _, expected = dcn1_sim
        target = next(s for s in split_shards(dcn1) if DEFAULT_PREFIX in s)
        with S2Controller(dcn1, S2Options(num_workers=4)) as controller:
            controller.cpo.run_ospf()
            controller.cpo.run_batch([target])
            stats = controller.cpo.stats
            got = controller.collected_ribs()
        assert (stats.shards_merged, stats.shards_run) == (0, 1)
        assert normalize_ribs(got) == {
            host: {p: r for p, r in table.items() if p in target}
            for host, table in normalize_ribs(expected).items()
        }

    def test_grown_batch_is_traced(self, dcn1, tmp_path):
        shards = split_shards(dcn1)
        external = next(s for s in shards if EXTERNAL_PREFIX in s).index
        options = split_options(dcn1, shards, 4, trace_dir=str(tmp_path))
        with S2Controller(dcn1, options) as controller:
            controller.cpo.run(shards)
            grown = [
                record.attrs["grown"]
                for record in controller.tracer.records
                if record.name == "cpo.shard" and "grown" in record.attrs
            ]
        assert grown == [[external]]

    def test_growth_over_socket_matches_in_process(self, dcn1, dcn1_sim):
        """The dependencies ride the pull replies over the wire."""
        _, expected = dcn1_sim
        shards = split_shards(dcn1)
        runs = {}
        for runtime in ("sequential", "socket"):
            options = split_options(dcn1, shards, 4, runtime=runtime)
            with S2Controller(dcn1, options) as controller:
                stats = controller.cpo.run(shards)
                runs[runtime] = (
                    stats.batches_run,
                    stats.bgp_rounds,
                    stats.shards_merged,
                    normalize_ribs(controller.collected_ribs()),
                )
        assert runs["socket"] == runs["sequential"]
        assert runs["socket"][2] > 0
        assert runs["socket"][3] == normalize_ribs(expected)

    def test_crash_in_grown_convergence_replays_the_grown_batch(
        self, dcn1, dcn1_sim
    ):
        _, expected = dcn1_sim
        shards = split_shards(dcn1)
        # Pending when the default route's shard grows, so it is in
        # flight only during the grown batch's second convergence.
        external = next(s for s in shards if EXTERNAL_PREFIX in s).index
        with S2Controller(dcn1, split_options(dcn1, shards, 4)) as controller:
            clean = controller.cpo.run(shards)
        plan = FaultPlan([
            FaultSpec(
                "crash", worker=1, shard=external, round=2,
                command="step",
            )
        ])
        options = split_options(dcn1, shards, 4, fault_plan=plan)
        with S2Controller(dcn1, options) as controller:
            stats = controller.cpo.run(shards)
            got = controller.collected_ribs()
        assert plan.fired_by_kind == {"crash": 1}
        assert (stats.worker_failures, stats.shard_replays) == (1, 1)
        assert stats.shards_merged == clean.shards_merged > 0
        # The replay reran the grown union: the one round the crash cut
        # short is the only extra round.
        assert stats.bgp_rounds == clean.bgp_rounds + 1
        assert normalize_ribs(got) == normalize_ribs(expected)

    def test_grown_batch_resumes(self, dcn1, dcn1_sim, tmp_path, monkeypatch):
        """A run stopped after its first (grown) batch resumes from the
        manifest: the grown batch's shards are skipped, the rest run."""
        _, expected = dcn1_sim
        # The whole pipeline believes the incomplete DPDG, so the resumed
        # controller adopts the stored split packing.
        monkeypatch.setattr(
            sharding,
            "build_dpdg",
            lambda snapshot, include_conditionals=True: build_dpdg(
                snapshot, include_conditionals=False
            ),
        )
        ordered = sorted(
            split_shards(dcn1), key=lambda s: 0 if DEFAULT_PREFIX in s else 1
        )
        options = split_options(
            dcn1, ordered, 4, num_shards=len(ordered),
            store_dir=str(tmp_path / "spool"),
        )

        class Stop(Exception):
            pass

        run_batch = ControlPlaneOrchestrator.run_batch

        def stop_after_first_batch(cpo, *args):
            run_batch(cpo, *args)
            raise Stop

        monkeypatch.setattr(
            ControlPlaneOrchestrator, "run_batch", stop_after_first_batch
        )
        with S2Controller(dcn1, options) as controller:
            controller.shards = ordered
            controller.manifest.record_packing(ordered)
            controller.store.write_manifest(controller.manifest)
            with pytest.raises(Stop):
                controller.run_control_plane()
            assert controller.cpo.stats.shards_merged == 1
        monkeypatch.setattr(ControlPlaneOrchestrator, "run_batch", run_batch)

        grown = sorted(
            s.index
            for s in ordered
            if DEFAULT_PREFIX in s or EXTERNAL_PREFIX in s
        )
        with S2Controller.resume(dcn1, options) as controller:
            assert controller.shards == sorted(ordered, key=lambda s: s.index)
            assert controller.manifest.completed_shards() == grown
            stats = controller.run_control_plane()
            got = controller.collected_ribs()
            after = controller.store.read_manifest().completed_shards()
        assert stats.shards_skipped == len(grown)
        assert stats.shards_run == len(ordered) - len(grown)
        assert stats.shards_merged == 0
        assert after == sorted(s.index for s in ordered)
        assert normalize_ribs(got) == normalize_ribs(expected)
