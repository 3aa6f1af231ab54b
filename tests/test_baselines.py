"""Tests for the Batfish and Bonsai baseline verifiers."""

import pytest

from tests.conftest import normalize_ribs
from repro.baselines.batfish import BatfishVerifier
from repro.baselines.bonsai import (
    BonsaiTimeout,
    BonsaiVerifier,
    CompressionError,
)
from repro.dataplane.queries import Query
from repro.dist.resources import UNLIMITED_CAPACITY, SimulatedOOM
from repro.net.fattree import build_fattree
from repro.net.ip import Prefix


class TestBatfish:
    def test_routes_match_reference_engine(self, fattree4, fattree4_sim):
        _, expected = fattree4_sim
        verifier = BatfishVerifier(fattree4, capacity=UNLIMITED_CAPACITY)
        got = verifier.run_control_plane()
        assert normalize_ribs(got) == normalize_ribs(expected)

    def test_sharded_routes_match_unsharded(self, fattree4, fattree4_sim):
        _, expected = fattree4_sim
        verifier = BatfishVerifier(
            fattree4, num_shards=4, capacity=UNLIMITED_CAPACITY
        )
        got = verifier.run_control_plane()
        assert normalize_ribs(got) == normalize_ribs(expected)
        assert verifier.stats.shards_run == 4

    def test_oom_at_tiny_capacity(self, fattree4):
        verifier = BatfishVerifier(fattree4, capacity=1)
        with pytest.raises(SimulatedOOM):
            verifier.run_control_plane()
        assert verifier.resources.oom

    def test_sharding_lowers_cp_peak(self, fattree4):
        unsharded = BatfishVerifier(fattree4, capacity=UNLIMITED_CAPACITY)
        unsharded.run_control_plane()
        sharded = BatfishVerifier(
            fattree4, num_shards=8, capacity=UNLIMITED_CAPACITY
        )
        sharded.run_control_plane()
        assert sharded.resources.peak_bytes < unsharded.resources.peak_bytes

    def test_all_pair_reachability(self, fattree4):
        verifier = BatfishVerifier(fattree4, capacity=UNLIMITED_CAPACITY)
        result = verifier.all_pair_reachability()
        assert len(result.pairs()) == 64

    def test_stats_populated(self, fattree4):
        verifier = BatfishVerifier(fattree4, capacity=UNLIMITED_CAPACITY)
        verifier.all_pair_reachability()
        stats = verifier.stats
        assert stats.bgp_rounds > 0
        assert stats.cp_seconds > 0
        assert stats.dp_predicate_seconds > 0
        assert stats.dp_forward_seconds > 0
        assert stats.dp_predicate_nodes > 0
        assert stats.dp_forward_ops > 0
        # A FatTree compile is mk calls only, so every op the baseline
        # charges is a forwarding op.
        assert stats.dp_forward_ops == verifier.resources.bdd_ops

    def test_total_route_count(self, fattree4):
        verifier = BatfishVerifier(fattree4, capacity=UNLIMITED_CAPACITY)
        assert verifier.total_route_count() == 256

    def test_run_control_plane_cached(self, fattree4):
        verifier = BatfishVerifier(fattree4, capacity=UNLIMITED_CAPACITY)
        first = verifier.run_control_plane()
        rounds = verifier.stats.bgp_rounds
        second = verifier.run_control_plane()
        assert first is second
        assert verifier.stats.bgp_rounds == rounds


class TestBonsai:
    def test_quotient_has_six_distinct_nodes(self, fattree4):
        verifier = BonsaiVerifier(fattree4)
        classes = verifier.compress("edge-1-0")
        members = classes.members()
        assert len(set(members)) == 6
        assert classes.dest_edge == "edge-1-0"
        assert classes.same_pod_agg.startswith("agg-1-")
        assert classes.same_pod_edge.startswith("edge-1-")
        assert classes.core.startswith("core-")
        assert not classes.other_pod_agg.startswith("agg-1-")

    def test_quotient_wiring_consistent_with_core(self, fattree4):
        """The other-pod agg must attach to the chosen core."""
        verifier = BonsaiVerifier(fattree4)
        classes = verifier.compress("edge-0-1")
        neighbors = fattree4.topology.neighbors(classes.core)
        assert classes.same_pod_agg in neighbors
        assert classes.other_pod_agg in neighbors

    def test_all_destinations_reachable_on_clean_fattree(self, fattree4):
        verifier = BonsaiVerifier(fattree4)
        results = verifier.check_all_destinations()
        assert len(results) == 8
        assert all(results.values())
        assert verifier.stats.destinations_checked == 8

    def test_compress_rejects_non_edge(self, fattree4):
        verifier = BonsaiVerifier(fattree4)
        with pytest.raises(CompressionError):
            verifier.compress("core-0")

    def test_requires_fattree(self, dcn1):
        with pytest.raises(CompressionError):
            BonsaiVerifier(dcn1)

    def test_k2_has_no_quotient(self):
        verifier = BonsaiVerifier(build_fattree(2))
        with pytest.raises(CompressionError):
            verifier.compress("edge-0-0")

    def test_timeout_budget(self, fattree4):
        probe = BonsaiVerifier(fattree4)
        probe.check_all_destinations()
        # The budget is a work count: it repeats exactly, so a budget one
        # destination short of the whole run times out on the last one.
        per_destination = probe.stats.total_work // 8
        verifier = BonsaiVerifier(
            fattree4, work_budget=probe.stats.total_work - per_destination
        )
        with pytest.raises(BonsaiTimeout):
            verifier.check_all_destinations()
        assert verifier.stats.destinations_checked == 8
        assert BonsaiVerifier(
            fattree4, work_budget=probe.stats.total_work
        ).check_all_destinations()

    def test_cost_grows_with_size(self):
        small = BonsaiVerifier(build_fattree(4))
        small.check_destination("edge-0-0", Prefix.parse("10.0.0.0/24"))
        large = BonsaiVerifier(build_fattree(6))
        large.check_destination("edge-0-0", Prefix.parse("10.0.0.0/24"))
        assert large.stats.compression_work > small.stats.compression_work

    def test_memory_stays_flat_across_sizes(self):
        small = BonsaiVerifier(build_fattree(4))
        small.check_destination("edge-0-0", Prefix.parse("10.0.0.0/24"))
        large = BonsaiVerifier(build_fattree(6))
        large.check_destination("edge-0-0", Prefix.parse("10.0.0.0/24"))
        # 6-node quotient regardless of k: peaks within a few percent
        assert large.resources.peak_bytes <= small.resources.peak_bytes * 1.1
