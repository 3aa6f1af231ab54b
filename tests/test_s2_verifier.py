"""Tests for the high-level S2Verifier facade and VerificationResult."""

import pytest

from repro import Prefix, Query, S2Options, S2Verifier, verify_snapshot
from repro.dist.resources import UNLIMITED_CAPACITY


class TestVerify:
    def test_default_all_pair(self, fattree4):
        result = verify_snapshot(
            fattree4, S2Options(num_workers=2, num_shards=2)
        )
        assert result.ok
        assert result.status == "ok"
        assert result.reachable_pairs == 64
        assert result.checked_pairs == 64
        assert result.total_routes == 256
        assert result.wall_seconds > 0
        assert result.cp_stats.measured_seconds > 0
        assert result.dp_stats.predicate_seconds > 0
        assert result.dp_stats.forward_seconds > 0
        assert result.peak_worker_bytes > 0

    @pytest.mark.parametrize("workers", [1, 3])
    def test_busiest_ops_bound_the_phases(self, fattree4, workers):
        result = verify_snapshot(fattree4, S2Options(num_workers=workers))
        dp = result.dp_stats
        assert dp.predicate_busiest_ops > 0
        assert dp.forward_busiest_ops > 0
        busiest = dp.predicate_busiest_ops + dp.forward_busiest_ops
        total = sum(w.bdd_ops for w in result.report.workers)
        if workers == 1:
            assert busiest == total
        else:
            # other workers' ops overlap the busiest one's
            assert busiest < total

    def test_summary_mentions_key_facts(self, fattree4):
        result = verify_snapshot(fattree4, S2Options(num_workers=2))
        text = result.summary()
        assert "OK" in text and "64/64" in text and "256 routes" in text

    def test_custom_query(self, fattree4):
        result = verify_snapshot(
            fattree4,
            S2Options(num_workers=2),
            query=Query.single_pair(
                "edge-0-0", "edge-1-0", Prefix.parse("10.1.0.0/24")
            ),
        )
        assert result.ok
        assert result.reachable_pairs == 1
        assert result.checked_pairs == 1

    def test_check_loops_flag(self, fattree4):
        result = verify_snapshot(
            fattree4, S2Options(num_workers=2), check_loops=True
        )
        assert result.ok
        assert result.loop_violations == []

    def test_oom_reported_not_raised(self, fattree4):
        result = verify_snapshot(
            fattree4, S2Options(num_workers=2, worker_capacity=1)
        )
        assert result.status == "oom"
        assert not result.ok
        assert "out of memory" in result.error
        assert "OOM" in result.summary()
        assert result.report is not None and result.report.any_oom

    def test_bdd_overflow_reported(self, fattree4):
        result = verify_snapshot(
            fattree4,
            S2Options(
                num_workers=2, node_limit=64, worker_capacity=UNLIMITED_CAPACITY
            ),
        )
        assert result.status == "bdd-overflow"

    def test_stats_attached(self, fattree4):
        result = verify_snapshot(
            fattree4, S2Options(num_workers=2, num_shards=3)
        )
        assert result.cp_stats.shards_run == 3
        assert result.cp_stats.bgp_rounds > 0
        assert result.dp_stats.supersteps > 0
        assert result.num_workers == 2
        assert result.num_shards == 3

    def test_context_manager_cleanup(self, fattree4):
        with S2Verifier(fattree4, S2Options(num_workers=2)) as verifier:
            directory = verifier.controller.store.directory
            verifier.run_control_plane()
        import os

        assert not os.path.isdir(directory)

    def test_piecewise_api(self, fattree4):
        with S2Verifier(fattree4, S2Options(num_workers=2)) as verifier:
            cp = verifier.run_control_plane()
            assert cp.total_selected_routes == 256
            ribs = verifier.collected_ribs()
            assert len(ribs) == 20
            checker = verifier.checker()
            result = checker.check_reachability(
                Query(sources=("edge-0-0",), destinations=("edge-3-1",))
            )
            assert result.holds("edge-0-0", "edge-3-1")

    def test_invalid_scheme_raises_at_construction(self, fattree4):
        with pytest.raises(ValueError):
            S2Verifier(fattree4, S2Options(partition_scheme="bogus"))
