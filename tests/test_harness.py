"""Tests for the experiment harness: scaling registry, runners, tables."""

import pytest

from repro.harness.experiments import (
    ROW_HEADERS,
    ExperimentRow,
    run_batfish,
    run_bonsai,
    run_fig6_scale_out,
    run_fig9_shard_count,
    run_s2,
    sweep_sizes,
)
from repro.dist.resources import UNLIMITED_CAPACITY
from repro.harness.reporting import format_bytes, format_status, format_table
from repro.harness.scaling import (
    PAPER_SIZES,
    SCALED_SIZES,
    capacity_for_sweep,
    measured_single_server_peak,
    sweep,
)
from repro.net.fattree import build_fattree


class TestScalingRegistry:
    def test_sweep_pairs_sizes(self):
        points = sweep(3)
        assert [(p.k, p.paper_k) for p in points] == [
            (4, 40),
            (6, 50),
            (8, 60),
        ]
        assert points[0].label == "FatTree40 (k=4)"
        assert points[0].num_switches == 20
        assert points[0].paper_switches == 2000

    def test_sweep_sizes_env_override(self, monkeypatch):
        monkeypatch.setenv("S2_BENCH_SIZES", "4,6")
        assert sweep_sizes() == [(4, 40), (6, 50)]

    def test_sweep_sizes_default(self, monkeypatch):
        monkeypatch.delenv("S2_BENCH_SIZES", raising=False)
        assert sweep_sizes(2) == [(4, 40), (6, 50)]

    def test_off_registry_size_named_by_rule(self, monkeypatch):
        monkeypatch.setenv("S2_BENCH_SIZES", "16")
        assert sweep_sizes() == [(16, 160)]

    def test_measured_peak_cached_and_positive(self):
        first = measured_single_server_peak(4)
        second = measured_single_server_peak(4)
        assert first == second > 0

    def test_capacity_scales_with_headroom(self):
        low = capacity_for_sweep(4, headroom=1.0)
        high = capacity_for_sweep(4, headroom=2.0)
        assert high == pytest.approx(low * 2, rel=0.01)

    def test_capacity_grows_with_k(self):
        assert capacity_for_sweep(6) > capacity_for_sweep(4)


class TestRunners:
    def test_run_s2_row(self, fattree4):
        row, result = run_s2(
            fattree4, 2, 2, UNLIMITED_CAPACITY, "s2-2w", "FatTree40 (k=4)"
        )
        assert row.status == "ok"
        assert row.series == "s2-2w"
        assert row.wall_seconds > 0
        assert row.extra["cp_seconds"] > 0
        assert row.extra["dp_seconds"] > 0
        assert row.extra["routes"] == 256
        assert row.extra["max_route_work"] == max(
            w.route_work for w in result.report.workers
        )
        assert row.extra["rpc_bytes"] == result.report.total_rpc_bytes
        assert result.ok

    def test_run_s2_cp_only(self, fattree4):
        row, result = run_s2(
            fattree4, 2, 2, UNLIMITED_CAPACITY, "cp", "w", cp_only=True
        )
        assert row.status == "ok"
        assert result.dp_stats is None
        assert row.extra["bgp_rounds"] > 0

    def test_run_s2_oom_row(self, fattree4):
        row, result = run_s2(fattree4, 2, 0, 1, "s2", "w")
        assert row.status == "oom"
        assert not result.ok

    def test_run_batfish_row(self, fattree4):
        row = run_batfish(fattree4, UNLIMITED_CAPACITY, "w")
        assert row.status == "ok"
        assert row.extra["routes"] == 256

    def test_run_batfish_oom_row(self, fattree4):
        row = run_batfish(fattree4, 1, "w")
        assert row.status == "oom"
        assert "error" in row.extra

    def test_run_bonsai_row(self, fattree4):
        row = run_bonsai(fattree4, UNLIMITED_CAPACITY, "w")
        assert row.status == "ok"
        assert row.extra["destinations"] == 8
        assert row.extra["reachable"] == 8

    def test_run_bonsai_timeout_row(self, fattree4):
        row = run_bonsai(fattree4, UNLIMITED_CAPACITY, "w", work_budget=1)
        assert row.status == "timeout"
        assert row.extra["work"] > 1

    def test_fig6_shape_small(self):
        rows = run_fig6_scale_out(k=4, worker_counts=(1, 4))
        assert len(rows) == 2
        assert all(r.status == "ok" for r in rows)
        # more workers -> lower per-worker peak memory and busiest-worker work
        assert rows[1].peak_memory < rows[0].peak_memory
        assert (
            rows[1].extra["max_route_work"] < rows[0].extra["max_route_work"]
        )

    def test_fig9_memory_monotone_small(self):
        rows = run_fig9_shard_count(k=4, shard_counts=(1, 4, 8))
        peaks = [r.peak_memory for r in rows]
        assert peaks == sorted(peaks, reverse=True)


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(
            ["name", "value"],
            [["a", 1], ["long-name", 23.456]],
            title="T",
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert "23.46" in lines[4]

    def test_cell_rendering(self):
        table = format_table(
            ["x"], [[None], [True], [False], [12345.6]]
        )
        assert "-" in table
        assert "yes" in table and "no" in table
        assert "12,346" in table

    def test_format_bytes(self):
        assert format_bytes(1 << 20) == "1.0MB"

    def test_format_status(self):
        assert format_status("oom") == "OOM"
        assert format_status("ok") == "ok"
        assert format_status("timeout") == "T/O"
        assert format_status("weird") == "weird"

    def test_row_cells(self):
        row = ExperimentRow(
            experiment="figX",
            series="s",
            workload="w",
            peak_memory=1 << 20,
            wall_seconds=0.5,
        )
        cells = row.as_cells()
        assert len(cells) == len(ROW_HEADERS)
        assert "1.0MB" in cells
