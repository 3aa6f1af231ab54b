"""Figure 7: comparing network partition schemes.

Paper shape to reproduce: random/expert/metis differ only slightly; the
load-imbalanced extreme is far worse; the communication-heaviest extreme
costs only a little (§5.6) — performance tracks load balance, not cut.

Balance is asserted as a count: the busiest worker's route updates
(``max-work``), which bound a round when every worker has its own
cores.  The wall columns are measured in one process, where the
workers run one after another, so they cannot show imbalance.  The
three balanced schemes stay within 30% of each other on the FatTree;
the 42-device DCN over 8 workers gets 40%, because one device more or
less on the busiest worker moves ``max-work`` by a third there (random
1,978 vs metis 2,658).
"""

from conftest import emit
from repro.harness import format_table, run_fig7_partition_schemes

HEADERS = [
    "series", "workload", "status", "wall-s", "cp-s", "dp-s", "max-work",
    "peak-mem", "rpc-KB", "crossed",
]


def test_fig07_partition_schemes(benchmark):
    rows = benchmark.pedantic(
        lambda: run_fig7_partition_schemes(k=8, workers=8, include_dcn=True),
        rounds=1,
        iterations=1,
    )
    table = format_table(
        HEADERS,
        [
            [
                r.series,
                r.workload,
                r.status,
                round(r.wall_seconds, 2),
                round(r.extra.get("cp_seconds", 0), 2),
                round(r.extra.get("dp_seconds", 0), 2),
                r.extra.get("max_route_work", 0),
                f"{r.peak_memory / (1 << 20):.1f}MB",
                round(r.extra.get("rpc_bytes", 0) / 1e3),
                r.extra.get("packets_crossed", 0),
            ]
            for r in rows
        ],
        title="Figure 7 — partition schemes (wall / CP / DP seconds, "
        "busiest worker's route work)",
    )
    emit("fig07", table, rows)
    assert all(r.status == "ok" for r in rows)
    for workload in {r.workload for r in rows}:
        by_scheme = {
            r.series: r for r in rows if r.workload == workload
        }
        work = {
            series: row.extra["max_route_work"]
            for series, row in by_scheme.items()
        }
        balanced = [work[s] for s in ("random", "expert", "metis")]
        # the three balanced schemes differ only slightly
        spread = 1.4 if workload.startswith("DCN") else 1.3
        assert max(balanced) < min(balanced) * spread, workload
        # the load-imbalanced extreme is clearly worse than all of them
        assert work["imbalanced"] > max(balanced) * 1.2
        # the communication-heavy extreme is at worst mildly worse
        assert work["commheavy"] < max(balanced) * 1.3
