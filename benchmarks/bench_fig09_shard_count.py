"""Figure 9: sweeping the number of prefix shards on a fixed FatTree.

Paper shape to reproduce: peak memory falls monotonically with the shard
count; simulation time is U-shaped — when memory is insufficient, more
shards *reduce* time (GC pressure relieved); once memory suffices, the
per-shard overhead dominates and time grows (§5.7).

Only the memory half is asserted: the wall column is measured, and a
Python run has no garbage-collection cliff near the modeled capacity
for more shards to relieve.
"""

from conftest import emit
from repro.harness import ROW_HEADERS, format_table, run_fig9_shard_count

SHARD_COUNTS = (1, 2, 5, 10, 15, 20, 30, 40)


def test_fig09_shard_count(benchmark):
    rows = benchmark.pedantic(
        lambda: run_fig9_shard_count(k=8, shard_counts=SHARD_COUNTS),
        rounds=1,
        iterations=1,
    )
    table = format_table(
        ROW_HEADERS,
        [r.as_cells() for r in rows],
        title="Figure 9 — shard-count sweep (control-plane simulation)",
    )
    emit("fig09", table, rows)
    assert all(r.status == "ok" for r in rows)
    peaks = [r.peak_memory for r in rows]
    # memory falls monotonically (non-strictly) with the shard count
    assert peaks == sorted(peaks, reverse=True)
