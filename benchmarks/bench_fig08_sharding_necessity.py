"""Figure 8: is prefix sharding necessary at the largest sizes?

Paper shape to reproduce: without sharding, control-plane simulation of
the largest FatTree exceeds worker memory (the paper's FatTree90); with
sharding every size completes, at a markedly lower per-worker peak
(§5.7).  Times are control-plane simulation only, as in the figure.

The sharded rows run under the calibrated ceiling, and the CPO batches
every shard that ceiling admits into one fixed point: where the whole
network fits, the sharded run is the unsharded one (same peak); only at
the largest size does the ceiling split the shards into batches.
"""

from conftest import emit
from repro.harness import ROW_HEADERS, format_table, run_fig8_sharding_necessity


def test_fig08_sharding_necessity(benchmark):
    rows = benchmark.pedantic(
        run_fig8_sharding_necessity, rounds=1, iterations=1
    )
    table = format_table(
        ROW_HEADERS,
        [r.as_cells() for r in rows],
        title="Figure 8 — control-plane simulation with/without sharding",
    )
    emit("fig08", table, rows)
    by_key = {(r.series, r.workload): r for r in rows}
    workloads = list(dict.fromkeys(r.workload for r in rows))
    largest = workloads[-1]
    # sharding-off dies at the largest size; sharding-on completes all
    assert by_key[("no-sharding", largest)].status == "oom"
    for workload in workloads:
        assert by_key[("sharding", workload)].status == "ok"
    # wherever both complete, sharding batches what fits: never a higher
    # peak, and one fixed point where everything fits
    for workload in workloads[:-1]:
        sharded = by_key[("sharding", workload)]
        assert (
            sharded.peak_memory
            <= by_key[("no-sharding", workload)].peak_memory
        )
        assert sharded.extra["batches"] == 1
    # at the largest size the ceiling splits the shards into batches
    assert 1 < by_key[("sharding", largest)].extra["batches"] < 20
