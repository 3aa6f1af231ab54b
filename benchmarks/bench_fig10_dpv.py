"""Figure 10: distributed data-plane verification vs centralized.

Paper shape to reproduce: S2 is faster than Batfish for both all-pair and
single-pair reachability, in both phases (predicate computation and
symbolic forwarding); the predicate phase shows the largest speedup; the
speedup grows with the FatTree size; even a single-pair check engages all
workers (§5.8).

The speed-up claims are asserted on BDD operation counts on each phase's
critical path (``*-ops``): Batfish's single engine against S2's busiest
worker in the build and in each superstep.  Engines on different workers
proceed in parallel (§4.3), so that count bounds a phase on a cluster
with a core per worker.  The ``*-ms`` columns are measured in one
process, where the workers run one after another and every worker
boundary pays serialization, so they are reported, not asserted.  The
memory claim is asserted too: S2's per-worker peak stays below the
single Batfish server's.
"""

from conftest import emit
from repro.harness import format_table, run_fig10_dpv

PHASES = (
    "phase_predicates", "phase_forward_allpair", "phase_forward_singlepair"
)
HEADERS = [
    "series", "workload", "pred-ops", "fwd-allpair-ops", "fwd-single-ops",
    "pred-ms", "fwd-allpair-ms", "fwd-single-ms", "peak-mem",
]


def test_fig10_dpv(benchmark):
    rows = benchmark.pedantic(
        lambda: run_fig10_dpv(workers=8), rounds=1, iterations=1
    )
    table = format_table(
        HEADERS,
        [
            [r.series, r.workload]
            + [r.extra.get(f"{phase}_ops", 0) for phase in PHASES]
            + [round(r.extra.get(phase, 0) * 1e3) for phase in PHASES]
            + [f"{r.peak_memory / (1 << 20):.1f}MB"]
            for r in rows
        ],
        title="Figure 10 — DPV phases: Batfish vs S2 "
        "(critical-path BDD ops, measured ms)",
    )
    emit("fig10", table, rows)
    by_key = {(r.series, r.workload): r for r in rows}
    s2_series = next(r.series for r in rows if r.series != "batfish")
    speedups = []
    for workload in dict.fromkeys(r.workload for r in rows):
        batfish = by_key[("batfish", workload)]
        s2 = by_key[(s2_series, workload)]
        # S2 wins every phase: predicates, all-pair and single-pair
        for phase in PHASES:
            assert (
                s2.extra[f"{phase}_ops"] < batfish.extra[f"{phase}_ops"]
            ), (workload, phase)
        speedups.append(
            batfish.extra["phase_predicates_ops"]
            / max(1, s2.extra["phase_predicates_ops"])
        )
        # S2's busiest worker holds less than the single Batfish server
        assert s2.peak_memory < batfish.peak_memory
    # the predicate-phase speedup grows with the FatTree size
    assert speedups[-1] > speedups[0]
