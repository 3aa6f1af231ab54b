#!/usr/bin/env python3
"""Regenerate every paper figure and write EXPERIMENTS.md.

Runs the full experiment suite (Figures 4–11) at the scaled sizes and
records the measured tables next to the paper's expected shapes.  This is
the script that produced the repository's EXPERIMENTS.md.

Run:  python examples/run_all_experiments.py [--out EXPERIMENTS.md]
      S2_BENCH_SIZES=4,6,8 controls the FatTree sweep.
"""

import argparse
import sys
import time

from repro.harness import (
    ROW_HEADERS,
    format_table,
    run_fig4_real_dcn,
    run_fig5_fattree_scaling,
    run_fig6_scale_out,
    run_fig7_partition_schemes,
    run_fig8_sharding_necessity,
    run_fig9_shard_count,
    run_fig10_dpv,
)

EXPECTATIONS = {
    "fig4": (
        "Figure 4 — real-DCN substitute",
        "Paper: vanilla Batfish OOMs; Batfish+sharding finishes near the "
        "limit; S2 is fastest with the lowest per-worker memory; sharding "
        "slows S2 when memory is sufficient.",
    ),
    "fig5": (
        "Figure 5 — FatTree size sweep",
        "Paper: Batfish OOMs between the first two sizes; Bonsai is "
        "memory-light but compute-bound (times out at the 5th size); S2 "
        "reaches the largest sizes, with per-worker memory falling as "
        "workers are added.",
    ),
    "fig6": (
        "Figure 6 — scale-out on a fixed FatTree",
        "Paper: time and per-worker peak memory fall steeply up to ~8 "
        "workers, then flatten.",
    ),
    "fig7": (
        "Figure 7 — partition schemes",
        "Paper: random/expert/metis differ only slightly; the "
        "load-imbalanced extreme is far worse; the communication-heaviest "
        "extreme only slightly worse — balance matters, cut barely does.",
    ),
    "fig8": (
        "Figure 8 — sharding on/off across sizes (CP simulation)",
        "Paper: sharding becomes *necessary* at the largest size (OOM "
        "without it) and always lowers peak memory.",
    ),
    "fig9": (
        "Figure 9 — shard-count sweep (CP simulation)",
        "Paper: memory falls monotonically with shards; time is U-shaped "
        "(GC relief first, per-shard overhead later).",
    ),
    "fig10": (
        "Figure 10 — distributed DPV vs centralized",
        "Paper: S2 wins both phases for both query types; the "
        "predicate-computation phase speeds up the most; the speedup "
        "grows with size.",
    ),
}

FIG10_PHASES = (
    "phase_predicates", "phase_forward_allpair", "phase_forward_singlepair"
)
FIG10_HEADERS = [
    "series", "workload", "pred-ops", "fwd-allpair-ops", "fwd-single-ops",
    "pred-ms", "fwd-allpair-ms", "fwd-single-ms",
]

FIG7_HEADERS = [
    "series", "workload", "status", "wall-s", "cp-s", "dp-s", "max-work",
    "peak-mem", "rpc-KB",
]


def standard_table(rows):
    return format_table(ROW_HEADERS, [r.as_cells() for r in rows])


def fig6_table(rows):
    return format_table(
        ROW_HEADERS + ["max-work"],
        [r.as_cells() + [r.extra["max_route_work"]] for r in rows],
    )


def fig7_table(rows):
    return format_table(
        FIG7_HEADERS,
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
            ]
            for r in rows
        ],
    )


def fig10_table(rows):
    return format_table(
        FIG10_HEADERS,
        [
            [r.series, r.workload]
            + [r.extra.get(f"{phase}_ops", 0) for phase in FIG10_PHASES]
            + [round(r.extra.get(phase, 0) * 1e3) for phase in FIG10_PHASES]
            for r in rows
        ],
    )


EXPERIMENTS = [
    ("fig4", lambda: run_fig4_real_dcn(scale=1, workers=4), standard_table),
    ("fig5", run_fig5_fattree_scaling, standard_table),
    ("fig6", lambda: run_fig6_scale_out(k=8), fig6_table),
    ("fig7", lambda: run_fig7_partition_schemes(k=8, workers=8), fig7_table),
    ("fig8", run_fig8_sharding_necessity, standard_table),
    ("fig9", lambda: run_fig9_shard_count(k=8), standard_table),
    ("fig10", lambda: run_fig10_dpv(workers=8), fig10_table),
]

HEADER = """\
# EXPERIMENTS — paper vs measured

Generated by `python examples/run_all_experiments.py` at model scale
(FatTree k in {4, 6, 8} stands in for the paper's FatTree40-60; the
modeled worker capacity is calibrated so memory crossovers fall at the
same relative sweep positions — see DESIGN.md for the substitution
table).

Times are **measured wall seconds** (`wall-s`, plus the per-phase
`-s`/`-ms` columns of Figures 7 and 10) of one run on the machine that
generated this file; no time is modeled.  The default `sequential`
runtime runs every worker in one Python process, one after another, so
these times show the work a configuration does, not the parallel
speed-up of the paper's 64-core servers.  `peak-mem` is still the
*modeled* per-worker peak memory (route, FIB and BDD counts times fixed
per-item sizes) until workers get a real memory ceiling (ROADMAP.md,
item 4(i)).  Figures 6, 7 and 10 also report machine-independent work
counts on the critical path of a cluster with a core per worker:
`max-work`, the busiest worker's route updates, and the `-ops` columns,
the BDD operations of Batfish's one engine against S2's busiest worker
in each step (these move by a few percent with Python's string-hash
seed).  Counts, not times, carry those figures' balance and speed-up
claims in `benchmarks/`.  Statuses: `OOM` = exceeded the modeled
worker capacity, `T/O` = exceeded Bonsai's work budget (a deterministic count of
compression and route-update work standing in for the paper's
time-out) — both are data points, exactly as in the paper's figures.

Where the measured times do not reproduce the paper, plainly:

- Figure 4: S2 is not the fastest — sharded Batfish, one engine with no
  worker boundaries, finishes first.  S2 keeps the lowest per-worker
  memory.
- Figure 6: the wall column *rises* with the worker count while
  per-worker memory falls as in the paper.  More workers add boundary
  serialization and per-worker overhead, and one process gets no
  parallelism back.  `max-work` falls steeply up to 8 workers but does
  not flatten after them: it leaves out the per-worker communication
  the paper's flattening comes from.
- Figure 7: the schemes differ in `max-work`, the busiest worker's route
  updates (which bound a round when every worker has its own cores),
  not in the wall columns.
- Figure 9: time is not U-shaped; it mostly grows with the shard count,
  since a Python run has no garbage-collection cliff near the modeled
  capacity for more shards to relieve.
- Figure 10: in `-ops`, S2 wins every phase and its predicate speed-up
  grows with size, as in the paper.  In measured `-ms`, S2's forwarding
  phases are several times slower than Batfish's and its predicate
  phase is at best on par; that speed-up needs the workers to run in
  parallel.

Figure 11 has no table; its reproduction is
`examples/fig11_forwarding_trace.py` and `benchmarks/bench_fig11_trace.py`
(single-pair checks engage all workers; 4 equal-cost paths on FatTree4).
"""


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="EXPERIMENTS.md")
    parser.add_argument(
        "--only", default=None, help="comma-separated figure ids (e.g. fig4)"
    )
    args = parser.parse_args()
    wanted = set(args.only.split(",")) if args.only else None

    sections = [HEADER]
    for fig_id, runner, renderer in EXPERIMENTS:
        if wanted and fig_id not in wanted:
            continue
        title, expectation = EXPECTATIONS[fig_id]
        print(f"running {fig_id}: {title} ...", flush=True)
        started = time.perf_counter()
        rows = runner()
        elapsed = time.perf_counter() - started
        table = renderer(rows)
        print(table, "\n")
        sections.append(
            f"## {title}\n\n{expectation}\n\n"
            f"Measured ({elapsed:.0f}s wall):\n\n```\n{table}\n```\n"
        )
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write("\n".join(sections))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
