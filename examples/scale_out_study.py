#!/usr/bin/env python3
"""Scale-out study: how many workers and shards does a network need?

A compact version of the paper's §5.5–§5.7 methodology that operators can
point at their own snapshot: sweep worker counts and shard counts, report
measured wall time / per-worker peak memory, and recommend a configuration.

Run:  python examples/scale_out_study.py [k]
"""

import sys

from repro import S2Options
from repro.core.s2 import verify_snapshot
from repro.dist.resources import UNLIMITED_CAPACITY
from repro.harness.reporting import format_table
from repro.net.fattree import build_fattree


def sweep(k: int):
    rows = []
    for workers in (1, 2, 4, 8):
        for shards in (0, 10, 20):
            result = verify_snapshot(
                build_fattree(k),
                S2Options(
                    num_workers=workers,
                    num_shards=shards,
                    worker_capacity=UNLIMITED_CAPACITY,
                ),
            )
            rows.append(
                {
                    "workers": workers,
                    "shards": shards or 1,
                    "peak": result.peak_worker_bytes,
                    "wall": result.wall_seconds,
                }
            )
    return rows


def main():
    k = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    print(f"sweeping FatTree k={k} "
          f"({build_fattree(k).metadata['kind']}, "
          f"{len(build_fattree(k))} switches)\n")
    rows = sweep(k)
    print(
        format_table(
            ["workers", "shards", "peak-mem(MB)", "wall-s"],
            [
                [
                    r["workers"],
                    r["shards"],
                    round(r["peak"] / (1 << 20), 2),
                    round(r["wall"], 2),
                ]
                for r in rows
            ],
            title="scale-out sweep",
        )
    )
    # recommend: the cheapest configuration within 10% of the best wall time
    best_time = min(r["wall"] for r in rows)
    affordable = [r for r in rows if r["wall"] <= best_time * 1.1]
    pick = min(affordable, key=lambda r: (r["workers"], r["peak"]))
    print(
        f"\nrecommendation: {pick['workers']} workers, "
        f"{pick['shards']} shard(s) — within 10% of the fastest run "
        f"at the lowest worker count "
        f"({pick['peak'] / (1 << 20):.2f} MB peak per worker)"
    )


if __name__ == "__main__":
    main()
