"""Is the benchmark steady enough to gate on?  Two self-checks, both on
the current tree, each run in a fresh process per (workload, seed).

``--aa``      every workload twice, the second pass in reverse order;
              per (workload, metric): both values, their relative
              difference, the bound.  Exit 1 if any difference exceeds
              its bound.
``--spread N``  every workload with seeds 1..N; per (workload, metric):
              median, interquartile spread / median (the driver's
              acceptance statistic) against the bound.  Exit 1 if a
              spread other than ``setup_s``'s exceeds its bound.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple

RUNNER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "__main__.py")


def run_once(workload: str, seed: int, seconds: float, out_dir: str) -> Dict:
    completed = subprocess.run(
        [
            sys.executable, RUNNER,
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0", "--out-dir", out_dir,
        ],
        capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stderr[-2000:]}"
        )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} checks failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread_of(values: List[float]) -> float:
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def main(args, contract) -> int:
    workloads = [
        w["name"] for w in contract["workloads"]
        if args.workload in (None, w["name"])
    ]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    results: Dict[Tuple[str, str], List[float]] = {}
    if args.aa:
        plan = [(w, 1) for w in workloads] + [(w, 1) for w in reversed(workloads)]
    else:
        plan = [
            (w, seed) for seed in range(1, args.spread + 1) for w in workloads
        ]
    for index, (workload, seed) in enumerate(plan):
        # One directory per run, so every record survives for a post-mortem.
        out_dir = os.path.join(args.out_dir, "selfcheck", f"{index:03d}")
        values = run_once(workload, seed, args.seconds, out_dir)
        for metric, value in values.items():
            results.setdefault((workload, metric), []).append(value)
        print(f"# {workload} seed {seed}: " + "  ".join(
            f"{k}={v:.4g}" for k, v in values.items()
        ), flush=True)

    failed = False
    if args.aa:
        print(f"{'workload':20s} {'metric':12s} {'first':>10s} {'second':>10s} "
              f"{'diff':>7s} {'bound':>6s}")
        for (workload, metric), (first, second) in sorted(results.items()):
            diff = abs(second - first) / first
            over = diff > bounds[metric]
            failed |= over
            print(f"{workload:20s} {metric:12s} {first:10.4g} {second:10.4g} "
                  f"{diff:7.1%} {bounds[metric]:6.0%}{'  OVER' if over else ''}")
    else:
        print(f"{'workload':20s} {'metric':12s} {'median':>10s} {'spread':>7s} "
              f"{'bound':>6s} {'bound/3':>7s}")
        for (workload, metric), values in sorted(results.items()):
            spread = spread_of(values)
            over = spread > bounds[metric] and metric != "setup_s"
            failed |= over
            note = "  OVER" if over else (
                "  >1/3" if spread > bounds[metric] / 3 else ""
            )
            print(f"{workload:20s} {metric:12s} "
                  f"{statistics.median(values):10.4g} {spread:7.1%} "
                  f"{bounds[metric]:6.0%} {bounds[metric] / 3:7.1%}{note}")
    return 1 if failed else 0
