"""Observability-cost benchmark: a live scraper on vs off.

Every worker reply carries the worker's status, and a scrape folds the
fleet's latest statuses into ``worker<N>.*`` gauges at read time, so
watching a run must be close to free.  This benchmark runs full
FatTree4 verifies with a scraper thread rendering
``render_openmetrics(controller.metrics_snapshot())`` every 50 ms —
what ``repro verify --metrics-listen`` serves to a Prometheus scraper —
and interleaves them with unwatched verifies.

The gated quantity is the scraper's **CPU share**: the scraper thread's
own CPU time over its renders (``time.thread_time()``), as a share of
the scraped verifies' wall time.  The verify and the scraper share one
interpreter, so under the GIL that share is the wall time the verify
loses to being watched.  The acceptance bar is **< 3%**.  The best-of-N
wall delta between the arms is reported too, but not gated: on a small
shared host two ≈30 ms runs differ by more than 3% from noise alone.
The absolute numbers in the committed baseline are reference points,
not thresholds.

Usage:

    python benchmarks/bench_telemetry.py --write-baseline \
        benchmarks/baselines/telemetry_fattree4.json
    python benchmarks/bench_telemetry.py --check-baseline \
        benchmarks/baselines/telemetry_fattree4.json

``--check-baseline`` exits non-zero when the scraper's CPU share exceeds
``--threshold`` (default 3%) or when no scrape saw worker 0's BDD-node
gauge (a scraper that never read a worker would make the gate vacuous).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.s2 import S2Verifier
from repro.dist.controller import S2Options
from repro.net.fattree import build_fattree
from repro.obs.openmetrics import render_openmetrics

OVERHEAD_THRESHOLD_PCT = 3.0
SCRAPE_INTERVAL = 0.05
WORKER_SERIES = 's2_worker_bdd_nodes{worker="0"}'


def _one_verify(snapshot, scraped: bool) -> Dict[str, float]:
    scrapes = 0
    hits = 0
    scrape_cpu = 0.0
    done = threading.Event()
    started = time.perf_counter()
    with S2Verifier(
        snapshot, S2Options(num_workers=4, num_shards=2)
    ) as verifier:
        controller = verifier.controller

        def scrape() -> None:
            nonlocal scrapes, hits, scrape_cpu
            while True:
                cpu = time.thread_time()
                text = render_openmetrics(controller.metrics_snapshot())
                scrape_cpu += time.thread_time() - cpu
                scrapes += 1
                hits += WORKER_SERIES in text
                if done.wait(SCRAPE_INTERVAL):
                    return

        scraper = threading.Thread(target=scrape) if scraped else None
        if scraper is not None:
            scraper.start()
        try:
            result = verifier.verify()
        finally:
            done.set()
            if scraper is not None:
                scraper.join()
    elapsed = time.perf_counter() - started
    if result.status != "ok":
        raise AssertionError(f"verify failed: {result.status}")
    return {
        "seconds": elapsed,
        "scrape_cpu_seconds": scrape_cpu,
        "scrapes": scrapes,
        "worker_hits": hits,
    }


def run(repeats: int) -> Dict[str, object]:
    snapshot = build_fattree(4)
    _one_verify(snapshot, scraped=False)  # warm caches for both arms
    off: List[float] = []
    on: List[float] = []
    scrape_cpu = 0.0
    scrapes = 0
    worker_hits = 0
    # Interleave the arms so drift (thermal, page cache) hits both.
    for _ in range(repeats):
        off.append(_one_verify(snapshot, scraped=False)["seconds"])
        sample = _one_verify(snapshot, scraped=True)
        on.append(sample["seconds"])
        scrape_cpu += sample["scrape_cpu_seconds"]
        scrapes += int(sample["scrapes"])
        worker_hits += int(sample["worker_hits"])
    off_best = min(off)
    on_best = min(on)
    return {
        "network": "fattree4",
        "repeats": repeats,
        "scrape_interval_seconds": SCRAPE_INTERVAL,
        "scrape_cpu_seconds": scrape_cpu,
        "scraped_wall_seconds": sum(on),
        "scraper_cpu_pct": 100.0 * scrape_cpu / sum(on),
        "off_seconds": off_best,
        "on_seconds": on_best,
        "wall_delta_pct": 100.0 * (on_best - off_best) / off_best,
        "scrapes": scrapes,
        "worker_hits": worker_hits,
    }


def check(result: Dict[str, object], threshold: float) -> List[str]:
    problems: List[str] = []
    if result["scraper_cpu_pct"] > threshold:
        problems.append(
            f"scraper CPU share {result['scraper_cpu_pct']:.2f}% exceeds "
            f"the {threshold:.1f}% bar "
            f"({result['scrape_cpu_seconds'] * 1e3:.1f} ms of renders over "
            f"{result['scraped_wall_seconds']:.3f}s of scraped verifies)"
        )
    if result["worker_hits"] < 1:
        problems.append(
            f"no scrape contained {WORKER_SERIES} — the scraper never "
            "read a worker, so the overhead measurement is vacuous"
        )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="verify runs per arm (default 5)")
    parser.add_argument("--threshold", type=float,
                        default=OVERHEAD_THRESHOLD_PCT,
                        help="allowed scraper CPU share, percent "
                             "(default 3.0)")
    parser.add_argument("--write-baseline", metavar="PATH",
                        help="write the measured baseline JSON and exit")
    parser.add_argument("--check-baseline", metavar="PATH",
                        help="run the gate (and report drift against the "
                             "committed baseline); exit 1 on failure")
    args = parser.parse_args(argv)

    result = run(args.repeats)
    print(
        f"fattree4 verify, {args.repeats} scraped runs: scraper CPU "
        f"{result['scrape_cpu_seconds'] * 1e3:.1f} ms over "
        f"{result['scraped_wall_seconds']:.3f}s "
        f"-> {result['scraper_cpu_pct']:.2f}% "
        f"({result['scrapes']} scrapes, {result['worker_hits']} with "
        f"worker series); wall, best of {args.repeats} (not gated): "
        f"unscraped {result['off_seconds']:.3f}s, "
        f"scraped {result['on_seconds']:.3f}s "
        f"-> {result['wall_delta_pct']:+.2f}%"
    )

    if args.write_baseline:
        with open(args.write_baseline, "w") as handle:
            json.dump(result, handle, indent=2)
            handle.write("\n")
        print(f"baseline written to {args.write_baseline}")
        return 0

    if args.check_baseline:
        with open(args.check_baseline) as handle:
            baseline = json.load(handle)
        drift = result["scraper_cpu_pct"] - baseline["scraper_cpu_pct"]
        print(
            f"baseline scraper CPU share {baseline['scraper_cpu_pct']:.2f}% "
            f"(drift {drift:+.2f} points)"
        )
        problems = check(result, args.threshold)
        for problem in problems:
            print(f"REGRESSION: {problem}", file=sys.stderr)
        return 1 if problems else 0

    return 1 if check(result, args.threshold) else 0


if __name__ == "__main__":
    sys.exit(main())
