"""Observability-cost benchmark: a live scraper on vs off.

Every worker reply carries the worker's status, and a scrape folds the
fleet's latest statuses into ``worker<N>.*`` gauges at read time, so
watching a run must be close to free.  A sample is
``VERIFIES_PER_SAMPLE`` back-to-back FatTree4 verifies watched by one
scraper thread that renders
``render_openmetrics(controller.metrics_snapshot())`` of the live
controller every 50 ms on a fixed cadence — what ``repro verify
--metrics-listen`` serves to a Prometheus scraper.  One verify takes
≈20–30 ms, shorter than an interval, so a sample holds enough of them
to span at least ``MIN_INTERVALS`` intervals: the scraper is measured
keeping pace with a run, not rendering once per verify.  Scraped
samples are interleaved with unwatched ones.

The gated quantity is the scraper's **CPU share**: the scraper thread's
own CPU time over its renders (``time.thread_time()``), as a share of
the scraped samples' wall time.  The verifies and the scraper share one
interpreter, so under the GIL that share is the wall time the verifies
lose to being watched.  The acceptance bar is **< 3%**.  The gate also
checks that the scraper kept pace: every sample rendered at least once
per elapsed interval.  The best-of-N wall delta between the arms is
reported too, but not gated: on a small shared host it differs by more
than 3% from noise alone.  The absolute numbers in the committed
baseline are reference points, not thresholds.

Usage:

    python benchmarks/bench_telemetry.py --write-baseline \
        benchmarks/baselines/telemetry_fattree4.json
    python benchmarks/bench_telemetry.py --check-baseline \
        benchmarks/baselines/telemetry_fattree4.json

``--check-baseline`` exits non-zero when the scraper's CPU share exceeds
``--threshold`` (default 3%), when no scrape saw worker 0's BDD-node
gauge (a scraper that never read a worker would make the gate vacuous),
or when a sample spans fewer than ``MIN_INTERVALS`` intervals or
rendered fewer times than the intervals it spanned.
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
#: Verifies per sample, under one scraper: at ≈20–30 ms each on a
#: 2-vCPU host, 20 span 8–12 scrape intervals.
VERIFIES_PER_SAMPLE = 20
#: Fewer intervals per sample than this cannot show a scraper keeping
#: pace; raise VERIFIES_PER_SAMPLE on a host where verifies are faster.
MIN_INTERVALS = 5
WORKER_SERIES = 's2_worker_bdd_nodes{worker="0"}'


def _sample(snapshot, scraped: bool) -> Dict[str, float]:
    """``VERIFIES_PER_SAMPLE`` back-to-back verifies; when ``scraped``,
    one scraper renders whichever controller is live every
    ``SCRAPE_INTERVAL`` from the first verify's start to the last's
    end."""
    live: List = [None]
    scrapes = 0
    hits = 0
    scrape_cpu = 0.0
    done = threading.Event()

    def scrape() -> None:
        nonlocal scrapes, hits, scrape_cpu
        deadline = time.perf_counter()
        while True:
            cpu = time.thread_time()
            text = render_openmetrics(live[0].metrics_snapshot())
            scrape_cpu += time.thread_time() - cpu
            scrapes += 1
            hits += WORKER_SERIES in text
            deadline += SCRAPE_INTERVAL
            if done.wait(max(0.0, deadline - time.perf_counter())):
                return

    scraper = threading.Thread(target=scrape)
    watched = 0.0
    started = time.perf_counter()
    try:
        for _ in range(VERIFIES_PER_SAMPLE):
            with S2Verifier(
                snapshot, S2Options(num_workers=4, num_shards=2)
            ) as verifier:
                live[0] = verifier.controller
                if scraped and scraper.ident is None:
                    scraper.start()
                    watched = time.perf_counter()
                result = verifier.verify()
            if result.status != "ok":
                raise AssertionError(f"verify failed: {result.status}")
    finally:
        done.set()
        if scraper.ident is not None:
            watched = time.perf_counter() - watched
            scraper.join()
    return {
        "seconds": time.perf_counter() - started,
        "scrape_cpu_seconds": scrape_cpu,
        "scrapes": scrapes,
        "intervals": int(watched / SCRAPE_INTERVAL),
        "worker_hits": hits,
    }


def run(repeats: int) -> Dict[str, object]:
    snapshot = build_fattree(4)
    _sample(snapshot, scraped=False)  # warm caches for both arms
    off: List[float] = []
    on: List[float] = []
    scraped: List[Dict[str, float]] = []
    # Interleave the arms so drift (thermal, page cache) hits both.
    for _ in range(repeats):
        off.append(_sample(snapshot, scraped=False)["seconds"])
        scraped.append(_sample(snapshot, scraped=True))
        on.append(scraped[-1]["seconds"])
    scrape_cpu = sum(sample["scrape_cpu_seconds"] for sample in scraped)
    off_best = min(off)
    on_best = min(on)
    return {
        "network": "fattree4",
        "repeats": repeats,
        "verifies_per_sample": VERIFIES_PER_SAMPLE,
        "scrape_interval_seconds": SCRAPE_INTERVAL,
        "scrape_cpu_seconds": scrape_cpu,
        "scraped_wall_seconds": sum(on),
        "scraper_cpu_pct": 100.0 * scrape_cpu / sum(on),
        "off_seconds": off_best,
        "on_seconds": on_best,
        "wall_delta_pct": 100.0 * (on_best - off_best) / off_best,
        "scrapes": sum(int(sample["scrapes"]) for sample in scraped),
        "intervals": sum(int(sample["intervals"]) for sample in scraped),
        "scrapes_per_sample": [int(sample["scrapes"]) for sample in scraped],
        "intervals_per_sample": [
            int(sample["intervals"]) for sample in scraped
        ],
        "worker_hits": sum(int(sample["worker_hits"]) for sample in scraped),
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
    samples = zip(result["scrapes_per_sample"], result["intervals_per_sample"])
    for index, (scrapes, intervals) in enumerate(samples):
        if intervals < MIN_INTERVALS:
            problems.append(
                f"sample {index} spans {intervals} scrape intervals, fewer "
                f"than {MIN_INTERVALS}: raise VERIFIES_PER_SAMPLE so the "
                "gate sees a scraper keeping pace with a run"
            )
        if scrapes < intervals:
            problems.append(
                f"sample {index}: the scraper rendered {scrapes} times in "
                f"{intervals} elapsed intervals — it fell behind"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="samples per arm (default 5)")
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
        f"fattree4, {args.repeats} scraped samples of "
        f"{VERIFIES_PER_SAMPLE} verifies: scraper CPU "
        f"{result['scrape_cpu_seconds'] * 1e3:.1f} ms over "
        f"{result['scraped_wall_seconds']:.3f}s "
        f"-> {result['scraper_cpu_pct']:.2f}% "
        f"({result['scrapes']} scrapes in {result['intervals']} intervals, "
        f"{result['worker_hits']} with worker series); "
        f"wall, best of {args.repeats} (not gated): "
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
