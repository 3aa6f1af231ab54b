"""Memory/throughput smoke benchmark for the BDD engine.

Two measurements:

1. **Prefix-set compilation speedup** — the trie-based bulk
   :meth:`HeaderEncoding.prefix_set_bdd` against the old chained
   ``or_`` fold over per-prefix BDDs, on a deterministic synthetic
   prefix set.  The floor is 2x.

2. **Worker node counts across a sharded FatTree4 DPV** — the
   all-pair reachability workload split into query shards
   (:func:`repro.dist.sharding.shard_queries`), repeated for
   ``PASSES`` passes whose header spaces differ (pass 0 is the full
   header space, later passes seeded random destination-prefix sets),
   so each pass grows the worker engines with new nodes.  A worker
   collects its engine at a ``reset_dataplane_run`` boundary only once
   the node table exceeds ``_GC_GROWTH`` times the live count the
   previous collection left.  The gate checks that rule end to end:
   the live count after every collection is the predicate footprint,
   a boundary collects exactly when the count it carries exceeds
   ``_GC_GROWTH`` times that footprint (so no worker carries more into
   a query), and the trigger fires at least once past the first
   boundary.  The busiest worker's node count right after the build —
   what the predicate compile leaves, garbage included, before the
   first collection — is gated against the baseline too.

Usage:

    python benchmarks/bench_bdd_engine.py --write-baseline \
        benchmarks/baselines/bdd_engine_fattree4.json
    python benchmarks/bench_bdd_engine.py --check-baseline \
        benchmarks/baselines/bdd_engine_fattree4.json

``--check-baseline`` exits non-zero when that rule is broken, when the
build, live or peak node count regresses more than ``--tolerance``
(default 20%) over the committed baseline, or when the prefix-set
compile speedup drops below its 2x floor — this is the CI
memory-regression job.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bdd.engine import FALSE, TRUE
from repro.bdd.headerspace import HeaderEncoding
from repro.dist.controller import S2Controller, S2Options
from repro.dist.sharding import shard_queries
from repro.dist.worker import _GC_GROWTH
from repro.net.fattree import build_fattree
from repro.net.ip import Prefix

SPEEDUP_FLOOR = 2.0
# DPV passes over the query shards; the committed baseline is for 4
# passes of the default 8 shards, enough for the growth trigger to fire
# past the first boundary.
PASSES = 4


def synthetic_prefixes(count: int, seed: int = 7) -> List[Prefix]:
    """A deterministic mixed-length prefix set (no duplicates)."""
    rng = random.Random(seed)
    seen = set()
    prefixes: List[Prefix] = []
    while len(prefixes) < count:
        length = rng.randint(8, 28)
        network = rng.getrandbits(32) & (~0 << (32 - length)) & 0xFFFFFFFF
        key = (network, length)
        if key in seen:
            continue
        seen.add(key)
        prefixes.append(Prefix(network, length))
    return prefixes


def bench_prefix_compilation(count: int, repeats: int = 3) -> Dict[str, float]:
    """Trie-based bulk compile vs the old chained-``or_`` fold."""
    encoding = HeaderEncoding()
    prefixes = synthetic_prefixes(count)

    def chained() -> float:
        engine = encoding.make_engine()
        start = time.perf_counter()
        acc = FALSE
        for prefix in prefixes:
            acc = engine.or_(acc, encoding.prefix_bdd(engine, prefix))
        return time.perf_counter() - start

    def bulk() -> float:
        engine = encoding.make_engine()
        start = time.perf_counter()
        encoding.prefix_set_bdd(engine, prefixes)
        return time.perf_counter() - start

    # Correctness cross-check on a shared engine before timing.
    engine = encoding.make_engine()
    acc = FALSE
    for prefix in prefixes:
        acc = engine.or_(acc, encoding.prefix_bdd(engine, prefix))
    if encoding.prefix_set_bdd(engine, prefixes) != acc:
        raise AssertionError("bulk compile disagrees with chained or_ fold")

    chained_s = min(chained() for _ in range(repeats))
    bulk_s = min(bulk() for _ in range(repeats))
    return {
        "prefix_count": count,
        "chained_seconds": chained_s,
        "bulk_seconds": bulk_s,
        "speedup": chained_s / bulk_s if bulk_s else float("inf"),
    }


def query_header(controller: S2Controller, seed: int) -> int:
    """A seeded random set of destination /20s: a header space whose
    packets build nodes no other query's do."""
    rng = random.Random(seed)
    prefixes = [
        Prefix(rng.getrandbits(32) & 0xFFFFF000, 20) for _ in range(8)
    ]
    return controller.options.encoding.prefix_set_bdd(
        controller.dpo.engine, prefixes
    )


def growth_rule_problems(
    samples: List[List[Tuple[int, int, int]]]
) -> Tuple[List[str], List[int], int]:
    """Check the collect-on-growth rule on per-query worker samples.

    ``samples[q][w]`` is worker ``w``'s ``(node_count, gc_floor,
    gc_runs)`` after query ``q`` (a worker collects only at query
    boundaries).  Returns the problems, each worker's live footprint
    (what its first collection left) and the number of collections past
    the first boundary.
    """
    problems: List[str] = []
    footprints = [floor for _count, floor, _runs in samples[0]]
    later = 0
    for worker, (_count, _floor, collections) in enumerate(samples[0]):
        if collections != 1:
            problems.append(
                f"worker{worker}: the first boundary after the build did "
                "not collect"
            )
    for query in range(1, len(samples)):
        for worker, footprint in enumerate(footprints):
            carried, floor, before = samples[query - 1][worker]
            _count, new_floor, after = samples[query][worker]
            collected = after - before
            limit = _GC_GROWTH * floor
            where = f"worker{worker} query {query}"
            if collected not in (0, 1):
                problems.append(f"{where}: {collected} boundary collections")
            elif collected and carried <= limit:
                problems.append(
                    f"{where}: collected carrying {carried} nodes, within "
                    f"{_GC_GROWTH}x its live {floor}"
                )
            elif not collected and carried > limit:
                problems.append(
                    f"{where}: carried {carried} nodes into the query, "
                    f"over {_GC_GROWTH}x its live {floor}"
                )
            if collected and new_floor != footprint:
                problems.append(
                    f"{where}: collection left {new_floor} live nodes, not "
                    f"the predicate footprint {footprint}"
                )
            later += max(collected, 0)
    return problems, footprints, later


def bench_sharded_dpv(num_query_shards: int) -> Dict[str, object]:
    """All-pair reachability on FatTree4, one forward per query shard
    and pass; samples every worker's engine after each query."""
    snapshot = build_fattree(4)
    options = S2Options(num_workers=4, num_shards=2)
    with S2Controller(snapshot, options) as controller:
        controller.build_data_plane()
        built = max(
            int(counters["node_count"])
            for counters in controller.dpo.worker_engine_counters()
        )
        sources = controller.prefix_holders()
        shards = shard_queries(sources, num_query_shards)
        samples: List[List[Tuple[int, int, int]]] = []
        start = time.perf_counter()
        for query in range(PASSES * len(shards)):
            # Pass 0 asks about every packet; each later query about
            # its own header space.
            header = TRUE
            if query >= len(shards):
                header = query_header(controller, query)
            controller.dpo.forward(list(shards[query % len(shards)]), header)
            samples.append([
                (
                    int(counters["node_count"]),
                    int(counters["gc_floor"]),
                    int(counters["gc_runs"]),
                )
                for counters in controller.dpo.worker_engine_counters()
            ])
        elapsed = time.perf_counter() - start
        gc_runs = sum(
            int(counters.get("gc_runs", 0))
            for counters in controller.dpo.worker_engine_counters()
        )
    problems, footprints, later = growth_rule_problems(samples)
    per_query_peaks = [max(sample[0] for sample in s) for s in samples]
    return {
        "network": "fattree4",
        "query_shards": len(samples),
        "build_node_count": built,
        "per_shard_peak_node_count": per_query_peaks,
        "peak_node_count": max(per_query_peaks),
        "live_node_count": max(footprints),
        "gc_runs": gc_runs,
        "collections_past_first": later,
        "growth_rule_problems": problems,
        "forward_seconds": elapsed,
    }


def run(num_query_shards: int, prefix_count: int) -> Dict[str, object]:
    return {
        "prefix_compile": bench_prefix_compilation(prefix_count),
        "dpv": bench_sharded_dpv(num_query_shards),
    }


def check(result: Dict[str, object], baseline: Dict[str, object],
          tolerance: float) -> List[str]:
    problems: List[str] = []
    speedup = result["prefix_compile"]["speedup"]
    if speedup < SPEEDUP_FLOOR:
        problems.append(
            f"prefix-set compile speedup {speedup:.2f}x is below the "
            f"{SPEEDUP_FLOOR:.1f}x floor"
        )
    dpv = result["dpv"]
    base = baseline["dpv"]
    for key, what in (
        ("build_node_count", "worker node_count after the build"),
        ("live_node_count", "live worker node_count after a collection"),
        ("peak_node_count", "peak worker node_count"),
    ):
        allowed = base[key] * (1.0 + tolerance)
        if dpv[key] > allowed:
            problems.append(
                f"{what} {dpv[key]} exceeds baseline {base[key]} by more "
                f"than {tolerance:.0%} (allowed {allowed:.0f})"
            )
    problems.extend(dpv["growth_rule_problems"])
    if dpv["collections_past_first"] == 0:
        problems.append(
            f"the growth trigger never fired past the first boundary in "
            f"{dpv['query_shards']} queries"
        )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, default=8,
                        help="query shards for the DPV run (default 8)")
    parser.add_argument("--prefixes", type=int, default=512,
                        help="synthetic prefix-set size (default 512)")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed peak node_count regression (0.20=20%%)")
    parser.add_argument("--write-baseline", metavar="PATH",
                        help="write the measured baseline JSON and exit")
    parser.add_argument("--check-baseline", metavar="PATH",
                        help="compare against a committed baseline; exit 1 "
                             "on regression")
    args = parser.parse_args(argv)

    result = run(args.shards, args.prefixes)
    compile_result = result["prefix_compile"]
    print(f"prefix-set compile ({compile_result['prefix_count']} prefixes): "
          f"chained {compile_result['chained_seconds'] * 1e3:.1f} ms, "
          f"bulk {compile_result['bulk_seconds'] * 1e3:.1f} ms "
          f"-> {compile_result['speedup']:.1f}x")
    dpv = result["dpv"]
    print(f"fattree4 DPV over {dpv['query_shards']} query "
          f"shards: built {dpv['build_node_count']}, "
          f"live node_count {dpv['live_node_count']}, "
          f"peak {dpv['peak_node_count']}, "
          f"per-shard {dpv['per_shard_peak_node_count']}, "
          f"gc_runs {dpv['gc_runs']} "
          f"({dpv['collections_past_first']} past the first boundary), "
          f"{dpv['forward_seconds']:.2f} s")

    if args.write_baseline:
        path = Path(args.write_baseline)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(result, indent=2) + "\n")
        print(f"baseline written to {path}")
        return 0

    if args.check_baseline:
        baseline = json.loads(Path(args.check_baseline).read_text())
        problems = check(result, baseline, args.tolerance)
        for problem in problems:
            print(f"REGRESSION: {problem}", file=sys.stderr)
        if problems:
            return 1
        print("memory regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
