"""Telemetry-plane overhead benchmark: streaming on vs off.

The live telemetry plane (worker-side frame sources + the controller
collector) rides on phase boundaries and existing RPC replies, so it
must be close to free.  This benchmark times a full FatTree4 verify
with telemetry disabled and with it enabled at the default interval,
best-of-N each, and reports the relative overhead.  The acceptance bar
is **< 3%**.

The relative overhead is machine-independent (both arms run on the same
box in the same process), so it is the only gated quantity; the
absolute timings in the committed baseline are reference points, not
thresholds.

Usage:

    python benchmarks/bench_telemetry.py --write-baseline \
        benchmarks/baselines/telemetry_fattree4.json
    python benchmarks/bench_telemetry.py --check-baseline \
        benchmarks/baselines/telemetry_fattree4.json

``--check-baseline`` exits non-zero when the measured overhead exceeds
``--threshold`` (default 3%) or when the telemetry arm produced no
frames at all (the plane silently off would make the gate vacuous).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.s2 import S2Verifier
from repro.dist.controller import S2Options
from repro.net.fattree import build_fattree

OVERHEAD_THRESHOLD_PCT = 3.0


def _options(telemetry: bool) -> S2Options:
    return S2Options(
        num_workers=4,
        num_shards=2,
        # In-process runtimes emit at phase boundaries; a short interval
        # makes the enabled arm a worst case rather than a no-op.  An
        # interval of 0 turns the plane off.
        telemetry_interval=0.05 if telemetry else 0.0,
    )


def _one_verify(snapshot, telemetry: bool) -> Dict[str, float]:
    started = time.perf_counter()
    with S2Verifier(snapshot, _options(telemetry)) as verifier:
        result = verifier.verify()
        frames = verifier.controller.telemetry.frames_total
    elapsed = time.perf_counter() - started
    if result.status != "ok":
        raise AssertionError(f"verify failed: {result.status}")
    return {"seconds": elapsed, "frames": frames}


def run(repeats: int) -> Dict[str, object]:
    snapshot = build_fattree(4)
    _one_verify(snapshot, telemetry=False)  # warm caches for both arms
    off: List[float] = []
    on: List[float] = []
    frames = 0
    # Interleave the arms so drift (thermal, page cache) hits both.
    for _ in range(repeats):
        off.append(_one_verify(snapshot, telemetry=False)["seconds"])
        sample = _one_verify(snapshot, telemetry=True)
        on.append(sample["seconds"])
        frames = max(frames, int(sample["frames"]))
    off_best = min(off)
    on_best = min(on)
    overhead_pct = 100.0 * (on_best - off_best) / off_best
    return {
        "network": "fattree4",
        "repeats": repeats,
        "off_seconds": off_best,
        "on_seconds": on_best,
        "overhead_pct": overhead_pct,
        "frames": frames,
    }


def check(result: Dict[str, object], threshold: float) -> List[str]:
    problems: List[str] = []
    if result["overhead_pct"] > threshold:
        problems.append(
            f"telemetry overhead {result['overhead_pct']:.2f}% exceeds "
            f"the {threshold:.1f}% bar "
            f"(off {result['off_seconds']:.3f}s, "
            f"on {result['on_seconds']:.3f}s)"
        )
    if result["frames"] < 1:
        problems.append(
            "the telemetry arm streamed no frames — the plane was "
            "effectively off, so the overhead measurement is vacuous"
        )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="verify runs per arm, best-of (default 5)")
    parser.add_argument("--threshold", type=float,
                        default=OVERHEAD_THRESHOLD_PCT,
                        help="allowed overhead percent (default 3.0)")
    parser.add_argument("--write-baseline", metavar="PATH",
                        help="write the measured baseline JSON and exit")
    parser.add_argument("--check-baseline", metavar="PATH",
                        help="run the gate (and report drift against the "
                             "committed baseline); exit 1 on failure")
    args = parser.parse_args(argv)

    result = run(args.repeats)
    print(
        f"fattree4 verify (best of {args.repeats}): "
        f"telemetry off {result['off_seconds']:.3f}s, "
        f"on {result['on_seconds']:.3f}s "
        f"-> {result['overhead_pct']:+.2f}% "
        f"({result['frames']} frames streamed)"
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
        drift = result["overhead_pct"] - baseline["overhead_pct"]
        print(
            f"baseline overhead {baseline['overhead_pct']:+.2f}% "
            f"(drift {drift:+.2f} points)"
        )
        problems = check(result, args.threshold)
        for problem in problems:
            print(f"REGRESSION: {problem}", file=sys.stderr)
        return 1 if problems else 0

    return 1 if check(result, args.threshold) else 0


if __name__ == "__main__":
    sys.exit(main())
