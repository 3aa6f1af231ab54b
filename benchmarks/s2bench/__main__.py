"""s2bench runner: one workload, one JSON record.

    python3 benchmarks/s2bench/__main__.py --workload cold-ft8-socket \\
        --seed 1 --seconds 16 --trace 0

prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (every end-to-end metric of
BENCHMARK.json with ``--trace 0``, every per-layer metric with
``--trace 1``) and writes the full record, the generated inputs and — in
a traced run — the spans under ``--out-dir``.  ``--aa`` and ``--spread``
run the whole set repeatedly and judge its steadiness (selfcheck.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.s2bench import layers, oracle  # noqa: E402
from benchmarks.s2bench.harness import Bench  # noqa: E402
from benchmarks.s2bench.hostprobe import HostProbe  # noqa: E402
from benchmarks.s2bench.workloads import WORKLOADS, warm_up  # noqa: E402

def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def filesystem_type(path: str) -> str:
    """Type of the filesystem holding ``path`` (longest mount prefix)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                _dev, mount, fstype = line.split()[:3]
                if path.startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def host_facts(scratch: str) -> dict:
    load = list(os.getloadavg())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": load,
        "noisy_host": load[0] > os.cpu_count(),
        "scratch_fs": filesystem_type(os.path.realpath(scratch)),
    }


def median_ms(values) -> float:
    return statistics.median(values) * 1e3


def run_workload(args, contract) -> dict:
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    os.makedirs(args.out_dir, exist_ok=True)
    suffix = "_trace" if args.trace else ""
    inputs_path = os.path.join(args.out_dir, f"inputs_{workload.name}.json")
    with open(inputs_path, "w", encoding="utf-8") as handle:
        json.dump(
            {"workload": workload.name, "seed": args.seed,
             "smoke": args.smoke, **workload.inputs()},
            handle, indent=1,
        )
    scratch = os.path.join(args.out_dir, f"scratch-{os.getpid()}")
    os.makedirs(scratch)
    host = host_facts(scratch)

    if workload.runtime == "sequential":
        # A single-process workload leaves the second vCPU idle, and a
        # probe that wakes on an idle (descheduled, cache-cold) vCPU
        # reads 1.3x slower than one sharing the busy vCPU (measured),
        # whatever the host does.  Pin both to one vCPU so the probe
        # sees the workload's vCPU and nothing else.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = HostProbe()
    bench = Bench(
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        scratch=scratch,
        helper_pids=(probe.pid,),
        inject_wrong_verdict=args.inject_wrong_verdict,
    )
    try:
        warm_up(bench, workload.runtime, workload.workers)
        measured = time.perf_counter()
        workload.run(bench)
        measured = (measured, time.perf_counter())
        if bench.trace:
            layers.partition_probe(bench, workload.snapshot, workload.workers)
            layers.sharding_probe(bench, workload.snapshot, workload.shards)
            layers.transport_probe(bench)
            layers.storage_probe(bench, workload.store, workload.workers)
        # The reference: after everything timed (and after the RSS reading).
        ref = oracle.reference(
            workload.snapshot, workload.encoding, bench.tracer
        )
        workload.verify(bench, ref)
        holders = sorted(ref.verifier.prefix_holders())
        walked = oracle.ground_truth_audit(
            bench.ledger, bench.tracer, workload.snapshot,
            workload.outputs[-1][2], workload.encoding,
            holders[:: 1 if args.smoke else 4],
        )
        if bench.trace:
            layers.serialize_probe(bench, ref, workload.encoding)
        probe.stop()
    finally:
        probe.kill()
        shutil.rmtree(scratch, ignore_errors=True)
    host["loadavg_end"] = list(os.getloadavg())

    def scaled(sample) -> float:
        return probe.normalise(sample.seconds, sample.start, sample.end)

    def scaled_cpu(sample) -> float:
        return probe.normalise(sample.cpu, sample.start, sample.end)

    ops, setups = bench.samples["op"], bench.samples["setup"]
    end_to_end = {
        "setup_s": statistics.median(scaled(s) for s in setups),
        "op_ms": median_ms(scaled(s) for s in ops),
        "op_cpu_ms": median_ms(scaled_cpu(s) for s in ops),
        "peak_rss_mb": bench.peak_rss_mb,
    }
    slowdown, slowdown_spread, readings = probe.summary(*measured)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "host": host,
        "host_slowdown": slowdown,
        "host_slowdown_p90_p10": slowdown_spread,
        "probe_readings": readings,
        "samples": {kind: len(v) for kind, v in bench.samples.items()},
        "raw": {
            "setup_s": statistics.median(s.seconds for s in setups),
            "op_ms": median_ms(s.seconds for s in ops),
            "op_cpu_ms": median_ms(s.cpu for s in ops),
        },
        # (raw ms, host slowdown while it ran) of the first 64 operations.
        "op_samples": [
            [s.seconds * 1e3, probe.slowdown(s.start, s.end)] for s in ops[:64]
        ],
        "checks": {
            "attempted": bench.ledger.attempted,
            "failed": bench.ledger.failed,
            "ok_ratio": bench.ledger.ok_ratio,
            "failures": bench.ledger.failures,
        },
        "inputs": os.path.basename(inputs_path),
    }

    if bench.trace:
        layer = layer_table(bench, workload, probe, record, contract, scaled)
        layer["groundtruth.packets_walked"] = walked
        record["end_to_end_of_traced_run"] = end_to_end
        metrics = {
            m["name"]: {"value": float(layer.pop(m["name"], 0.0)),
                        "unit": m["unit"]}
            for m in contract["per_layer"]
        }
        if layer:
            raise RuntimeError(
                f"per-layer values not in BENCHMARK.json: {sorted(layer)}"
            )
        bench.tracer.write(
            os.path.join(args.out_dir, f"trace_{workload.name}.json"),
            {"workload": workload.name, "seed": args.seed,
             "counts": bench.layer},
        )
    else:
        metrics = {
            m["name"]: {"value": end_to_end[m["name"]], "unit": m["unit"]}
            for m in contract["end_to_end"]
        }
    record["metrics"] = metrics
    with open(
        os.path.join(args.out_dir, f"record_{workload.name}{suffix}.json"),
        "w", encoding="utf-8",
    ) as handle:
        json.dump(record, handle, indent=1)
    return record


def layer_table(bench, workload, probe, record, contract, scaled) -> dict:
    """The traced run's per-layer values: counts the workload collected,
    the median host-normalised self time of every span that has a
    ``<span>_ms`` metric, and the ratios between them."""
    listed = {m["name"] for m in contract["per_layer"]}
    ops, setups = bench.samples["op"], bench.samples["setup"]
    layer = dict(bench.layer)
    layer.update(layers.config_counts(workload.texts))
    for name, spans in bench.tracer.self_times().items():
        if name + "_ms" in listed:
            layer[name + "_ms"] = median_ms(
                probe.normalise(self_s, start, end)
                for self_s, start, end in spans
            )
    derive(layer, bench, scaled)
    layer.update({
        "op.p90_ms": statistics.quantiles(
            [scaled(s) for s in ops], n=10
        )[8] * 1e3 if len(ops) >= 20 else 0.0,
        "op.samples": len(ops),
        "setup.samples": len(setups),
        "raw.op_ms": record["raw"]["op_ms"],
        "raw.setup_s": record["raw"]["setup_s"],
        "host.slowdown": record["host_slowdown"],
        "host.slowdown_p90_p10": record["host_slowdown_p90_p10"],
    })
    # Do the named self times of one traced operation add up to it?
    first = next((s for s in bench.tracer.spans if s.name == "op"), None)
    if first is not None:
        parts = {
            name: sum(self_s for self_s, _start, _end in spans)
            for name, spans in bench.tracer.self_times(first.op).items()
        }
        record["first_op_self_times_s"] = parts
        record["first_op_coverage"] = sum(
            v for k, v in parts.items() if k != "op"
        ) / (first.end - first.start)
    return layer


def derive(layer: dict, bench: Bench, scaled) -> None:
    """Ratios between per-layer numbers (each given with its base in
    README.md)."""
    def ratio(top: str, bottom: str) -> float:
        return layer[top] / layer[bottom] if layer.get(bottom) else 0.0

    if "cpo.run_ms" in layer:
        layer["cpo.framework_ratio"] = ratio(
            "cpo.run_ms", "routing.mono_simulate_ms"
        )
    if "dpo.allpair_ms" in layer and layer.get("dpo.sources"):
        layer["dpo.per_source_ms"] = (
            layer["dpo.allpair_ms"] / layer["dpo.sources"]
        )
        if "dpo.single_pair_ms" in layer:
            layer["dpo.query_overhead_ratio"] = ratio(
                "dpo.single_pair_ms", "dpo.per_source_ms"
            )
    if "deltas.announce_ms" in layer:
        layer["session.commit_residual_ms"] = (
            layer["deltas.announce_ms"]
            - layer.get("deltas.apply_ms", 0.0)
            - layer.get("deltas.classify_ms", 0.0)
        )
    ops = bench.samples["op"]
    traced = [scaled(s) for s in ops if s.traced]
    plain = [scaled(s) for s in ops if not s.traced]
    if traced and plain:
        layer["bench.trace_overhead_ratio"] = (
            statistics.median(traced) / statistics.median(plain)
        )
    if "obs.op" in bench.samples:
        layer["obs.tracer_overhead_ratio"] = scaled(
            bench.samples["obs.op"][0]
        ) / statistics.median(scaled(s) for s in ops)


def main(argv=None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(prog="s2bench", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=contract["run_seconds"],
        help="how long the operation loop measures",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: traced run, prints the per-layer metrics",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="FatTree k=4 / minimal repetitions (schema test)",
    )
    parser.add_argument(
        "--inject-wrong-verdict", action="store_true",
        help="plant one wrong verdict; the run must report it as failed",
    )
    parser.add_argument("--out-dir", default=os.path.join(HERE, "out"))
    parser.add_argument(
        "--aa", action="store_true",
        help="run every workload twice, alternating; exit 1 if any "
        "end-to-end metric differs by more than its bound",
    )
    parser.add_argument(
        "--spread", type=int, metavar="N", default=0,
        help="run every workload with seeds 1..N; print each metric's "
        "interquartile spread against its bound",
    )
    args = parser.parse_args(argv)
    if args.aa or args.spread:
        from benchmarks.s2bench import selfcheck

        return selfcheck.main(args, contract)
    if not args.workload:
        parser.error("--workload is required")
    if args.smoke and args.seconds == contract["run_seconds"]:
        args.seconds = 1.0
    record = run_workload(args, contract)
    checks = record["checks"]
    for failure in checks["failures"]:
        print("FAILED CHECK:", failure, file=sys.stderr)
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    # Set iteration order of str keys follows the hash seed; pin it so
    # the same seed does the same work in the same order on every run
    # (counts repeat exactly, and timing loses one source of variation).
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
