"""Command-line interface: ``python -m repro <command> ...``.

Commands:

``verify``     run S2 on a snapshot directory (or a synthesized topology)
               and report reachability plus resource usage; ``--trace-out``
               / ``--metrics-out`` record a Perfetto timeline and metrics;
``report``     per-phase time breakdown from a recorded trace;
``partition``  show how a snapshot would be split across workers;
``shards``     show the prefix shards (DPDG components and packing);
``synthesize`` write a FatTree or DCN snapshot to a directory;
``trace``      print the forwarding paths of one source→destination pair;
``fuzz``       differentially fuzz the engines with random networks;
``worker``     run a standalone TCP worker listener for ``--runtime
               socket`` with ``--worker-hosts`` (multi-host deployments);
``serve``      run a resident verifier session: converged state stays
               live in the worker fleet, config/link deltas recompute
               incrementally (epoch-fenced), queries answer from the
               last committed epoch over a line-JSON TCP API;
``top``        live console over a serving session: per-worker status
               (lost workers included), epoch/queue state, and the event
               journal tail.

``verify``, ``worker``, and ``serve`` accept ``--metrics-listen
HOST:PORT`` to expose an OpenMetrics (Prometheus-scrapeable) HTTP
endpoint while they run.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .config.loader import Snapshot, load_snapshot_dir, write_snapshot_dir
from .core.s2 import S2Verifier
from .dataplane.queries import Query
from .dist.controller import RUNTIMES, S2Options
from .dist.partition import SCHEMES, estimate_loads, partition
from .dist.resources import DEFAULT_WORKER_CAPACITY, UNLIMITED_CAPACITY
from .dist.sharding import build_dpdg, make_shards
from .harness.reporting import format_table
from .net.ip import Prefix


def _load(args) -> Snapshot:
    if args.snapshot == "fattree":
        from .net.fattree import build_fattree

        return build_fattree(args.k)
    if args.snapshot == "dcn":
        from .net.dcn import build_dcn

        return build_dcn(scale=args.scale)
    if args.snapshot == "folded-clos":
        from .net.folded_clos import build_folded_clos

        return build_folded_clos(
            dcs=args.dcs,
            pods=args.pods,
            leaves=args.leaves,
            spines=args.spines,
            fanout=args.fanout,
        )
    return load_snapshot_dir(args.snapshot)


def _add_snapshot_args(parser) -> None:
    parser.add_argument(
        "snapshot",
        help="snapshot directory, or 'fattree' / 'dcn' / 'folded-clos' "
        "to synthesize",
    )
    parser.add_argument("--k", type=int, default=4, help="FatTree pods")
    parser.add_argument("--scale", type=int, default=1, help="DCN scale")
    parser.add_argument("--dcs", type=int, default=2,
                        help="folded-Clos datacenters")
    parser.add_argument("--pods", type=int, default=2,
                        help="folded-Clos pods per DC")
    parser.add_argument("--leaves", type=int, default=2,
                        help="folded-Clos leaves per pod")
    parser.add_argument("--spines", type=int, default=2,
                        help="folded-Clos spines per pod")
    parser.add_argument("--fanout", type=int, default=1,
                        help="folded-Clos super-spines per plane")


def cmd_verify(args) -> int:
    snapshot = _load(args)
    fault_plan = None
    if args.inject_fault:
        from .dist.faults import FaultPlan

        try:
            fault_plan = FaultPlan.from_args(
                args.inject_fault, seed=args.fault_seed
            )
        except ValueError as exc:
            print(f"bad --inject-fault spec: {exc}", file=sys.stderr)
            return 2
    from .dist.faults import RetryPolicy

    policy_overrides = {}
    if args.rpc_timeout is not None:
        policy_overrides["call_timeout"] = args.rpc_timeout
    if args.rpc_retries is not None:
        policy_overrides["max_call_retries"] = args.rpc_retries
    worker_hosts = None
    if args.worker_hosts:
        worker_hosts = [
            spec for spec in args.worker_hosts.split(",") if spec.strip()
        ]
        if args.runtime != "socket":
            print(
                "--worker-hosts requires --runtime socket", file=sys.stderr
            )
            return 2
    options = S2Options(
        num_workers=args.workers,
        num_shards=args.shards,
        partition_scheme=args.scheme,
        worker_capacity=(
            UNLIMITED_CAPACITY
            if args.no_memory_limit
            else DEFAULT_WORKER_CAPACITY
        ),
        runtime=args.runtime,
        worker_hosts=worker_hosts,
        store_dir=args.store_dir,
        fault_plan=fault_plan,
        retry_policy=RetryPolicy(**policy_overrides),
        trace_out=args.trace_out,
        metrics_out=args.metrics_out,
    )
    if args.resume:
        if not args.store_dir:
            print("--resume requires --store-dir", file=sys.stderr)
            return 2
        try:
            verifier = S2Verifier.resume(snapshot, options)
        except ValueError as exc:
            print(f"cannot resume: {exc}", file=sys.stderr)
            return 2
    else:
        verifier = S2Verifier(snapshot, options)
    metrics_server = None
    if args.metrics_listen:
        from .dist.transport import parse_hostport
        from .obs.openmetrics import MetricsHTTPServer

        try:
            mhost, mport = parse_hostport(args.metrics_listen)
        except ValueError as exc:
            print(f"bad --metrics-listen spec: {exc}", file=sys.stderr)
            return 2
        metrics_server = MetricsHTTPServer(
            verifier.controller.metrics_snapshot,
            host=mhost,
            port=mport,
        )
        print(
            f"metrics on http://{metrics_server.address}/metrics",
            flush=True,
        )
    with verifier:
        query = None
        if args.src and args.dst:
            prefix = Prefix.parse(args.prefix) if args.prefix else None
            query = Query.single_pair(args.src, args.dst, prefix)
        result = verifier.verify(query=query, check_loops=args.check_loops)
        print(result.summary())
        if result.cp_stats is not None and (
            result.cp_stats.worker_failures
            or result.cp_stats.shards_skipped
            or fault_plan is not None
        ):
            cp = result.cp_stats
            print(
                f"fault tolerance: {cp.worker_failures} worker failures, "
                f"{cp.shard_replays} batch replays, "
                f"{cp.shards_skipped} shards skipped on resume, "
                f"{cp.forced_rounds} rounds forced by dropped batches"
            )
        if result.loop_violations:
            print(f"loops found: {len(result.loop_violations)}")
            for violation in result.loop_violations[:5]:
                print(f"  at {violation.node}: {violation.example}")
        if args.verbose and result.report is not None:
            rows = [
                [
                    w.name,
                    w.node_count,
                    f"{w.peak_bytes / (1 << 20):.2f}MB",
                    f"{w.rpc_bytes_sent / 1e3:.0f}KB",
                ]
                for w in result.report.workers
            ]
            print()
            print(
                format_table(
                    ["worker", "nodes", "peak-mem", "rpc"],
                    rows,
                )
            )
        exit_code = 0 if result.ok else 1
        if args.ground_truth and result.ok:
            from .dataplane.verifier import verifier_from_ribs
            from .groundtruth import audit_verifier

            dpv = verifier_from_ribs(snapshot, verifier.collected_ribs())
            gt = audit_verifier(dpv, seed=args.fault_seed)
            print(gt.summary())
            for mismatch in gt.mismatches[:10]:
                print(f"  {mismatch.describe()}")
            if args.ground_truth_report:
                import json

                with open(args.ground_truth_report, "w") as handle:
                    json.dump(gt.to_dict(), handle, indent=2)
                print(f"ground-truth report written to "
                      f"{args.ground_truth_report}")
            if not gt.ok:
                exit_code = 1
    if metrics_server is not None:
        metrics_server.close()
    # Trace shards are merged (and the metrics file written) by
    # controller.close(), i.e. when the `with` block above exits.
    if args.trace_out:
        print(f"trace written to {args.trace_out} "
              f"(load in https://ui.perfetto.dev or chrome://tracing)")
    if args.metrics_out:
        print(f"metrics written to {args.metrics_out}")
    return exit_code


def cmd_partition(args) -> int:
    snapshot = _load(args)
    loads = estimate_loads(snapshot)
    result = partition(
        snapshot, args.workers, scheme=args.scheme
    )
    rows = []
    for worker_id, members in enumerate(result.segments()):
        load = sum(loads.get(n, 1) for n in members)
        preview = ", ".join(members[:6]) + (" ..." if len(members) > 6 else "")
        rows.append([worker_id, len(members), load, preview])
    print(
        format_table(
            ["worker", "nodes", "est-load", "members"],
            rows,
            title=f"{args.scheme} partition of {snapshot.name} "
            f"(edge cut {result.edge_cut(snapshot.topology)}, "
            f"imbalance {result.imbalance(loads):.2f})",
        )
    )
    return 0


def cmd_shards(args) -> int:
    snapshot = _load(args)
    dpdg = build_dpdg(snapshot)
    components = dpdg.weakly_connected_components()
    print(
        f"{len(dpdg.prefixes)} prefixes, {len(dpdg.edges)} dependencies, "
        f"{len(components)} independent components "
        f"(largest: {len(components[0]) if components else 0})"
    )
    shards = make_shards(snapshot, args.shards)
    rows = []
    for shard in shards:
        sample = ", ".join(str(p) for p in sorted(shard.prefixes)[:4])
        if len(shard) > 4:
            sample += " ..."
        rows.append([shard.index, len(shard), sample])
    print(format_table(["shard", "prefixes", "sample"], rows))
    return 0


def cmd_synthesize(args) -> int:
    if args.kind == "fattree":
        from .net.fattree import FatTreeSpec, render_configs

        texts = render_configs(
            FatTreeSpec(k=args.k, juniper_fraction=args.juniper_fraction)
        )
    else:
        from .net.dcn import default_spec, render_configs

        texts = render_configs(default_spec(args.scale))
    write_snapshot_dir(args.out, texts)
    print(f"wrote {len(texts)} device configs to {args.out}/configs/")
    return 0


def cmd_trace(args) -> int:
    snapshot = _load(args)
    options = S2Options(
        num_workers=args.workers, partition_scheme=args.scheme
    )
    from .dataplane.forwarding import FinalState
    from .dist.controller import S2Controller

    with S2Controller(snapshot, options) as controller:
        controller.run_control_plane()
        controller.build_data_plane()
        dpo = controller.dpo
        header = (
            options.encoding.prefix_bdd(dpo.engine, Prefix.parse(args.prefix))
            if args.prefix
            else 1
        )
        finals = dpo.forward([args.src], header, trace=True)
        shown = 0
        for final in sorted(finals, key=lambda f: (f.state.value, f.path or ())):
            if args.dst and final.node != args.dst:
                continue
            path = " -> ".join(final.path or (final.node,))
            print(f"[{final.state.value:9s}] {path}")
            shown += 1
        if not shown:
            print("no matching forwarding paths")
            return 1
    return 0


def cmd_report(args) -> int:
    from .obs.report import render_report

    if args.trace is None and not args.journal:
        print("report needs a trace file and/or --journal", file=sys.stderr)
        return 2
    if args.trace is not None:
        try:
            print(
                render_report(
                    args.trace,
                    by_process=args.by_process,
                    top=args.top,
                    category=args.category,
                )
            )
        except (OSError, ValueError) as exc:
            print(f"cannot read trace {args.trace}: {exc}", file=sys.stderr)
            return 2
    if args.journal:
        from .obs.journal import read_journal
        from .obs.report import render_journal

        try:
            events = read_journal(args.journal)
        except OSError as exc:
            print(
                f"cannot read journal {args.journal}: {exc}", file=sys.stderr
            )
            return 2
        if args.trace is not None:
            print()
        print(render_journal(events, top=args.top))
    return 0


def cmd_fuzz(args) -> int:
    import time

    from .fuzz.corpus import CorpusCase, save_case
    from .fuzz.generators import GeneratorProfile, generate_spec
    from .fuzz.oracle import CheckPlan, DifferentialOracle
    from .fuzz.shrink import shrink_spec

    def _every(value, default):
        return default if value is None else value

    if args.smoke:
        # The pinned CI configuration: small networks, every runtime and
        # fault injection sampled, finishes well inside a minute.
        iterations = args.iterations if args.iterations is not None else 60
        profile = GeneratorProfile.smoke()
        faults_every = _every(args.faults_every, 10)
        host_loss_every = _every(args.host_loss_every, 12)
        dataplane_every = _every(args.dataplane_every, 15)
        socket_every = _every(args.socket_every, 30)
        groundtruth_every = _every(args.groundtruth_every, 5)
    else:
        iterations = args.iterations if args.iterations is not None else 100
        profile = {
            "default": GeneratorProfile(),
            "smoke": GeneratorProfile.smoke(),
            "plain": GeneratorProfile.plain(),
        }[args.profile]
        faults_every = _every(args.faults_every, 0)
        host_loss_every = _every(args.host_loss_every, 0)
        dataplane_every = _every(args.dataplane_every, 0)
        socket_every = _every(args.socket_every, 0)
        groundtruth_every = _every(args.groundtruth_every, 0)

    started = time.perf_counter()
    failures = 0
    total_nodes = 0
    total_features = 0
    for i in range(iterations):
        seed = args.seed + i
        spec = generate_spec(seed, profile)
        total_nodes += spec.size
        total_features += spec.feature_count()
        plan = CheckPlan(
            include_faults=bool(faults_every) and i % faults_every == 0,
            include_host_loss=bool(host_loss_every)
            and i % host_loss_every == 0,
            include_socket=bool(socket_every) and i % socket_every == 0,
            check_dataplane=bool(dataplane_every)
            and i % dataplane_every == 0,
            include_groundtruth=bool(groundtruth_every)
            and i % groundtruth_every == 0,
            fault_seed=seed,
        )
        report = DifferentialOracle(plan).check(spec)
        if report.ok:
            if args.verbose:
                print(f"seed {seed}: ok ({spec.size} nodes, "
                      f"{spec.feature_count()} features)")
            continue
        failures += 1
        print(f"seed {seed}: DIVERGENCE")
        print(report.describe())
        if report.baseline_error is not None:
            continue  # nothing to minimize against a broken baseline
        final_spec = spec
        if args.shrink:
            oracle = DifferentialOracle(CheckPlan())

            def still_diverges(candidate) -> bool:
                inner = oracle.check(candidate)
                return inner.baseline_error is None and not inner.ok

            if still_diverges(spec):
                shrunk = shrink_spec(spec, still_diverges)
                final_spec = shrunk.spec
                print(
                    f"  shrunk {spec.size} nodes/"
                    f"{spec.feature_count()} features -> "
                    f"{final_spec.size} nodes/"
                    f"{final_spec.feature_count()} features "
                    f"({shrunk.evaluations} evaluations)"
                )
        if args.corpus_dir:
            case = CorpusCase(
                name=f"fuzz-divergence-seed{seed}",
                description=(
                    "Auto-saved by `repro fuzz`: "
                    + report.divergences[0].describe()
                ),
                spec=final_spec,
                expect="divergent",
            )
            path = save_case(case, args.corpus_dir)
            print(f"  saved to {path}")
        if args.fail_fast:
            break
    elapsed = time.perf_counter() - started
    ran = i + 1 if iterations else 0
    print(
        f"{ran - failures}/{ran} equivalent in {elapsed:.1f}s "
        f"(avg {total_nodes / max(1, ran):.1f} nodes, "
        f"{total_features / max(1, ran):.1f} features per network)"
    )
    return 1 if failures else 0


def cmd_worker(args) -> int:
    from .dist.socket_runtime import serve_worker

    try:
        serve_worker(args.listen, metrics_listen=args.metrics_listen)
    except ValueError as exc:
        print(f"bad --listen spec: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        pass
    print("worker: drained and shut down cleanly", flush=True)
    return 0


def cmd_serve(args) -> int:
    import signal

    from .dist.transport import parse_hostport
    from .serve.api import SessionServer
    from .serve.session import VerifierSession

    snapshot = _load(args)
    fault_plan = None
    if args.inject_fault:
        from .dist.faults import FaultPlan

        try:
            fault_plan = FaultPlan.from_args(
                args.inject_fault, seed=args.fault_seed
            )
        except ValueError as exc:
            print(f"bad --inject-fault spec: {exc}", file=sys.stderr)
            return 2
    try:
        host, port = parse_hostport(args.listen)
    except ValueError as exc:
        print(f"bad --listen spec: {exc}", file=sys.stderr)
        return 2
    options = S2Options(
        num_workers=args.workers,
        num_shards=args.shards,
        partition_scheme=args.scheme,
        runtime=args.runtime,
        store_dir=args.store_dir,
        fault_plan=fault_plan,
    )
    session = VerifierSession(
        snapshot,
        options,
        queue_limit=args.queue_limit,
        ground_truth_every=args.ground_truth_check,
    )
    server = SessionServer(session, host=host, port=port)
    metrics_server = None
    if args.metrics_listen:
        from .obs.openmetrics import MetricsHTTPServer

        try:
            mhost, mport = parse_hostport(args.metrics_listen)
        except ValueError as exc:
            print(f"bad --metrics-listen spec: {exc}", file=sys.stderr)
            session.close()
            return 2
        metrics_server = MetricsHTTPServer(
            session.metrics_snapshot,
            host=mhost,
            port=mport,
            journal=session.journal,
            status_fn=session.statusz,
        )
        print(
            f"metrics on http://{metrics_server.address}/metrics",
            flush=True,
        )

    def _shutdown(_signum, _frame) -> None:
        server.stop()

    try:
        signal.signal(signal.SIGTERM, _shutdown)
        signal.signal(signal.SIGINT, _shutdown)
    except ValueError:
        pass  # not the main thread (tests drive serve_forever directly)
    health = session.health()
    boot = "warm boot" if health["warm_boot"] else "cold start"
    print(
        f"serving {snapshot.name} on {server.host}:{server.port} "
        f"(epoch {health['epoch']}, {health['endpoints']} endpoints, "
        f"{boot})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if metrics_server is not None:
            metrics_server.close()
        session.close()
    print("serve: drained and shut down cleanly", flush=True)
    return 0


def cmd_top(args) -> int:
    from .dist.transport import parse_hostport
    from .obs.top import run_top

    try:
        host, port = parse_hostport(args.address)
    except ValueError as exc:
        print(f"bad address: {exc}", file=sys.stderr)
        return 2
    ansi = False if args.no_ansi else None
    iterations = 1 if args.once else args.iterations
    return run_top(
        host,
        port,
        interval=args.interval,
        iterations=iterations,
        events_limit=args.events,
        ansi=ansi,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="S2: distributed network configuration verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="verify a snapshot with S2")
    _add_snapshot_args(verify)
    verify.add_argument("--workers", type=int, default=4)
    verify.add_argument("--shards", type=int, default=0)
    verify.add_argument("--scheme", choices=SCHEMES, default="metis")
    verify.add_argument("--src", help="single-pair source node")
    verify.add_argument("--dst", help="single-pair destination node")
    verify.add_argument("--prefix", help="header-space prefix for the query")
    verify.add_argument("--check-loops", action="store_true")
    verify.add_argument("--no-memory-limit", action="store_true")
    verify.add_argument(
        "--runtime",
        choices=RUNTIMES,
        default="sequential",
    )
    verify.add_argument(
        "--worker-hosts",
        metavar="HOST:PORT,...",
        help="socket runtime: comma-separated listeners (started with "
        "`repro worker --listen`) to dial instead of forking local "
        "workers",
    )
    verify.add_argument(
        "--rpc-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-call deadline for worker RPCs (default 120)",
    )
    verify.add_argument(
        "--rpc-retries",
        type=int,
        default=None,
        metavar="N",
        help="transport retries per RPC before the worker is declared "
        "dead (default 3)",
    )
    verify.add_argument(
        "--store-dir",
        help="persistent spool directory (enables checkpoint/resume)",
    )
    verify.add_argument(
        "--resume",
        action="store_true",
        help="resume a killed run from --store-dir's manifest",
    )
    verify.add_argument(
        "--inject-fault",
        action="append",
        default=[],
        metavar="SPEC",
        help="inject a fault, e.g. 'crash:worker=1,round=3' or "
        "'host_loss:worker=2,heal_after=100' (repeatable; kinds: crash, "
        "delay, error, drop, duplicate, respawn_fail, host_loss — a "
        "permanently dead host whose shards migrate to the survivors — "
        "and, socket runtime only, partition, reorder, slow_link, "
        "torn_frame)",
    )
    verify.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for probabilistic fault specs",
    )
    verify.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write a merged Chrome trace-event file (Perfetto-loadable); "
        "per-participant JSONL shards land next to it in PATH.shards/",
    )
    verify.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the run's metrics snapshot (counters/gauges/"
        "histograms plus per-worker status gauges) as JSON",
    )
    verify.add_argument(
        "--metrics-listen",
        metavar="HOST:PORT",
        help="expose a live OpenMetrics HTTP endpoint (/metrics) while "
        "the run is in flight (port 0 picks an ephemeral port)",
    )
    verify.add_argument(
        "--ground-truth",
        action="store_true",
        help="after verifying, walk sampled concrete packets through "
        "the computed FIBs (no BDDs involved) and assert they agree "
        "with the symbolic verdicts",
    )
    verify.add_argument(
        "--ground-truth-report",
        metavar="PATH",
        help="write the ground-truth audit (counts + any mismatch "
        "hop-traces) as JSON",
    )
    verify.add_argument("-v", "--verbose", action="store_true")
    verify.set_defaults(func=cmd_verify)

    part = sub.add_parser("partition", help="preview a worker partition")
    _add_snapshot_args(part)
    part.add_argument("--workers", type=int, default=4)
    part.add_argument("--scheme", choices=SCHEMES, default="metis")
    part.set_defaults(func=cmd_partition)

    shards = sub.add_parser("shards", help="preview the prefix shards")
    _add_snapshot_args(shards)
    shards.add_argument("--shards", type=int, default=20)
    shards.set_defaults(func=cmd_shards)

    synth = sub.add_parser("synthesize", help="write a synthetic snapshot")
    synth.add_argument("kind", choices=["fattree", "dcn"])
    synth.add_argument("out", help="output directory")
    synth.add_argument("--k", type=int, default=4)
    synth.add_argument("--scale", type=int, default=1)
    synth.add_argument("--juniper-fraction", type=float, default=0.0)
    synth.set_defaults(func=cmd_synthesize)

    report = sub.add_parser(
        "report",
        help="per-phase time breakdown from a recorded trace",
        description="Aggregate the spans of a trace (the merged Chrome "
        "trace-event file, one JSONL shard, or a whole shard directory) "
        "into a per-phase table: count, total time, mean, and share of "
        "the traced wall clock.",
    )
    report.add_argument(
        "trace",
        nargs="?",
        default=None,
        help="trace file (--trace-out output), shard file, or shard dir",
    )
    report.add_argument(
        "--journal",
        metavar="PATH",
        help="render a serve session's event journal (the journal.jsonl "
        "in its store directory, or a CI artifact) as a table",
    )
    report.add_argument(
        "--by-process",
        action="store_true",
        help="split each phase per participant (controller/workerN)",
    )
    report.add_argument("--top", type=int, default=None, metavar="N",
                        help="show only the N largest phases")
    report.add_argument("--category", metavar="CAT",
                        help="only spans of this category (cpo, dpo, rpc, "
                        "check, run)")
    report.set_defaults(func=cmd_report)

    trace = sub.add_parser("trace", help="print forwarding paths")
    _add_snapshot_args(trace)
    trace.add_argument("--workers", type=int, default=4)
    trace.add_argument("--scheme", choices=SCHEMES, default="metis")
    trace.add_argument("--src", required=True)
    trace.add_argument("--dst")
    trace.add_argument("--prefix")
    trace.set_defaults(func=cmd_trace)

    fuzz = sub.add_parser(
        "fuzz",
        help="differentially fuzz the engines with random networks",
        description="Generate random vendor configurations and check "
        "that the monolithic engine, the sharded monolithic engine, and "
        "every distributed runtime compute identical RIBs (and, when "
        "sampled, identical data-plane verdicts and fault-tolerant "
        "results).  Exits 1 on any divergence.",
    )
    fuzz.add_argument("--seed", type=int, default=0,
                      help="first generator seed (iteration i uses seed+i)")
    fuzz.add_argument("--iterations", type=int, default=None,
                      help="number of random networks (default 100; 60 "
                      "with --smoke)")
    fuzz.add_argument("--shrink", action="store_true",
                      help="minimize any divergent network before reporting")
    fuzz.add_argument("--corpus-dir", metavar="DIR",
                      help="save (shrunken) divergent cases as JSON here")
    fuzz.add_argument("--smoke", action="store_true",
                      help="pinned CI configuration: small networks, all "
                      "runtimes and fault injection sampled, < 1 minute")
    fuzz.add_argument("--profile",
                      choices=["default", "smoke", "plain"],
                      default="default",
                      help="generator profile (network size and feature "
                      "probabilities)")
    fuzz.add_argument("--faults-every", type=int, default=None, metavar="N",
                      help="include a fault-injected run every Nth "
                      "iteration (0 = never; default 0, or 10 with "
                      "--smoke)")
    fuzz.add_argument("--host-loss-every", type=int, default=None,
                      metavar="N",
                      help="include a run that permanently loses one "
                      "worker (shards migrate to the survivors) every "
                      "Nth iteration (0 = never; default 0, or 12 with "
                      "--smoke)")
    fuzz.add_argument("--dataplane-every", type=int, default=None,
                      metavar="N",
                      help="diff all-pair data-plane verdicts every Nth "
                      "iteration (0 = never; default 0, or 15 with "
                      "--smoke)")
    fuzz.add_argument("--socket-every", type=int, default=None,
                      metavar="N",
                      help="include the socket runtime (with a sampled "
                      "network-fault plan) every Nth iteration (0 = "
                      "never; default 0, or 30 with --smoke)")
    fuzz.add_argument("--groundtruth-every", type=int, default=None,
                      metavar="N",
                      help="adjudicate verdicts with concrete packet "
                      "walks over the computed FIBs every Nth iteration "
                      "(0 = never; default 0, or 5 with --smoke)")
    fuzz.add_argument("--fail-fast", action="store_true",
                      help="stop at the first divergence")
    fuzz.add_argument("-v", "--verbose", action="store_true")
    fuzz.set_defaults(func=cmd_fuzz)

    worker = sub.add_parser(
        "worker",
        help="run a standalone TCP worker listener (socket runtime)",
        description="Serve one S2 worker over the framed RPC protocol. "
        "The controller (repro verify --runtime socket --worker-hosts "
        "...) configures it over the wire — identity, snapshot, and "
        "assignment all arrive via RPC, so one listener serves many "
        "runs.  Blocks until the controller stops it.",
    )
    worker.add_argument(
        "--listen",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="bind address (port 0 picks an ephemeral port, printed on "
        "startup; default 127.0.0.1:0)",
    )
    worker.add_argument(
        "--metrics-listen",
        metavar="HOST:PORT",
        help="expose this worker's own OpenMetrics HTTP endpoint "
        "(/metrics, /statusz) for direct scraping",
    )
    worker.set_defaults(func=cmd_worker)

    serve = sub.add_parser(
        "serve",
        help="run a resident verifier session (line-JSON TCP API)",
        description="Verify the snapshot once, then keep the converged "
        "state live in the worker fleet.  Clients send config/link "
        "deltas (recomputed incrementally under epoch fencing) and "
        "reachability queries (answered from the last committed epoch) "
        "as one JSON object per line.  SIGTERM/SIGINT shut down "
        "gracefully: in-flight work finishes, state is flushed, exit 0.",
    )
    _add_snapshot_args(serve)
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument(
        "--shards",
        type=int,
        default=8,
        help="prefix shards (sharding is what makes announce-only "
        "deltas incremental; default 8)",
    )
    serve.add_argument("--scheme", choices=SCHEMES, default="metis")
    serve.add_argument(
        "--runtime",
        choices=RUNTIMES,
        default="sequential",
    )
    serve.add_argument(
        "--listen",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="bind address of the line-JSON API (port 0 picks an "
        "ephemeral port, printed on startup)",
    )
    serve.add_argument(
        "--store-dir",
        help="persistent spool directory; an existing committed epoch "
        "there is warm-booted (skipping the cold-start convergence) "
        "when its manifest, epoch tag, and options all check out",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=8,
        metavar="N",
        help="admission queue depth; further deltas are refused with "
        "'busy' (default 8)",
    )
    serve.add_argument(
        "--inject-fault",
        action="append",
        default=[],
        metavar="SPEC",
        help="chaos for the serve loop (same specs as verify)",
    )
    serve.add_argument("--fault-seed", type=int, default=0)
    serve.add_argument(
        "--ground-truth-check",
        type=int,
        default=0,
        metavar="N",
        help="after every Nth committed epoch, spot-check the verdicts "
        "with concrete packet walks over the committed FIBs (0 = off); "
        "results appear in health and the serve.groundtruth_mismatches "
        "gauge",
    )
    serve.add_argument(
        "--metrics-listen",
        metavar="HOST:PORT",
        help="expose an OpenMetrics HTTP endpoint for this session "
        "(/metrics, /eventsz, /statusz, /healthz; port 0 picks an "
        "ephemeral port)",
    )
    serve.set_defaults(func=cmd_serve)

    top = sub.add_parser(
        "top",
        help="live console over a serving session",
        description="Poll a `repro serve` session's statusz/eventsz ops "
        "and render per-worker status (epoch, round, BDD nodes, "
        "memory, respawns, lost), session health, and the event journal "
        "tail. "
        "On a TTY the screen refreshes in place; piped output prints "
        "one frame (or --iterations frames) and exits.",
    )
    top.add_argument(
        "address",
        metavar="HOST:PORT",
        help="the serve session's line-JSON API address",
    )
    top.add_argument("--interval", type=float, default=1.0,
                     metavar="SECONDS", help="refresh period (default 1)")
    top.add_argument("--iterations", type=int, default=None, metavar="N",
                     help="render N frames then exit (default: forever on "
                     "a TTY, once otherwise)")
    top.add_argument("--events", type=int, default=10, metavar="N",
                     help="journal-tail length (default 10)")
    top.add_argument("--once", action="store_true",
                     help="render a single frame and exit")
    top.add_argument("--no-ansi", action="store_true",
                     help="plain frames, no screen clearing")
    top.set_defaults(func=cmd_top)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
