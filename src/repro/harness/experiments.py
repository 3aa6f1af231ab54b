"""Experiment runners: one function per paper figure (§5).

Each ``run_figN_*`` function executes the experiment at the scaled sizes,
returns structured rows, and is called both by ``benchmarks/bench_figN_*``
(which also times a representative slice under pytest-benchmark) and by
``examples/run_all_experiments.py`` (which regenerates EXPERIMENTS.md).

Environment knob: ``S2_BENCH_SIZES`` (comma-separated k values) widens or
narrows the FatTree sweep without touching code.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..baselines.batfish import BatfishVerifier
from ..bdd.engine import TRUE
from ..baselines.bonsai import BonsaiTimeout, BonsaiVerifier
from ..config.loader import Snapshot
from ..core.s2 import S2Verifier, VerificationResult, verify_snapshot
from ..dataplane.queries import Query
from ..obs.tracer import stopwatch
from ..routing.engine import collect_network_prefixes
from ..dist.controller import S2Options
from ..dist.partition import partition
from ..dist.resources import UNLIMITED_CAPACITY, SimulatedOOM, memory_bytes
from ..dist.sharding import make_shards, route_slots
from ..net.dcn import build_dcn
from ..net.fattree import FatTreeSpec, build_fattree
from .scaling import PAPER_SIZES, SCALED_SIZES, capacity_for_sweep


def sweep_sizes(default_count: int = 3) -> List[Tuple[int, int]]:
    """(scaled k, paper k) pairs, honoring ``S2_BENCH_SIZES``."""
    env = os.environ.get("S2_BENCH_SIZES")
    if env:
        ks = [int(v) for v in env.split(",") if v.strip()]
    else:
        ks = list(SCALED_SIZES[:default_count])
    pairs = []
    for k in ks:
        try:
            index = SCALED_SIZES.index(k)
            paper = PAPER_SIZES[index]
        except ValueError:
            paper = 10 * k  # off-registry sizes keep the 10x naming rule
        pairs.append((k, paper))
    return pairs


@dataclass
class ExperimentRow:
    """One measured configuration: a point on a paper figure."""

    experiment: str
    series: str                   # e.g. "batfish", "s2-16w"
    workload: str                 # e.g. "FatTree60 (k=8)"
    status: str = "ok"
    peak_memory: int = 0
    wall_seconds: float = 0.0
    extra: Dict[str, object] = field(default_factory=dict)

    def as_cells(self) -> List[object]:
        return [
            self.series,
            self.workload,
            self.status,
            f"{self.peak_memory / (1 << 20):.1f}MB",
            round(self.wall_seconds, 2),
        ]


ROW_HEADERS = ["series", "workload", "status", "peak-mem", "wall-s"]


# -- shared runners ---------------------------------------------------------


def run_s2(
    snapshot: Snapshot,
    workers: int,
    shards: int,
    capacity: int,
    label: str,
    workload: str,
    scheme: str = "metis",
    runtime: str = "sequential",
    query: Optional[Query] = None,
    cp_only: bool = False,
) -> Tuple[ExperimentRow, VerificationResult]:
    options = S2Options(
        num_workers=workers,
        num_shards=shards,
        worker_capacity=capacity,
        partition_scheme=scheme,
        runtime=runtime,
    )
    if cp_only:
        result = _run_s2_cp_only(snapshot, options)
    else:
        result = verify_snapshot(snapshot, options, query=query)
    row = ExperimentRow(
        experiment="",
        series=label,
        workload=workload,
        status=result.status,
        peak_memory=result.peak_worker_bytes,
        wall_seconds=result.wall_seconds,
    )
    if result.cp_stats:
        row.extra["cp_seconds"] = result.cp_stats.measured_seconds
        row.extra["bgp_rounds"] = result.cp_stats.bgp_rounds
        row.extra["batches"] = result.cp_stats.batches_run
    if result.dp_stats:
        row.extra["dp_seconds"] = (
            result.dp_stats.predicate_seconds + result.dp_stats.forward_seconds
        )
    if result.report:
        # Load balance as a count: the busiest worker's route updates
        # bound a round on a cluster with a core per worker.
        row.extra["max_route_work"] = max(
            w.route_work for w in result.report.workers
        )
        row.extra["rpc_bytes"] = result.report.total_rpc_bytes
    row.extra["packets_crossed"] = (
        result.dp_stats.packets_crossed if result.dp_stats else 0
    )
    row.extra["routes"] = result.total_routes
    return row, result


def _run_s2_cp_only(
    snapshot: Snapshot, options: S2Options
) -> VerificationResult:
    """Control-plane simulation only (Figures 8 and 9 time "simulate")."""
    result = VerificationResult(
        status="ok",
        snapshot_name=snapshot.name,
        num_workers=options.num_workers,
        num_shards=max(1, options.num_shards),
    )
    with stopwatch() as clock, S2Verifier(snapshot, options) as verifier:
        try:
            result.cp_stats = verifier.run_control_plane()
            result.total_routes = verifier.controller.total_route_count()
        except SimulatedOOM as exc:
            result.status = "oom"
            result.error = str(exc)
        result.wall_seconds = clock.seconds
        result.report = verifier.controller.report()
        result.peak_worker_bytes = result.report.peak_worker_bytes
    return result


def run_batfish(
    snapshot: Snapshot,
    capacity: int,
    workload: str,
    num_shards: int = 0,
    label: str = "batfish",
) -> ExperimentRow:
    clock = stopwatch()
    verifier = BatfishVerifier(
        snapshot, num_shards=num_shards, capacity=capacity
    )
    row = ExperimentRow(experiment="", series=label, workload=workload)
    try:
        verifier.all_pair_reachability()
        row.extra["routes"] = verifier.total_route_count()
        row.extra["cp_seconds"] = verifier.stats.cp_seconds
        row.extra["dp_seconds"] = (
            verifier.stats.dp_predicate_seconds
            + verifier.stats.dp_forward_seconds
        )
    except SimulatedOOM as exc:
        row.status = "oom"
        row.extra["error"] = str(exc)
    row.peak_memory = verifier.resources.peak_bytes
    row.wall_seconds = clock.seconds
    return row


def run_bonsai(
    snapshot: Snapshot,
    capacity: int,
    workload: str,
    work_budget: Optional[int] = None,
) -> ExperimentRow:
    clock = stopwatch()
    verifier = BonsaiVerifier(
        snapshot, capacity=capacity, work_budget=work_budget
    )
    row = ExperimentRow(experiment="", series="bonsai", workload=workload)
    try:
        results = verifier.check_all_destinations()
        row.extra["destinations"] = len(results)
        row.extra["reachable"] = sum(results.values())
    except BonsaiTimeout as exc:
        row.status = "timeout"
        row.extra["error"] = str(exc)
    except SimulatedOOM as exc:
        row.status = "oom"
        row.extra["error"] = str(exc)
    row.extra["work"] = verifier.stats.total_work
    row.peak_memory = verifier.resources.peak_bytes
    row.wall_seconds = clock.seconds
    return row


# -- figure experiments -------------------------------------------------------


def run_fig4_real_dcn(scale: int = 1, workers: int = 4) -> List[ExperimentRow]:
    """Figure 4: the real-DCN substitute under four configurations."""
    snapshot = build_dcn(scale=scale)
    workload = f"DCN x{scale} ({len(snapshot)} sw)"
    # Calibrate the "100 GB" ceiling between the sharded and unsharded
    # peaks, so — matching Fig 4 — vanilla Batfish OOMs while Batfish
    # with prefix sharding squeezes through near the limit.
    vanilla = BatfishVerifier(snapshot, capacity=UNLIMITED_CAPACITY)
    vanilla.all_pair_reachability()
    vanilla_peak = vanilla.resources.peak_bytes
    sharded = BatfishVerifier(
        build_dcn(scale=scale), num_shards=20, capacity=UNLIMITED_CAPACITY
    )
    sharded.all_pair_reachability()
    sharded_peak = sharded.resources.peak_bytes
    capacity = (vanilla_peak + sharded_peak) // 2
    rows = [
        run_batfish(snapshot, capacity, workload, num_shards=0),
        run_batfish(
            snapshot, capacity, workload, num_shards=20,
            label="batfish+sharding",
        ),
    ]
    row, _ = run_s2(
        build_dcn(scale=scale), workers, 0, capacity, "s2-nosharding", workload
    )
    rows.append(row)
    row, _ = run_s2(
        build_dcn(scale=scale),
        workers,
        20,
        per_shard_capacity(snapshot, workers, 20, capacity),
        "s2",
        workload,
    )
    rows.append(row)
    for row in rows:
        row.experiment = "fig4"
    return rows


def run_fig5_fattree_scaling(
    sizes: Optional[Sequence[Tuple[int, int]]] = None,
) -> List[ExperimentRow]:
    """Figure 5: Batfish vs Bonsai vs S2×{1,8,16} across FatTree sizes."""
    sizes = list(sizes or sweep_sizes())
    # One logical server just fits the smallest size without sharding.
    capacity = capacity_for_sweep(sizes[0][0], tuple(k for k, _ in sizes))
    bonsai_budget: Optional[int] = None
    rows: List[ExperimentRow] = []
    for index, (k, paper_k) in enumerate(sizes):
        workload = f"FatTree{paper_k} (k={k})"
        snapshot = build_fattree(k)
        rows.append(run_batfish(snapshot, capacity, workload))
        if bonsai_budget is None:
            # Bonsai's total work grows ~k^5 (destinations x topology scan);
            # a budget of 120x its smallest-size work puts the timeout at
            # the 5th sweep position, where Fig 5 has it (FatTree80).
            probe = BonsaiVerifier(build_fattree(sizes[0][0]), capacity=capacity)
            probe.check_all_destinations()
            bonsai_budget = probe.stats.total_work * 120
        rows.append(
            run_bonsai(
                build_fattree(k), capacity, workload, work_budget=bonsai_budget
            )
        )
        for workers in (1, 8, 16):
            row, _ = run_s2(
                build_fattree(k),
                workers,
                20,
                per_shard_capacity(snapshot, workers, 20, capacity),
                f"s2-{workers}w",
                workload,
            )
            rows.append(row)
    for row in rows:
        row.experiment = "fig5"
    return rows


def run_fig6_scale_out(
    k: int = 8, worker_counts: Sequence[int] = (1, 2, 4, 8, 12, 16)
) -> List[ExperimentRow]:
    """Figure 6: fixed FatTree (the FatTree60 analogue), 1..16 workers."""
    capacity = capacity_for_sweep(k, (k,), headroom=8.0)
    rows = []
    paper_k = PAPER_SIZES[SCALED_SIZES.index(k)] if k in SCALED_SIZES else 10 * k
    workload = f"FatTree{paper_k} (k={k})"
    for workers in worker_counts:
        row, _ = run_s2(
            build_fattree(k), workers, 20, capacity, f"{workers}w", workload
        )
        row.experiment = "fig6"
        rows.append(row)
    return rows


def run_fig7_partition_schemes(
    k: int = 8, workers: int = 8, include_dcn: bool = True
) -> List[ExperimentRow]:
    """Figure 7: random/expert/metis (+ the two adversarial extremes)."""
    rows: List[ExperimentRow] = []
    capacity = capacity_for_sweep(k, (k,), headroom=8.0)
    workloads = [(f"FatTree (k={k})", build_fattree)]
    if include_dcn:
        workloads.append(("DCN x1", lambda _k: build_dcn(scale=1)))
    for workload, builder in workloads:
        for scheme in ("random", "expert", "metis", "imbalanced", "commheavy"):
            row, _ = run_s2(
                builder(k), workers, 20, capacity, scheme, workload,
                scheme=scheme,
            )
            row.experiment = "fig7"
            rows.append(row)
    return rows


def run_fig8_sharding_necessity(
    sizes: Optional[Sequence[Tuple[int, int]]] = None, workers: int = 4
) -> List[ExperimentRow]:
    """Figure 8: sharding on/off across sizes; off OOMs at the top size."""
    sizes = list(sizes or sweep_sizes())
    # Calibrate against measured *per-worker* unsharded peaks so the
    # largest size OOMs without sharding while the second-largest just
    # fits — mirroring Fig 8 where only FatTree90 requires sharding.
    peaks = []
    for k, _paper_k in sizes[-2:]:
        probe, _ = run_s2(
            build_fattree(k), workers, 0, UNLIMITED_CAPACITY, "probe",
            "probe", cp_only=True,
        )
        peaks.append(probe.peak_memory)
    capacity = (
        (peaks[-1] + peaks[-2]) // 2 if len(peaks) > 1 else peaks[0] * 2
    )
    rows = []
    for k, paper_k in sizes:
        workload = f"FatTree{paper_k} (k={k})"
        for shards, label in ((0, "no-sharding"), (20, "sharding")):
            row, _ = run_s2(
                build_fattree(k), workers, shards, capacity, label, workload,
                cp_only=True,
            )
            row.experiment = "fig8"
            rows.append(row)
    return rows


def run_fig9_shard_count(
    k: int = 8,
    workers: int = 4,
    shard_counts: Sequence[int] = (1, 2, 5, 10, 15, 20, 25, 30, 40),
) -> List[ExperimentRow]:
    """Figure 9: shard-count sweep — memory falls with the shard count.

    Each row's capacity is its largest single-shard bound, so the CPO
    admits one shard per batch and the row shows that shard count's
    memory (under the default capacity every row would batch all its
    shards into one fixed point and show the unsharded peak)."""
    rows = []
    for shards in shard_counts:
        snapshot = build_fattree(k)
        row, _ = run_s2(
            snapshot,
            workers,
            shards,
            single_shard_ceiling(
                snapshot, S2Options(num_workers=workers, num_shards=shards)
            ),
            f"{shards}-shards",
            f"FatTree (k={k})",
            cp_only=True,
        )
        row.experiment = "fig9"
        row.extra["shards"] = shards
        rows.append(row)
    return rows


def batch_bound(snapshot: Snapshot, options: S2Options) -> Callable[[int], int]:
    """The bytes the CPO's batch planner charges, at rest, for a batch of
    ``n`` prefixes on the run's most loaded worker, as a function of
    ``n``: a ``worker_capacity`` below ``batch_bound(...)(n)`` admits no
    batch of ``n`` prefixes."""
    assignment = partition(
        snapshot,
        options.num_workers,
        scheme=options.partition_scheme,
        seed=options.seed,
    ).assignment
    slots = route_slots(snapshot, assignment)
    nodes = Counter(assignment.values())
    return lambda prefixes: max(
        memory_bytes(prefixes * slots[worker], 0, count)
        for worker, count in nodes.items()
    )


def single_shard_ceiling(snapshot: Snapshot, options: S2Options) -> int:
    """The largest :func:`batch_bound` of one shard of the run's packing:
    a ``worker_capacity`` at this value admits every shard alone and,
    when the packing is balanced, no two together — the per-shard run."""
    if options.num_shards > 1:
        packing = make_shards(
            snapshot, options.num_shards, seed=options.seed
        )
        largest = max(len(shard) for shard in packing)
    else:
        largest = len(collect_network_prefixes(snapshot))
    return batch_bound(snapshot, options)(largest)


def per_shard_capacity(
    snapshot: Snapshot, workers: int, shards: int, capacity: int
) -> int:
    """``capacity``, lowered to the run's :func:`single_shard_ceiling`:
    S2 then converges its shards one at a time (on a balanced packing),
    the configuration the paper's memory figures measure, and never gets
    more memory than the calibrated server holds.  With the calibrated
    capacity alone the CPO batches every shard that fits, trading that
    memory for rounds."""
    return min(
        capacity,
        single_shard_ceiling(
            snapshot, S2Options(num_workers=workers, num_shards=shards)
        ),
    )


def run_fig10_dpv(
    sizes: Optional[Sequence[Tuple[int, int]]] = None, workers: int = 8
) -> List[ExperimentRow]:
    """Figure 10: all-pair and single-pair DPV, Batfish vs S2, split into
    the predicate-computation and forwarding phases.

    Both forwarding columns are symbolic forwarding of the full header
    space from the query's sources: Batfish's reachability check, and
    S2's ``dpo.forward`` driven explicitly, since S2's own reachability
    check answers an ACL-free class by destination-class closure and
    forwards nothing here.  That check is timed on its own
    (``closure_*``).  S2's predicate phase is its FIB build plus
    ``dpo.compile_all()``: a worker otherwise compiles a device only on
    the first symbolic packet that reaches it, which would move the
    compile into the forwarding columns."""
    sizes = list(sizes or sweep_sizes())
    rows: List[ExperimentRow] = []
    for k, paper_k in sizes:
        workload = f"FatTree{paper_k} (k={k})"
        edges = sorted(
            n for n in build_fattree(k).configs if n.startswith("edge-")
        )
        all_pair = Query(sources=tuple(edges), destinations=tuple(edges))
        single = Query.single_pair(edges[0], edges[-1])
        # Fresh instances per query so the second measurement does not run
        # against the first one's warm BDD operation caches.
        for query, phase_key, wall_key, closure_key in (
            (all_pair, "phase_forward_allpair", "allpair_wall",
             "closure_allpair"),
            (single, "phase_forward_singlepair", "single_wall",
             "closure_singlepair"),
        ):
            # Batfish (sharded CP so FIB generation succeeds, §5.8).
            verifier = BatfishVerifier(
                build_fattree(k), num_shards=20, capacity=UNLIMITED_CAPACITY
            )
            checker = verifier.checker()
            with stopwatch() as clock:
                checker.check_reachability(query)
            wall = clock.seconds
            _record_fig10(
                rows,
                "batfish",
                workload,
                phase_key,
                wall_key,
                predicates=verifier.stats.dp_predicate_seconds,
                forward=verifier.stats.dp_forward_seconds,
                predicate_nodes=verifier.stats.dp_predicate_nodes,
                forward_ops=verifier.stats.dp_forward_ops,
                peak=verifier.resources.peak_bytes,
                wall=wall,
            )
            # S2 distributed DPV.
            snapshot = build_fattree(k)
            s2 = S2Verifier(
                snapshot,
                S2Options(
                    num_workers=workers,
                    num_shards=20,
                    worker_capacity=per_shard_capacity(
                        snapshot, workers, 20, UNLIMITED_CAPACITY
                    ),
                ),
            )
            try:
                s2.run_control_plane()
                s2_checker = s2.controller.checker()
                dpo = s2.controller.dpo
                # Phase 1 compiles every device explicitly, through the
                # hook a device's first packet would call.
                dpo.compile_all()
                dp = dpo.stats
                with stopwatch() as clock:
                    dpo.forward(query.sources, TRUE)
                wall = clock.seconds
                with stopwatch() as closure:
                    s2_checker.check_reachability(query)
                _record_fig10(
                    rows,
                    f"s2-{workers}w",
                    workload,
                    phase_key,
                    wall_key,
                    predicates=dp.predicate_seconds,
                    forward=dp.forward_seconds,
                    predicate_nodes=dp.predicate_busiest_nodes,
                    forward_ops=dp.forward_busiest_ops,
                    peak=s2.controller.report().peak_worker_bytes,
                    wall=wall,
                ).extra[closure_key] = closure.seconds
            finally:
                s2.close()
    return rows


def _record_fig10(
    rows: List[ExperimentRow],
    series: str,
    workload: str,
    phase_key: str,
    wall_key: str,
    predicates: float,
    forward: float,
    predicate_nodes: int,
    forward_ops: int,
    peak: int,
    wall: float,
) -> ExperimentRow:
    """Merge one (series, workload) measurement into the fig10 rows.

    Each phase is recorded twice: in measured seconds, and as the BDD
    work on its critical path (Batfish's one engine; S2's busiest worker
    per step) — nodes built for the predicates, operations for each
    forwarding phase.  Returns the row."""
    for row in rows:
        if row.series == series and row.workload == workload:
            row.extra[phase_key] = forward
            row.extra[f"{phase_key}_ops"] = forward_ops
            row.extra[wall_key] = wall
            return row
    rows.append(
        ExperimentRow(
            experiment="fig10",
            series=series,
            workload=workload,
            peak_memory=peak,
            wall_seconds=wall,
            extra={
                "phase_predicates": predicates,
                "phase_predicates_nodes": predicate_nodes,
                phase_key: forward,
                f"{phase_key}_ops": forward_ops,
                wall_key: wall,
            },
        )
    )
    return rows[-1]
