"""Ablations of this reproduction's own design choices (see DESIGN.md).

Not paper figures — these justify the implementation decisions the
reproduction layered on top of the paper's design:

* **wave merging**: OR-merging symbolic packets per (source, node,
  in-port, hops) collapses the ECMP path product.  Without it, BDD
  operation counts explode combinatorially with k.
* **runtime backends**: sequential in-process workers and socket workers
  (one process each, behind TCP) compute identical results.
* **round scheme**: the two-phase (Jacobi) distributed rounds converge in
  more rounds than the monolithic engine's immediate-update sweeps, but
  each round is fully parallel — the classic chaotic-iteration trade.
"""

import time

from conftest import emit
from repro.bdd.engine import TRUE
from repro.dataplane.forwarding import inject, run_to_completion
from repro.dataplane.verifier import DataPlaneVerifier
from repro.dist.controller import S2Controller, S2Options
from repro.harness import format_table
from repro.net.fattree import build_fattree
from repro.routing.engine import SimulationEngine


def run_merging_ablation():
    rows = []
    for k in (4, 6):
        engine = SimulationEngine(build_fattree(k))
        routes = engine.run()
        per_mode = {}
        for merge in (True, False):
            dpv = DataPlaneVerifier.from_simulation(engine, routes)
            dpv.compile_predicates()
            started = time.perf_counter()
            finals = run_to_completion(
                dpv.context, [inject("edge-0-0", TRUE)], merge=merge
            )
            per_mode[merge] = {
                "finals": len(finals),
                "wall": time.perf_counter() - started,
            }
        # Finals are the visible proxy for processed packet objects: every
        # enumerated path contributes its own final without merging.
        # (Unique BDD *operations* barely change — repeats hit the apply
        # cache — the cost is the packet-object explosion itself.)
        rows.append(
            [
                f"k={k}",
                per_mode[True]["finals"],
                per_mode[False]["finals"],
                round(
                    per_mode[False]["finals"] / per_mode[True]["finals"], 2
                ),
            ]
        )
    return rows


def run_runtime_ablation():
    rows = []
    for runtime in ("sequential", "socket"):
        started = time.perf_counter()
        with S2Controller(
            build_fattree(6),
            S2Options(num_workers=4, num_shards=8, runtime=runtime),
        ) as controller:
            controller.run_control_plane()
            total = controller.total_route_count()
            modeled = controller.cpo.stats.modeled_wall_time
        rows.append(
            [
                runtime,
                total,
                round(modeled),
                round(time.perf_counter() - started, 2),
            ]
        )
    return rows


def run_round_scheme_ablation():
    rows = []
    for k in (4, 6, 8):
        mono = SimulationEngine(build_fattree(k))
        mono.run()
        with S2Controller(
            build_fattree(k), S2Options(num_workers=1)
        ) as controller:
            controller.run_control_plane()
            jacobi_rounds = controller.cpo.stats.bgp_rounds
        rows.append([f"k={k}", mono.stats.bgp_rounds, jacobi_rounds])
    return rows


def test_ablation_wave_merging(benchmark):
    rows = benchmark.pedantic(run_merging_ablation, rounds=1, iterations=1)
    table = format_table(
        ["workload", "finals(merged)", "finals(per-path)", "blowup"],
        rows,
        title="Ablation — symbolic-packet wave merging",
    )
    emit("ablation_merging", table, rows)
    # the per-path blowup grows with k (combinatorial ECMP product)
    blowups = [row[3] for row in rows]
    assert blowups[-1] > blowups[0]
    assert all(row[1] < row[2] for row in rows)


def test_ablation_runtimes(benchmark):
    rows = benchmark.pedantic(run_runtime_ablation, rounds=1, iterations=1)
    table = format_table(
        ["runtime", "routes", "modeled-cp", "wall-s"],
        rows,
        title="Ablation — runtime backends compute identical results",
    )
    emit("ablation_runtimes", table, rows)
    routes = {row[1] for row in rows}
    assert len(routes) == 1, "all backends must compute the same routes"
    # The modeled clock is backend-independent up to pickling jitter in
    # the measured RPC payload sizes: within 1%.
    modeled = [row[2] for row in rows]
    assert max(modeled) <= min(modeled) * 1.01


def test_ablation_round_schemes(benchmark):
    rows = benchmark.pedantic(
        run_round_scheme_ablation, rounds=1, iterations=1
    )
    table = format_table(
        ["workload", "rounds(immediate)", "rounds(two-phase)"],
        rows,
        title="Ablation — immediate-update vs two-phase (Jacobi) rounds",
    )
    emit("ablation_rounds", table, rows)
    # Jacobi never needs fewer rounds, and stays within a small factor
    for _workload, immediate, jacobi in rows:
        assert jacobi >= immediate
        assert jacobi <= immediate * 3
