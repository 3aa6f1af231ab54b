"""Shared fixtures.

The FatTree-4 and DCN snapshots (and their monolithic simulation results)
are session-scoped: they are pure functions of the synthesizer inputs, and
many tests compare against them as the oracle.
"""

from __future__ import annotations

import os
import signal
import threading

import pytest

from repro.bdd.engine import FALSE
from repro.dataplane.queries import Query
from repro.dist.sharding import make_shards
from repro.harness.experiments import batch_bound
from repro.net.dcn import build_dcn
from repro.net.fattree import build_fattree
from repro.routing.engine import SimulationEngine

# Per-test wall-clock budget (seconds).  The fault-tolerance tests kill
# worker processes and rely on supervision timeouts; a regression there
# would otherwise hang the whole suite.  Hand-rolled on SIGALRM because
# the environment has no pytest-timeout plugin.
TEST_TIMEOUT = int(os.environ.get("S2_TEST_TIMEOUT", "300"))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    use_alarm = (
        TEST_TIMEOUT > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not use_alarm:
        return (yield)

    def _on_timeout(signum, frame):
        raise TimeoutError(
            f"test exceeded the {TEST_TIMEOUT}s budget "
            f"(S2_TEST_TIMEOUT to change)"
        )

    previous = signal.signal(signal.SIGALRM, _on_timeout)
    signal.alarm(TEST_TIMEOUT)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def fattree4():
    return build_fattree(4)


@pytest.fixture(scope="session")
def fattree6():
    return build_fattree(6)


@pytest.fixture(scope="session")
def dcn1():
    return build_dcn(scale=1)


@pytest.fixture(scope="session")
def fattree4_sim(fattree4):
    engine = SimulationEngine(fattree4)
    routes = engine.run()
    return engine, routes


@pytest.fixture(scope="session")
def dcn1_sim(dcn1):
    engine = SimulationEngine(dcn1)
    routes = engine.run()
    return engine, routes


def normalize_ribs(result):
    """Canonical form for RIB equality across engines/runtimes."""
    return {
        host: {
            prefix: tuple(
                sorted(routes, key=lambda r: (r.from_node, r.next_hop))
            )
            for prefix, routes in table.items()
        }
        for host, table in result.items()
    }


def full_recheck(controller, endpoints):
    """The all-pair recheck over the whole header space (``D = TRUE``)
    of a serve session's current data plane, in its own engine: the
    per-pair BDDs every dirty-space commit must equal."""
    reachable = controller.checker().check_reachability(
        Query(sources=tuple(endpoints), destinations=tuple(endpoints))
    ).reachable
    return {pair: bdd for pair, bdd in reachable.items() if bdd != FALSE}


def commit_records(session):
    """The ``epoch_commit`` journal records' attrs, oldest first."""
    return [
        event.attrs
        for event in session.journal.events()
        if event.kind == "epoch_commit"
    ]


#: The BGP ``step`` runs two phases, by the worker method that runs each:
#: round ``r``'s exports in step ``r``, and its pull in step ``r + 1``.
STEP_PHASES = {"compute_exports": 0, "pull_round": 1}


def call_site(site, round=None):
    """The ``FaultSpec`` fields of a call fault at ``site``: a worker
    command, or a phase of the BGP ``step`` of round ``round`` (0 when
    None) named as in :data:`STEP_PHASES`."""
    if site in STEP_PHASES:
        return {"command": "step", "round": (round or 0) + STEP_PHASES[site]}
    return {"command": site, "round": round}


def converge_steps(workers, sidecars, max_rounds=50):
    """Drive ``Worker.step`` by hand as the CPO does: each step's
    outbound batches go through the sender's sidecar to the receivers'
    next step, until a round changes no worker; returns the rounds."""
    inbound = {}
    for token in range(max_rounds + 1):
        results = [
            worker.step(token, inbound.get(worker.worker_id, ()), token == 0)
            for worker in workers
        ]
        if token and not any(outcome.changed for _, outcome, _ in results):
            return token
        inbound = {}
        for sidecar, (_, _, outbound) in zip(sidecars, results):
            for batch in outbound:
                inbound.setdefault(batch.target_worker, []).extend(
                    sidecar.queue_routes(batch)
                )
    raise AssertionError(f"no fixed point within {max_rounds} rounds")


def one_shard_per_batch(snapshot, options, shards=None):
    """The largest ``worker_capacity`` under which the CPO's planner puts
    no two consecutive shards of the run's packing (or of ``shards``, in
    run order) into one batch: the per-shard schedule, whatever the shard
    sizes."""
    if shards is None:
        shards = make_shards(snapshot, options.num_shards, seed=options.seed)
    pairs = [len(a) + len(b) for a, b in zip(shards, shards[1:])]
    if not pairs:
        return options.worker_capacity
    return batch_bound(snapshot, options)(min(pairs)) - 1
