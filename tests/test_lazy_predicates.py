"""Predicates compiled on a device's first symbolic packet.

A worker's build makes FIBs only; the forwarding context compiles a
device when a packet first reaches it (``Worker._compile_device``), and
``compile_all`` drives the same hook for every device (Figure 10's phase
1).  Compiled devices are counted where the compile runs: in the
``worker.drain`` span and in ``DataPlaneStats.devices_compiled``.
"""

from __future__ import annotations

import pytest

from repro import S2Options
from repro.bdd.engine import TRUE
from repro.bdd.headerspace import HeaderEncoding
from repro.bdd.serialize import content_digest, serialize
from repro.core.s2 import verify_snapshot
from repro.dataplane.queries import Query
from repro.dataplane.verifier import DataPlaneVerifier
from repro.dist.controller import S2Controller
from repro.obs.report import load_spans
from repro.routing.engine import SimulationEngine

from tests.test_class_closure import ACL_ENCODING, acl_fattree4, compare


@pytest.mark.parametrize("name", ["fattree4", "dcn1"])
def test_a_cold_all_pair_verify_compiles_nothing(name, request, tmp_path):
    snapshot = request.getfixturevalue(name)
    trace_dir = str(tmp_path / "trace")
    result = verify_snapshot(
        snapshot,
        S2Options(num_workers=4, num_shards=8, trace_dir=trace_dir),
    )
    assert result.ok and result.reachable_pairs > 0
    assert result.dp_stats.devices_compiled == 0
    names = {span["name"] for span in load_spans(trace_dir)}
    assert "worker.build_dataplane" in names
    assert "bdd.compile" not in names and "worker.drain" not in names


def _visited(snapshot, encoding, query):
    """The devices the monolith's packets visit for a waypoint check."""
    engine = SimulationEngine(snapshot)
    dpv = DataPlaneVerifier.from_simulation(
        engine, engine.run(), encoding=encoding
    )
    checker = dpv.checker()
    visited = set()
    process = dpv.context.process

    def recording(packet):
        visited.add(packet.node)
        return process(packet)

    dpv.context.process = recording
    return visited, _digests(dpv.engine, checker.check_waypoint(query))


def _digests(engine, verdict):
    """Per (transit, source, node): the content of the united finals."""
    united = {}
    for transit, finals in verdict.items():
        for final in finals:
            key = (transit, final.source, final.node)
            united[key] = (
                engine.or_(united[key], final.bdd)
                if key in united
                else final.bdd
            )
    return {
        key: content_digest(serialize(engine, bdd))
        for key, bdd in united.items()
    }


def test_a_waypoint_query_compiles_the_devices_it_visits(fattree4, tmp_path):
    encoding = HeaderEncoding(metadata_bits=1)
    query = Query(
        sources=("edge-0-0",),
        destinations=("edge-1-1",),
        transits=("core-0",),
        header_space=fattree4.configs["edge-1-1"].bgp.networks[0],
    )
    visited, want = _visited(fattree4, encoding, query)
    assert 1 < len(visited) < len(fattree4.configs)
    trace_dir = str(tmp_path / "trace")
    options = S2Options(num_workers=3, encoding=encoding, trace_dir=trace_dir)
    with S2Controller(fattree4, options) as controller:
        checker = controller.checker()
        got = _digests(controller.dpo.engine, checker.check_waypoint(query))
        compiled = set()
        for worker in controller.fleet.workers:
            compiled.update(worker.context.predicates)
        stats = controller.dpo.stats
    assert compiled == visited
    assert stats.devices_compiled == len(visited)
    assert got == want and got
    drained = sum(
        span["attrs"].get("compiled", 0)
        for span in load_spans(trace_dir)
        if span["name"] == "worker.drain"
    )
    assert drained == len(visited)


@pytest.mark.parametrize("runtime", ["sequential", "socket"])
def test_an_acl_class_forwards_symbolically(runtime):
    got, want, stats = compare(
        acl_fattree4(),
        S2Options(
            num_workers=3, num_shards=2, runtime=runtime, encoding=ACL_ENCODING
        ),
    )
    assert got == want
    assert stats.symbolic_classes > 0 and stats.supersteps > 0
    assert 0 < stats.devices_compiled <= 20


@pytest.mark.parametrize("workers", [1, 3])
def test_compile_all_builds_what_the_monolith_builds(
    fattree4, fattree4_sim, workers
):
    """Phase 1 driven explicitly: every device compiles once, and a
    single worker's engine holds exactly the monolith's nodes."""
    mono = DataPlaneVerifier.from_simulation(*fattree4_sim)
    mono.compile_predicates()
    with S2Controller(fattree4, S2Options(num_workers=workers)) as controller:
        controller.build_data_plane()
        dpo = controller.dpo
        dpo.compile_all()
        stats = dpo.stats
        assert stats.devices_compiled == len(fattree4.configs)
        if workers == 1:
            assert stats.predicate_busiest_nodes == mono.engine.node_count
        else:
            assert 0 < stats.predicate_busiest_nodes < mono.engine.node_count
        dpo.compile_all()  # nothing left to compile
        assert stats.devices_compiled == len(fattree4.configs)


def test_compiles_raise_the_floor_by_their_live_nodes(fattree4):
    """A compile's nodes are roots, not garbage: after a forward that
    compiled devices, a collection leaves exactly the floor."""
    with S2Controller(fattree4, S2Options(num_workers=2)) as controller:
        controller.build_data_plane()
        controller.dpo.forward(["edge-0-0", "edge-3-1"], TRUE)
        for worker in controller.fleet.workers:
            assert worker.context.predicates
            floor = worker.status()["engine.gc_floor"]
            worker.collect_engine_garbage()
            assert worker.engine.node_count == floor
