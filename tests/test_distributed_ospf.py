"""Distributed IGP-before-EGP orchestration (§4.2).

A mixed-protocol network: an OSPF core computes loopback reachability,
and BGP redistributes OSPF routes to an external peer.  The CPO must run
the OSPF fixed point first (distributed, through the same shadow/sidecar
machinery), install the results, and only then run BGP — and the whole
thing must equal the monolithic engine.
"""

import pytest

from tests.conftest import normalize_ribs
from tests.test_serve_session import _assert_monolithic
from repro import FaultPlan, FaultSpec, RetryPolicy
from repro.config.loader import make_snapshot, parse_device
from repro.dist.controller import S2Controller, S2Options
from repro.net.ip import Prefix
from repro.routing.engine import SimulationEngine
from repro.routing.route import Protocol
from repro.serve import ConfigTextDelta, VerifierSession


def mixed_texts():
    """hostname -> (dialect, text): r1 -- r2 -- r3 run OSPF (r1 has a
    loopback); r3 also speaks eBGP to an external router x and
    redistributes OSPF into BGP."""
    r1 = (
        "hostname r1\n"
        "interface e0\n ip address 10.0.0.0 255.255.255.254\n"
        "interface lo0\n ip address 172.16.0.1 255.255.255.255\n"
        "router ospf 1\n"
        " router-id 0.0.0.1\n"
        " network 0.0.0.0 255.255.255.255 area 0\n"
    )
    r2 = (
        "hostname r2\n"
        "interface e0\n ip address 10.0.0.1 255.255.255.254\n"
        "interface e1\n ip address 10.0.0.2 255.255.255.254\n"
        "router ospf 1\n"
        " router-id 0.0.0.2\n"
        " network 0.0.0.0 255.255.255.255 area 0\n"
    )
    r3 = (
        "hostname r3\n"
        "interface e0\n ip address 10.0.0.3 255.255.255.254\n"
        "interface e1\n ip address 10.0.0.4 255.255.255.254\n"
        "router ospf 1\n"
        " router-id 0.0.0.3\n"
        " network 10.0.0.0 0.0.0.255 area 0\n"
        " passive-interface e1\n"
        "router bgp 65003\n"
        " neighbor 10.0.0.5 remote-as 65099\n"
        " redistribute ospf\n"
        " network 172.16.0.1 mask 255.255.255.255\n"
    )
    x = (
        "hostname x\n"
        "interface e0\n ip address 10.0.0.5 255.255.255.254\n"
        "router bgp 65099\n"
        " neighbor 10.0.0.4 remote-as 65003\n"
    )
    return {
        host: ("ciscoish", text)
        for host, text in (("r1", r1), ("r2", r2), ("r3", r3), ("x", x))
    }


def mixed_snapshot():
    configs = {}
    for dialect, text in mixed_texts().values():
        config = parse_device(text, dialect)
        configs[config.hostname] = config
    return make_snapshot(configs)


LOOPBACK = Prefix.parse("172.16.0.1/32")


@pytest.fixture(scope="module")
def snapshot():
    return mixed_snapshot()


@pytest.fixture(scope="module")
def oracle(snapshot):
    engine = SimulationEngine(snapshot)
    routes = engine.run()
    return engine, routes


class TestMonolithicOrdering:
    def test_ospf_ran_first_and_installed(self, oracle):
        engine, _ = oracle
        assert engine.stats.ospf_rounds > 0
        r3_routes = engine.nodes["r3"].main_rib.routes_for(LOOPBACK)
        assert r3_routes and r3_routes[0].protocol is Protocol.OSPF
        assert r3_routes[0].metric == 2

    def test_bgp_advertises_loopback_to_external(self, oracle):
        _, routes = oracle
        got = routes["x"].get(LOOPBACK)
        assert got is not None
        assert got[0].as_path == (65003,)


class TestDistributedOrdering:
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_equal_to_monolithic(self, snapshot, oracle, workers):
        _, expected = oracle
        with S2Controller(
            snapshot, S2Options(num_workers=workers)
        ) as controller:
            stats = controller.run_control_plane()
            assert stats.ospf_rounds > 0
            got = controller.collected_ribs()
            assert normalize_ribs(got) == normalize_ribs(expected)

    def test_ospf_vectors_crossed_workers(self, snapshot):
        # force r1 and r2 onto different workers (random scheme, 4 ways)
        with S2Controller(
            snapshot,
            S2Options(num_workers=4, partition_scheme="random"),
        ) as controller:
            controller.run_control_plane()
            # r3 (wherever it lives) learned the loopback over OSPF
            owner = controller.partition.assignment["r3"]
            worker = controller.fleet.workers[owner]
            node = worker.nodes["r3"]
            routes = node.main_rib.routes_for(LOOPBACK)
            assert routes and routes[0].protocol is Protocol.OSPF

    def test_socket_runtime_handles_ospf(self, snapshot, oracle):
        _, expected = oracle
        with S2Controller(
            snapshot, S2Options(num_workers=2, runtime="socket")
        ) as controller:
            controller.run_control_plane()
            got = controller.collected_ribs()
            assert normalize_ribs(got) == normalize_ribs(expected)


# -- serving: an announce keeps the resident IGP result ---------------------


class _CallLog(FaultPlan):
    """A fault plan that also logs every ``(worker, command)`` call."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = []

    def on_call(self, worker_id, command):
        self.calls.append((worker_id, command))
        return super().on_call(worker_id, command)


def _announce_on_r3(session):
    """r3 announces one more /24: an announce-only delta."""
    dialect, text = mixed_texts()["r3"]
    return session.apply_delta(
        ConfigTextDelta(
            hostname="r3",
            text=text + " network 203.0.113.0 mask 255.255.255.0\n",
            dialect=dialect,
        ),
        timeout=300,
    )


@pytest.mark.parametrize("runtime", ["sequential", "socket"])
@pytest.mark.parametrize(
    "crash",
    [None, FaultSpec(kind="crash", worker=1, command="rebind_snapshot")],
    ids=["fault-free", "crash-at-rebind"],
)
def test_an_announce_restores_ospf_only_on_a_respawned_worker(
    snapshot, runtime, crash
):
    """The workers keep their installed OSPF routes across an announce,
    so the epoch reads no checkpoint and sends no ``restore_ospf_state``
    — except to a worker respawned mid-epoch, whose replay restores it;
    either way the committed view is the monolith's."""
    plan = _CallLog()
    options = S2Options(
        num_workers=2,
        num_shards=2,
        runtime=runtime,
        fault_plan=plan,
        retry_policy=RetryPolicy(backoff_base=0.001),
    )
    with VerifierSession(snapshot, options) as session:
        assert session._controller.cpo.stats.ospf_rounds > 0
        if crash is not None:
            plan.add(crash)  # armed after the boot, fires in the announce
        del plan.calls[:]
        result = _announce_on_r3(session)
        assert result.kind == "announce"
        assert not result.sequential_fallback
        restores = [w for w, c in plan.calls if c == "restore_ospf_state"]
        if crash is None:
            assert restores == []
        else:
            assert plan.count("crash") == 1, "the fault never fired"
            assert restores == [crash.worker]
        _assert_monolithic(session)
