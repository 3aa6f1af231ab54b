"""The paper's core correctness property: S2's distributed verification
produces exactly the monolithic verifier's results — for every worker
count, partition scheme, shard count, and runtime.

(§5.3: "We run both S2 and Batfish on the real DCN ... and they output
the same set of RIBs.")
"""

import pytest

from tests.conftest import normalize_ribs
from repro.bdd.engine import FALSE
from repro.dataplane.queries import Query
from repro.dist.controller import S2Controller, S2Options
from repro.net.ip import Prefix


def s2_ribs(snapshot, **options):
    with S2Controller(snapshot, S2Options(**options)) as controller:
        controller.run_control_plane()
        return normalize_ribs(controller.collected_ribs())


class TestControlPlaneEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4, 7])
    def test_fattree_worker_counts(self, fattree4, fattree4_sim, workers):
        _, expected = fattree4_sim
        got = s2_ribs(fattree4, num_workers=workers)
        assert got == normalize_ribs(expected)

    @pytest.mark.parametrize("shards", [0, 2, 5, 8])
    def test_fattree_shard_counts(self, fattree4, fattree4_sim, shards):
        _, expected = fattree4_sim
        got = s2_ribs(fattree4, num_workers=3, num_shards=shards)
        assert got == normalize_ribs(expected)

    @pytest.mark.parametrize(
        "scheme", ["metis", "random", "expert", "imbalanced", "commheavy"]
    )
    def test_fattree_partition_schemes(self, fattree4, fattree4_sim, scheme):
        _, expected = fattree4_sim
        got = s2_ribs(
            fattree4, num_workers=4, partition_scheme=scheme, num_shards=3
        )
        assert got == normalize_ribs(expected)

    @pytest.mark.parametrize("runtime", ["sequential", "socket"])
    def test_dcn_runtimes(self, dcn1, dcn1_sim, runtime):
        _, expected = dcn1_sim
        got = s2_ribs(dcn1, num_workers=4, num_shards=6, runtime=runtime)
        assert got == normalize_ribs(expected)

    def test_dcn_many_workers(self, dcn1, dcn1_sim):
        _, expected = dcn1_sim
        got = s2_ribs(dcn1, num_workers=8, num_shards=4)
        assert got == normalize_ribs(expected)


class TestDataPlaneEquivalence:
    @pytest.fixture(scope="class")
    def mono_checker(self, fattree4_sim):
        from repro.dataplane.verifier import DataPlaneVerifier

        engine, routes = fattree4_sim
        dpv = DataPlaneVerifier.from_simulation(engine, routes)
        return dpv

    @pytest.fixture(scope="class")
    def s2_setup(self, fattree4):
        controller = S2Controller(
            fattree4, S2Options(num_workers=4, num_shards=3)
        )
        yield controller, controller.checker()
        controller.close()

    def test_all_pair_reachability_sets_equal(
        self, mono_checker, s2_setup, fattree4
    ):
        controller, s2_checker = s2_setup
        holders = controller.prefix_holders()
        query = Query(sources=tuple(holders), destinations=tuple(holders))
        mono = mono_checker.check_reachability(query)
        dist = s2_checker.check_reachability(query)
        assert set(mono.pairs()) == set(dist.pairs())
        # and the packet sets agree, compared via satisfying counts
        for pair, mono_bdd in mono.reachable.items():
            dist_bdd = dist.reachable.get(pair, FALSE)
            assert mono_checker.engine.sat_count(
                mono_bdd, 32
            ) == controller.dpo.engine.sat_count(dist_bdd, 32), pair

    def test_single_pair_agrees(self, mono_checker, s2_setup):
        _, s2_checker = s2_setup
        query = Query.single_pair(
            "edge-0-0", "edge-1-1", Prefix.parse("10.1.1.0/24")
        )
        assert mono_checker.check_reachability(query).holds(
            "edge-0-0", "edge-1-1"
        )
        assert s2_checker.check_reachability(query).holds(
            "edge-0-0", "edge-1-1"
        )

    def test_loop_free_agrees(self, mono_checker, s2_setup):
        _, s2_checker = s2_setup
        query = Query(sources=("edge-0-0",))
        assert mono_checker.checker().check_loop_free(query) == []
        assert s2_checker.check_loop_free(query) == []

    def test_cross_worker_traffic_actually_happened(self, s2_setup):
        controller, _ = s2_setup
        assert controller.dpo.stats.packets_crossed > 0
        assert controller.report().total_rpc_bytes > 0

    def test_waypoint_distributed(self, fattree4):
        from repro.bdd.headerspace import HeaderEncoding

        options = S2Options(
            num_workers=3,
            num_shards=2,
            encoding=HeaderEncoding(fields=("dst",), metadata_bits=2),
        )
        with S2Controller(fattree4, options) as controller:
            checker = controller.checker()
            # cross-pod traffic from edge-0-0 to edge-1-0's prefix must
            # traverse some aggregation switch of pod 0; but no *specific*
            # agg is a waypoint under ECMP -> expect a violation for one
            # agg, and none for the pair of them is not expressible; use
            # the destination pod's edge itself as a trivially-held
            # waypoint instead.
            query = Query(
                sources=("edge-0-0",),
                destinations=("edge-1-0",),
                transits=("edge-1-0",),
                header_space=Prefix.parse("10.1.0.0/24"),
            )
            violations = checker.check_waypoint(query)
            assert violations == {"edge-1-0": []}
            # a node in a different pod entirely is never visited
            query2 = Query(
                sources=("edge-0-0",),
                destinations=("edge-1-0",),
                transits=("edge-2-0",),
                header_space=Prefix.parse("10.1.0.0/24"),
            )
            violations2 = checker.check_waypoint(query2)
            assert violations2["edge-2-0"]
