"""Focused tests for the data-plane orchestrator's mechanics."""

import pytest

from repro.bdd.engine import BddOverflowError, TRUE
from repro.bdd.headerspace import HeaderEncoding
from repro.dataplane.forwarding import FinalState
from repro.dataplane.queries import Query
from repro.dist.controller import S2Controller, S2Options
from repro.dist.resources import UNLIMITED_CAPACITY
from repro.net.ip import Prefix


@pytest.fixture(scope="module")
def controller(fattree4):
    controller = S2Controller(
        fattree4, S2Options(num_workers=4, num_shards=2)
    )
    controller.build_data_plane()
    yield controller
    controller.close()


class TestSupersteps:
    def test_supersteps_bounded_by_diameter(self, controller):
        dpo = controller.dpo
        before = dpo.stats.supersteps
        dpo.forward(["edge-0-0"], TRUE)
        steps = dpo.stats.supersteps - before
        # FatTree diameter is 4; BSP needs at most a few extra barriers
        assert 1 <= steps <= 8

    def test_queries_are_isolated(self, controller):
        """Consecutive queries must not leak finals into each other."""
        checker = controller.dpo.checker()
        q1 = Query.single_pair("edge-0-0", "edge-1-0", Prefix.parse("10.1.0.0/24"))
        q2 = Query.single_pair("edge-2-0", "edge-3-0", Prefix.parse("10.3.0.0/24"))
        r1 = checker.check_reachability(q1)
        r2 = checker.check_reachability(q2)
        assert r1.pairs() == [("edge-0-0", "edge-1-0")]
        assert r2.pairs() == [("edge-2-0", "edge-3-0")]

    def test_local_only_query_crosses_no_workers(self, fattree4):
        """With the expert scheme, intra-pod traffic that stays on one
        worker must produce zero cross-worker packets."""
        with S2Controller(
            fattree4,
            S2Options(num_workers=4, partition_scheme="expert"),
        ) as controller:
            controller.build_data_plane()
            dpo = controller.dpo
            before = dpo.stats.packets_crossed
            header = controller.options.encoding.prefix_bdd(
                dpo.engine, Prefix.parse("10.0.1.0/24")
            )
            finals = dpo.forward(["edge-0-0"], header)
            assert any(f.state is FinalState.ARRIVE for f in finals)
            assert dpo.stats.packets_crossed == before

    def test_finals_collected_from_every_worker(self, controller):
        dpo = controller.dpo
        finals = dpo.forward(["edge-0-0"], TRUE)
        arrival_nodes = {
            f.node for f in finals if f.state is FinalState.ARRIVE
        }
        owners = {
            controller.partition.assignment[node] for node in arrival_nodes
        }
        assert owners == {0, 1, 2, 3}


class TestPerWorkerEngines:
    def test_each_worker_has_private_engine(self, controller):
        engines = {id(w.engine) for w in controller.workers}
        assert len(engines) == 4
        assert all(w.engine.node_count > 2 for w in controller.workers)

    def test_worker_engine_smaller_than_monolithic(
        self, controller, fattree4, fattree4_sim
    ):
        """§4.3: per-worker node tables are smaller than one shared table."""
        from repro.dataplane.verifier import DataPlaneVerifier

        engine, routes = fattree4_sim
        mono = DataPlaneVerifier.from_simulation(engine, routes)
        mono.compile_predicates()
        for worker in controller.workers:
            assert worker.engine.node_count < mono.engine.node_count

    def test_worker_bdd_overflow_surfaces(self, fattree4):
        with S2Controller(
            fattree4,
            S2Options(
                num_workers=2,
                node_limit=32,
                worker_capacity=UNLIMITED_CAPACITY,
            ),
        ) as controller:
            with pytest.raises(BddOverflowError):
                controller.build_data_plane()


class TestEncodingPlumbing:
    def test_custom_encoding_reaches_workers(self, fattree4):
        encoding = HeaderEncoding(fields=("dst", "proto"), metadata_bits=1)
        with S2Controller(
            fattree4, S2Options(num_workers=2, encoding=encoding)
        ) as controller:
            controller.build_data_plane()
            assert controller.dpo.engine.num_vars == encoding.num_vars
            for worker in controller.workers:
                assert worker.engine.num_vars == encoding.num_vars

    def test_waypoint_bits_cleared_between_queries(self, fattree4):
        encoding = HeaderEncoding(metadata_bits=1)
        with S2Controller(
            fattree4, S2Options(num_workers=2, encoding=encoding)
        ) as controller:
            checker = controller.checker()
            q = Query(
                sources=("edge-0-0",),
                destinations=("edge-1-0",),
                transits=("edge-1-0",),
                header_space=Prefix.parse("10.1.0.0/24"),
            )
            assert checker.check_waypoint(q) == {"edge-1-0": []}
            # a plain reachability query afterwards must not have stale
            # write rules installed anywhere
            controller.dpo.install_waypoints(())
            assert all(
                not (w.context and w.context.waypoint_bits)
                for w in controller.workers
            )


class TestEngineMemoryManagement:
    def test_worker_node_counts_flat_across_repeated_queries(self, fattree4):
        """Repeating a query on a warm engine must keep per-worker node
        tables flat: the first boundary after the build collects, and
        later repeats find every node they need already in the table
        (growth-triggered collection never fires)."""
        with S2Controller(
            fattree4, S2Options(num_workers=4, num_shards=2)
        ) as controller:
            controller.build_data_plane()
            dpo = controller.dpo
            counts = []
            for _ in range(5):
                dpo.forward(["edge-0-0"], TRUE)
                counts.append(
                    max(w.engine.node_count for w in controller.workers)
                )
            # The first query may allocate fresh structure; after that the
            # footprint must stabilize (repeats reuse the warm table).
            assert counts[1:] == [counts[1]] * len(counts[1:])
            gc_runs = sum(
                c.get("gc_runs", 0)
                for c in dpo.worker_engine_counters()
            )
            assert gc_runs > 0

    def test_predicates_survive_gc(self, fattree4):
        """Query results must be identical before and after collections
        (the predicate roots and their remapped ids stay correct)."""
        with S2Controller(
            fattree4, S2Options(num_workers=4, num_shards=2)
        ) as controller:
            controller.build_data_plane()
            checker = controller.dpo.checker()
            q = Query.single_pair(
                "edge-0-0", "edge-1-0", Prefix.parse("10.1.0.0/24")
            )
            first = checker.check_reachability(q).pairs()
            for _ in range(3):
                controller.dpo.forward(["edge-2-0"], TRUE)
            assert checker.check_reachability(q).pairs() == first

    def test_engine_counters_exposed(self, controller):
        controller.dpo.forward(["edge-0-0"], TRUE)
        for counters in controller.dpo.worker_engine_counters():
            assert counters["node_count"] > 2
            assert 0.0 <= counters["cache_hit_rate"] <= 1.0
        assert controller.dpo.stats.peak_worker_nodes > 2


class TestSendDedup:
    def test_repeated_query_dedups_cross_worker_payloads(self, fattree4):
        with S2Controller(
            fattree4, S2Options(num_workers=4, num_shards=2)
        ) as controller:
            controller.build_data_plane()
            dpo = controller.dpo
            dpo.forward(["edge-0-0"], TRUE)
            baseline = sum(
                s.dedup_counters()["hits"] for s in dpo.sidecars
            )
            dpo.forward(["edge-0-0"], TRUE)
            after = sum(s.dedup_counters()["hits"] for s in dpo.sidecars)
            # The identical query re-crosses the same worker boundaries
            # with the identical symbolic packets.
            assert after > baseline
            assert dpo.stats.dedup_bytes_saved > 0

    def test_dedup_does_not_change_finals(self, fattree4):
        results = []
        for dedup in (True, False):
            with S2Controller(
                fattree4, S2Options(num_workers=4, num_shards=2)
            ) as controller:
                controller.build_data_plane()
                dpo = controller.dpo
                for sidecar in dpo.sidecars:
                    sidecar.dedup_packets = dedup
                finals = dpo.forward(["edge-0-0"], TRUE)
                results.append(
                    sorted(
                        (f.state.value, f.node, dpo.engine.sat_count(f.bdd))
                        for f in finals
                    )
                )
        assert results[0] == results[1]

    def test_dedup_reduces_charged_bytes(self, fattree4):
        """The second identical query must charge fewer RPC bytes than
        the first (references instead of full node lists)."""
        with S2Controller(
            fattree4, S2Options(num_workers=4, num_shards=2)
        ) as controller:
            controller.build_data_plane()
            dpo = controller.dpo

            def total_rpc_bytes():
                return sum(
                    w.resources.rpc_bytes_sent for w in controller.workers
                )

            before_first = total_rpc_bytes()
            dpo.forward(["edge-0-0"], TRUE)
            first = total_rpc_bytes() - before_first
            before_second = total_rpc_bytes()
            dpo.forward(["edge-0-0"], TRUE)
            second = total_rpc_bytes() - before_second
            assert 0 < second < first
