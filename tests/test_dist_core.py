"""Tests for the distributed framework internals: resources, storage,
workers, shadows, sidecars."""

import os
import pickle

import pytest

from repro.dist.message import RouteBatch, measured_size
from repro.dist.partition import partition
from repro.dist import resources as model
from repro.dist.resources import (
    ClusterReport,
    SimulatedOOM,
    WorkerResources,
    memory_bytes,
)
from repro.dist.sidecar import Sidecar
from repro.dist.storage import RouteStore
from repro.dist.worker import ShadowNode, Worker
from repro.net.ip import Prefix
from repro.routing.route import BgpRoute


class TestCostModel:
    def test_memory_bytes_components(self):
        base = memory_bytes(0, 0, 0)
        assert base == model.WORKER_BASE_BYTES
        with_routes = memory_bytes(10, 0, 0)
        assert with_routes == base + 10 * model.ROUTE_BYTES
        with_all = memory_bytes(10, 100, 5, fib_entries=7)
        assert with_all == (
            base
            + 10 * model.ROUTE_BYTES
            + 100 * model.BDD_NODE_BYTES
            + 5 * model.NODE_BASE_BYTES
            + 7 * model.FIB_ENTRY_BYTES
        )


class TestWorkerResources:
    def test_update_memory_tracks_peak(self):
        resources = WorkerResources(name="w", capacity=1 << 30)
        resources.update_memory(100, 0)
        first = resources.current_bytes
        resources.update_memory(10, 0)
        assert resources.current_bytes < first
        assert resources.peak_bytes == first

    def test_oom_raised_and_flagged(self):
        resources = WorkerResources(name="w", capacity=1)
        with pytest.raises(SimulatedOOM) as exc:
            resources.update_memory(1000, 0)
        assert resources.oom
        assert exc.value.worker == "w"

    def test_oom_not_raised_unenforced(self):
        resources = WorkerResources(name="w", capacity=1)
        resources.update_memory(1000, 0, enforce=False)
        assert not resources.oom

    def test_charge_rpc(self):
        resources = WorkerResources(name="w", capacity=1 << 30)
        resources.charge_rpc(1000, messages=3)
        resources.charge_rpc(24)
        assert resources.rpc_bytes_sent == 1024
        assert resources.rpc_messages_sent == 4

    def test_cluster_report(self):
        a = WorkerResources(name="a")
        b = WorkerResources(name="b")
        a.peak_bytes, b.peak_bytes = 100, 50
        b.rpc_bytes_sent = 7
        report = ClusterReport(workers=[a, b])
        assert report.peak_worker_bytes == 100
        assert report.total_rpc_bytes == 7
        assert not report.any_oom
        assert report.by_name()["b"].peak_bytes == 50


class TestRouteStore:
    def test_write_read_roundtrip(self, tmp_path):
        store = RouteStore(str(tmp_path / "spool"))
        prefix = Prefix.parse("10.0.0.0/24")
        routes = {
            "node1": {prefix: (BgpRoute(prefix=prefix, next_hop=1, from_node="x"),)}
        }
        written = store.write_shard(0, 0, routes)
        assert written > 0
        assert store.read_shard(0, 0) == routes

    def test_merged_routes_across_shards(self, tmp_path):
        store = RouteStore(str(tmp_path / "spool"))
        p1, p2 = Prefix.parse("10.0.0.0/24"), Prefix.parse("10.1.0.0/24")
        store.write_shard(0, 0, {"n": {p1: ()}})
        store.write_shard(0, 1, {"n": {p2: ()}})
        store.write_shard(1, 0, {"m": {p1: ()}})
        merged = store.merged_routes(0)
        assert set(merged["n"]) == {p1, p2}
        assert "m" not in merged

    def test_owned_store_cleans_up(self):
        store = RouteStore()
        directory = store.directory
        store.write_shard(0, 0, {})
        store.close()
        assert not os.path.isdir(directory)

    def test_external_dir_not_deleted(self, tmp_path):
        spool = str(tmp_path / "spool")
        with RouteStore(spool) as store:
            store.write_shard(0, 0, {})
        assert os.path.isdir(spool)

    def test_bytes_written_accumulates(self, tmp_path):
        store = RouteStore(str(tmp_path / "s"))
        a = store.write_shard(0, 0, {})
        b = store.write_shard(0, 1, {})
        assert store.bytes_written == a + b


@pytest.fixture()
def worker_pair(fattree4):
    """Two workers splitting FatTree4 by the metis scheme, wired by
    sidecars — the minimal distributed setup."""
    result = partition(fattree4, 2, scheme="metis")
    workers = [
        Worker(i, fattree4, result.assignment) for i in range(2)
    ]
    sidecars = [Sidecar(w) for w in workers]
    for sidecar in sidecars:
        sidecar.register_peers(sidecars)
    return workers, sidecars


class TestWorker:
    def test_real_nodes_match_assignment(self, worker_pair, fattree4):
        workers, _ = worker_pair
        owned = sorted(
            name for w in workers for name in w.nodes
        )
        assert owned == sorted(fattree4.topology.node_names())
        assert not (set(workers[0].nodes) & set(workers[1].nodes))

    def test_shadow_created_on_demand(self, worker_pair):
        workers, _ = worker_pair
        remote_name = next(iter(workers[1].nodes))
        shadow = workers[0]._resolve(remote_name)
        assert isinstance(shadow, ShadowNode)
        assert shadow.name == remote_name
        # resolution is cached
        assert workers[0]._resolve(remote_name) is shadow

    def test_real_node_resolved_directly(self, worker_pair):
        workers, _ = worker_pair
        local_name = next(iter(workers[0].nodes))
        assert workers[0]._resolve(local_name) is workers[0].nodes[local_name]

    def test_shadow_answers_from_mailbox(self, worker_pair):
        workers, _ = worker_pair
        shadow = ShadowNode("ghost", workers[0])
        assert shadow.advertise(42) == ()
        route = BgpRoute(
            prefix=Prefix.parse("10.0.0.0/24"), next_hop=1, from_node="ghost"
        )
        workers[0].mailbox[("ghost", 42)] = (route,)
        assert shadow.advertise(42) == (route,)

    def test_boundary_exports_target_remote_sessions_only(self, worker_pair):
        workers, _ = worker_pair
        for w in workers:
            w.begin_shard(None)
        batches = workers[0].compute_exports(0)
        assert set(batches) <= {1}
        for batch in batches.values():
            for (exporter, _peer), _routes in batch.exports.items():
                assert exporter in workers[0].nodes

    def test_round_trip_convergence_matches_monolithic(
        self, worker_pair, fattree4_sim
    ):
        workers, sidecars = worker_pair
        _, expected = fattree4_sim
        for w in workers:
            w.begin_shard(None)
        for round_token in range(50):
            for worker, sidecar in zip(workers, sidecars):
                for batch in worker.compute_exports(round_token).values():
                    sidecar.queue_routes(batch)
            for sidecar in sidecars:
                sidecar.flush_routes()
            changed = False
            for worker in workers:
                changed |= worker.pull_round(round_token).changed
            if not changed:
                break
        merged = {}
        for worker in workers:
            merged.update(worker.finish_shard())
        for host, table in expected.items():
            assert merged.get(host, {}) == table

    def test_finish_shard_frees_memory(self, worker_pair):
        workers, sidecars = worker_pair
        for w in workers:
            w.begin_shard(None)
        for round_token in range(50):
            for worker, sidecar in zip(workers, sidecars):
                for batch in worker.compute_exports(round_token).values():
                    sidecar.queue_routes(batch)
            for sidecar in sidecars:
                sidecar.flush_routes()
            if not any(w.pull_round(round_token).changed for w in workers):
                break
        before = workers[0].update_memory(enforce=False)
        workers[0].finish_shard()
        after = workers[0].update_memory(enforce=False)
        assert after < before

    def test_sidecar_charges_sender(self, worker_pair):
        workers, sidecars = worker_pair
        batch = RouteBatch(
            source_worker=0, target_worker=1, round_token=0, exports={}
        )
        size = sidecars[0].queue_routes(batch)
        sidecars[0].flush_routes()
        assert size == measured_size(batch)
        assert workers[0].resources.rpc_bytes_sent == size
        assert workers[1].resources.rpc_bytes_sent == 0

    def test_shard_filter_restricts_exports(self, worker_pair, fattree4):
        workers, sidecars = worker_pair
        from repro.dist.sharding import make_shards

        shard = make_shards(fattree4, 4)[0]
        for w in workers:
            w.begin_shard(shard)
        for round_token in range(50):
            for worker, sidecar in zip(workers, sidecars):
                for batch in worker.compute_exports(round_token).values():
                    sidecar.queue_routes(batch)
            for sidecar in sidecars:
                sidecar.flush_routes()
            if not any(w.pull_round(round_token).changed for w in workers):
                break
        merged = {}
        for worker in workers:
            merged.update(worker.finish_shard())
        for table in merged.values():
            assert set(table) <= set(shard.prefixes)


class TestMessages:
    def test_measured_size_is_pickle_length(self):
        batch = RouteBatch(
            source_worker=0, target_worker=1, round_token=3, exports={}
        )
        assert measured_size(batch) == len(
            pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL)
        )

    def test_route_batch_count(self):
        prefix = Prefix.parse("10.0.0.0/24")
        route = BgpRoute(prefix=prefix, next_hop=1, from_node="a")
        batch = RouteBatch(
            source_worker=0,
            target_worker=1,
            round_token=0,
            exports={("a", 5): [route, route]},
        )
        assert batch.route_count() == 2
