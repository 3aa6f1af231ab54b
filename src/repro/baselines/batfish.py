"""The Batfish baseline: monolithic verification on one logical server.

This wraps the same switch models and DPV substrate S2 uses, but runs
everything inside one process with one memory budget and one BDD engine —
the configuration the paper compares against.  Optional prefix sharding
reproduces the "Batfish + prefix sharding" series of Figure 4 and the
FatTree50/60 FIB generation of Figure 10.

Resource semantics match the S2 workers: candidate routes and BDD nodes
are charged against a single logical server's capacity; exceeding it
raises :class:`~repro.dist.resources.SimulatedOOM` — the baseline's OOMs
in Figures 4, 5, and 8.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..bdd.headerspace import HeaderEncoding
from ..config.loader import Snapshot
from ..dataplane.queries import PropertyChecker, Query, ReachabilityResult
from ..dataplane.verifier import DataPlaneVerifier
from ..dist.resources import DEFAULT_WORKER_CAPACITY, WorkerResources
from ..dist.sharding import PrefixShard, make_shards
from ..net.ip import Prefix
from ..routing.engine import BgpResult, SimulationEngine


@dataclass
class BatfishStats:
    """Measured wall seconds and BDD work per phase (Figure 10 splits the
    data plane into predicate computation, counted as the nodes the fresh
    engine holds after it, and symbolic forwarding, counted in ops)."""

    bgp_rounds: int = 0
    shards_run: int = 0
    cp_seconds: float = 0.0
    dp_predicate_seconds: float = 0.0
    dp_forward_seconds: float = 0.0
    dp_predicate_nodes: int = 0
    dp_forward_ops: int = 0


class BatfishVerifier:
    """Single-logical-server simulation + verification baseline."""

    def __init__(
        self,
        snapshot: Snapshot,
        num_shards: int = 0,
        capacity: int = DEFAULT_WORKER_CAPACITY,
        encoding: Optional[HeaderEncoding] = None,
        node_limit: int = 1 << 24,
        max_rounds: int = 200,
        max_hops: int = 24,
        seed: int = 7,
    ) -> None:
        self.snapshot = snapshot
        self.num_shards = num_shards
        self.encoding = encoding or HeaderEncoding()
        self.node_limit = node_limit
        self.max_hops = max_hops
        self.resources = WorkerResources(name="batfish", capacity=capacity)
        self.resources.node_count = len(snapshot.configs)
        self.engine = SimulationEngine(snapshot, max_rounds=max_rounds)
        self.stats = BatfishStats()
        self.seed = seed
        self._routes: Optional[BgpResult] = None
        self._dpv: Optional[DataPlaneVerifier] = None
        self._fib_entries = 0

    # -- control plane -----------------------------------------------------

    def run_control_plane(self) -> BgpResult:
        """Simulate OSPF + BGP on the single server, with memory checks
        after every round (via a stats-diff hook into the engine)."""
        if self._routes is not None:
            return self._routes
        started = time.perf_counter()
        shards: Optional[List[PrefixShard]] = None
        if self.num_shards and self.num_shards > 1:
            shards = make_shards(self.snapshot, self.num_shards, seed=self.seed)
        self.engine.run_ospf()
        merged: BgpResult = {name: {} for name in self.snapshot.configs}
        for shard in shards or [None]:
            prefixes = frozenset(shard.prefixes) if shard is not None else None
            result = self._run_shard(prefixes)
            for hostname, routes in result.items():
                merged[hostname].update(routes)
            self.stats.shards_run += 1
        self.stats.cp_seconds = time.perf_counter() - started
        self._routes = merged
        return merged

    def _run_shard(self, prefixes: Optional[FrozenSet[Prefix]]) -> BgpResult:
        """One shard's fixed point with per-round resource accounting."""
        engine = self.engine
        for node in engine.nodes.values():
            node.begin_shard(prefixes)
        for round_token in range(engine.max_rounds):
            changed = False
            for node in engine.nodes.values():
                changed |= node.pull_round(engine._bgp_resolver, round_token)
            candidates = sum(
                node.route_count() for node in engine.nodes.values()
            )
            self.resources.update_memory(candidates, bdd_nodes=0)
            self.stats.bgp_rounds += 1
            if not changed:
                break
        result: BgpResult = {}
        for hostname, node in engine.nodes.items():
            result[hostname] = node.finish_shard()
            node.begin_shard(frozenset())
        return result

    # -- data plane --------------------------------------------------------------

    def build_data_plane(self) -> DataPlaneVerifier:
        if self._dpv is not None:
            return self._dpv
        routes = self.run_control_plane()
        started = time.perf_counter()
        dpv = DataPlaneVerifier.from_simulation(
            self.engine,
            routes,
            encoding=self.encoding,
            node_limit=self.node_limit,
            max_hops=self.max_hops,
        )
        ops_before = dpv.engine.ops
        dpv.compile_predicates()
        self.resources.bdd_ops += dpv.engine.ops - ops_before
        self.stats.dp_predicate_nodes += dpv.engine.node_count
        # The DP phase holds compiled FIBs and the BDD table; the RIB
        # candidates were flushed when the control plane finished.
        self._fib_entries = sum(len(fib) for fib in dpv.fibs.values())
        self.resources.update_memory(
            0, dpv.engine.node_count, fib_entries=self._fib_entries
        )
        self.stats.dp_predicate_seconds += time.perf_counter() - started
        self._dpv = dpv
        return dpv

    def checker(self) -> PropertyChecker:
        dpv = self.build_data_plane()
        return PropertyChecker(
            dpv.engine,
            dpv.encoding,
            self._timed_forward,
            install_waypoints=dpv.install_waypoints,
        )

    def _timed_forward(self, sources, header_bdd, trace=False):
        dpv = self.build_data_plane()
        started = time.perf_counter()
        ops_before = dpv.engine.ops
        finals = dpv.forward(sources, header_bdd, trace)
        ops = dpv.engine.ops - ops_before
        self.stats.dp_forward_ops += ops
        self.resources.bdd_ops += ops
        self.resources.update_memory(
            0, dpv.engine.node_count, fib_entries=self._fib_entries
        )
        self.stats.dp_forward_seconds += time.perf_counter() - started
        return finals

    # -- convenience --------------------------------------------------------------

    def prefix_holders(self) -> List[str]:
        return [
            hostname
            for hostname, config in sorted(self.snapshot.configs.items())
            if config.bgp is not None and config.bgp.networks
        ]

    def all_pair_reachability(self) -> ReachabilityResult:
        holders = self.prefix_holders()
        query = Query(sources=tuple(holders), destinations=tuple(holders))
        return self.checker().check_reachability(query)

    def total_route_count(self) -> int:
        routes = self.run_control_plane()
        return sum(
            len(ecmp)
            for node_routes in routes.values()
            for ecmp in node_routes.values()
        )
