"""Monolithic fixed-point simulation engine.

This is the "single logical server" engine the Batfish baseline uses, and
also the per-worker execution core inside S2 (a worker is, in effect, this
engine restricted to its assigned nodes, with shadow proxies standing in
for everything else).

The engine realizes the paper's Algorithm 1 without the controller/worker
split: IGP protocols run to fixation first, then BGP runs to fixation,
optionally once per prefix shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..config.loader import Snapshot
from ..net.ip import Prefix
from .node import RouterNode
from .ospf import OspfProcess
from .route import BgpRoute, Protocol, Route


class ConvergenceError(RuntimeError):
    """Raised when the fixed point is not reached within the round budget.

    Carries enough context to debug the non-convergence: which shard was
    running, how many rounds were spent, and — in the distributed engine —
    which workers/nodes were still flapping in the final round
    (``still_changing``: worker id -> list of hostnames).
    """

    def __init__(
        self,
        message: str,
        shard_index: Optional[int] = None,
        rounds: Optional[int] = None,
        still_changing: Optional[Dict[int, List[str]]] = None,
    ) -> None:
        details = []
        if shard_index is not None:
            details.append(f"shard={shard_index}")
        if rounds is not None:
            details.append(f"rounds={rounds}")
        if still_changing:
            flapping = "; ".join(
                f"worker{worker_id}: {', '.join(nodes) or '<unknown>'}"
                for worker_id, nodes in sorted(still_changing.items())
            )
            details.append(f"still changing: {flapping}")
        if details:
            message = f"{message} ({'; '.join(details)})"
        super().__init__(message)
        self.shard_index = shard_index
        self.rounds = rounds
        self.still_changing = still_changing or {}


@dataclass
class SimulationStats:
    """Counters the benchmarks and the memory model consume."""

    bgp_rounds: int = 0
    ospf_rounds: int = 0
    shards_run: int = 0
    peak_candidate_routes: int = 0
    total_selected_routes: int = 0
    work_units: int = 0  # route updates processed


# hostname -> prefix -> ECMP tuple of selected BGP routes
BgpResult = Dict[str, Dict[Prefix, Tuple[BgpRoute, ...]]]


class SimulationEngine:
    """Runs the fixed-point route computation for a set of nodes."""

    def __init__(
        self,
        snapshot: Snapshot,
        max_rounds: int = 200,
    ) -> None:
        self.snapshot = snapshot
        self.max_rounds = max_rounds
        self.nodes: Dict[str, RouterNode] = {}
        self.ospf: Dict[str, OspfProcess] = {}
        self.stats = SimulationStats()
        for hostname, config in sorted(snapshot.configs.items()):
            self.nodes[hostname] = RouterNode(config, snapshot.topology)
            self.ospf[hostname] = OspfProcess(config, snapshot.topology)

    # -- resolvers ----------------------------------------------------------

    def _bgp_resolver(self, name: str) -> Optional[RouterNode]:
        return self.nodes.get(name)

    def _ospf_resolver(self, name: str) -> Optional[OspfProcess]:
        return self.ospf.get(name)

    # -- IGP phase ------------------------------------------------------------

    def run_ospf(self) -> None:
        """Run the OSPF fixed point and install results into main RIBs."""
        if not any(process.enabled for process in self.ospf.values()):
            return
        for round_number in range(self.max_rounds):
            changed = False
            for process in self.ospf.values():
                changed |= process.pull_round(self._ospf_resolver)
            self.stats.ospf_rounds += 1
            if not changed:
                break
        else:
            raise ConvergenceError(
                f"OSPF did not converge within {self.max_rounds} rounds",
                rounds=self.max_rounds,
            )
        for hostname, process in self.ospf.items():
            node = self.nodes[hostname]
            for route in process.routes():
                node.main_rib.add(route)

    # -- BGP phase ---------------------------------------------------------------

    def run_bgp_shard(
        self, shard: Optional[FrozenSet[Prefix]] = None
    ) -> BgpResult:
        """Run BGP to fixation for one prefix shard (None = all prefixes)."""
        for node in self.nodes.values():
            node.begin_shard(shard)
        changed_nodes: List[str] = []
        for round_number in range(self.max_rounds):
            changed_nodes = []
            for hostname, node in self.nodes.items():
                if node.pull_round(self._bgp_resolver, round_number):
                    changed_nodes.append(hostname)
            changed = bool(changed_nodes)
            # A node's count cannot change after its own pull, so the
            # round's update work is the end-of-round candidate total.
            candidate_total = sum(
                node.route_count() for node in self.nodes.values()
            )
            self.stats.work_units += candidate_total
            self.stats.peak_candidate_routes = max(
                self.stats.peak_candidate_routes, candidate_total
            )
            self.stats.bgp_rounds += 1
            if not changed:
                break
        else:
            raise ConvergenceError(
                f"BGP did not converge within {self.max_rounds} rounds",
                rounds=self.max_rounds,
                still_changing={0: changed_nodes},
            )
        self.stats.shards_run += 1
        result: BgpResult = {}
        for hostname, node in self.nodes.items():
            selected = node.finish_shard()
            result[hostname] = selected
            self.stats.total_selected_routes += sum(
                len(routes) for routes in selected.values()
            )
        return result

    def run(
        self, shards: Optional[Iterable[FrozenSet[Prefix]]] = None
    ) -> BgpResult:
        """Full control-plane simulation: IGPs, then BGP over all shards.

        With ``shards`` given, BGP runs once per shard and the per-shard
        results are merged — the monolithic analogue of prefix sharding
        (the "Batfish + prefix sharding" configuration of Figure 4).
        """
        self.run_ospf()
        if shards is None:
            return self.run_bgp_shard(None)
        merged: BgpResult = {name: {} for name in self.nodes}
        for shard in shards:
            shard_result = self.run_bgp_shard(frozenset(shard))
            for hostname, routes in shard_result.items():
                merged[hostname].update(routes)
        return merged

    # -- outputs --------------------------------------------------------------

    def main_routes(self) -> Dict[str, List[Route]]:
        """Connected/static/OSPF routes per node (not sharded)."""
        result = {}
        for hostname, node in self.nodes.items():
            routes: List[Route] = []
            for prefix in node.main_rib.prefixes():
                routes.extend(node.main_rib.routes_for(prefix))
            result[hostname] = routes
        return result

    def local_prefixes(self) -> Dict[str, FrozenSet[Prefix]]:
        return {
            hostname: node.local_prefixes
            for hostname, node in self.nodes.items()
        }


def collect_network_prefixes(snapshot: Snapshot) -> FrozenSet[Prefix]:
    """All BGP prefixes of a snapshot (originations, aggregates,
    conditionals, and redistribution sources), per §4.5's collection rule."""
    prefixes = set()
    for config in snapshot.configs.values():
        bgp = config.bgp
        if bgp is None:
            continue
        prefixes.update(bgp.networks)
        for aggregate in bgp.aggregates:
            prefixes.add(aggregate.prefix)
        for conditional in bgp.conditionals:
            prefixes.add(conditional.prefix)
        if "connected" in bgp.redistribute:
            for iface in config.interfaces.values():
                if iface.prefix is not None and not iface.shutdown:
                    prefixes.add(iface.prefix)
        if "static" in bgp.redistribute:
            for static in config.static_routes:
                prefixes.add(static.prefix)
        if "ospf" in bgp.redistribute and config.ospf is not None:
            for iface_name in config.ospf.interfaces:
                iface = config.interfaces.get(iface_name)
                if iface is not None and iface.prefix is not None:
                    prefixes.add(iface.prefix)
    return frozenset(prefixes)
