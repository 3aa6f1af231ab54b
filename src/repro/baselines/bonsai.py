"""The Bonsai baseline: per-destination control-plane compression (§5.4).

Bonsai (Beckett et al., SIGCOMM 2018) compresses a network so that route
computation on the abstraction agrees with the concrete network for a
fixed destination.  For a synthesized FatTree and one destination prefix,
the quotient has exactly six nodes (the paper's footnote 3):

1. the destination edge switch,
2. an aggregation switch in the destination pod,
3. another edge switch in the destination pod,
4. one core switch,
5. an aggregation switch in a different pod,
6. an edge switch in that different pod.

To check all-pair reachability, the verifier compresses per destination
prefix and simulates each compressed instance.  This reproduces the
Figure 5 profile: memory stays flat (every instance is 6 nodes) but total
work grows with the destination count × the per-destination compression
work (which scans the whole topology), so Bonsai outscales Batfish yet
times out on hyper-scale FatTrees — it is compute-bound, not
memory-bound.

Like the paper's setup, the compression step here is FatTree-specific
(a wildcard destination defeats it, which is why the paper runs Bonsai
per-prefix in the first place).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..config.loader import Snapshot, make_snapshot, parse_device
from ..dist.resources import DEFAULT_WORKER_CAPACITY, WorkerResources
from ..net.ip import Prefix, format_ip
from ..obs.tracer import stopwatch
from ..routing.engine import SimulationEngine


#: Work units of compressing one destination, per topology element.
#: Bonsai's compression interprets the full configuration of every device
#: (BDD-based abstract interpretation), far costlier per topology element
#: than one route-exchange step (one work unit of the simulation engine).
COMPRESSION_COST_FACTOR = 300


class BonsaiTimeout(RuntimeError):
    """The verification work exceeded the budget (§5.4's time-out).

    The budget is a deterministic work count, so whether a run times out
    never depends on the speed of the machine it runs on."""


class CompressionError(RuntimeError):
    """The topology does not admit the 6-node FatTree quotient."""


@dataclass
class BonsaiStats:
    destinations_checked: int = 0
    compression_work: int = 0     # topology elements x the cost factor
    simulation_work: int = 0      # the quotient engines' work units
    measured_seconds: float = 0.0

    @property
    def total_work(self) -> int:
        return self.compression_work + self.simulation_work


@dataclass(frozen=True)
class QuotientClasses:
    """The six abstraction classes for one destination."""

    dest_edge: str
    same_pod_agg: str
    same_pod_edge: str
    core: str
    other_pod_agg: str
    other_pod_edge: str

    def members(self) -> Tuple[str, ...]:
        return (
            self.dest_edge,
            self.same_pod_agg,
            self.same_pod_edge,
            self.core,
            self.other_pod_agg,
            self.other_pod_edge,
        )


class BonsaiVerifier:
    """Per-destination compression + simulation over a FatTree snapshot."""

    def __init__(
        self,
        snapshot: Snapshot,
        capacity: int = DEFAULT_WORKER_CAPACITY,
        work_budget: Optional[int] = None,
    ) -> None:
        if snapshot.metadata.get("kind") != "fattree":
            raise CompressionError(
                "the 6-node quotient requires a synthesized FatTree"
            )
        self.snapshot = snapshot
        self.resources = WorkerResources(name="bonsai", capacity=capacity)
        self.work_budget = work_budget
        self.stats = BonsaiStats()
        self._topology_size = len(snapshot.configs) + sum(
            1 for _ in snapshot.topology.links()
        )

    # -- compression --------------------------------------------------------

    def destinations(self) -> List[Tuple[str, Prefix]]:
        """(edge switch, announced prefix) pairs, one per destination."""
        result = []
        for hostname, config in sorted(self.snapshot.configs.items()):
            if config.bgp is None:
                continue
            for prefix in config.bgp.networks:
                result.append((hostname, prefix))
        return result

    def compress(self, dest_edge: str) -> QuotientClasses:
        """Select the six representatives for ``dest_edge``.

        This walks the real topology metadata — the compression *work*
        counted per destination is proportional to the concrete topology
        size, which is what makes Bonsai compute-bound at scale.
        """
        topology = self.snapshot.topology
        dest = topology.node(dest_edge)
        if dest.role != "edge" or dest.pod is None:
            raise CompressionError(f"{dest_edge} is not an edge switch")
        same_pod_agg = same_pod_edge = core = None
        other_pod_agg = other_pod_edge = None
        for node in sorted(topology.nodes(), key=lambda n: n.name):
            if node.role == "agg" and node.pod == dest.pod:
                same_pod_agg = same_pod_agg or node.name
            elif node.role == "edge" and node.pod == dest.pod:
                if node.name != dest_edge:
                    same_pod_edge = same_pod_edge or node.name
            elif node.role == "agg" and node.pod != dest.pod:
                other_pod_agg = other_pod_agg or node.name
            elif node.role == "edge" and node.pod != dest.pod:
                other_pod_edge = other_pod_edge or node.name
        if same_pod_agg is not None:
            core = next(
                (
                    n
                    for n in sorted(topology.neighbors(same_pod_agg))
                    if topology.node(n).role == "core"
                ),
                None,
            )
            # The quotient's other-pod agg must attach to the same core.
            if core is not None:
                other_pod_agg = next(
                    (
                        n
                        for n in sorted(topology.neighbors(core))
                        if topology.node(n).pod != dest.pod
                    ),
                    other_pod_agg,
                )
                if other_pod_agg is not None:
                    other_pod_edge = next(
                        (
                            n
                            for n in sorted(topology.neighbors(other_pod_agg))
                            if topology.node(n).role == "edge"
                        ),
                        other_pod_edge,
                    )
        classes = QuotientClasses(
            dest_edge=dest_edge,
            same_pod_agg=same_pod_agg or "",
            same_pod_edge=same_pod_edge or "",
            core=core or "",
            other_pod_agg=other_pod_agg or "",
            other_pod_edge=other_pod_edge or "",
        )
        if not all(classes.members()):
            raise CompressionError(
                f"could not form the 6-node quotient for {dest_edge} "
                f"(k must be >= 4)"
            )
        return classes

    def build_quotient(self, classes: QuotientClasses, prefix: Prefix) -> Snapshot:
        """A 6-node snapshot: the representatives re-wired as a minimal
        FatTree slice, with only the destination prefix announced."""
        nodes = classes.members()
        asn = {name: 65000 + i for i, name in enumerate(nodes)}
        links = [
            (classes.dest_edge, classes.same_pod_agg),
            (classes.same_pod_edge, classes.same_pod_agg),
            (classes.same_pod_agg, classes.core),
            (classes.core, classes.other_pod_agg),
            (classes.other_pod_agg, classes.other_pod_edge),
        ]
        iface_count = {name: 0 for name in nodes}
        sessions: Dict[str, List[Tuple[int, int, int]]] = {
            name: [] for name in nodes
        }
        base = Prefix.parse("100.127.0.0/16").network
        for index, (a, b) in enumerate(links):
            addr_a = base + 2 * index
            addr_b = addr_a + 1
            sessions[a].append((addr_a, addr_b, asn[b]))
            sessions[b].append((addr_b, addr_a, asn[a]))
        texts = {}
        for name in nodes:
            lines = [f"hostname {name}", "!"]
            for i, (local, _peer, _pasn) in enumerate(sessions[name]):
                mask = format_ip(Prefix(local, 31).mask)
                lines += [
                    f"interface eth{i}",
                    f" ip address {format_ip(local)} {mask}",
                    "!",
                ]
            lines.append(f"router bgp {asn[name]}")
            lines.append(" maximum-paths 64")
            for local, peer, peer_asn in sessions[name]:
                lines.append(
                    f" neighbor {format_ip(peer)} remote-as {peer_asn}"
                )
            if name == classes.dest_edge:
                lines.append(
                    f" network {format_ip(prefix.network)} "
                    f"mask {format_ip(prefix.mask)}"
                )
            lines.append("!")
            texts[name] = "\n".join(lines) + "\n"
        configs = {
            name: parse_device(text, "ciscoish")
            for name, text in texts.items()
        }
        return make_snapshot(configs, name=f"bonsai-{classes.dest_edge}")

    # -- verification ----------------------------------------------------------

    def check_destination(self, dest_edge: str, prefix: Prefix) -> bool:
        """Compress, simulate, and check that every abstract node can
        reach the destination prefix.  Returns True when reachable."""
        clock = stopwatch()
        classes = self.compress(dest_edge)
        # The abstraction pass interprets the concrete topology once.
        self.stats.compression_work += (
            self._topology_size * COMPRESSION_COST_FACTOR
        )
        quotient = self.build_quotient(classes, prefix)
        engine = SimulationEngine(quotient)
        routes = engine.run()
        self.stats.simulation_work += engine.stats.work_units
        self.resources.update_memory(
            candidate_routes=engine.stats.peak_candidate_routes,
            bdd_nodes=0,
        )
        self.stats.destinations_checked += 1
        self.stats.measured_seconds += clock.seconds
        if (
            self.work_budget is not None
            and self.stats.total_work > self.work_budget
        ):
            raise BonsaiTimeout(
                f"work {self.stats.total_work} exceeded "
                f"budget {self.work_budget} after "
                f"{self.stats.destinations_checked} destinations"
            )
        # Reachable iff every non-destination abstract node selected a
        # route for the prefix.
        for name in classes.members():
            if name == dest_edge:
                continue
            if prefix not in routes.get(name, {}):
                return False
        return True

    def check_all_destinations(self) -> Dict[Tuple[str, Prefix], bool]:
        """All-pair reachability, Bonsai style: one quotient per prefix."""
        results = {}
        for dest_edge, prefix in self.destinations():
            results[(dest_edge, prefix)] = self.check_destination(
                dest_edge, prefix
            )
        return results
