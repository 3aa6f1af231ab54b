"""Network partitioning (§4.1, §5.6).

Splits the topology into per-worker segments, prioritizing *balanced load*
(the paper's primary goal — memory is the bottleneck) over minimal edge
cut (secondary).  Node loads are the estimated per-node route counts: the
§4.1 formula for standard FatTrees, uniform otherwise.

Five schemes, matching the paper's Figure 7 study:

``metis``      a METIS-style multilevel partitioner implemented here
               (heavy-edge-matching coarsening → greedy balanced seeding →
               boundary refinement honoring the balance constraint);
``random``     deterministic shuffle into equal-size segments;
``expert``     topology-aware: FatTree pods stay together with cores
               spread; other networks are name-sorted and chunked
               (adjacent names are usually adjacent switches);
``imbalanced`` adversarial: 3/4 of the network on one worker (the paper's
               first extreme);
``commheavy``  adversarial: maximizes the cut — for FatTrees, cores+edges
               separated from aggregations (the paper's second extreme).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from ..config.loader import Snapshot
from ..net.topology import Topology

SCHEMES = ("metis", "random", "expert", "imbalanced", "commheavy")


@dataclass
class PartitionResult:
    """node -> worker index, plus quality metrics."""

    assignment: Dict[str, int]
    num_workers: int
    scheme: str

    @cached_property
    def digest(self) -> str:
        """A digest of the assignment: what a flush records it wrote
        under (:meth:`~repro.dist.storage.RunManifest.mark_shard`)."""
        text = json.dumps(sorted(self.assignment.items()))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    def segments(self) -> List[List[str]]:
        result: List[List[str]] = [[] for _ in range(self.num_workers)]
        for node, worker in sorted(self.assignment.items()):
            result[worker].append(node)
        return result

    def loads(self, node_loads: Dict[str, int]) -> List[int]:
        totals = [0] * self.num_workers
        for node, worker in self.assignment.items():
            totals[worker] += node_loads.get(node, 1)
        return totals

    def edge_cut(self, topology: Topology) -> int:
        """Number of links whose endpoints land on different workers."""
        return sum(
            1
            for a, b in topology.edge_list()
            if self.assignment[a] != self.assignment[b]
        )

    def imbalance(self, node_loads: Dict[str, int]) -> float:
        """max-load / mean-load; 1.0 is perfectly balanced."""
        totals = self.loads(node_loads)
        mean = sum(totals) / len(totals) if totals else 0
        return max(totals) / mean if mean else 1.0


def estimate_loads(snapshot: Snapshot) -> Dict[str, int]:
    """Per-node load estimates (§4.1).

    For FatTrees, core/aggregation nodes process ~k³/2 routes and edge
    nodes ~k³/4.  For nonstandard networks the paper assumes uniform
    loads and leaves better estimation as future work; we use the node's
    degree — the number of sessions bounds both the candidate paths a
    node holds and the symbolic traffic it processes, and it is known
    before simulation.
    """
    topology = snapshot.topology
    if snapshot.metadata.get("kind") == "fattree":
        k = int(snapshot.metadata["k"])
        core_agg = max(1, k ** 3 // 2)
        edge = max(1, k ** 3 // 4)
        loads = {}
        for node in topology.nodes():
            loads[node.name] = edge if node.role == "edge" else core_agg
        return loads
    return {
        node.name: max(1, topology.degree(node.name))
        for node in topology.nodes()
    }


def partition(
    snapshot: Snapshot,
    num_workers: int,
    scheme: str = "metis",
    node_loads: Optional[Dict[str, int]] = None,
    seed: int = 7,
) -> PartitionResult:
    """Partition a snapshot's topology into ``num_workers`` segments."""
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    topology = snapshot.topology
    names = sorted(topology.node_names())
    if num_workers == 1:
        return PartitionResult({n: 0 for n in names}, 1, scheme)
    loads = node_loads or estimate_loads(snapshot)
    if scheme == "random":
        assignment = _random_scheme(names, num_workers, seed)
    elif scheme == "expert":
        assignment = _expert_scheme(snapshot, num_workers)
    elif scheme == "metis":
        assignment = _multilevel_scheme(topology, loads, num_workers, seed)
    elif scheme == "imbalanced":
        assignment = _imbalanced_scheme(names, num_workers)
    elif scheme == "commheavy":
        assignment = _commheavy_scheme(snapshot, num_workers, seed)
    else:
        raise ValueError(f"unknown partition scheme {scheme!r}")
    return PartitionResult(assignment, num_workers, scheme)


def plan_reassignment(
    assignment: Dict[str, int],
    lost_worker: int,
    survivors: Sequence[int],
    node_loads: Optional[Dict[str, int]] = None,
) -> Dict[str, int]:
    """Redistribute a lost worker's nodes across the survivors.

    Deterministic greedy bin packing: the lost worker's nodes, heaviest
    first (ties broken by name), each go to the currently least-loaded
    survivor (ties broken by worker id).  Survivors keep every node they
    already own — only the lost worker's nodes move, so the migration
    cost is proportional to the *lost* segment, not the fleet.

    Returns the complete new ``node -> worker`` assignment.
    """
    survivors = sorted(survivors)
    if not survivors:
        raise ValueError("no survivors to reassign to")
    if lost_worker in survivors:
        raise ValueError(f"worker {lost_worker} is in the survivor set")
    loads = node_loads or {}
    totals = {worker: 0 for worker in survivors}
    for node, worker in assignment.items():
        if worker in totals:
            totals[worker] += loads.get(node, 1)
    orphans = sorted(
        (node for node, worker in assignment.items()
         if worker == lost_worker),
        key=lambda node: (-loads.get(node, 1), node),
    )
    new_assignment = dict(assignment)
    for node in orphans:
        adopter = min(survivors, key=lambda w: (totals[w], w))
        new_assignment[node] = adopter
        totals[adopter] += loads.get(node, 1)
    return new_assignment


# -- simple schemes -----------------------------------------------------------


def _random_scheme(
    names: Sequence[str], num_workers: int, seed: int
) -> Dict[str, int]:
    shuffled = list(names)
    random.Random(seed).shuffle(shuffled)
    return {name: i % num_workers for i, name in enumerate(shuffled)}


def _chunked(names: Sequence[str], num_workers: int) -> Dict[str, int]:
    """Contiguous equal chunks of an ordered name list."""
    assignment = {}
    per = (len(names) + num_workers - 1) // num_workers
    for i, name in enumerate(names):
        assignment[name] = min(i // per, num_workers - 1)
    return assignment


def _expert_scheme(snapshot: Snapshot, num_workers: int) -> Dict[str, int]:
    """The operators' hand strategy (§5.6).

    FatTrees: a pod's aggregation+edge switches share a segment; cores are
    dealt round-robin.  Other topologies: sort by name and chunk — names
    with common prefixes sit close in the topology.
    """
    topology = snapshot.topology
    if snapshot.metadata.get("kind") == "fattree":
        assignment: Dict[str, int] = {}
        pods = sorted(
            {n.pod for n in topology.nodes() if n.pod is not None}
        )
        for pod in pods:
            worker = pod % num_workers
            for node in topology.nodes():
                if node.pod == pod:
                    assignment[node.name] = worker
        cores = sorted(
            n.name for n in topology.nodes() if n.name not in assignment
        )
        for i, name in enumerate(cores):
            assignment[name] = i % num_workers
        return assignment
    return _chunked(sorted(topology.node_names()), num_workers)


def _imbalanced_scheme(
    names: Sequence[str], num_workers: int
) -> Dict[str, int]:
    """3/4 of all switches on worker 0; the rest spread evenly (§5.6)."""
    assignment = {}
    heavy = (len(names) * 3) // 4
    rest_workers = max(1, num_workers - 1)
    for i, name in enumerate(sorted(names)):
        if i < heavy:
            assignment[name] = 0
        else:
            assignment[name] = 1 + (i - heavy) % rest_workers
    return assignment


def _commheavy_scheme(
    snapshot: Snapshot, num_workers: int, seed: int
) -> Dict[str, int]:
    """Maximize the cut: separate adjacent layers (§5.6's second extreme).

    For FatTrees: cores and edges on the first half of the workers,
    aggregations on the other half — every single link crosses workers.
    """
    topology = snapshot.topology
    group_a: List[str] = []
    group_b: List[str] = []
    for node in sorted(topology.nodes(), key=lambda n: n.name):
        layer = node.layer if node.layer is not None else 0
        (group_b if layer % 2 else group_a).append(node.name)
    half = max(1, num_workers // 2)
    assignment = {}
    for i, name in enumerate(group_a):
        assignment[name] = i % half
    for i, name in enumerate(group_b):
        assignment[name] = half + i % max(1, num_workers - half)
    return assignment


# -- the multilevel (METIS-style) scheme -----------------------------------------


@dataclass
class _Graph:
    """A weighted multigraph for coarsening; vertices are ints."""

    weights: List[int]
    adjacency: List[Dict[int, int]]  # vertex -> {neighbor: edge weight}

    @property
    def size(self) -> int:
        return len(self.weights)


def _build_graph(
    topology: Topology, loads: Dict[str, int], names: Sequence[str]
) -> _Graph:
    index = {name: i for i, name in enumerate(names)}
    weights = [max(1, loads.get(name, 1)) for name in names]
    adjacency: List[Dict[int, int]] = [dict() for _ in names]
    for a, b in topology.edge_list():
        ia, ib = index[a], index[b]
        if ia == ib:
            continue
        adjacency[ia][ib] = adjacency[ia].get(ib, 0) + 1
        adjacency[ib][ia] = adjacency[ib].get(ia, 0) + 1
    return _Graph(weights, adjacency)


def _coarsen(graph: _Graph, rng: random.Random) -> Tuple[_Graph, List[int]]:
    """One heavy-edge-matching pass; returns (coarse graph, vertex map)."""
    order = list(range(graph.size))
    rng.shuffle(order)
    match = [-1] * graph.size
    for v in order:
        if match[v] != -1:
            continue
        best, best_weight = -1, -1
        for u, w in graph.adjacency[v].items():
            if match[u] == -1 and w > best_weight:
                best, best_weight = u, w
        if best != -1:
            match[v] = best
            match[best] = v
        else:
            match[v] = v
    coarse_of = [-1] * graph.size
    next_id = 0
    for v in range(graph.size):
        if coarse_of[v] != -1:
            continue
        coarse_of[v] = next_id
        if match[v] != v:
            coarse_of[match[v]] = next_id
        next_id += 1
    weights = [0] * next_id
    adjacency: List[Dict[int, int]] = [dict() for _ in range(next_id)]
    for v in range(graph.size):
        weights[coarse_of[v]] += graph.weights[v]
        for u, w in graph.adjacency[v].items():
            cu, cv = coarse_of[u], coarse_of[v]
            if cu != cv:
                adjacency[cv][cu] = adjacency[cv].get(cu, 0) + w
    return _Graph(weights, adjacency), coarse_of


def _greedy_initial(
    graph: _Graph, num_parts: int, rng: random.Random
) -> List[int]:
    """Seed partition: place vertices heaviest-first on the lightest part,
    preferring a part that already holds a neighbor when balance allows."""
    order = sorted(
        range(graph.size), key=lambda v: -graph.weights[v]
    )
    part = [-1] * graph.size
    part_load = [0] * num_parts
    target = sum(graph.weights) / num_parts
    for v in order:
        candidates = sorted(range(num_parts), key=lambda p: part_load[p])
        lightest = candidates[0]
        chosen = lightest
        best_gain = -1
        for p in candidates:
            if part_load[p] + graph.weights[v] > target * 1.05:
                continue
            gain = sum(
                w
                for u, w in graph.adjacency[v].items()
                if part[u] == p
            )
            if gain > best_gain:
                best_gain, chosen = gain, p
        part[v] = chosen
        part_load[chosen] += graph.weights[v]
    return part


def _refine(
    graph: _Graph, part: List[int], num_parts: int, passes: int = 4
) -> None:
    """Boundary refinement: move vertices when it reduces the cut without
    violating the balance constraint (balance is primary, per §4.1)."""
    part_load = [0] * num_parts
    for v in range(graph.size):
        part_load[part[v]] += graph.weights[v]
    target = sum(graph.weights) / num_parts
    limit = target * 1.03
    for _ in range(passes):
        moved = False
        for v in range(graph.size):
            home = part[v]
            gains: Dict[int, int] = {}
            for u, w in graph.adjacency[v].items():
                gains[part[u]] = gains.get(part[u], 0) + w
            internal = gains.get(home, 0)
            best_part, best_gain = home, 0
            for p, external in gains.items():
                if p == home:
                    continue
                if part_load[p] + graph.weights[v] > limit:
                    continue
                if part_load[home] - graph.weights[v] < target * 0.5:
                    continue
                gain = external - internal
                if gain > best_gain:
                    best_gain, best_part = gain, p
            if best_part != home:
                part_load[home] -= graph.weights[v]
                part_load[best_part] += graph.weights[v]
                part[v] = best_part
                moved = True
        if not moved:
            break


def _multilevel_scheme(
    topology: Topology,
    loads: Dict[str, int],
    num_workers: int,
    seed: int,
) -> Dict[str, int]:
    names = sorted(topology.node_names())
    graph = _build_graph(topology, loads, names)
    rng = random.Random(seed)
    # Coarsen until small (or no further contraction possible).
    levels: List[Tuple[_Graph, List[int]]] = []
    current = graph
    while current.size > max(4 * num_workers, 32):
        coarse, mapping = _coarsen(current, rng)
        if coarse.size >= current.size:
            break
        levels.append((current, mapping))
        current = coarse
    part = _greedy_initial(current, num_workers, rng)
    _refine(current, part, num_workers)
    # Uncoarsen, refining at every level.
    for fine_graph, mapping in reversed(levels):
        part = [part[mapping[v]] for v in range(fine_graph.size)]
        _refine(fine_graph, part, num_workers)
    return {name: part[i] for i, name in enumerate(names)}
