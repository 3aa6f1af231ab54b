"""Prefix sharding (§4.5): DPDG construction and shard packing.

Route computations for different prefixes are mostly independent; the
exceptions are captured in a *directed prefix dependency graph* (DPDG)
with an edge ``p1 → p2`` when computing ``p1`` depends on ``p2``:

* ``p1`` is an aggregate covering the specific ``p2`` (the aggregate
  activates only while a contributor exists), or
* ``p1`` is conditionally advertised watching the presence/absence of
  ``p2`` in the RIB.

Shards are unions of *weakly connected components* of the DPDG, packed
into ``m`` shards by a greedy longest-processing-time rule; equal-size
components are shuffled first so one switch's prefixes do not dominate a
shard (the §4.5 balance fix).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from ..config.loader import Snapshot
from ..net.ip import Prefix
from ..routing.engine import collect_network_prefixes


@dataclass(frozen=True)
class PrefixShard:
    """One shard: an id plus its prefix set."""

    index: int
    prefixes: FrozenSet[Prefix]

    def __len__(self) -> int:
        return len(self.prefixes)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self.prefixes

    def fingerprint(self) -> str:
        """Content digest of the prefix set (index-independent).

        The serving layer stores it per flush index: a shard whose
        fingerprint reappears in the next epoch holds the same prefixes,
        so its flushed results can be carried over even when the packer
        assigned it a different index.
        """
        text = "\n".join(sorted(str(p) for p in self.prefixes))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Dpdg:
    """The directed prefix dependency graph."""

    prefixes: Set[Prefix] = field(default_factory=set)
    edges: Set[Tuple[Prefix, Prefix]] = field(default_factory=set)

    def add_prefix(self, prefix: Prefix) -> None:
        self.prefixes.add(prefix)

    def add_dependency(self, depends: Prefix, on: Prefix) -> None:
        self.prefixes.add(depends)
        self.prefixes.add(on)
        self.edges.add((depends, on))

    def weakly_connected_components(self) -> List[List[Prefix]]:
        """Connected components ignoring edge direction, sorted for
        determinism (largest first, then by first prefix)."""
        neighbors: Dict[Prefix, Set[Prefix]] = {
            prefix: set() for prefix in self.prefixes
        }
        for a, b in self.edges:
            neighbors[a].add(b)
            neighbors[b].add(a)
        seen: Set[Prefix] = set()
        components: List[List[Prefix]] = []
        for prefix in sorted(self.prefixes):
            if prefix in seen:
                continue
            stack = [prefix]
            component: List[Prefix] = []
            seen.add(prefix)
            while stack:
                current = stack.pop()
                component.append(current)
                for neighbor in neighbors[current]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        stack.append(neighbor)
            components.append(sorted(component))
        components.sort(key=lambda c: (-len(c), c[0]))
        return components


def build_dpdg(
    snapshot: Snapshot, include_conditionals: bool = True
) -> Dpdg:
    """Collect every BGP prefix (§4.5's per-protocol collection, including
    redistribution sources) and wire the dependency edges.

    ``include_conditionals=False`` deliberately omits the conditional-
    advertisement edges, producing an *incomplete* DPDG — the scenario
    §7's runtime refinement exists for (tests and the refinement path use
    it to provoke unforeseen dependencies).
    """
    dpdg = Dpdg()
    all_prefixes = collect_network_prefixes(snapshot)
    for prefix in all_prefixes:
        dpdg.add_prefix(prefix)
    for config in snapshot.configs.values():
        bgp = config.bgp
        if bgp is None:
            continue
        for aggregate in bgp.aggregates:
            for candidate in all_prefixes:
                if candidate != aggregate.prefix and aggregate.prefix.contains(
                    candidate
                ):
                    dpdg.add_dependency(aggregate.prefix, candidate)
        if include_conditionals:
            for conditional in bgp.conditionals:
                dpdg.add_dependency(
                    conditional.prefix, conditional.watch_prefix
                )
    return dpdg


def make_shards(
    snapshot: Snapshot,
    num_shards: int,
    seed: int = 11,
    include_conditionals: bool = True,
) -> List[PrefixShard]:
    """Partition the snapshot's prefixes into ``num_shards`` shards.

    Dependent prefixes always co-shard; components are placed largest
    first onto the currently smallest shard, with equal-size components
    shuffled (§4.5).  Returns fewer shards than requested when there are
    fewer components.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    dpdg = build_dpdg(snapshot, include_conditionals=include_conditionals)
    components = dpdg.weakly_connected_components()
    return pack_components(components, num_shards, seed)


def pack_components(
    components: Sequence[Sequence[Prefix]], num_shards: int, seed: int = 11
) -> List[PrefixShard]:
    """Greedy LPT packing of dependency components into shards."""
    # Shuffle runs of equal-size components so prefixes originated by the
    # same switch (which tend to be enumerated together) spread out.
    rng = random.Random(seed)
    grouped: Dict[int, List[Sequence[Prefix]]] = {}
    for component in components:
        grouped.setdefault(len(component), []).append(component)
    ordered: List[Sequence[Prefix]] = []
    for size in sorted(grouped, reverse=True):
        bucket = grouped[size]
        rng.shuffle(bucket)
        ordered.extend(bucket)

    num_shards = min(num_shards, max(1, len(ordered)))
    bins: List[List[Prefix]] = [[] for _ in range(num_shards)]
    sizes = [0] * num_shards
    for component in ordered:
        smallest = min(range(num_shards), key=lambda i: (sizes[i], i))
        bins[smallest].extend(component)
        sizes[smallest] += len(component)
    return [
        PrefixShard(index=i, prefixes=frozenset(prefixes))
        for i, prefixes in enumerate(bins)
        if prefixes
    ]


def shard_queries(sources: Sequence[str], num_shards: int) -> List[Tuple[str, ...]]:
    """Split a DPV query workload (its source nodes) into balanced shards.

    Reachability from different sources is embarrassingly parallel in
    time but not in *memory*: every query grows the worker engines with
    intermediate BDD nodes.  Running the sources shard-by-shard puts a
    ``reset_dataplane_run`` boundary between shards, where a worker
    collects its engine once the node table has grown past
    ``_GC_GROWTH`` times the live predicate footprint — so peak node
    counts stay bounded by that multiple instead of growing with the
    query count, while shards in between share a warm engine.

    Round-robin over a sorted copy: deterministic, and adjacent hostnames
    (which tend to be topologically close and share forwarding state)
    spread across shards.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    ordered = sorted(sources)
    if not ordered:
        return []
    bins: List[List[str]] = [[] for _ in range(min(num_shards, len(ordered)))]
    for index, source in enumerate(ordered):
        bins[index % len(bins)].append(source)
    return [tuple(group) for group in bins]


def validate_shards(
    shards: Sequence[PrefixShard], snapshot: Snapshot
) -> List[str]:
    """Check shard invariants; returns human-readable problems (empty=ok).

    Every network prefix appears in exactly one shard, and every DPDG
    edge's endpoints co-shard.
    """
    problems: List[str] = []
    owner: Dict[Prefix, int] = {}
    for shard in shards:
        for prefix in shard.prefixes:
            if prefix in owner:
                problems.append(
                    f"{prefix} in shards {owner[prefix]} and {shard.index}"
                )
            owner[prefix] = shard.index
    expected = collect_network_prefixes(snapshot)
    for prefix in expected:
        if prefix not in owner:
            problems.append(f"{prefix} missing from all shards")
    dpdg = build_dpdg(snapshot)
    for depends, on in dpdg.edges:
        if owner.get(depends) != owner.get(on):
            problems.append(
                f"dependency {depends} -> {on} split across shards "
                f"{owner.get(depends)} and {owner.get(on)}"
            )
    return problems
