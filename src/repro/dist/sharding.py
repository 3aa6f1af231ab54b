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

A resident verifier repacks at every epoch, and the packing is *sticky*
there: given the previous epoch's shards, a component that was already
placed keeps its shard index (the lowest one, when it now spans several
old shards), only new components go through the LPT rule (onto the
lightest shard, so emptied bins fill first), and a withdrawn prefix just
leaves its shard.  One dirty prefix therefore dirties one shard, and
every other shard keeps both its index and its prefix list, so its
flushed results carry over unchanged.  Sticky packing drifts from the
balance LPT would reach; when its largest shard exceeds the cold
packing's largest plus the largest component, the epoch takes the cold
packing instead.

A shard is the unit of flushing and carry-over, not of convergence: the
CPO converges as many shards as the modeled worker ceiling admits as one
fixed point (:func:`plan_batches`), bounding each worker by its
:func:`route_slots` per prefix — a union of shards is a valid shard.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from ..config.loader import Snapshot
from ..net.ip import Prefix
from ..routing.engine import collect_network_prefixes
from ..routing.node import resolve_neighbors


@dataclass(frozen=True)
class PrefixShard:
    """One shard: an id plus its prefix set."""

    index: int
    prefixes: FrozenSet[Prefix]

    def __len__(self) -> int:
        return len(self.prefixes)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self.prefixes

    def prefix_list(self) -> List[str]:
        """The prefix set as sorted text: what the run manifest records
        per flush index, and what a resumed or next-epoch run compares
        before trusting that index's flushed results."""
        return sorted(str(p) for p in self.prefixes)

    def fingerprint(self) -> str:
        """Short content digest of :meth:`prefix_list` (index-independent),
        for logs and tests that compare packings across epochs."""
        text = "\n".join(self.prefix_list())
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
    §7's runtime refinement exists for (tests pack shards from it to
    provoke the unforeseen dependencies that grow a CPO batch).
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
    previous: Sequence[PrefixShard] = (),
) -> List[PrefixShard]:
    """Partition the snapshot's prefixes into ``num_shards`` shards.

    Dependent prefixes always co-shard; components are placed largest
    first onto the currently smallest shard, with equal-size components
    shuffled (§4.5).  Returns fewer shards than requested when there are
    fewer components.  With ``previous`` (the last epoch's shards) the
    packing is sticky, see :func:`pack_components`.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    dpdg = build_dpdg(snapshot, include_conditionals=include_conditionals)
    components = dpdg.weakly_connected_components()
    return pack_components(components, num_shards, seed, previous=previous)


def pack_components(
    components: Sequence[Sequence[Prefix]],
    num_shards: int,
    seed: int = 11,
    previous: Sequence[PrefixShard] = (),
) -> List[PrefixShard]:
    """Greedy LPT packing of dependency components into shards.

    Without ``previous`` this is the cold packing.  With it, a component
    holding a prefix of a previous shard keeps that shard's index (the
    lowest such index when it spans several), and only the remaining
    components are placed by LPT, onto the lightest of all
    ``num_shards`` bins.  If the sticky packing's largest shard exceeds
    the cold packing's largest plus the largest component, the cold
    packing is returned instead (the drift bound).
    """
    cold = _place(
        _lpt_order(components, seed),
        [[] for _ in range(min(num_shards, max(1, len(components))))],
    )
    if not previous or not components:
        return cold
    owner = {
        prefix: shard.index
        for shard in previous
        if shard.index < num_shards
        for prefix in shard.prefixes
    }
    bins: List[List[Prefix]] = [[] for _ in range(num_shards)]
    new: List[Sequence[Prefix]] = []
    for component in components:
        placed = [owner[p] for p in component if p in owner]
        if placed:
            bins[min(placed)].extend(component)
        else:
            new.append(component)
    sticky = _place(_lpt_order(new, seed), bins)
    largest = max(len(component) for component in components)
    if max(map(len, sticky)) > max(map(len, cold)) + largest:
        return cold
    return sticky


def route_slots(
    snapshot: Snapshot, assignment: Dict[str, int]
) -> Dict[int, int]:
    """Per worker, an upper bound on the candidate routes it holds *per
    prefix* while a shard converges (what ``Worker.update_memory``
    counts): one adj-RIB-in entry per session of its nodes (``BgpRib``
    keeps at most one path per (neighbor, prefix)), one local
    origination key per node, and one mailbox entry per session a
    node on another worker exports to one of its nodes."""
    slots: Dict[int, int] = {}
    for hostname, owner in assignment.items():
        slots.setdefault(owner, 0)
        config = snapshot.configs.get(hostname)
        if config is None:
            continue
        slots[owner] += 1
        for _neighbor, peer, _iface, _addr in resolve_neighbors(
            config, snapshot.topology
        ):
            slots[owner] += 1
            target = assignment.get(peer)
            if target is not None and target != owner:
                slots[target] = slots.get(target, 0) + 1
    return slots


def plan_batches(
    shards: Sequence[PrefixShard], limits: Sequence[Tuple[int, int]]
) -> List[List[PrefixShard]]:
    """Group ``shards``, in order, into batches that converge as one
    fixed point each.

    ``limits`` holds one ``(free bytes, bytes per prefix)`` pair per
    worker; a shard joins the current batch while the batch's prefix
    count times every worker's bytes per prefix stays within its free
    bytes.  A batch always holds at least one shard, so a ceiling that
    admits no two shards gives one shard per batch — the per-shard run.
    """
    batches: List[List[PrefixShard]] = []
    size = 0
    for shard in shards:
        grown = size + len(shard)
        if batches and all(
            grown * per_prefix <= free for free, per_prefix in limits
        ):
            batches[-1].append(shard)
            size = grown
        else:
            batches.append([shard])
            size = len(shard)
    return batches


def _lpt_order(
    components: Sequence[Sequence[Prefix]], seed: int
) -> List[Sequence[Prefix]]:
    """Largest first; runs of equal-size components shuffled so prefixes
    originated by the same switch (which tend to be enumerated together)
    spread out."""
    rng = random.Random(seed)
    grouped: Dict[int, List[Sequence[Prefix]]] = {}
    for component in components:
        grouped.setdefault(len(component), []).append(component)
    ordered: List[Sequence[Prefix]] = []
    for size in sorted(grouped, reverse=True):
        bucket = grouped[size]
        rng.shuffle(bucket)
        ordered.extend(bucket)
    return ordered


def _place(
    ordered: Sequence[Sequence[Prefix]], bins: List[List[Prefix]]
) -> List[PrefixShard]:
    """Put each component onto the currently smallest bin (lowest index
    on ties); empty bins yield no shard."""
    sizes = [len(contents) for contents in bins]
    for component in ordered:
        smallest = min(range(len(bins)), key=lambda i: (sizes[i], i))
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

    Every network prefix appears in exactly one shard, no shard holds a
    prefix the snapshot's DPDG lacks (a stored packing of another
    snapshot), and every DPDG edge's endpoints co-shard.
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
    for prefix in sorted(owner.keys() - dpdg.prefixes):
        problems.append(
            f"{prefix} in shard {owner[prefix]} is not in the snapshot"
        )
    for depends, on in dpdg.edges:
        if owner.get(depends) != owner.get(on):
            problems.append(
                f"dependency {depends} -> {on} split across shards "
                f"{owner.get(depends)} and {owner.get(on)}"
            )
    return problems
