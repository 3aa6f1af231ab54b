"""Port predicate compilation (§4.3, "pre-computing predicates").

For each device the verifier derives, from its FIB and ACLs:

* a **forwarding predicate** per port — the packets LPM-forwarded out of it;
* **ACL predicates** per port — the packets permitted inbound/outbound;
* a **receive predicate** — packets terminating at this device (Arrive);
* a **drop predicate** — packets discarded here (Blackhole), including the
  implicit drop of packets matching no FIB entry.

Compilation realizes exact LPM semantics as a disjoint partition —
forwarding + receive + drop predicates tile the full header space — by
walking the FIB's binary *trie* bottom-up, and a deeper entry overrides
its ancestors by construction.  The regions are kept per forwarding
*action*, not per entry: entries that drop, receive, or leave by the
same egress interfaces share one region, so a trie node merges its
children with one hash-consing ``mk`` call per action class.  The
partition itself costs no BDD apply operation; an interface that sits in
several classes (distinct ECMP sets sharing it) is the only union left.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from ..bdd.engine import FALSE, OP_OR, TRUE, BddEngine
from ..bdd.headerspace import HeaderEncoding
from ..config.ast import DeviceConfig
from .fib import Fib, FibAction


@dataclass
class PortPredicates:
    """The compiled predicates of one device on one worker's engine."""

    node: str
    forward: Dict[str, int] = field(default_factory=dict)  # iface -> BDD
    acl_in: Dict[str, int] = field(default_factory=dict)
    acl_out: Dict[str, int] = field(default_factory=dict)
    receive: int = FALSE
    drop: int = FALSE

    def acl_in_for(self, iface: Optional[str]) -> int:
        """Inbound permit predicate (TRUE for injected/unfiltered ports)."""
        if iface is None:
            return TRUE
        return self.acl_in.get(iface, TRUE)

    def acl_out_for(self, iface: str) -> int:
        return self.acl_out.get(iface, TRUE)

    # -- GC support ------------------------------------------------------

    def roots(self) -> Iterator[int]:
        """Every BDD id this predicate set holds (the engine GC roots)."""
        yield self.receive
        yield self.drop
        yield from self.forward.values()
        yield from self.acl_in.values()
        yield from self.acl_out.values()

    def remap(self, remap: Dict[int, int]) -> None:
        """Rewrite held ids after an engine compaction."""
        self.receive = remap[self.receive]
        self.drop = remap[self.drop]
        for table in (self.forward, self.acl_in, self.acl_out):
            for key, value in table.items():
                table[key] = remap[value]


def compile_predicates(
    config: DeviceConfig,
    fib: Fib,
    engine: BddEngine,
    encoding: HeaderEncoding,
) -> PortPredicates:
    """Compile one device's FIB and ACLs into :class:`PortPredicates`."""
    predicates = PortPredicates(node=fib.node)
    # One encoding covers one address family; the other family's FIB
    # entries belong to that family's verification pass.
    base = encoding.field_base("dst")
    width = encoding.address_bits
    mk = engine.mk
    # Action -> class id in first-seen trie order: drop (class 0, which
    # also covers "no entry matches"), receive, or the egress interfaces.
    # Small-int keys merge in the same order in every process, which
    # sets keyed by entries or by None (hashed by address) would not.
    classes: Dict[object, int] = {FibAction.DROP: 0}

    def walk(node, depth: int, inherited: int) -> Dict[int, int]:
        """Class id -> the packets below ``node`` whose LPM action it is."""
        if node is None:
            return {inherited: TRUE}
        entry = node.entry
        if entry is not None:
            action = entry.action
            if action is FibAction.FORWARD:
                action = tuple(hop.iface for hop in entry.next_hops)
            inherited = classes.setdefault(action, len(classes))
        if depth == width:
            return {inherited: TRUE}
        low = walk(node.children[0], depth + 1, inherited)
        high = walk(node.children[1], depth + 1, inherited)
        var = base + depth
        return {
            key: mk(var, low.get(key, FALSE), high.get(key, FALSE))
            for key in low.keys() | high.keys()
        }

    regions = walk(fib.trie_root(width), 0, 0)
    # The class regions are disjoint, so drop and receive are single
    # regions; an interface in several classes is the only apply work.
    forward_regions: Dict[str, List[int]] = {}
    for action, key in classes.items():
        region = regions.get(key, FALSE)
        if action is FibAction.DROP:
            predicates.drop = region
        elif action is FibAction.RECEIVE:
            predicates.receive = region
        elif region != FALSE:
            for iface in action:
                forward_regions.setdefault(iface, []).append(region)
    # In port order: the hop kernel walks ``forward`` as it stands.
    for iface, iface_regions in sorted(forward_regions.items()):
        predicates.forward[iface] = engine.apply_many(OP_OR, iface_regions)

    for iface in config.interfaces.values():
        if iface.acl_in is not None and iface.acl_in in config.acls:
            predicates.acl_in[iface.name] = encoding.acl_bdd(
                engine, config.acls[iface.acl_in]
            )
        if iface.acl_out is not None and iface.acl_out in config.acls:
            predicates.acl_out[iface.name] = encoding.acl_bdd(
                engine, config.acls[iface.acl_out]
            )
    return predicates
